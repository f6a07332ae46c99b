"""Reference radio formulas, one sample at a time: the Friis received
power, the distance estimate that inverts it, the sliding HELLO history
with its pairwise mobility (MOBIC), and the energy bill of one send or
receive.  The engine computes the first two once per linked pair in
`World._rebuild_adjacency`, keeps histories as runs (`beacon.HelloRuns`)
and bills batteries from byte counters (`beacon.Battery`); these are the
oracles the tests hold that code to.
"""

from dataclasses import dataclass, field

from manetsim.errors import SimulationError

# Sliding window of HELLO distance samples kept per neighbor.
HELLO_WINDOW = 100


class DegenerateDistance(SimulationError):
    """Propagation distance is zero or negative."""


class InvalidSignal(SimulationError):
    """Received power is zero or negative, distance cannot be estimated."""


class InsufficientSamples(SimulationError):
    """Fewer than two distance samples, no mobility estimate possible."""


def friis_recv_power(trans_power, dist, cfg):
    """Received power in the transmitter's units at distance dist, with
    the `SimConfig` cfg's `friis_k` and `path_loss_q`."""
    if dist <= 0:
        raise DegenerateDistance(f"dist={dist}, nodes co-located or closer")
    return cfg.friis_k * trans_power / dist ** cfg.path_loss_q


def estimate_distance(trans_power, recv_power, cfg):
    """Distance implied by a received-power reading, inverse of the Friis model."""
    if recv_power <= 0:
        raise InvalidSignal(f"recv_power={recv_power}")
    return (cfg.friis_k * trans_power / recv_power) ** (1.0 / cfg.path_loss_q)


@dataclass
class HelloHistory:
    """Sliding window of distance estimates for one neighbor.

    Samples are (index, dist) pairs with indices re-based to 1..n whenever
    the window evicts the oldest entry, so the telescoped mobility formula
    below always sees a contiguous run.
    """
    neighbor_id: int
    window: int = HELLO_WINDOW
    dists: list = field(default_factory=list)

    @property
    def samples(self):
        return [(i + 1, d) for i, d in enumerate(self.dists)]


def record_hello(history, dist):
    """Append one distance sample, evicting the oldest past the window."""
    history.dists.append(dist)
    if len(history.dists) > history.window:
        del history.dists[0]
    return history


def pairwise_mobility(history, t):
    """Average radial speed of the neighbor over the recorded window.

    Defined as sum(dist_i - dist_{i-1}) / (n * t) over consecutive samples,
    which telescopes to (dist_n - dist_1) / (n * t).  Negative values mean
    the neighbor is approaching.
    """
    n = len(history.dists)
    if n < 2:
        raise InsufficientSamples(f"{n} sample(s) for neighbor {history.neighbor_id}")
    if t <= 0:
        raise ValueError("hello interval must be positive")
    return (history.dists[-1] - history.dists[0]) / (n * t)


def energy_bill(node, role, nbytes, cfg):
    """Joules one send ("tx") or receive of nbytes costs the node: power
    (mW) times airtime (s), the airtime being nbytes * 8 / channel
    capacity."""
    power_mw = node.tx_power if role == "tx" else node.rx_power
    return power_mw / 1000.0 * (nbytes * 8 / cfg.channel_capacity)
