"""Simulation configuration and validation."""

import math
from dataclasses import dataclass, field, fields

from . import adversary
from .errors import ConfigError

NODE_COUNT_SWEEP = (20, 40, 60, 80, 100)


@dataclass
class SimConfig:
    """One run's worth of knobs. Defaults follow the reference setup:
    500x500 m field, CBR over 512-byte packets on a 2 Mbps channel,
    random-waypoint motion at 10-30 m/s with 1 s pauses, per-node transmit
    power 300-600 mW, receive power 50-300 mW, 5-10 J batteries, greeting
    beacons every 10 ms.
    """
    node_count: int = 20
    area: tuple = (500.0, 500.0)
    seed: int = 1
    sim_duration: float = 100.0

    # radio
    channel_capacity: float = 2_000_000.0   # bits per second
    radio_range: float = 75.0               # meters
    recv_power_floor: float = 1e-4          # mW
    friis_k: float = 1.0
    path_loss_q: int = 2
    tx_power_range: tuple = (300.0, 600.0)  # mW, drawn once per node
    rx_power_range: tuple = (50.0, 300.0)   # mW, drawn once per node

    # mobility
    speed_range: tuple = (10.0, 30.0)       # m/s; (0, 0) pins nodes in place
    pause_time: float = 1.0
    topology_interval: float = 0.1          # movement + membership upkeep cadence

    # packets
    packet_size: int = 512
    hello_size: int = 32
    control_size: int = 32
    hello_interval: float = 0.01
    hello_window: int = 100

    # energy
    initial_energy_range: tuple = (5.0, 10.0)   # joules
    energy_overrides: dict = field(default_factory=dict)

    # traffic: CBR sessions of session_packets DATA packets each,
    # back to back per source until the clock or the trust runs out
    cbr_interval: float = 0.25
    source_fraction: float = 0.1
    session_packets: int = 20
    sessions_per_source: int | None = None   # None = until sim end
    traffic_start: float = 1.0
    traffic: list | None = None              # explicit [(src, dst), ...]

    # adversaries
    malicious_fraction: float = 0.0
    attack: str = "black_hole"
    adversaries: list = field(default_factory=list)  # explicit placement dicts
    slander_interval: float = 0.5
    spoof_interval: float = 0.5
    flood_interval: float = 0.1
    flood_rate: float = 100.0
    grey_drop_rate: float = 1.0

    # detection
    detection_enabled: bool = True
    ack_timeout_factor: float = 4.0
    accusation_threshold: int = 3
    energy_high_threshold: float = 0.5
    velocity_low_threshold: float = 5.0
    nuisance_limit: int = 5
    blacklist_limit: float = 0.1

    # election
    weight_energy: float = 0.25
    weight_trust: float = 0.25
    weight_mobility: float = 0.25
    weight_dnc: float = 0.25

    # explicit placement for bench scenarios: [(x, y)] per node id
    positions: list | None = None

    def validate(self):
        def positive(name):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number above zero")

        def pair(name, value):
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_finite, value))):
                raise ConfigError(f"{name} must be two finite numbers")

        if self.node_count < 1:
            raise ConfigError("node_count must be at least 1")
        for name in ("sim_duration", "channel_capacity", "radio_range",
                     "hello_interval", "topology_interval", "cbr_interval",
                     "packet_size", "hello_size", "control_size",
                     "ack_timeout_factor", "slander_interval", "spoof_interval",
                     "flood_interval", "friis_k", "recv_power_floor"):
            positive(name)
        if self.path_loss_q not in (2, 3, 4):
            raise ConfigError("path_loss_q must be 2, 3 or 4")
        for name in ("tx_power_range", "rx_power_range", "speed_range",
                     "initial_energy_range"):
            pair(name, getattr(self, name))
            lo, hi = getattr(self, name)
            if lo > hi or hi < 0:
                raise ConfigError(f"{name} must be an ordered non-negative range")
        pair("area", self.area)
        width, height = self.area
        if width < 0 or height < 0:
            raise ConfigError("area must be a non-negative [width, height]")
        if self.initial_energy_range[1] <= 0:
            raise ConfigError("initial_energy_range must allow positive energy")
        for name in ("malicious_fraction", "source_fraction", "grey_drop_rate",
                     "energy_high_threshold", "blacklist_limit"):
            _fraction(name, getattr(self, name))
        for name, least in (("session_packets", 1), ("hello_window", 2),
                            ("accusation_threshold", 1), ("nuisance_limit", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                # a hello_window under 2 would silently drop pairwise mobility
                raise ConfigError(f"{name} must be an integer of at least {least}")
        spp = self.sessions_per_source
        if spp is not None and (isinstance(spp, bool) or not isinstance(spp, int)
                                or spp < 1):
            raise ConfigError("sessions_per_source must be null or an integer of at least 1")
        for name in ("traffic_start", "pause_time", "flood_rate"):
            _at_least_zero(name, getattr(self, name))
        if self.positions is not None:
            if (not isinstance(self.positions, (list, tuple))
                    or len(self.positions) != self.node_count):
                raise ConfigError("positions must list one (x, y) per node")
            for i, pos in enumerate(self.positions):
                pair(f"positions[{i}]", pos)
        if not isinstance(self.energy_overrides, dict):
            raise ConfigError("energy_overrides must be a mapping of node id to joules")
        for name in ("weight_energy", "weight_trust", "weight_mobility", "weight_dnc"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0):
                # NaN and +inf against -inf would slip past the sum check
                raise ConfigError(f"{name} must be a finite non-negative number")
        total = (self.weight_energy + self.weight_trust + self.weight_mobility
                 + self.weight_dnc)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"election weights sum to {total}, expected 1")
        self._validate_references()
        return self

    def _validate_references(self):
        """Attack kinds and every node id the config names must exist."""
        n = self.node_count
        kinds = ", ".join(adversary.KINDS)

        def node_id(key, value):
            if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n:
                raise ConfigError(f"{key} {value!r} is not a node id in [0, {n})")

        if self.attack not in adversary.KINDS:
            raise ConfigError(f"attack {self.attack!r} is not one of {kinds}")
        if (self.attack == adversary.SPOOF and not self.adversaries
                and int(round(self.malicious_fraction * n)) >= n):
            # fraction placement picks each spoofer's victim among the rest
            raise ConfigError(f"malicious_fraction {self.malicious_fraction} plants "
                              f"all {n} nodes, leaving attack 'spoof' no victim")
        for i, spec in enumerate(self.adversaries):
            where = f"adversaries[{i}]"
            if not isinstance(spec, dict):
                raise ConfigError(f"{where} must be a mapping")
            kind = spec.get("kind")
            if kind not in adversary.KINDS:
                raise ConfigError(f"{where}.kind {kind!r} is not one of {kinds}")
            node_id(f"{where}.node", spec.get("node"))
            for key in ("peer", "victim"):
                if spec.get(key) is not None:
                    node_id(f"{where}.{key}", spec[key])
            for target in spec.get("targets", ()):
                node_id(f"{where}.targets", target)
            if "rate" in spec:
                _at_least_zero(f"{where}.rate", spec["rate"])
            if "drop_rate" in spec:
                _fraction(f"{where}.drop_rate", spec["drop_rate"])
            needs = {adversary.WORMHOLE: "peer", adversary.SPOOF: "victim"}.get(kind)
            if needs is not None and spec.get(needs) is None:
                raise ConfigError(f"{where}.{needs} is required for kind {kind!r}")
        for i, pair in enumerate(self.traffic or ()):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"traffic[{i}] must be a [src, dst] pair")
            node_id(f"traffic[{i}] src", pair[0])
            node_id(f"traffic[{i}] dst", pair[1])
            if pair[0] == pair[1]:
                raise ConfigError(f"traffic[{i}] sends from node {pair[0]} to itself")
        for key, joules in self.energy_overrides.items():
            node_id("energy_overrides key", key)
            if not (_finite(joules) and joules >= 0):
                raise ConfigError(f"energy_overrides[{key}] must be a finite "
                                  f"non-negative number of joules")


def _finite(value):
    """Whether value is a finite int or float (a bool is neither here)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _at_least_zero(key, value):
    if not (_finite(value) and value >= 0):
        raise ConfigError(f"{key} must be a finite number of at least zero")


def _fraction(key, value):
    if not (_finite(value) and 0 <= value <= 1):
        raise ConfigError(f"{key} must be a finite number within [0, 1]")


CONFIG_FIELDS = tuple(f.name for f in fields(SimConfig))
