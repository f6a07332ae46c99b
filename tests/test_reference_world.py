"""Whole runs on the engine against whole runs on the reference algorithms
(`reference_world.py`): the event logs, the `Metrics`, every battery and
every head's ledger must come out equal.

The configs are drawn like those of `test_fuzz.py`, with batteries small
enough that beacons and traffic empty them mid-run, and every attack kind,
HELLO spoofers among them.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import desk_config, events_of
from manetsim import adversary, detection
from manetsim.config import SimConfig
from manetsim.engine import World
from manetsim.errors import ConfigError
from reference_world import ReferenceWorld
from test_golden import depletion_config

whole_runs = st.builds(
    SimConfig,
    node_count=st.sampled_from((20, 12, 9, 6, 3)),
    area=st.sampled_from(((80.0, 80.0), (120.0, 150.0), (300.0, 300.0))),
    seed=st.integers(1, 10 ** 6),
    sim_duration=st.floats(0.5, 2.0),
    speed_range=st.sampled_from(((0.0, 0.0), (1.0, 5.0), (10.0, 30.0))),
    pause_time=st.sampled_from((0.0, 0.2, 1.0)),
    topology_interval=st.sampled_from((0.05, 0.1, 0.3)),
    hello_interval=st.sampled_from((0.01, 0.05, 0.2)),
    hello_window=st.sampled_from((2, 5, 100)),
    initial_energy_range=st.sampled_from(((5.0, 10.0), (0.002, 0.02),
                                          (0.0002, 0.004))),
    traffic_start=st.floats(0.0, 0.3),
    source_fraction=st.sampled_from((0.3, 0.6, 1.0, 0.0)),
    cbr_interval=st.sampled_from((0.02, 0.1)),
    session_packets=st.integers(1, 5),
    malicious_fraction=st.sampled_from((0.25, 0.5, 0.0)),
    attack=st.sampled_from(adversary.KINDS + (adversary.SPOOF,) * 3),
    grey_drop_rate=st.sampled_from((0.5, 1.0)),
    spoof_interval=st.sampled_from((0.05, 0.5)),
    detection_enabled=st.booleans(),
    accusation_threshold=st.integers(1, 3),
    velocity_low_threshold=st.sampled_from((5.0, 1000.0)),
)


def batteries(world):
    return {nid: (n.energy_expended, n.tx_bytes, n.rx_bytes)
            for nid, n in world.nodes.items()}


def ledgers(world):
    """What each head wrote down at every handover, residual energy and
    relative speed of the custodian among it."""
    return {ch: [(e.packet_id, e.gateway, e.res_eng, e.rel_mobility,
                  e.ack_status, e.context) for e in st.ledger.by_packet.values()]
            for ch, st in world.ch_state.items()}


def run_both(cfg):
    fast, ref = World(cfg), ReferenceWorld(cfg)
    return fast, fast.run(), ref, ref.run()


# spoofers next to heads, batteries that run dry in HELLO rounds
@example(SimConfig(node_count=12, area=(80.0, 80.0), seed=11, sim_duration=1.0,
                   speed_range=(0.0, 0.0), hello_interval=0.01,
                   initial_energy_range=(0.0002, 0.004), source_fraction=0.3,
                   cbr_interval=0.02, traffic_start=0.1,
                   malicious_fraction=0.25, attack=adversary.SPOOF))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(whole_runs)
def test_engine_run_matches_reference_run(cfg):
    try:
        cfg.validate()
    except ConfigError:
        return
    fast, m_fast, ref, m_ref = run_both(cfg)
    assert fast.events_log == ref.events_log
    assert m_fast == m_ref
    assert batteries(fast) == batteries(ref)
    assert ledgers(fast) == ledgers(ref)


def test_pinned_depletion_cell_matches_reference():
    """Forty nodes whose batteries all run dry within three seconds."""
    fast, m_fast, ref, m_ref = run_both(depletion_config())
    assert fast.events_log == ref.events_log
    assert m_fast == m_ref
    assert batteries(fast) == batteries(ref)
    assert ledgers(fast) == ledgers(ref)


class ConvictsAHead:
    """Convicts the honest head 7 of the desk bench (blob B) right before
    the tenth topology tick, the way `detection.punish` does it after a
    MALICIOUS verdict, issued by head 0."""

    ticks = 0

    def _topo_tick(self):
        self.ticks += 1
        if self.ticks == 10:
            assert sorted(self.clusters) == [0, 7, 14, 21]
            self.ejected_at = self.now
            detection.punish(self, detection.Verdict(
                detection.MALICIOUS, 7, reason="culpable_timeouts"), 0)
        super()._topo_tick()


class FastConvicting(ConvictsAHead, World):
    pass


class ReferenceConvicting(ConvictsAHead, ReferenceWorld):
    pass


def test_head_ejected_between_ticks_reforms_like_the_full_pass():
    """A static field, so no rebuild follows the ejection: blob B's members
    must elect a new head on the very next tick, as the full pass has it,
    and the run must go on exactly as the reference's."""
    cfg = desk_config()
    fast, ref = FastConvicting(cfg), ReferenceConvicting(cfg)
    m_fast, m_ref = fast.run(), ref.run()
    assert fast.events_log == ref.events_log
    assert m_fast == m_ref
    assert batteries(fast) == batteries(ref)
    assert ledgers(fast) == ledgers(ref)
    reformed = [(d["change"], d["detail"])
                for t, d in events_of(fast.events_log, "topology")
                if t == fast.ejected_at]
    assert reformed == [("member_joined", (28, 14)),
                        ("head_elected", (8, (9, 10, 11, 12, 13)))]
    assert m_fast.blacklisted == (7,)
    assert [fast.nodes[n].cluster for n in range(7, 14)] == [None] + [8] * 6
