"""Any small configuration that passes validation runs to completion, and the
metrics re-derived from its event log agree with the ones `collect()`
returns.  Rates and the waypoint pause are drawn finite and must run; the
same keys set to a value that is not finite must fail validation, and so
must the radio constants, the integer counts and the detection thresholds."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manetsim import adversary
from manetsim.config import SimConfig
from manetsim.engine import World
from manetsim.errors import ConfigError
from manetsim.metrics import metrics_from_log

small_configs = st.builds(
    SimConfig,
    node_count=st.sampled_from((12, 9, 6, 3, 1)),
    area=st.sampled_from(((80.0, 80.0), (120.0, 150.0), (300.0, 300.0))),
    seed=st.integers(1, 10 ** 6),
    sim_duration=st.floats(0.3, 1.0),
    speed_range=st.sampled_from(((0.0, 0.0), (1.0, 5.0), (10.0, 30.0))),
    pause_time=st.one_of(st.sampled_from((0.0, 0.2, 1.0)), st.floats(0.0, 2.0)),
    topology_interval=st.sampled_from((0.05, 0.1, 0.3)),
    hello_interval=st.sampled_from((0.01, 0.05, 0.2)),
    hello_window=st.sampled_from((1, 2, 5, 100)),
    initial_energy_range=st.sampled_from(((5.0, 10.0), (0.002, 0.02))),
    traffic_start=st.floats(0.0, 0.3),
    source_fraction=st.sampled_from((0.3, 0.6, 1.0, 0.0)),
    cbr_interval=st.sampled_from((0.02, 0.1)),
    session_packets=st.integers(1, 5),
    malicious_fraction=st.one_of(st.sampled_from((0.25, 0.5, 1.0, 0.0)),
                                 st.floats(0.0, 1.0)),
    attack=st.sampled_from(adversary.KINDS),
    grey_drop_rate=st.one_of(st.sampled_from((0.5, 1.0)), st.floats(0.0, 1.0)),
    flood_rate=st.one_of(st.sampled_from((100.0, 0.0)), st.floats(0.0, 300.0)),
    slander_interval=st.sampled_from((0.05, 0.5)),
    spoof_interval=st.sampled_from((0.05, 0.5)),
    detection_enabled=st.booleans(),
    accusation_threshold=st.integers(1, 3),
    velocity_low_threshold=st.sampled_from((5.0, 1000.0)),
)


# every node a spoofer leaves none to impersonate: rejected, not a crash
@example(SimConfig(node_count=6, sim_duration=0.5, malicious_fraction=1.0,
                   attack=adversary.SPOOF))
@settings(max_examples=200, deadline=None)
@given(small_configs)
def test_valid_small_configs_run_and_agree_with_their_log(cfg):
    try:
        cfg.validate()
    except ConfigError:
        return
    world = World(cfg)
    m = world.run()
    derived = metrics_from_log(world.events_log)
    assert derived["generated"] == m.generated
    assert derived["delivered"] == m.delivered
    assert derived["throughput"] == m.throughput
    assert derived["detection_rate"] == m.detection_rate
    assert derived["false_positives"] == m.false_positives
    assert derived["blacklisted"] == m.blacklisted
    assert derived["mean_e2e_delay"] == pytest.approx(m.mean_e2e_delay)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key, kind", [
    ("pause_time", None), ("flood_rate", None), ("grey_drop_rate", None),
    ("rate", adversary.TABLE_OVERFLOW), ("drop_rate", adversary.GREY_HOLE),
])
def test_non_finite_rates_and_pause_fail_validation(key, kind, value):
    cfg = SimConfig(node_count=6, sim_duration=0.5)
    if kind is None:
        setattr(cfg, key, value)
    else:
        cfg.adversaries = [{"node": 1, "kind": kind, key: value}]
    with pytest.raises(ConfigError, match=key):
        cfg.validate()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", [
    "friis_k", "recv_power_floor", "session_packets", "hello_window",
    "accusation_threshold", "nuisance_limit", "blacklist_limit",
    "energy_high_threshold",
])
def test_non_finite_radio_counts_and_thresholds_fail_validation(key, value):
    cfg = SimConfig(node_count=6, sim_duration=0.5)
    setattr(cfg, key, value)
    with pytest.raises(ConfigError, match=key):
        cfg.validate()
