"""Folded beacon rounds against the per-reception reference round, and HELLO
runs against the sample-by-sample history.

Small random worlds with spoofers and near-empty batteries go through the
same sequence of topology ticks and HELLO rounds twice, once with the
engine's `_hello_round` and once with `reference_hello_round`; every
float, sample and log line must come out equal.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from beacon_reference import reference_hello_round
from manetsim import adversary
from manetsim.beacon import HelloRuns
from manetsim.config import SimConfig
from manetsim.engine import World, energy_bill
from manetsim.radio import HelloHistory, pairwise_mobility, record_hello


@st.composite
def worlds(draw):
    n = draw(st.integers(2, 10))
    side = draw(st.floats(30.0, 150.0))
    moving = draw(st.booleans())
    overrides = draw(st.dictionaries(st.integers(0, n - 1),
                                     st.floats(0.0, 0.0004), max_size=n))
    spoofers = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
    placements = [{"node": s, "kind": adversary.SPOOF,
                   "victim": draw(st.integers(0, n - 1))} for s in spoofers]
    cfg = SimConfig(node_count=n, area=(side, side), seed=draw(st.integers(0, 999)),
                    sim_duration=1.0, radio_range=draw(st.floats(20.0, 120.0)),
                    speed_range=(5.0, 30.0) if moving else (0.0, 0.0),
                    initial_energy_range=(0.0001, draw(st.floats(0.0002, 0.003))),
                    energy_overrides=overrides, adversaries=placements,
                    hello_window=draw(st.integers(2, 4)))
    ops = draw(st.lists(st.sampled_from(("hello", "hello", "topo")),
                        min_size=1, max_size=12))
    return cfg, ops


def drive(cfg, ops, hello_round):
    world = World(cfg)
    world.populate()
    world._sweep_topology()
    for i, op in enumerate(ops):
        world.now = (i + 1) * cfg.hello_interval
        if op == "topo":
            world._sweep_topology()
        else:
            hello_round(world)
    return world


def beacon_state(world):
    world.beacons.fold_all()
    return {nid: (n.energy_expended, n.tx_bytes, n.rx_bytes,
                  # an empty history reads as no history to every reader
                  {k: list(h.dists) for k, h in n.hello.items() if h.dists},
                  dict(n.neighbor_res))
            for nid, n in world.nodes.items()}


# a desk-sized cluster where a spoofer sits next to its head and two
# batteries run dry mid-round
SPOOF_AND_DEPLETION = (
    SimConfig(node_count=6, area=(40.0, 40.0), seed=4, sim_duration=1.0,
              radio_range=100.0, speed_range=(0.0, 0.0),
              initial_energy_range=(0.0001, 0.002),
              energy_overrides={2: 0.0001, 4: 0.00015},
              adversaries=[{"node": 3, "kind": adversary.SPOOF, "victim": 5}],
              hello_window=2),
    ["hello", "hello", "topo", "hello", "hello", "hello"])


def exact_empty_case():
    """Node 0's battery holds exactly one HELLO send and node 2's exactly one
    send plus one receive, so both run dry to the last bit, in the send
    loop and in the receive loop, and each must log its depletion."""
    cfg = SimConfig(node_count=3, positions=[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                    area=(50.0, 50.0), speed_range=(0.0, 0.0),
                    tx_power_range=(400.0, 400.0), rx_power_range=(100.0, 100.0),
                    sim_duration=1.0, seed=1)
    world = World(cfg)
    world.populate()
    tx = energy_bill(world.nodes[0], "tx", cfg.hello_size, cfg)
    rx = energy_bill(world.nodes[0], "rx", cfg.hello_size, cfg)
    cfg.energy_overrides = {0: tx, 2: tx + rx}
    return cfg, ["hello", "hello"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(SPOOF_AND_DEPLETION)
@example(exact_empty_case())
@given(worlds())
def test_cached_round_matches_reference(case):
    cfg, ops = case
    fast = drive(cfg, ops, World._hello_round)
    ref = drive(cfg, ops, reference_hello_round)
    # read before anything else folds the rounds since the last rebuild
    live = [nid for nid, n in ref.nodes.items() if n.alive]
    assert ([fast.node_metrics(nid) for nid in live]
            == [ref.node_metrics(nid) for nid in live])
    assert beacon_state(fast) == beacon_state(ref)
    assert fast.events_log == ref.events_log


def test_example_reaches_spoof_and_depletion_branches():
    cfg, ops = SPOOF_AND_DEPLETION
    kinds = [kind for _, kind, _ in drive(cfg, ops, World._hello_round).events_log]
    assert "spoof_flagged" in kinds
    assert kinds.count("node_depleted") >= 2


def test_bill_that_empties_battery_exactly_logs_depletion():
    cfg, ops = exact_empty_case()
    world = drive(cfg, ops, World._hello_round)
    for nid in (0, 2):
        assert world.nodes[nid].energy_expended == world.nodes[nid].energy_total
    assert [dict(d) for _, kind, d in world.events_log
            if kind == "node_depleted"] == [{"node": 0}, {"node": 2}]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6),
       st.lists(st.tuples(st.sampled_from((3.0, 4.5, 7.25)), st.integers(1, 8)),
                max_size=12))
def test_runs_hold_what_a_history_holds(window, appends):
    """(estimate, count) runs against one `record_hello` per sample."""
    runs, hist = HelloRuns(7, window), HelloHistory(7, window)
    for est, k in appends:
        runs.extend(est, k)
        for _ in range(k):
            record_hello(hist, est)
        assert runs.dists == hist.dists
        assert runs.n == len(hist.dists)
        if runs.n >= 2:
            assert runs.mobility(0.01) == pairwise_mobility(hist, 0.01)
