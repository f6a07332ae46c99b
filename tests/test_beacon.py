"""Folded beacon rounds against the per-reception reference round, and HELLO
runs against the sample-by-sample history.

Small random worlds with spoofers and near-empty batteries go through the
same sequence of topology ticks, HELLO rounds, handover watches and data
charges twice, once with the engine's `_hello_round` and once with
`reference_hello_round`; every float, sample and log line must come out
equal.  A watch folds the watching head like any other reader.  A charge
between rounds moves a sender's battery past what its neighbours heard in
the last round, so a fold after it must read the battery as that round
left it.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from beacon_reference import reference_hello_round
from manetsim import adversary
from manetsim.beacon import Beacons, HelloRuns
from manetsim.config import SimConfig
from manetsim.engine import World
from radio_reference import HelloHistory, energy_bill, pairwise_mobility, record_hello


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
    kinds = draw(st.lists(st.sampled_from(("hello", "hello", "topo", "watch",
                                           "watch_all", "charge")),
                          min_size=1, max_size=12))
    ops = [("charge", draw(st.integers(0, n - 1)), draw(st.sampled_from(("tx", "rx"))))
           if kind == "charge" else kind for kind in kinds]
    return cfg, ops


def drive(cfg, ops, hello_round):
    """Run the ops; each "watch" records what `World._watch` returns for
    one link, picked by the op's place in the list, each "watch_all" what
    it returns for every ordered pair of nodes, linked or not, whose
    subject started with energy (a watch of one that never heard it reads
    its battery), and each ("charge", node, role) bills that node
    `control_size` bytes."""
    world = World(cfg)
    world.populate()
    world._sweep_topology()
    world.watched = []
    for i, op in enumerate(ops):
        world.now = (i + 1) * cfg.hello_interval
        if op == "topo":
            world._sweep_topology()
        elif op == "watch":
            if world._pairs:
                a, b, _, _ = world._pairs[i % len(world._pairs)]
                world.watched.append(watch(world, *((b, a) if i % 2 else (a, b))))
        elif op == "watch_all":
            world.watched.extend(watch(world, a, b) for a in world.nodes
                                 for b, nb in world.nodes.items()
                                 if a != b and nb.energy_total > 0)
        elif op == "hello":
            hello_round(world)
        else:
            _, nid, role = op
            world.consume(world.nodes[nid], role, cfg.control_size)
    return world


def watch(world, watcher, subject):
    return (watcher, subject,
            world._watch(world.nodes[watcher], world.nodes[subject]))


def beacon_state(world):
    world.beacons.fold_all()
    return {nid: (n.energy_expended, n.tx_bytes, n.rx_bytes,
                  # an empty history reads as no history to every reader
                  {k: list(h.dists) for k, h in n.hello.items() if h.dists},
                  heard_by(world, n))
            for nid, n in world.nodes.items()}


def heard_by(world, node):
    """Every residual energy the node heard, as `Beacons.heard` reads it."""
    heard = {}
    for sid in world.nodes:
        res = world.beacons.heard(node, sid)
        if res is not None:
            heard[sid] = res
    return heard


# a desk-sized cluster where a spoofer sits next to its head and two
# batteries run dry mid-round
SPOOF_AND_DEPLETION = (
    SimConfig(node_count=6, area=(40.0, 40.0), seed=4, sim_duration=1.0,
              radio_range=100.0, speed_range=(0.0, 0.0),
              initial_energy_range=(0.0001, 0.002),
              energy_overrides={2: 0.0001, 4: 0.00015},
              adversaries=[{"node": 3, "kind": adversary.SPOOF, "victim": 5}],
              hello_window=2),
    ["hello", "hello", "topo", "hello", "watch", "hello", "hello", "watch"])


# a moving field: links from before two rebuilds with no round between
# them are still the ones a watch reads
TWO_REBUILDS = (
    SimConfig(node_count=8, area=(100.0, 100.0), seed=6, sim_duration=1.0,
              radio_range=40.0, speed_range=(20.0, 30.0), hello_window=3),
    ["hello", "hello", "topo", "topo", "watch_all"])

# the same field: a pair linked in the first epoch only is watched one
# epoch after it broke, then two
LEFT_RANGE = (
    TWO_REBUILDS[0],
    ["hello", "topo", "hello", "watch_all", "topo", "hello", "watch_all"])

# three moving nodes; node 0 runs low, so the lay-out after the rebuild
# leaves no runway and the round right after it runs link by link
BY_LINK_AFTER_LAY_OUT = (
    SimConfig(node_count=3, area=(60.0, 60.0), seed=417, sim_duration=1.0,
              radio_range=40.0, speed_range=(20.0, 30.0), hello_window=3,
              initial_energy_range=(0.0001, 0.003),
              energy_overrides={0: 0.00034}),
    ["hello", "hello", ("charge", 2, "tx"), "hello", "topo", "hello",
     "watch_all", "hello", "watch_all"])


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
    return cfg, ["hello", "watch", "hello", "watch"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(SPOOF_AND_DEPLETION)
@example(exact_empty_case())
@example(TWO_REBUILDS)
@example(LEFT_RANGE)
@example(BY_LINK_AFTER_LAY_OUT)
@given(worlds())
def test_cached_round_matches_reference(case):
    cfg, ops = case
    fast = drive(cfg, ops, World._hello_round)
    ref = drive(cfg, ops, reference_hello_round)
    # read before anything else folds the rounds since the last rebuild
    live = [nid for nid, n in ref.nodes.items() if n.alive]
    assert fast.watched == ref.watched
    assert ([fast.node_metrics(nid) for nid in live]
            == [ref.node_metrics(nid) for nid in live])
    assert beacon_state(fast) == beacon_state(ref)
    assert fast.events_log == ref.events_log


def test_example_reaches_spoof_and_depletion_branches():
    cfg, ops = SPOOF_AND_DEPLETION
    kinds = [kind for _, kind, _ in drive(cfg, ops, World._hello_round).events_log]
    assert "spoof_flagged" in kinds
    assert kinds.count("node_depleted") >= 2


def test_examples_reach_every_source_of_a_heard_energy(monkeypatch):
    """The examples above reach each place `Beacons.heard` reads from: the
    links of an epoch two rebuilds back, the previous epoch's links, an
    entry the close of an epoch wrote, and the entries written right
    before a round run link by link that follows a lay-out."""
    def unlinked(world, where):
        return [(a, b) for a, n in world.nodes.items() for b in where(n)
                if b not in world.adjacency.get(a, ())]

    cfg, ops = TWO_REBUILDS
    world = drive(cfg, ops[:-1], World._hello_round)
    assert not world.beacons._laid_out
    assert unlinked(world, lambda n: n.links_in)

    cfg, ops = LEFT_RANGE
    world = drive(cfg, ops[:4], World._hello_round)
    assert unlinked(world, lambda n: n.links_prev)
    world = drive(cfg, ops, World._hello_round)
    assert unlinked(world, lambda n: n.neighbor_res.keys() - n.links_prev.keys())

    written = []
    write_heard = Beacons._write_heard

    def noted(self):
        written.append((self.clock.rounds == self._laid_out_at,
                        any(n.links_prev for n in self.nodes.values())))
        write_heard(self)

    monkeypatch.setattr(Beacons, "_write_heard", noted)
    drive(*BY_LINK_AFTER_LAY_OUT, World._hello_round)
    assert (True, True) in written


# a static field where every node hears several others
WATCHED_FIELD = SimConfig(node_count=8, area=(60.0, 60.0), seed=3,
                          sim_duration=1.0, speed_range=(0.0, 0.0))


def test_watch_right_after_a_lay_out():
    """Rounds only counted since the lay-out: a watch folds every link of
    the watching head."""
    cfg = WATCHED_FIELD
    fast = drive(cfg, ["hello"] * 3, World._hello_round)
    ref = drive(cfg, ["hello"] * 3, reference_hello_round)
    assert fast.beacons.clock.rounds == 3
    # one link of each watcher
    for a, b in {a: (a, b) for a, b, _, _ in fast._pairs}.values():
        watcher = fast.nodes[a]
        assert watcher.links_at == 0
        assert watch(fast, a, b) == watch(ref, a, b)
        assert watcher.links_at == 3
    assert beacon_state(fast) == beacon_state(ref)


@pytest.mark.parametrize("case", [exact_empty_case(), SPOOF_AND_DEPLETION],
                         ids=["depletion", "spoof"])
def test_watch_right_after_a_link_by_link_round(case, monkeypatch):
    """Right after a round run link by link, every link is laid out afresh
    (or, next to a spoofer, none is) and a watch reads what the round
    wrote."""
    by_link = []
    round_by_link = Beacons._round_by_link

    def counted(self, world):
        by_link.append(world.now)
        round_by_link(self, world)

    monkeypatch.setattr(Beacons, "_round_by_link", counted)
    cfg, _ = case
    fast = drive(cfg, [], World._hello_round)
    ref = drive(cfg, [], reference_hello_round)
    watched = 0
    for i in range(1, 5):
        for world, hello_round in ((fast, World._hello_round),
                                   (ref, reference_hello_round)):
            world.now = i * cfg.hello_interval
            hello_round(world)
        if by_link and by_link[-1] == fast.now:
            for a, b, _, _ in fast._pairs:
                for pair in ((a, b), (b, a)):
                    assert watch(fast, *pair) == watch(ref, *pair)
                    watched += 1
    assert watched
    assert beacon_state(fast) == beacon_state(ref)
    assert fast.events_log == ref.events_log


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
    runs, hist = HelloRuns(window), HelloHistory(7, window)
    for est, k in appends:
        runs.extend(est, k)
        for _ in range(k):
            record_hello(hist, est)
        assert runs.dists == hist.dists
        assert runs.n == len(hist.dists)
        if runs.n >= 2:
            assert runs.mobility(0.01) == pairwise_mobility(hist, 0.01)
