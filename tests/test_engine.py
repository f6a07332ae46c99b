import gc
import heapq
import math
import tracemalloc

import pytest
from hypothesis import given, settings

from helpers import (BRIDGES, HEADS, desk_config, desk_positions, events_of,
                     run_world)
from manetsim import adversary, beacon, engine
from manetsim.config import SimConfig
from manetsim.engine import Node, World, run
from manetsim.errors import ConfigError
from manetsim.metrics import metrics_from_log
from manetsim.radio import Position, WaypointState
from radio_reference import energy_bill
from reference_world import ReferenceWorld
from test_golden import depletion_config, mobile_config
from test_reference_world import whole_runs


def make_node(tx=300.0, rx=50.0, total=5.0):
    return Node(0, Position(0.0, 0.0), WaypointState(Position(0.0, 0.0), 0.0),
                tx, rx, total, adversary.BehaviorPolicy())


# ---- energy accounting ----

def test_tx_cost_anchor():
    node = make_node()
    assert beacon.charge(node.battery, "tx", 512)
    # 300 mW for 2.048 ms
    assert node.energy_expended == pytest.approx(0.3 * 0.002048)
    assert node.energy_expended == energy_bill(node, "tx", 512, SimConfig())
    assert (node.tx_bytes, node.rx_bytes) == (512, 0)


def test_rx_cost_anchor():
    node = make_node()
    assert beacon.charge(node.battery, "rx", 512)
    assert node.energy_expended == pytest.approx(0.05 * 0.002048)


def test_zero_bytes_cost_nothing():
    node = make_node()
    assert beacon.charge(node.battery, "tx", 0)
    assert node.energy_expended == 0.0


def test_depletion_clamps_to_remaining_charge():
    node = make_node(total=0.0007)
    assert beacon.charge(node.battery, "rx", 512)        # 0.1024 mJ
    # 0.6144 mJ more, against 0.5976 mJ left
    assert not beacon.charge(node.battery, "tx", 512)
    assert node.energy_expended == 0.0007
    assert beacon.residual(node.battery) == 0.0
    assert not node.alive
    assert (node.tx_bytes, node.rx_bytes) == (512, 512)


# ---- the cyclic collector ----

@pytest.mark.parametrize("attack", [k for k in adversary.KINDS
                                    if k != adversary.HONEST])
def test_run_leaves_no_cyclic_garbage(attack):
    """`World.run` pauses the collector, which frees nothing only while a
    run makes no reference cycles."""
    cfg = SimConfig(node_count=30, area=(250.0, 250.0), sim_duration=3.0,
                    seed=3, malicious_fraction=0.2, attack=attack,
                    source_fraction=0.5, cbr_interval=0.05, traffic_start=0.5)
    gc.collect()
    world = World(cfg)
    world.run()
    # the attackers acted (a table flood leaves no act on record), and
    # every kind but the flood got some of them blacklisted
    assert world.acted or attack == adversary.TABLE_OVERFLOW
    assert world.blacklisted or attack == adversary.TABLE_OVERFLOW
    del world
    assert gc.collect() == 0


def test_run_pauses_the_collector_and_restores_its_state(monkeypatch):
    seen = []
    hello = World._hello_round

    def watched(self):
        seen.append(gc.isenabled())
        hello(self)

    def broken(self):
        raise RuntimeError("handler failed")

    cfg = SimConfig(node_count=6, sim_duration=0.3)
    was = gc.isenabled()
    try:
        for handler in (watched, broken):
            monkeypatch.setattr(World, "_hello_round", handler)
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                if handler is broken:
                    with pytest.raises(RuntimeError):
                        World(cfg).run()
                else:
                    World(cfg).run()
                assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


# ---- determinism ----

def test_same_seed_same_digest():
    cfg = SimConfig(node_count=20, sim_duration=5.0, seed=7,
                    malicious_fraction=0.1)
    m1, _ = run(cfg)
    m2, _ = run(cfg)
    assert m1.digest == m2.digest
    assert m1 == m2


def test_different_seed_different_digest():
    a, _ = run(SimConfig(node_count=20, sim_duration=5.0, seed=7))
    b, _ = run(SimConfig(node_count=20, sim_duration=5.0, seed=8))
    assert a.digest != b.digest


@pytest.mark.parametrize("attack", adversary.KINDS)
def test_logged_keys_ascend(attack):
    """Every record's data keys are strictly ascending, the order `World.log`
    gives: the records appended as literals (`change_trust`, the
    routed `data_emit`, `data_delivered`, `ack_delivered`) keep it too."""
    cfg = SimConfig(node_count=30, area=(250.0, 250.0), sim_duration=2.0,
                    seed=3, attack=attack,
                    malicious_fraction=0.0 if attack == adversary.HONEST else 0.2,
                    source_fraction=0.5, cbr_interval=0.05, traffic_start=0.5)
    world, _ = run_world(cfg)
    kinds = set()
    for _, kind, data in world.events_log:
        keys = [k for k, _ in data]
        assert all(a < b for a, b in zip(keys, keys[1:])), (kind, keys)
        kinds.add(kind)
    assert {"data_emit", "data_delivered", "ack_delivered",
            "trust_change"} <= kinds


@pytest.mark.parametrize("cell", [mobile_config(adversary.GREY_HOLE),
                                  depletion_config()],
                         ids=["grey_hole", "depletion"])
def test_folding_changes_nothing_observable(cell, monkeypatch):
    """Folding brings the HELLO rounds forward to whoever reads them, so
    when it happens cannot matter: a run that folds every node before
    every event it dispatches logs what a plain run logs.  The adjacency
    rebuild folds nothing and leaves the fold to the next lay-out."""
    plain = run(cell)[0].digest
    world = World(cell)
    pop = heapq.heappop
    folds = []

    def folded_pop(heap):
        if heap is world._heap:
            world.beacons.fold_all()
            folds.append(None)
        return pop(heap)

    monkeypatch.setattr(heapq, "heappop", folded_pop)
    assert world.run().digest == plain
    assert folds


def test_detection_toggle_leaves_trajectories_alone():
    """Mobility draws come from their own stream, so turning detection off
    must not move anybody."""
    base = dict(node_count=20, sim_duration=3.0, seed=5, malicious_fraction=0.1)
    w_on, _ = run_world(SimConfig(detection_enabled=True, **base))
    w_off, _ = run_world(SimConfig(detection_enabled=False, **base))
    for n in range(20):
        assert (w_on.nodes[n].pos.x, w_on.nodes[n].pos.y) == \
            (w_off.nodes[n].pos.x, w_off.nodes[n].pos.y)


# ---- bench topology ----

def test_desk_forms_expected_backbone():
    world, _ = run_world(desk_config(sim_duration=0.5, traffic=[]))
    assert sorted(world.clusters) == list(HEADS)
    assert world.edges == {(0, 7): (27,), (7, 14): (28,), (14, 21): (29,)}
    for bridge in BRIDGES:
        assert world.nodes[bridge].cluster in HEADS


def test_desk_honest_run_delivers_everything():
    world, m = run_world(desk_config())
    assert m.generated > 0
    assert m.delivered == m.generated
    assert m.dropped == {}
    assert m.throughput == 100.0
    assert m.false_positives == 0
    assert m.blacklisted == ()
    assert m.detection_rate is None  # nobody planted, nobody acted


def test_desk_delivery_path_follows_the_bridges():
    world, _ = run_world(desk_config())
    for _, d in events_of(world.events_log, "data_delivered"):
        assert d["path"] == (1, 0, 27, 7, 28, 14, 29, 21, 22)


def test_ch_source_sessions_admit_without_rreq():
    # a head sending to its own member must not wait on a broadcast
    world, m = run_world(desk_config(traffic=[(0, 2)]))
    assert m.generated > 0
    assert m.delivered == m.generated


class BilledWorld(ReferenceWorld):
    """Sums the bill of every charge: on the reference algorithms every
    charge, HELLO receptions included, is one `consume` call."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.bills = {}

    def consume(self, node, role, nbytes):
        if node.alive:
            self.bills[node.node_id] = (self.bills.get(node.node_id, 0.0)
                                        + energy_bill(node, role, nbytes, self.cfg))
        return super().consume(node, role, nbytes)


def audit(world):
    """What each battery lost is what its charges billed, capped at its
    total."""
    for nid, n in world.nodes.items():
        billed = min(n.energy_total, world.bills.get(nid, 0.0))
        assert math.isclose(n.energy_expended, billed, rel_tol=1e-9), \
            (nid, n.energy_expended, billed)


def test_energy_equals_the_sum_of_its_bills():
    world = BilledWorld(desk_config())
    m = world.run()
    audit(world)
    assert all(v >= 0 for v in m.energy_remaining.values())


@settings(max_examples=40, deadline=None)
@given(whole_runs)
def test_closed_form_energy_equals_summed_bills(cfg):
    try:
        cfg.validate()
    except ConfigError:
        return
    world = BilledWorld(cfg)
    world.run()
    audit(world)


@pytest.mark.parametrize("corrupt", ["counted_not_charged", "charged_not_counted"])
def test_energy_audit_catches_a_wrong_bill(corrupt):
    world = BilledWorld(desk_config(sim_duration=1.0))
    world.run()
    audit(world)
    node, size = world.nodes[5], world.cfg.hello_size
    if corrupt == "counted_not_charged":
        # bytes on the counters that no billed charge sent
        beacon.charge(node.battery, "rx", size)
    else:
        # a bill whose bytes never reached the counters
        world.bills[5] += energy_bill(node, "rx", size, world.cfg)
    with pytest.raises(AssertionError):
        audit(world)


def test_session_accounting():
    # 20 packets at 0.25 s spacing need the clock to run past t=5.75
    _, m = run_world(desk_config(sessions_per_source=1, sim_duration=8.0))
    assert m.sessions_started == 1
    assert m.sessions_completed == 1
    assert m.generated == SimConfig().session_packets


# ---- harm and recovery ----

def black_hole_cfg(detection):
    return desk_config(
        sim_duration=8.0,
        traffic=[(1, 22), (2, 23), (3, 24)],
        adversaries=[{"node": 28, "kind": adversary.BLACK_HOLE}],
        detection_enabled=detection,
    )


def test_black_hole_on_the_backbone_hurts_when_unpoliced():
    _, hm = run_world(desk_config(sim_duration=8.0,
                                  traffic=[(1, 22), (2, 23), (3, 24)]))
    _, am = run_world(black_hole_cfg(detection=False))
    assert hm.throughput == 100.0
    assert am.throughput < hm.throughput
    assert am.blacklisted == ()
    assert am.dropped.get("policy", 0) > 0


def test_detection_recovers_throughput_via_redundant_bridge():
    """With a spare bridge in the B-C gap, convicting the designated one
    reroutes the backbone and traffic resumes on the same seed."""
    pos = desk_positions() + [(240.0, 244.0)]
    base = dict(node_count=31, positions=pos, sim_duration=8.0,
                traffic=[(1, 22), (2, 23), (3, 24)])
    probe, _ = run_world(desk_config(node_count=31, positions=pos,
                                     sim_duration=0.5, traffic=[]))
    culprit = probe.edges[(7, 14)][0]
    spare = ({28, 30} - {culprit}).pop()

    _, off = run_world(desk_config(
        adversaries=[{"node": culprit, "kind": adversary.BLACK_HOLE}],
        detection_enabled=False, **base))
    world, on = run_world(desk_config(
        adversaries=[{"node": culprit, "kind": adversary.BLACK_HOLE}],
        detection_enabled=True, **base))

    assert off.throughput == 0.0
    assert on.throughput > 90.0
    assert on.detection_rate == 100.0
    assert on.false_positives == 0
    assert on.blacklisted == (culprit,)
    assert world.edges[(7, 14)] == (spare,)


def test_acted_only_counts_misdeeds():
    # a planted black hole that never sees traffic has acted on nothing
    world, m = run_world(desk_config(
        traffic=[(1, 2)],  # stays inside blob A
        adversaries=[{"node": 28, "kind": adversary.BLACK_HOLE}]))
    assert m.planted == (28,)
    assert m.acted == ()
    assert m.detection_rate is None


def test_flood_rate_costs_no_memory_per_advert():
    """A burst is logged by its count, so a valid rate of a million adverts
    per second (100,000 per burst) runs in the memory of a small one."""
    cfg = SimConfig(node_count=12, area=(60.0, 60.0), sim_duration=1.6, seed=1,
                    speed_range=(0.0, 0.0),
                    adversaries=[{"node": 5, "kind": adversary.TABLE_OVERFLOW,
                                  "rate": 1e6}])
    tracemalloc.start()
    try:
        world, _ = run_world(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bursts = events_of(world.events_log, "advert_burst")
    assert bursts
    assert all((d["count"], d["accepted"]) == (100_000, 0) for _, d in bursts)
    assert peak < 2 * 2 ** 20


def test_judge_without_resolved_evidence_returns_quietly():
    world = World(desk_config())
    world.populate()
    world._sweep_topology()
    head, gateway = HEADS[1], BRIDGES[0]
    ledger = world.ch_state[head].ledger
    ledger.open_entry(1, gateway, res_eng=1.0, rel_mobility=None)
    assert gateway not in ledger.tally   # still pending
    assert world._judge(head, gateway) is None
    assert 1 in world.ch_state[head].ledger.by_packet


# ---- head state ----

def test_head_state_built_once_per_head(monkeypatch):
    """Topology ticks, handovers, spoof checks and blacklist notices all look
    up a head's state; only the first lookup may build it."""
    built = []
    init = engine.ChState.__init__

    def counting_init(self, ch_id, cfg):
        built.append(ch_id)
        init(self, ch_id, cfg)

    monkeypatch.setattr(engine.ChState, "__init__", counting_init)
    world, _ = run_world(SimConfig(
        node_count=40, area=(300.0, 300.0), sim_duration=3.0, seed=3,
        source_fraction=0.5, cbr_interval=0.05, grey_drop_rate=0.5,
        adversaries=[{"node": 5, "kind": adversary.GREY_HOLE},
                     {"node": 9, "kind": adversary.GREY_HOLE},
                     {"node": 12, "kind": adversary.SPOOF, "victim": 3}]))
    assert events_of(world.events_log, "spoof_attempt")
    assert events_of(world.events_log, "blacklist_rx")
    assert len(built) == len(world.ch_state)


# ---- log-derived metrics ----

def test_metrics_recomputable_from_event_log():
    cfg = desk_config(sim_duration=8.0, traffic=[(1, 22), (2, 23)],
                      adversaries=[{"node": 28, "kind": adversary.GREY_HOLE}])
    world, m = run_world(cfg)
    derived = metrics_from_log(world.events_log)
    assert derived["generated"] == m.generated
    assert derived["delivered"] == m.delivered
    assert derived["throughput"] == m.throughput
    assert derived["detection_rate"] == m.detection_rate
    assert derived["false_positives"] == m.false_positives
    assert derived["blacklisted"] == m.blacklisted
    assert derived["mean_e2e_delay"] == pytest.approx(m.mean_e2e_delay)


# ---- adversary placement ----

def test_fraction_placement_count_and_nesting():
    cfg = SimConfig(node_count=40, sim_duration=0.5, seed=3,
                    malicious_fraction=0.2, attack=adversary.GREY_HOLE)
    world, m = run_world(cfg)
    assert len(m.planted) == 8
    kinds = {world.nodes[n].policy.kind for n in m.planted}
    assert kinds == {adversary.GREY_HOLE}


def test_explicit_placement_shares_the_random_arms_draws():
    """Pinning the attacker by hand must not shift anyone's trajectory
    against the fraction-drawn run on the same seed."""
    base = dict(node_count=20, sim_duration=2.0, seed=11)
    w_a, _ = run_world(SimConfig(malicious_fraction=0.0, **base))
    w_b, _ = run_world(SimConfig(
        adversaries=[{"node": 5, "kind": adversary.BLACK_HOLE}], **base))
    for n in range(20):
        assert (w_a.nodes[n].pos.x, w_a.nodes[n].pos.y) == \
            (w_b.nodes[n].pos.x, w_b.nodes[n].pos.y)


def test_planted_heads_are_barred_from_election():
    world, _ = run_world(desk_config(
        traffic=[], sim_duration=0.5,
        adversaries=[{"node": 0, "kind": adversary.BLACK_HOLE}]))
    assert 0 not in world.clusters
    assert world.nodes[0].cluster in world.clusters
