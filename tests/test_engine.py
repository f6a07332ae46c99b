import pytest

from helpers import (BRIDGES, HEADS, desk_config, desk_positions, events_of,
                     run_world)
from manetsim import adversary, detection, engine
from manetsim.config import SimConfig
from manetsim.engine import Node, World, consume_energy, energy_bill, run
from manetsim.metrics import metrics_from_log
from manetsim.radio import Position, WaypointState


def make_node(tx=300.0, rx=50.0, total=5.0):
    return Node(0, Position(0.0, 0.0), WaypointState(Position(0.0, 0.0), 0.0),
                tx, rx, total, adversary.BehaviorPolicy())


# ---- energy accounting ----

def test_tx_cost_anchor():
    node = make_node()
    spent = consume_energy(node, "tx", 512, SimConfig())
    # 300 mW for 2.048 ms
    assert spent == pytest.approx(0.3 * 0.002048)
    assert node.energy_expended == spent
    assert (node.tx_bytes, node.rx_bytes) == (512, 0)


def test_rx_cost_anchor():
    spent = consume_energy(make_node(), "rx", 512, SimConfig())
    assert spent == pytest.approx(0.05 * 0.002048)


def test_zero_bytes_cost_nothing():
    assert consume_energy(make_node(), "tx", 0, SimConfig()) == 0.0


def test_depletion_clamps_to_remaining_charge():
    node = make_node(total=0.0005)
    node.energy_expended = 0.0004
    spent = consume_energy(node, "tx", 512, SimConfig())
    assert spent == pytest.approx(0.0001)
    assert not node.alive


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


def test_energy_conservation_audited_in_collect():
    # collect() asserts each battery lost what its byte counters bill
    _, m = run_world(desk_config())
    assert all(v >= 0 for v in m.energy_remaining.values())


@pytest.mark.parametrize("corrupt", ["counted_not_charged", "charged_not_counted"])
def test_energy_audit_catches_a_wrong_bill(corrupt):
    world, _ = run_world(desk_config(sim_duration=1.0))
    world.collect()
    node, size = world.nodes[5], world.cfg.hello_size
    if corrupt == "counted_not_charged":
        node.rx_bytes += size
    else:
        node.energy_expended += energy_bill(node, "rx", size, world.cfg)
    with pytest.raises(AssertionError):
        world.collect()


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


def test_judge_without_resolved_evidence_returns_quietly():
    world = World(desk_config())
    world.populate()
    world._sweep_topology()
    head, gateway = HEADS[1], BRIDGES[0]
    ledger = world.ch_state[head].ledger
    ledger.open_entry(1, gateway, world.now, res_eng=1.0, rel_mobility=None)
    assert ledger.resolved_for(gateway) == []   # still pending
    assert world._judge(head, gateway) is None
    assert world.ch_state[head].ledger.by_packet[1].ack_status == detection.PENDING


# ---- head state ----

def test_head_state_built_once_per_head(monkeypatch):
    """Topology ticks, handovers, spoof checks and blacklist notices all look
    up a head's state; only the first lookup may build it."""
    built = []
    init = engine.ChState.__init__

    def counting_init(self, ch_id):
        built.append(ch_id)
        init(self, ch_id)

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
