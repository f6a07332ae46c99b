"""Acceptance gate: twelve scheme-level guarantees, one test per criterion.

Each test prints its own PASS/FAIL line (bypassing capture) so the run's
transcript doubles as the acceptance report.
"""

import contextlib
import random
import statistics

import pytest

from helpers import desk_config, events_of, run_world
from manetsim import adversary, trust
from manetsim.beacon import HelloRuns
from manetsim.clustering import dnc
from manetsim.config import SimConfig
from manetsim.engine import run
from manetsim.radio import RadioParams
from manetsim.scenario import Scenario, run_scenario
from radio_reference import (HelloHistory, estimate_distance, friis_recv_power,
                             pairwise_mobility, record_hello)


@contextlib.contextmanager
def reported(n, label, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {n:>2}: FAIL  {label}")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {n:>2}: PASS  {label}")


def test_criterion_01_trust_constants(capsys):
    with reported(1, "trust ratio anchors", capsys):
        assert trust.trust_value(trust.init_trust(0)) == 0.5
        assert abs(trust.trust_value(trust.TrustRecord(0, 2, 1)) - 0.5) < 1e-12
        assert abs(trust.trust_value(trust.TrustRecord(0, 3, 1)) - 2 / 3) < 1e-12
        for k in (1, 2, 7, 100):
            assert trust.trust_value(trust.TrustRecord(0, k, k)) == 0.0


def test_criterion_02_friis_round_trip(capsys):
    with reported(2, "distance recovered from signal, 10,000 draws", capsys):
        rng = random.Random(0)
        for _ in range(10_000):
            p = rng.uniform(300.0, 600.0)
            d = rng.uniform(0.1, 100.0)
            params = RadioParams(k=rng.choice((1.0, 2.0)),
                                 q=rng.choice((2, 3, 4)))
            back = estimate_distance(p, friis_recv_power(p, d, params), params)
            assert abs(back - d) <= 1e-9 * d


def test_criterion_03_mobility_telescoping(capsys):
    with reported(3, "pairwise mobility telescopes to endpoints", capsys):
        rng = random.Random(1)
        for trial in range(2000):
            n = rng.randint(2, 40)
            dists = [rng.uniform(0.0, 500.0) for _ in range(n)]
            if trial % 3 == 0:
                dists[-1] = dists[0]     # closed loop must read as zero
            t = rng.uniform(0.001, 1.0)
            h = HelloHistory(neighbor_id=1, window=64)
            runs = HelloRuns(64)       # what the engine keeps
            for d in dists:
                record_hello(h, d)
                runs.extend(d, 1)
            kept = h.dists                # eviction may trim the head
            want = (kept[-1] - kept[0]) / (len(kept) * t)
            got = pairwise_mobility(h, t)
            assert abs(got - want) <= 1e-9
            if dists[-1] == dists[0] and len(kept) == len(dists):
                assert got == 0.0
            assert runs.dists == kept
            assert runs.mobility(t) == got


def test_criterion_04_dnc_anchor(capsys):
    with reported(4, "downlink coverage midpoint and clipping", capsys):
        assert dnc(4, 4) == 0.5
        assert dnc(1, 1) == 0.5
        assert dnc(8, 4) == 1.0
        assert dnc(9, 4) == 1.0
        assert dnc(0, 4) == 0.0


def test_criterion_05_detection_completeness(capsys):
    label = "bridge black/grey hole convicted on all 20 seeds"
    with reported(5, label, capsys):
        for kind in (adversary.BLACK_HOLE, adversary.GREY_HOLE):
            for seed in range(1, 21):
                cfg = desk_config(seed=seed,
                                  traffic=[(1, 22), (2, 23), (3, 24)],
                                  adversaries=[{"node": 28, "kind": kind}])
                _, m = run_world(cfg)
                assert m.blacklisted == (28,), (kind, seed, m.blacklisted)
                assert m.detection_rate == 100.0, (kind, seed)
                assert m.false_positives == 0, (kind, seed)


def test_criterion_06_detection_soundness(capsys):
    label = "mid-run battery death never blacklisted, 20 seeds"
    with reported(6, label, capsys):
        for seed in range(1, 21):
            cfg = desk_config(seed=seed, sim_duration=8.0,
                              energy_overrides={28: 0.04})
            world, m = run_world(cfg)
            died = [t for t, d in events_of(world.events_log, "node_depleted")
                    if d["node"] == 28]
            assert died and 1.0 < died[0] < 8.0, (seed, died)
            assert m.false_positives == 0, seed
            assert m.blacklisted == (), (seed, m.blacklisted)
            assert m.delivered > 0, seed


def test_criterion_07_slander_immunity(capsys):
    label = "fabricated reports never move target trust"
    with reported(7, label, capsys):
        targets = (27, 1)

        def target_trust_events(cfg):
            world, m = run_world(cfg)
            return [(t, d) for t, d in events_of(world.events_log, "trust_change")
                    if d["node"] in targets], world, m

        clean, _, _ = target_trust_events(desk_config())
        smear, world, m = target_trust_events(desk_config(
            adversaries=[{"node": 8, "kind": adversary.SLANDER,
                          "targets": targets}]))

        assert smear == clean
        assert len(clean) > 0            # the targets did earn trust moves
        reports = events_of(world.events_log, "trust_report")
        assert len(reports) >= 6         # the smear campaign really ran
        assert 8 in m.blacklisted        # nuisance reporting backfires
        assert not set(targets) & set(m.blacklisted)


def test_criterion_08_overflow_immunity(capsys):
    label = "10,000-advert flood leaves routing tables unchanged"
    with reported(8, label, capsys):
        honest_world, _ = run_world(desk_config())
        flooded_world, _ = run_world(desk_config(
            adversaries=[{"node": 9, "kind": adversary.TABLE_OVERFLOW,
                          "rate": 2500.0}]))

        bursts = events_of(flooded_world.events_log, "advert_burst")
        assert sum(d["count"] for _, d in bursts) >= 10_000
        assert all(d["accepted"] == 0 for _, d in bursts)

        sizes = {d["table_size"] for _, d in bursts}
        assert len(sizes) == 1           # never grew, never shrank
        ch = flooded_world.nodes[9].cluster
        honest, flooded = honest_world.head_routes, flooded_world.head_routes
        assert sizes == {len(honest.table(ch))}
        assert flooded.heads == honest.heads
        for head in honest.heads:
            assert sorted(flooded.table(head)) == sorted(honest.table(head))


def test_criterion_09_spoof_flagging(capsys):
    label = "100/100 spoofed requests pinned on the link owner"
    with reported(9, label, capsys):
        cfg = desk_config(sim_duration=4.99, spoof_interval=0.04,
                          adversaries=[{"node": 10, "kind": adversary.SPOOF,
                                        "victim": 11}])
        world, m = run_world(cfg)
        attempts = events_of(world.events_log, "spoof_attempt")
        flags = [(t, d) for t, d in events_of(world.events_log, "spoof_flagged")
                 if d["packet_kind"] == "RREQ"]
        assert len(attempts) == 100
        assert len(flags) == 100                       # zero misses
        assert {d["owner"] for _, d in flags} == {10}  # zero misattributions
        assert {d["claimed"] for _, d in flags} == {11}
        assert 10 in m.blacklisted
        assert 11 not in m.blacklisted


def audit_route_shapes(events):
    """Every admitted plan keeps forwarding under head supervision and
    every delivery replays its plan exactly. Returns (plans, delivered,
    tunneled DATA ids) keyed by packet id."""
    plans, delivered, tunneled = {}, {}, set()
    for _, kind, data in events:
        d = dict(data)
        if kind == "data_emit" and d["plan"]:
            plans[d["packet"]] = (d["plan"], d["segs"])
        elif kind == "data_delivered":
            delivered[d["packet"]] = d["path"]
        elif kind == "tunnel" and d["packet_kind"] == "DATA":
            tunneled.add(d["packet"])

    for pid, (plan, segs) in plans.items():
        if not segs:
            assert len(plan) <= 3, (pid, plan)    # src, shared head, dst
            continue
        assert segs[0][0] <= 1, (pid, plan, segs)
        assert segs[-1][1] >= len(plan) - 2, (pid, plan, segs)
        prev_down = None
        for up, down in segs:
            gap = down - up - 1
            assert 1 <= gap <= 2, (pid, plan, segs)   # gateway or relay pair
            if prev_down is not None:
                assert up == prev_down, (pid, segs)   # heads chain seamlessly
            prev_down = down

    for pid, path in delivered.items():
        assert path == plans[pid][0], (pid, path, plans[pid])

    assert not tunneled & set(delivered), tunneled & set(delivered)
    return plans, delivered, tunneled


def test_criterion_10_wormhole_structure(capsys):
    label = "tunneled packets never ride an admitted route"
    with reported(10, label, capsys):
        # bench: colluders pinned on the backbone and inside blob D
        world, m = run_world(desk_config(
            sim_duration=8.0, traffic=[(1, 22), (2, 23), (3, 24)],
            adversaries=[{"node": 28, "kind": adversary.WORMHOLE, "peer": 25},
                         {"node": 25, "kind": adversary.WORMHOLE, "peer": 28}]))
        _, _, tunneled = audit_route_shapes(world.events_log)
        assert tunneled                   # the colluders really tunneled DATA
        assert 28 in m.blacklisted

        # mobile sweep: same structural audit across 10 seeds
        total_tunneled = 0
        for seed in range(1, 11):
            cfg = SimConfig(node_count=30, seed=seed, sim_duration=8.0,
                            hello_interval=0.1, radio_range=100.0,
                            source_fraction=0.3, malicious_fraction=0.2,
                            attack=adversary.WORMHOLE)
            _, events = run(cfg)
            _, _, tunneled = audit_route_shapes(events)
            total_tunneled += len(tunneled)
        assert total_tunneled > 0


def test_criterion_11_throughput_trend(capsys):
    label = "detection lifts mean throughput at every network size"
    with reported(11, label, capsys):
        def mean_throughput(n, detection):
            vals = []
            for seed in range(1, 11):
                cfg = SimConfig(node_count=n, seed=seed, sim_duration=15.0,
                                hello_interval=0.1, radio_range=100.0,
                                source_fraction=0.3, malicious_fraction=0.1,
                                attack=adversary.BLACK_HOLE,
                                velocity_low_threshold=1000.0,
                                detection_enabled=detection)
                m, _ = run(cfg)
                vals.append(m.throughput if m.throughput is not None else 0.0)
            return statistics.fmean(vals)

        for n in (20, 40, 60, 80, 100):
            on = mean_throughput(n, True)
            off = mean_throughput(n, False)
            assert on > off, (n, on, off)


def test_criterion_12_determinism(capsys):
    with reported(12, "byte-identical tables and digests on repeat", capsys):
        def one_pass():
            sc = Scenario(base={"sim_duration": 3.0, "source_fraction": 0.2,
                                "attack": adversary.GREY_HOLE},
                          node_counts=(10, 14), seeds=(1, 2),
                          malicious_fractions=(0.0, 0.25))
            table, summary, extras = run_scenario(sc)
            return table.to_csv(), summary, extras["digests.txt"]

        assert one_pass() == one_pass()
