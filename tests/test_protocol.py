import pytest

from helpers import StubWorld
from manetsim import trust
from manetsim.errors import NoRoute, RejectedBlacklisted, RejectedUntrusted
from manetsim.protocol import (ack_plan, ack_timeout, build_plan, discover_route,
                               drain_order, originate_request, tx_time)


DESK = StubWorld(
    clusters={0: {1, 2, 27}, 7: {8, 27, 28}, 14: {15, 28, 29}, 21: {22, 29}},
    edges={(0, 7): (27,), (7, 14): (28,), (14, 21): (29,)},
)


# ---- admission ----

def test_admission_returns_trust_snapshot():
    assert originate_request(DESK, 1, 22, now=1.0) == 0.5


def test_blacklisted_refused_before_trust_check():
    w = StubWorld(clusters={0: {1}}, edges={}, blacklisted=[1],
                  records={1: trust.TrustRecord(1, earn_trust=2, loose_trust=2)})
    with pytest.raises(RejectedBlacklisted):
        originate_request(w, 1, 0, now=0.0)


def test_zero_trust_refused():
    w = StubWorld(clusters={0: {1}}, edges={},
                  records={1: trust.TrustRecord(1, earn_trust=2, loose_trust=2)})
    with pytest.raises(RejectedUntrusted):
        originate_request(w, 1, 0, now=0.0)


def test_drain_order_descending_trust_then_fifo():
    pending = [(0.5, 9, 3, 20), (0.9, 4, 1, 21), (0.5, 2, 2, 22)]
    assert drain_order(pending) == [(0.9, 4, 1, 21), (0.5, 2, 2, 22), (0.5, 9, 3, 20)]


# ---- route discovery ----

def test_same_cluster_route_is_local():
    assert discover_route(DESK, 1, 2) == [(0, ())]


def test_multi_cluster_route_lists_gateways():
    assert discover_route(DESK, 1, 22) == [(0, ()), (7, (27,)), (14, (28,)), (21, (29,))]


def test_reversed_edge_reverses_gateway_order():
    w = StubWorld(clusters={0: {1, 3, 4}, 9: {3, 4, 10}},
                  edges={(0, 9): (3, 4)})
    assert discover_route(w, 10, 1) == [(9, ()), (0, (4, 3))]


def test_blacklisted_gateway_disconnects_edge():
    w = StubWorld(clusters={0: {1, 27}, 7: {27, 22}},
                  edges={(0, 7): (27,)}, blacklisted=[27])
    with pytest.raises(NoRoute):
        discover_route(w, 1, 22)


def test_route_prefers_fewer_head_hops():
    w = StubWorld(
        clusters={0: {1, 2, 3}, 5: {2, 6}, 9: {3, 6, 10}},
        edges={(0, 5): (2,), (5, 9): (6,), (0, 9): (3,)},
    )
    assert discover_route(w, 1, 10) == [(0, ()), (9, (3,))]


def test_unclustered_endpoints_raise():
    w = StubWorld(clusters={0: {1}}, edges={})
    w.nodes[1].cluster = None
    with pytest.raises(NoRoute):
        discover_route(w, 1, 0)


# ---- hop plans ----

def test_plan_expands_heads_and_gateways():
    ch_path = [(0, ()), (7, (27,)), (14, (28,)), (21, (29,))]
    plan, segments = build_plan(ch_path, src=1, dst=22)
    assert plan == [1, 0, 27, 7, 28, 14, 29, 21, 22]
    assert segments == [(1, 3), (3, 5), (5, 7)]


def test_plan_collapses_head_endpoints():
    plan, segments = build_plan([(0, ()), (7, (27,))], src=0, dst=7)
    assert plan == [0, 27, 7]
    assert segments == [(0, 2)]


def test_plan_local_session():
    plan, segments = build_plan([(0, ())], src=1, dst=2)
    assert plan == [1, 0, 2]
    assert segments == []


def test_plan_with_relay_pair_segment():
    plan, segments = build_plan([(0, ()), (9, (3, 4))], src=1, dst=10)
    assert plan == [1, 0, 3, 4, 9, 10]
    assert segments == [(1, 4)]


def test_ack_plan_reverses_one_segment():
    plan = [1, 0, 27, 7, 28, 14, 29, 21, 22]
    assert ack_plan(plan, (1, 3)) == [7, 27, 0]
    assert ack_plan(plan, (3, 5)) == [14, 28, 7]


# ---- timing ----

def test_tx_time_anchor():
    assert tx_time(512, 2_000_000) == pytest.approx(0.002048)


def test_ack_timeout_scales_with_hops():
    one = ack_timeout(512, 2_000_000, 1)
    assert one == pytest.approx(4 * 0.002048)
    assert ack_timeout(512, 2_000_000, 3) == pytest.approx(3 * one)
