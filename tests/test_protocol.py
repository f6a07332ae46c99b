import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import StubWorld
from manetsim import trust
from manetsim.errors import NoRoute, RejectedBlacklisted, RejectedUntrusted
from manetsim.protocol import (ack_plan, ack_timeout, build_plan, discover_route,
                               drain_order, originate_request, refresh_route_tables,
                               segment_table, tx_time)
from topology_reference import reference_route_tables


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
    """Heads 0 and 7 share only the blacklisted 27, so the gateway
    designation gives them no edge, and no route joins them."""
    w = StubWorld(clusters={0: {1, 27}, 7: {27, 22}}, edges={}, blacklisted=[27])
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


# ---- kept route tables ----

RING = (0, 7, 14, 21, 30)
RING_EDGES = {(0, 7): (27,), (7, 14): (28,), (14, 21): (29,), (0, 30): (31, 32),
              (21, 30): (33,)}


def tables_of(record):
    """Every head's table of a `RouteTables` record, each read once."""
    return {ch: record.table(ch) for ch in record.heads}


def same_tables(got, want):
    """Equal tables with the same keys in the same order."""
    return ([(ch, list(routes.items())) for ch, routes in got.items()]
            == [(ch, list(routes.items())) for ch, routes in want.items()])


def test_kept_trees_take_new_gateways():
    kept = refresh_route_tables(None, RING, RING_EDGES)
    # only the trees read so far are searched, and only they are kept
    assert kept.table(0)[14] == (7, (28,))
    assert kept.table(30)[0] == (30, (32, 31))
    assert sorted(kept.trees) == [0, 30]
    edges = dict(RING_EDGES)
    edges[7, 14] = (40,)
    edges[0, 30] = (41, 42)
    new = refresh_route_tables(kept, RING, edges)
    assert new.out is kept.out
    assert sorted(new.trees) == [0, 30]
    assert new.table(0)[14] == (7, (40,))
    assert new.table(30)[0] == (30, (42, 41))
    assert same_tables(tables_of(new), reference_route_tables(RING, edges))
    # nothing moved since: the record itself is kept, trees and all
    assert refresh_route_tables(new, RING, dict(edges)) is new
    assert sorted(new.trees) == sorted(RING)


def test_newly_blacklisted_gateway_drops_its_edge():
    """Blacklisting 28 leaves heads 7 and 14 without a gateway, so the
    designation drops their edge; the kept trees all go, and head 0
    reaches 14 the long way round."""
    kept = refresh_route_tables(None, RING, RING_EDGES)
    assert same_tables(tables_of(kept), reference_route_tables(RING, RING_EDGES))
    edges = {pair: gws for pair, gws in RING_EDGES.items() if pair != (7, 14)}
    new = refresh_route_tables(kept, RING, edges)
    assert new.trees == {}
    assert same_tables(tables_of(new), reference_route_tables(RING, edges))
    assert new.table(0)[14] == (21, (29,))
    # the same edges in another order leave every tree alone
    assert refresh_route_tables(new, RING, dict(reversed(edges.items()))) is new


@settings(max_examples=200, deadline=None)
@given(heads=st.lists(st.integers(0, 9), min_size=2, max_size=8, unique=True),
       data=st.data())
def test_refreshed_tables_match_a_build_from_scratch(heads, data):
    """Two refreshes in a row, each against the search from scratch of
    `topology_reference.py`: some heads' tables are read before the
    second refresh, which keeps their trees, and every head's after it."""
    def draw_edges():
        pairs = data.draw(st.lists(st.sampled_from(
            [(a, b) for a in heads for b in heads if a < b]),
            unique=True))
        return {p: tuple(data.draw(st.lists(st.integers(20, 26), min_size=1,
                                            max_size=2, unique=True)))
                for p in sorted(pairs)}

    edges = draw_edges()
    kept = refresh_route_tables(None, heads, edges)
    want = reference_route_tables(heads, edges)
    for ch in data.draw(st.lists(st.sampled_from(heads), unique=True)):
        assert list(kept.table(ch).items()) == list(want[ch].items())
    kept_trees = dict(kept.trees)
    if data.draw(st.booleans()):
        # the same pairs with other gateways
        edges = {p: data.draw(st.sampled_from((gws, (25,), (26, 20))))
                 for p, gws in edges.items()}
    else:
        edges = draw_edges()
    new = refresh_route_tables(kept, heads, edges)
    assert same_tables(tables_of(new), reference_route_tables(heads, edges))
    assert same_tables(tables_of(kept), want)
    assert all(kept.trees[ch] is tree for ch, tree in kept_trees.items())


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


def test_segment_table_marks_each_hop_of_a_crossing():
    plan, segments = build_plan([(0, ()), (9, (3, 4)), (7, (27,))], src=1, dst=7)
    assert plan == [1, 0, 3, 4, 9, 27, 7]
    assert segment_table(plan, segments) == [None, (1, 4), (1, 4), (1, 4),
                                             (4, 6), (4, 6)]


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.integers(0, 10 ** 6), min_size=15, max_size=15, unique=True),
       widths=st.lists(st.integers(1, 2), max_size=4),
       src_heads=st.booleans(), dst_heads=st.booleans())
def test_segment_table_matches_a_scan_of_the_segments(ids, widths, src_heads,
                                                      dst_heads):
    """Each hop's table entry is the segment the hop used to scan for."""
    fresh = iter(ids)
    ch_path = [(next(fresh), ())]
    for width in widths:
        gws = tuple(next(fresh) for _ in range(width))
        ch_path.append((next(fresh), gws))
    src = ch_path[0][0] if src_heads else next(fresh)
    dst = ch_path[-1][0] if dst_heads else next(fresh)
    assume(src != dst)
    plan, segments = build_plan(ch_path, src, dst)
    table = segment_table(plan, segments)
    assert len(table) == len(plan) - 1
    for idx, seg in enumerate(table):
        assert seg == next(((p, q) for (p, q) in segments if p <= idx < q), None)


def test_ack_plan_reverses_one_segment():
    plan = [1, 0, 27, 7, 28, 14, 29, 21, 22]
    assert ack_plan(plan, (1, 3)) == [7, 27, 0]
    assert ack_plan(plan, (3, 5)) == [14, 28, 7]


# ---- timing ----

def test_tx_time_anchor():
    assert tx_time(512, 2_000_000) == pytest.approx(0.002048)


def test_ack_timeout_scales_with_hops():
    one = ack_timeout(512, 2_000_000, 1, 4.0)
    assert one == pytest.approx(4 * 0.002048)
    assert ack_timeout(512, 2_000_000, 3, 4.0) == pytest.approx(3 * one)
