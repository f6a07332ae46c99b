"""Link-indexed gateway designation and the head route tables against the
all-pairs scan and the per-packet route search they replaced
(`topology_reference.py`).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import StubNode, StubWorld
from manetsim.clustering import Cluster, designate_gateways, gateway_candidates
from manetsim.errors import NoRoute
from manetsim.protocol import discover_route
from topology_reference import reference_designate_gateways, reference_discover_route

# ---- gateway designation ----


@st.composite
def member_graphs(draw):
    """Heads with (possibly shared) members, random links, some of them one
    way, excluded members and scores from a three-value set, so ties are
    common.  Members need not hear their own head, and heads may be cut
    off from everything."""
    n = draw(st.integers(2, 14))
    ids = list(range(n))
    heads = draw(st.lists(st.sampled_from(ids), unique=True, min_size=1,
                          max_size=max(1, n // 2)))
    members = {h: set() for h in heads}
    for nid in ids:
        if nid in heads:
            continue
        for h in draw(st.lists(st.sampled_from(heads), unique=True, max_size=2)):
            members[h].add(nid)
    pairs = [(a, b) for a in ids for b in ids if a < b]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    one_way = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3))
    adjacency = {}
    for a, b in links:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    for a, b in one_way:
        adjacency.setdefault(b, set()).add(a)
    excluded = set(draw(st.lists(st.sampled_from(ids), unique=True, max_size=3)))
    scores = {nid: draw(st.sampled_from((0.25, 0.5, 0.75))) for nid in ids}
    return members, adjacency, excluded, scores


def designate(fn, members, adjacency, excluded, scores):
    clusters = {h: Cluster(h, set(ms), gateways={-1}) for h, ms in members.items()}
    scored = set()

    def score_fn(nid):
        scored.add(nid)
        return scores[nid]

    edges = fn(clusters, adjacency, score_fn, excluded)
    return (list(edges.items()),
            {h: cl.gateways for h, cl in clusters.items()},
            scored)


def link_indexed(clusters, adjacency, score_fn, excluded):
    candidates = gateway_candidates(clusters, adjacency, excluded)
    return designate_gateways(clusters, candidates, score_fn)


# member 1 hears heads 0 and 5 but is excluded; 2 (shared by 0 and 5) and
# 6 tie as single bridges for (0, 5); 3 hears neither its head 0 nor 4 its
# head 5; relay pairs 3-10, 3-11 and 6-10 tie for (0, 12); head 9 hears
# nobody; every score is equal
@example(({0: {1, 2, 3, 6}, 5: {2, 4, 7}, 9: set(), 12: {10, 11}},
          {0: {1, 2, 6}, 1: {0, 5}, 2: {0, 5}, 3: {4, 10, 11}, 4: {3},
           5: {1, 2, 6, 7}, 6: {0, 5, 10}, 7: {5}, 10: {3, 6, 12}, 11: {3, 12},
           12: {10, 11}},
          {1}, dict.fromkeys(range(13), 0.5)))
@settings(max_examples=300, deadline=None)
@given(member_graphs())
def test_designation_matches_all_pairs_scan(case):
    """Equal winners and gateway sets; only the ids of candidate lists that
    offer a choice (more than one member, or more than one relay pair)
    are scored, where the all-pairs scan scores every candidate."""
    members, adjacency, excluded, scores = case
    edges, gateways, scored = designate(link_indexed, members, adjacency,
                                        excluded, scores)
    assert (edges, gateways) == designate(reference_designate_gateways, members,
                                          adjacency, excluded, scores)[:2]
    clusters = {h: Cluster(h, set(ms)) for h, ms in members.items()}
    assert scored == {m for _, width, ids in gateway_candidates(clusters, adjacency,
                                                                excluded)
                      if len(ids) > width for m in ids}


# ---- route tables ----


@st.composite
def gateway_graphs(draw):
    """Random head graphs whose edges carry one or two gateways, some of
    them blacklisted, plus members and unclustered nodes as endpoints."""
    k = draw(st.integers(1, 8))
    heads = list(range(0, 2 * k, 2))
    gateways = list(range(100, 112))
    pairs = [(a, b) for a in heads for b in heads if a < b]
    edges = {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))) if pairs else ():
        edges[pair] = tuple(draw(st.lists(st.sampled_from(gateways), unique=True,
                                          min_size=1, max_size=2)))
    blacklisted = draw(st.lists(st.sampled_from(gateways), unique=True, max_size=4))
    members = {h: set() for h in heads}
    for h in heads:
        if draw(st.booleans()):
            members[h].add(h + 1)
    unclustered = draw(st.booleans())
    return members, edges, blacklisted, unclustered


@example(({0: {1}, 2: set(), 4: set(), 6: {7}},
          {(0, 2): (100,), (0, 4): (101, 102), (2, 6): (103,), (4, 6): (104,)},
          [], True))
@example(({0: {1}, 2: set(), 4: {5}},
          {(0, 2): (100,), (2, 4): (101,)}, [101], False))
@settings(max_examples=300, deadline=None)
@given(gateway_graphs())
def test_table_walk_matches_per_packet_search(case):
    members, edges, blacklisted, unclustered = case
    world = StubWorld(clusters=members, edges=edges, blacklisted=blacklisted)
    if unclustered:
        world.nodes[99] = StubNode(None)
    for src in world.nodes:
        for dst in world.nodes:
            try:
                want = reference_discover_route(world, src, dst)
            except NoRoute:
                with pytest.raises(NoRoute):
                    discover_route(world, src, dst)
            else:
                assert discover_route(world, src, dst) == want
