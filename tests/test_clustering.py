import pytest
from hypothesis import example, given, settings, strategies as st

from manetsim.beacon import Battery, Clock, residual
from manetsim.clustering import (Cluster, ElectionMetrics, ElectionWeights,
                                 composite_score, designate_gateways, dnc,
                                 gateway_candidates, maintain_membership,
                                 mobility_membership)
from manetsim.errors import InvalidClusterHead, InvalidEnergy
from topology_reference import (NoCandidates, elect_ch, gateway_sets,
                                reference_maintain_membership)

W = ElectionWeights()


def cand(node_id, r=1.0, t=0.5, m=1.0, d=0.5):
    return ElectionMetrics(node_id, r, t, m, d)


# ---- membership functions ----

def spent(joules, total):
    """A battery of total joules whose counters' bill is joules."""
    b = Battery(300.0, 50.0, total, 2e6, Clock())
    b.spent = joules
    return b


def test_res_eng_anchors():
    """The election's energy input, read from a battery."""
    assert residual(spent(0.0, 10.0)) == 1.0
    assert residual(spent(6.0, 10.0)) == pytest.approx(0.4)
    assert residual(spent(10.0, 10.0)) == 0.0
    # the bill is capped at the total
    assert residual(spent(12.5, 10.0)) == 0.0


def test_res_eng_rejects_zero_total():
    with pytest.raises(InvalidEnergy):
        residual(spent(1.0, 0.0))


def test_dnc_anchors():
    assert dnc(4, 4) == 0.5       # matching the head is the midpoint
    assert dnc(10, 4) == 1.0      # saturates at twice the head's count
    assert dnc(8, 4) == 1.0
    assert dnc(0, 4) == 0.0


def test_dnc_rejects_isolated_head():
    with pytest.raises(InvalidClusterHead):
        dnc(3, 0)


def test_mobility_membership_anchors():
    assert mobility_membership(0.0, 30.0) == 1.0
    assert mobility_membership(15.0, 30.0) == 0.5
    assert mobility_membership(-15.0, 30.0) == 0.5
    assert mobility_membership(30.0, 30.0) == 0.0
    assert mobility_membership(99.0, 30.0) == 0.0


def test_composite_score_anchor():
    m = cand(0, r=0.8, t=0.5, m=0.6, d=0.5)
    assert composite_score(m, W) == pytest.approx(0.6)


def test_composite_is_projection_at_unit_weight():
    m = cand(0, r=0.3, t=0.9, m=0.1, d=0.7)
    w = ElectionWeights(energy=0.0, trust=1.0, mobility=0.0, dnc=0.0)
    assert composite_score(m, w) == pytest.approx(0.9)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ElectionWeights(energy=0.5, trust=0.5, mobility=0.5, dnc=0.5)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_composite_stays_in_unit_interval(r, t, m, d):
    assert 0.0 <= composite_score(cand(0, r, t, m, d), W) <= 1.0


# ---- election (the reference the ranked elections are checked against) ----

def test_elect_highest_score():
    assert elect_ch([cand(1, t=0.5), cand(2, t=0.9)], W) == 2


def test_elect_tie_breaks_to_lowest_id():
    assert elect_ch([cand(7), cand(3)], W) == 3


def test_elect_skips_under_energy_floor():
    # node 1 scores higher but sits below the 40% floor
    assert elect_ch([cand(1, r=0.39, t=1.0, d=1.0), cand(2)], W) == 2


def test_elect_floor_waived_when_nobody_qualifies():
    assert elect_ch([cand(5, r=0.1), cand(6, r=0.2)], W) == 6


def test_elect_empty_pool():
    with pytest.raises(NoCandidates):
        elect_ch([], W)


# ---- membership upkeep ----

def upkeep(clusters, alive, adjacency, res=None):
    res = res or {}

    def metrics_fn(n):
        return cand(n, r=res.get(n, 1.0))

    def battery(n):
        return res.get(n, 1.0)

    return maintain_membership(clusters, alive, adjacency, metrics_fn, battery, W,
                               may_head=lambda n: True,
                               may_join=lambda n: True)


def test_out_of_range_member_rejoins_reachable_head():
    clusters = {0: Cluster(0, {1, 2}), 5: Cluster(5, {6})}
    adjacency = {0: {1}, 1: {0}, 2: {5}, 5: {2, 6}, 6: {5}}
    events = upkeep(clusters, {0, 1, 2, 5, 6}, adjacency)
    assert ("member_left", 2, 0) in events
    assert ("member_joined", 2, 5) in events
    assert clusters[5].members == {2, 6}


def test_dead_head_dissolves_and_members_reelect():
    clusters = {0: Cluster(0, {1, 2})}
    adjacency = {1: {2}, 2: {1}}
    events = upkeep(clusters, {1, 2}, adjacency)
    assert ("cluster_dissolved", 0, "head_dead") in events
    assert ("head_elected", 1, (2,)) in events
    assert set(clusters) == {1}


def test_drained_head_steps_down():
    clusters = {0: Cluster(0, {1})}
    adjacency = {0: {1}, 1: {0}}
    events = upkeep(clusters, {0, 1}, adjacency, res={0: 0.39})
    assert ("cluster_dissolved", 0, "head_energy_floor") in events
    # the stronger node now heads the re-formed cluster
    assert set(clusters) == {1}
    assert clusters[1].members == {0}


def test_adjacent_heads_merge_to_better_one():
    clusters = {0: Cluster(0, {1}), 2: Cluster(2, {3})}
    adjacency = {0: {1, 2, 3}, 1: {0}, 2: {0, 3}, 3: {0, 2}}
    events = upkeep(clusters, {0, 1, 2, 3}, adjacency, res={2: 0.8})
    assert ("clusters_merged", 0, 2) in events
    assert set(clusters) == {0}
    assert clusters[0].members == {1, 2, 3}


def test_isolated_node_heads_itself():
    clusters = {}
    events = upkeep(clusters, {9}, {})
    assert events == [("head_elected", 9, ())]
    assert clusters[9].members == set()


@st.composite
def membership_states(draw):
    """Disjoint clusters over up to 14 nodes, some of them dead, random
    links, bars on heading and joining, and election terms from small
    sets, so score ties are common; in some states every node is under
    the energy floor."""
    n = draw(st.integers(1, 14))
    ids = list(range(n))
    alive = set(ids) - set(draw(st.lists(st.sampled_from(ids), unique=True,
                                          max_size=3)))
    heads = draw(st.lists(st.sampled_from(ids), unique=True, max_size=n // 2 + 1))
    members = {h: set() for h in heads}
    for nid in ids:
        if nid not in members:
            h = draw(st.sampled_from([None] + heads))
            if h is not None:
                members[h].add(nid)
    pairs = [(a, b) for a in ids for b in ids if a < b]
    adjacency = {}
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))) if pairs else ():
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    levels = (0.1, 0.3) if draw(st.booleans()) else (0.1, 0.3, 0.5, 0.9)
    terms = {nid: (draw(st.sampled_from(levels)), draw(st.sampled_from((0.25, 0.5))),
                   1.0, draw(st.sampled_from((0.25, 0.5))))
             for nid in ids}
    barred_head = set(draw(st.lists(st.sampled_from(ids), unique=True, max_size=3)))
    barred_join = set(draw(st.lists(st.sampled_from(ids), unique=True, max_size=2)))
    return members, alive, adjacency, terms, barred_head, barred_join


# every stray under the floor, all tied: 0 heads 1, then 2 heads itself
@example(({}, {0, 1, 2}, {0: {1}, 1: {0, 2}, 2: {1}},
          dict.fromkeys(range(3), (0.3, 0.5, 1.0, 0.5)), set(), set()))
# 0 outscores 1 but is under the floor, and 2 scores highest but may not
# head, so 1 heads 0 and 2
@example(({}, {0, 1, 2}, {0: {1}, 1: {0, 2}, 2: {1}},
          {0: (0.3, 0.5, 1.0, 0.5), 1: (0.5, 0.25, 1.0, 0.25),
           2: (0.9, 0.5, 1.0, 0.5)}, {2}, set()))
# the head 0 falls under the floor and 1, 2 and 3 tie: 1 heads 0, then 2
# heads itself, and so does 3, which may not join 1
@example(({0: {1, 2}}, {0, 1, 2, 3}, {0: {1, 2}, 1: {0, 3}, 2: {0}, 3: {1}},
          {0: (0.3, 0.5, 1.0, 0.5), 1: (0.5, 0.25, 1.0, 0.25),
           2: (0.5, 0.25, 1.0, 0.25), 3: (0.5, 0.25, 1.0, 0.25)}, set(), {3}))
@settings(max_examples=300, deadline=None)
@given(membership_states())
def test_ranked_elections_match_an_election_per_head(case):
    """One ranking per pass elects the heads a full election over the
    strays still left elects, in the same order: equal events and equal
    clusters, in insertion order."""
    members, alive, adjacency, terms, barred_head, barred_join = case
    runs = []
    for upkeep_fn in (maintain_membership, reference_maintain_membership):
        clusters = {h: Cluster(h, set(ms)) for h, ms in members.items()}
        events = upkeep_fn(clusters, alive, adjacency,
                           lambda n: ElectionMetrics(n, *terms[n]),
                           lambda n: terms[n][0], W,
                           may_head=lambda n: n not in barred_head,
                           may_join=lambda n: n not in barred_join)
        runs.append((events, [(ch, cl.members) for ch, cl in clusters.items()]))
    assert runs[0] == runs[1]


# ---- gateway designation ----

def adjacency_from(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def designate(clusters, adj, score_fn, excluded):
    return designate_gateways(gateway_candidates(clusters, adj, excluded), score_fn)


def test_single_node_bridge_beats_relay_pair():
    clusters = {0: Cluster(0, {1, 2}), 5: Cluster(5, {6, 7})}
    # node 2 hears both heads; 1-6 would also work as a pair
    adj = adjacency_from([(0, 1), (0, 2), (2, 5), (5, 6), (5, 7), (1, 6)])
    edges = designate(clusters, adj, lambda n: 0.5, set())
    assert edges == {(0, 5): (2,)}
    # the bridge is a member of cluster 0 only, so it serves only 0
    assert gateway_sets(clusters, edges) == {0: {2}, 5: set()}


def test_relay_pair_when_no_single_bridge():
    clusters = {0: Cluster(0, {1}), 5: Cluster(5, {6})}
    adj = adjacency_from([(0, 1), (1, 6), (6, 5)])
    edges = designate(clusters, adj, lambda n: 0.5, set())
    assert edges == {(0, 5): (1, 6)}
    assert gateway_sets(clusters, edges) == {0: {1}, 5: {6}}


def test_gateway_choice_prefers_higher_score_then_lower_id():
    clusters = {0: Cluster(0, {1, 2}), 5: Cluster(5, {6})}
    adj = adjacency_from([(0, 1), (0, 2), (1, 5), (2, 5), (5, 6)])
    score = {1: 0.2, 2: 0.9}
    edges = designate(clusters, adj, score.get, set())
    assert edges == {(0, 5): (2,)}
    tied = designate(clusters, adj, lambda n: 0.5, set())
    assert tied == {(0, 5): (1,)}


def test_excluded_members_never_serve_as_gateways():
    clusters = {0: Cluster(0, {1, 2}), 5: Cluster(5, {6})}
    adj = adjacency_from([(0, 1), (0, 2), (1, 5), (2, 5), (5, 6)])
    edges = designate(clusters, adj, lambda n: 0.5, {1})
    assert edges == {(0, 5): (2,)}


def test_unreachable_pair_gets_no_edge():
    clusters = {0: Cluster(0, {1}), 5: Cluster(5, {6})}
    adj = adjacency_from([(0, 1), (5, 6)])
    assert designate(clusters, adj, lambda n: 0.5, set()) == {}
