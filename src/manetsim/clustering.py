"""Single-hop cluster formation: fuzzy head election, membership upkeep,
gateway designation.

Every node sits at most one radio hop from its cluster head (CH).  Heads
are picked by the highest weighted combination of four membership values
in [0, 1]: residual energy, trust, (in)stability of relative mobility and
downlink-neighbor coverage.  Adjacent clusters talk through at most two
designated gateway members.
"""

from dataclasses import dataclass, field
from itertools import chain

from .errors import InvalidClusterHead

# Heads need at least 40% battery to take or keep the role (unless nobody
# qualifies, in which case the least-bad candidate still gets elected).
ENERGY_FLOOR = 0.4

# Fallback coverage membership when there is no incumbent head to compare
# downlink-neighbor counts against (initial formation).
DNC_DEFAULT = 0.5


@dataclass
class ElectionMetrics:
    """Fuzzified election inputs for one candidate, all in [0, 1].

    mobility is the membership value (1 = stationary relative to
    neighbors), not the raw m/s figure.
    """
    node_id: int
    res_eng: float
    trust: float
    mobility: float
    dnc: float


@dataclass
class Cluster:
    ch_id: int
    members: set = field(default_factory=set)   # excludes the head itself

    def nodes(self):
        return {self.ch_id} | self.members


def dnc(ndnb_ni: int, ndnb_ch: int) -> float:
    """Downlink-neighbor coverage of a candidate against the incumbent head.

    Twice the head's count is treated as the ideal; candidates at or above
    it saturate at 1.  A candidate matching the head exactly scores 0.5.
    """
    if ndnb_ch < 1:
        raise InvalidClusterHead(f"head has {ndnb_ch} downlink neighbors")
    ednb = min(ndnb_ni, 2 * ndnb_ch)
    return ednb / (2 * ndnb_ch)


def mobility_membership(avg_mob: float, v_max: float) -> float:
    """Map relative mobility to [0, 1], 1 = stationary, 0 = at or past v_max."""
    if v_max <= 0:
        raise ValueError(f"v_max={v_max}")
    return 1.0 - min(abs(avg_mob) / v_max, 1.0)


def composite_score(m: ElectionMetrics, cfg) -> float:
    """The candidate's terms weighted by the run's `SimConfig`
    (`weight_energy`, `weight_trust`, `weight_mobility`, `weight_dnc`)."""
    return (cfg.weight_energy * m.res_eng + cfg.weight_trust * m.trust
            + cfg.weight_mobility * m.mobility + cfg.weight_dnc * m.dnc)


def maintain_membership(clusters, alive, adjacency, metrics_fn, battery,
                        cfg, may_head, may_join):
    """One topology upkeep pass over all clusters, in place.

    alive        set of node ids that still have energy
    adjacency    id -> the ids linked to it
    metrics_fn   node id -> ElectionMetrics
    battery      id -> residual energy fraction, for the head energy floor
    cfg          the run's `SimConfig`, whose election weights score heads
    may_head     id -> bool, False bars the node from the head role
    may_join     id -> bool, False bars the node from joining any cluster

    Returns a list of (event, *details) tuples describing every change:
    members dropping out of range, dissolved and merged clusters, joins,
    and fresh elections for nodes left without a reachable head.

    A pass runs no beacon round, charges no battery and reassigns no
    node's cluster, so each node's metrics are fetched once per pass, and
    the strays that may head are ranked once: each election is the pick of
    a full election among the candidates still stray.
    """
    events = []
    fetched = {}

    def metrics_of(n):
        m = fetched.get(n)
        if m is None:
            m = fetched[n] = metrics_fn(n)
        return m

    def dissolve(ch_id, reason):
        cl = clusters.pop(ch_id)
        events.append(("cluster_dissolved", ch_id, reason))
        return cl.nodes()

    # Members that died or drifted out of their head's range leave.
    for ch_id in sorted(clusters):
        cl = clusters[ch_id]
        for m in sorted(cl.members):
            if m not in alive or m not in adjacency.get(ch_id, ()):
                cl.members.discard(m)
                if m in alive:
                    events.append(("member_left", m, ch_id))

    # Heads that died or fell under the energy floor give the cluster up.
    loose = set()
    for ch_id in sorted(clusters):
        if ch_id not in alive:
            loose |= dissolve(ch_id, "head_dead") - {ch_id}
        elif battery(ch_id) < ENERGY_FLOOR:
            loose |= dissolve(ch_id, "head_energy_floor")

    # Heads within one hop of each other merge, better head keeps the role.
    merged = True
    while merged:
        merged = False
        for a in sorted(clusters):
            for b in sorted(adjacency.get(a, ())):
                if b <= a or b not in clusters:
                    continue
                sa = composite_score(metrics_of(a), cfg)
                sb = composite_score(metrics_of(b), cfg)
                win, lose = (a, b) if (sa, -a) >= (sb, -b) else (b, a)
                loose |= dissolve(lose, f"merged_into_{win}")
                events.append(("clusters_merged", win, lose))
                merged = True
                break
            if merged:
                break

    loose = {n for n in loose if n in alive}

    # Stray nodes that may join take the lowest-id head in range.
    for n in sorted(loose | _unclustered(clusters, alive)):
        if not may_join(n):
            continue
        heads = [c for c in sorted(clusters) if n in adjacency.get(c, ())]
        if heads:
            clusters[heads[0]].members.add(n)
            events.append(("member_joined", n, heads[0]))

    # Whoever is left elects heads among themselves, component by component.
    # Each election takes the first candidate of one ranking that is still
    # stray: candidates at or above the energy floor before those under it
    # (unless none is left), the highest score first, the lowest id on ties.
    stray = _unclustered(clusters, alive)
    ranking = sorted(
        (m.res_eng < ENERGY_FLOOR, -composite_score(m, cfg), n)
        for n in sorted(stray) if may_head(n) for m in (metrics_of(n),))
    for _, _, ch in ranking:
        if ch not in stray:
            continue
        members = {n for n in adjacency.get(ch, ()) if n in stray and may_join(n)}
        clusters[ch] = Cluster(ch, members)
        events.append(("head_elected", ch, tuple(sorted(members))))
        stray -= members | {ch}

    return events


def _unclustered(clusters, alive):
    covered = set()
    for cl in clusters.values():
        covered |= cl.nodes()
    return {n for n in alive if n not in covered}


@dataclass
class GatewayCandidates:
    """The candidate lists of `gateway_candidates` and the last designation
    made from them (see `designate_gateways`).

    lists    ((ch_a, ch_b), width, ids) per linked head pair
    scores   id -> its score when last computed, for the ids of lists
             that offer a choice
    terms    id -> the `ElectionMetrics` its score was last computed
             from, for a score function that keeps them (the World's does)
    edges    the last designation's edges, None before the first
    moved    ids whose score may have risen since the last designation
    rivals   head pair -> the highest key by the stored scores among the
             candidates other than the pair's winner, () when there is
             none; None until the designation first reuses the record
    """
    lists: tuple
    scores: dict = field(default_factory=dict)
    terms: dict = field(default_factory=dict)
    edges: dict = None
    moved: set = field(default_factory=set)
    rivals: dict = None


def gateway_candidates(clusters, adjacency, excluded):
    """Every way to link each pair of adjacent clusters, before scoring.

    `adjacency` maps id -> the ids linked to it.
    Reads only the links, each head's members and the excluded ids, so a
    caller may keep the result until one of those changes.  Candidates come
    from member links, so only head pairs that have one are visited; a
    member may serve more than one head.  Returns a `GatewayCandidates`
    whose lists hold ((ch_a, ch_b), width, ids) per linked head pair, in
    pair order, with ch_a < ch_b.  Width 1: ids are the members in range
    of both heads, in ascending order.  Width 2, only when there is no such
    member: ids are the linked (member of ch_a, member of ch_b) pairs, in
    ascending order, flattened.
    """
    heads_of = {}
    for c in sorted(clusters):
        for m in clusters[c].members:
            if m not in excluded:
                heads_of.setdefault(m, []).append(c)
    singles = {}   # (a, b) -> members of a or b in range of both heads
    for m, own in heads_of.items():
        links = adjacency.get(m, ())
        for c in own:
            if c in links:
                for h in links:
                    if h != c and h in clusters:
                        singles.setdefault((c, h) if c < h else (h, c), []).append(m)
    relays = {}    # (a, b) without a single -> linked (member of a, member of b) pairs
    for m, own in heads_of.items():
        links = adjacency.get(m, ())
        for c in own:
            for n in links:
                for h in heads_of.get(n, ()):
                    if h > c and (c, h) not in singles:
                        relays.setdefault((c, h), []).append((m, n))
    return GatewayCandidates(tuple(
        (pair, 1, tuple(sorted(singles[pair]))) if pair in singles
        else (pair, 2, tuple(chain.from_iterable(sorted(relays[pair]))))
        for pair in sorted(singles.keys() | relays.keys())))


def _best(width, ids, scores):
    """The member, or relay pair, of ids with the highest key by scores.
    ids are in ascending order and max keeps the first of equal scores, so
    ties go to the lower id."""
    if width == 1:
        return (max(ids, key=scores.__getitem__),)
    it = iter(ids)
    return max(zip(it, it), key=lambda p: scores[p[0]] + scores[p[1]])


def _key(width, entry, scores):
    """The key of a member, (score, -id), or of a relay pair,
    (score_a + score_b, -id_a, -id_b), by scores."""
    if width == 1:
        return (scores[entry[0]], -entry[0])
    a, b = entry
    return (scores[a] + scores[b], -a, -b)


def _rival(width, ids, winner, scores):
    """The highest key by scores among the entries of ids other than the
    winner, () when the winner is all there is (a member listed twice)."""
    if width == 1:
        return max(((scores[m], -m) for m in ids if m != winner[0]), default=())
    it = iter(ids)
    return max(((scores[a] + scores[b], -a, -b) for a, b in zip(it, it)
                if (a, b) != winner), default=())


def designate_gateways(candidates, score_fn):
    """Pick at most two linking members per adjacent cluster pair.

    candidates is what `gateway_candidates` returned for the clusters.
    A single member in range of both heads beats any relay pair.  Among
    single members the key (score, -id) decides, among relay pairs
    (score_a + score_b, -id_a, -id_b); the highest key wins.  A list of one
    member or one relay pair leaves no choice and is not scored.  Returns
    {(ch_a, ch_b): (gateways...)} with ch_a < ch_b and the gateway tuple
    ordered from ch_a's side.

    The first call on a candidates record scores every id of the lists
    that offer a choice and stores the scores and the edges in the record.
    A later call reuses them, and the caller vouches that since the last
    call no id's score has risen unless the id is in candidates.moved.  A
    stored score is then an upper bound on the id's score now, and so is a
    sum of stored scores on the relay pair's sum now, since float addition
    never falls when a term rises.  So only the moved ids and each list's
    last winner are scored again: a winner whose fresh key beats the
    highest key of its rivals by the stored scores beats every rival's key
    now, and stays.  A list whose winner fails that test is scored again
    in full.  No id is scored twice in one call.

    The rivals' highest key is stored per list, so a kept winner costs one
    comparison.  It is computed the first time a call reuses the record
    (a record that is never reused, as on a mobile field, pays nothing for
    it) and again after its list was scored in full or one of its ids
    moved; otherwise it stays an upper bound, as the stored scores do.
    The moved ids' entries in candidates.terms are dropped, so the score
    function computes their terms afresh.
    """
    scores, kept, moved = candidates.scores, candidates.edges, candidates.moved
    fresh = set()

    def rescore(ids):
        for m in ids:
            if m not in fresh:
                fresh.add(m)
                scores[m] = score_fn(m)

    if kept is not None:
        for m in moved:
            candidates.terms.pop(m, None)
        rescore(sorted(moved & scores.keys()))
        if candidates.rivals is None:
            candidates.rivals = {}
    rivals = candidates.rivals

    edges = {}
    for pair, width, ids in candidates.lists:
        if len(ids) == width:
            edges[pair] = ids
            continue
        if kept is not None:
            winner = kept[pair]
            rescore(winner)
            rival = rivals.get(pair)
            if rival is None or not moved.isdisjoint(ids):
                rival = rivals[pair] = _rival(width, ids, winner, scores)
            if _key(width, winner, scores) > rival:
                edges[pair] = winner
                continue
            del rivals[pair]
        rescore(ids)
        edges[pair] = _best(width, ids, scores)
    moved.clear()
    candidates.edges = edges
    return edges
