"""Single-hop cluster formation: fuzzy head election, membership upkeep,
gateway designation.

Every node sits at most one radio hop from its cluster head (CH).  Heads
are picked by the highest weighted combination of four membership values
in [0, 1]: residual energy, trust, (in)stability of relative mobility and
downlink-neighbor coverage.  Adjacent clusters talk through at most two
designated gateway members.
"""

from dataclasses import dataclass, field

from .errors import InvalidClusterHead, NoCandidates

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
class ElectionWeights:
    energy: float = 0.25
    trust: float = 0.25
    mobility: float = 0.25
    dnc: float = 0.25

    def __post_init__(self):
        total = self.energy + self.trust + self.mobility + self.dnc
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"election weights sum to {total}, expected 1")


@dataclass
class Cluster:
    ch_id: int
    members: set = field(default_factory=set)   # excludes the head itself
    gateways: set = field(default_factory=set)  # subset of members
    routes: dict = field(default_factory=dict)  # dest CH -> (previous CH, gateways into dest)

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


def composite_score(m: ElectionMetrics, w: ElectionWeights) -> float:
    return (w.energy * m.res_eng + w.trust * m.trust
            + w.mobility * m.mobility + w.dnc * m.dnc)


def elect_ch(candidates, weights: ElectionWeights) -> int:
    """Pick the head: highest composite score, lowest node id on ties.

    Candidates under the energy floor are skipped unless every candidate
    is under it.
    """
    cands = list(candidates)
    if not cands:
        raise NoCandidates("no election candidates")
    fit = [c for c in cands if c.res_eng >= ENERGY_FLOOR] or cands
    best = fit[0]
    score = composite_score(best, weights)
    for c in fit[1:]:
        s = composite_score(c, weights)
        if s > score or (s == score and c.node_id < best.node_id):
            best, score = c, s
    return best.node_id


def maintain_membership(clusters, alive, adjacency, metrics_fn, battery,
                        weights, may_head, may_join):
    """One topology upkeep pass over all clusters, in place.

    alive        set of node ids that still have energy
    adjacency    id -> set of current link-neighbor ids
    metrics_fn   (node id, incumbent head id or None) -> ElectionMetrics
    battery      id -> residual energy fraction, for the head energy floor
    may_head     id -> bool, False bars the node from the head role
    may_join     (node id, head id) -> bool, False bars joining that cluster

    Returns a list of (event, *details) tuples describing every change:
    members dropping out of range, dissolved and merged clusters, joins,
    and fresh elections for nodes left without a reachable head.

    A pass runs no beacon round, charges no battery and reassigns no
    node's cluster, so each node's metrics are fetched once per pass.
    """
    events = []
    fetched = {}

    def metrics_of(n):
        m = fetched.get(n)
        if m is None:
            m = fetched[n] = metrics_fn(n, None)
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
                cl.gateways.discard(m)
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
                sa = composite_score(metrics_of(a), weights)
                sb = composite_score(metrics_of(b), weights)
                win, lose = (a, b) if (sa, -a) >= (sb, -b) else (b, a)
                loose |= dissolve(lose, f"merged_into_{win}")
                events.append(("clusters_merged", win, lose))
                merged = True
                break
            if merged:
                break

    loose = {n for n in loose if n in alive}

    # Stray nodes join the lowest-id head in range that will have them.
    for n in sorted(loose | _unclustered(clusters, alive)):
        heads = [c for c in sorted(clusters)
                 if n in adjacency.get(c, ()) and may_join(n, c)]
        if heads:
            clusters[heads[0]].members.add(n)
            events.append(("member_joined", n, heads[0]))

    # Whoever is left elects heads among themselves, component by component.
    stray = _unclustered(clusters, alive)
    while stray:
        cands = [metrics_of(n) for n in sorted(stray) if may_head(n)]
        if not cands:
            break
        ch = elect_ch(cands, weights)
        members = {n for n in adjacency.get(ch, ()) if n in stray and may_join(n, ch)}
        clusters[ch] = Cluster(ch, members)
        events.append(("head_elected", ch, tuple(sorted(members))))
        stray -= members | {ch}

    return events


def _unclustered(clusters, alive):
    covered = set()
    for cl in clusters.values():
        covered |= cl.nodes()
    return {n for n in alive if n not in covered}


def gateway_candidates(clusters, adjacency, excluded):
    """Every way to link each pair of adjacent clusters, before scoring.

    Reads only the links, each head's members and the excluded ids, so a
    caller may keep the result until one of those changes.  Candidates come
    from member links, so only head pairs that have one are visited; a
    member may serve more than one head.  Returns ((ch_a, ch_b), width,
    ids) per linked head pair, in pair order, with ch_a < ch_b.  Width 1:
    ids are the members in range of both heads.  Width 2, only when there
    is no such member: ids are the linked (member of ch_a, member of ch_b)
    pairs, flattened.
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
    relays = {}    # (a, b) without a single -> linked (member of a, member of b) pairs, flat
    for m, own in heads_of.items():
        links = adjacency.get(m, ())
        for c in own:
            for n in links:
                for h in heads_of.get(n, ()):
                    if h > c and (c, h) not in singles:
                        relays.setdefault((c, h), []).extend((m, n))
    return tuple((pair, 1, tuple(singles[pair])) if pair in singles
                 else (pair, 2, tuple(relays[pair]))
                 for pair in sorted(singles.keys() | relays.keys()))


def designate_gateways(clusters, candidates, score_fn):
    """Pick at most two linking members per adjacent cluster pair.

    candidates is what `gateway_candidates` returned for these clusters.
    A list of one member or one relay pair leaves no choice, so score_fn
    is called once per id of the lists that hold more than one.  A single
    member in range of both heads beats any relay pair; among equals the
    higher score wins, then the lower id.  Both keys are total orders, so
    the winner does not depend on candidate order.  Returns
    {(ch_a, ch_b): (gateways...)} with ch_a < ch_b and the gateway tuple
    ordered from ch_a's side.  Also rewrites each cluster's gateway set.
    """
    for cl in clusters.values():
        cl.gateways = set()

    score = {}
    for _, width, ids in candidates:
        if len(ids) > width:
            for m in ids:
                if m not in score:
                    score[m] = score_fn(m)

    edges = {}
    for pair, width, ids in candidates:
        if len(ids) == width:
            edges[pair] = ids
            continue
        if width == 1:
            edges[pair] = (max(ids, key=lambda m: (score[m], -m)),)
            continue
        best_pair, best_key = None, None
        it = iter(ids)
        for ma, mb in zip(it, it):
            key = (score[ma] + score[mb], -ma, -mb)
            if best_key is None or key > best_key:
                best_pair, best_key = (ma, mb), key
        edges[pair] = best_pair

    for (a, b), gws in edges.items():
        for g in gws:
            for cl in (clusters[a], clusters[b]):
                if g in cl.members:
                    cl.gateways.add(g)
    return edges
