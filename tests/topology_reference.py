"""Reference topology upkeep: the all-pairs neighbour scan with the
per-sample distance estimates of `radio_reference.py`, the both-way link
check the data plane made on every hop, the all-pairs gateway scan,
the per-packet route search and the route tables searched afresh on every
build, which the grid, adjacency lookups, link-indexed designation, the
head route tables and the kept search trees replaced, kept as the oracles
for the differential tests; and the membership pass that ran a full
election (`elect_ch`) over the strays left for every head it elected,
which one ranking per pass replaced.
"""

from collections import deque

from manetsim.clustering import (ENERGY_FLOOR, Cluster, _unclustered,
                                 composite_score)
from manetsim.errors import NoRoute, SimulationError
from manetsim.radio import MIN_DISTANCE_M
from radio_reference import estimate_distance, friis_recv_power


class NoCandidates(SimulationError):
    """Election was asked to pick a head from an empty candidate set."""


def reference_link(a, b, cfg):
    """The link rule from current positions: in range, and each node hears
    the other above the sensitivity floor, by the `SimConfig` cfg."""
    d = a.pos.distance_to(b.pos)
    if d > cfg.radio_range:
        return False
    d = max(d, MIN_DISTANCE_M)
    return (friis_recv_power(a.tx_power, d, cfg) >= cfg.recv_power_floor
            and friis_recv_power(b.tx_power, d, cfg) >= cfg.recv_power_floor)


def reference_estimate(sender, receiver, cfg):
    """The distance the receiver estimates from the sender's HELLO."""
    d = max(sender.pos.distance_to(receiver.pos), MIN_DISTANCE_M)
    return estimate_distance(sender.tx_power,
                             friis_recv_power(sender.tx_power, d, cfg), cfg)


def reference_adjacency(nodes, cfg):
    """Every pair of live nodes in id order: (adjacency, neighbours in id
    order, linked pairs as `World._pairs` holds them, each with the
    estimate of each direction)."""
    r = cfg.radio_range
    adj = {nid: set() for nid in nodes if nodes[nid].alive}
    ids = sorted(adj)
    pairs = []
    for i, a in enumerate(ids):
        na = nodes[a]
        for b in ids[i + 1:]:
            nb = nodes[b]
            dx, dy = na.pos.x - nb.pos.x, na.pos.y - nb.pos.y
            if dx * dx + dy * dy <= r * r and reference_link(na, nb, cfg):
                adj[a].add(b)
                adj[b].add(a)
                pairs.append((a, b, reference_estimate(na, nb, cfg),
                              reference_estimate(nb, na, cfg)))
    return adj, {nid: sorted(nbs) for nid, nbs in adj.items()}, pairs


def reference_designate_gateways(clusters, adjacency, score_fn, excluded):
    """Every head pair, every member of both: O(heads^2 * members^2)."""
    edges = {}
    heads = sorted(clusters)
    for i, a in enumerate(heads):
        for b in heads[i + 1:]:
            ca, cb = clusters[a], clusters[b]
            pool_a = sorted(m for m in ca.members if m not in excluded)
            pool_b = sorted(m for m in cb.members if m not in excluded)
            single = [m for m in pool_a + pool_b
                      if a in adjacency.get(m, ()) and b in adjacency.get(m, ())]
            if single:
                best = max(single, key=lambda m: (score_fn(m), -m))
                edges[(a, b)] = (best,)
                continue
            best_pair, best_key = None, None
            for ma in pool_a:
                for mb in pool_b:
                    if mb not in adjacency.get(ma, ()):
                        continue
                    key = (score_fn(ma) + score_fn(mb), -ma, -mb)
                    if best_key is None or key > best_key:
                        best_pair, best_key = (ma, mb), key
            if best_pair:
                edges[(a, b)] = best_pair
    return edges


def elect_ch(candidates, cfg):
    """Pick the head: highest composite score by the `SimConfig` cfg's
    weights, lowest node id on ties.

    Candidates under the energy floor are skipped unless every candidate
    is under it.
    """
    cands = list(candidates)
    if not cands:
        raise NoCandidates("no election candidates")
    fit = [c for c in cands if c.res_eng >= ENERGY_FLOOR] or cands
    best = fit[0]
    score = composite_score(best, cfg)
    for c in fit[1:]:
        s = composite_score(c, cfg)
        if s > score or (s == score and c.node_id < best.node_id):
            best, score = c, s
    return best.node_id


def reference_maintain_membership(clusters, alive, adjacency, metrics_fn,
                                  battery, cfg, may_head, may_join):
    """`clustering.maintain_membership` with a full election over the
    strays still left for every head it elects."""
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

    for ch_id in sorted(clusters):
        cl = clusters[ch_id]
        for m in sorted(cl.members):
            if m not in alive or m not in adjacency.get(ch_id, ()):
                cl.members.discard(m)
                if m in alive:
                    events.append(("member_left", m, ch_id))

    loose = set()
    for ch_id in sorted(clusters):
        if ch_id not in alive:
            loose |= dissolve(ch_id, "head_dead") - {ch_id}
        elif battery(ch_id) < ENERGY_FLOOR:
            loose |= dissolve(ch_id, "head_energy_floor")

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

    for n in sorted(loose | _unclustered(clusters, alive)):
        if not may_join(n):
            continue
        heads = [c for c in sorted(clusters) if n in adjacency.get(c, ())]
        if heads:
            clusters[heads[0]].members.add(n)
            events.append(("member_joined", n, heads[0]))

    stray = _unclustered(clusters, alive)
    while stray:
        cands = [metrics_of(n) for n in sorted(stray) if may_head(n)]
        if not cands:
            break
        ch = elect_ch(cands, cfg)
        members = {n for n in adjacency.get(ch, ()) if n in stray and may_join(n)}
        clusters[ch] = Cluster(ch, members)
        events.append(("head_elected", ch, tuple(sorted(members))))
        stray -= members | {ch}

    return events


def gateway_sets(clusters, edges):
    """Head -> the members of its cluster that serve as a gateway on one of
    the edges."""
    sets = {ch: set() for ch in clusters}
    for (a, b), gws in edges.items():
        for g in gws:
            for ch in (a, b):
                if g in clusters[ch].members:
                    sets[ch].add(g)
    return sets


def _ch_adjacency(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def reference_route_tables(heads, edges):
    """One breadth-first search per head over the edges, from scratch:
    {head: {dest: (previous head, gateways into dest)}} in discovery
    order, neighbours visited in ascending id order."""
    out = {}
    for (a, b), gws in edges.items():
        out.setdefault(a, []).append((b, gws))
        out.setdefault(b, []).append((a, tuple(reversed(gws))))
    for links in out.values():
        links.sort()
    tables = {}
    for ch in heads:
        routes = {}
        frontier = [ch]
        while frontier:
            nxt = []
            for cur in frontier:
                for other, gws in out.get(cur, ()):
                    if other != ch and other not in routes:
                        routes[other] = (cur, gws)
                        nxt.append(other)
            frontier = nxt
        tables[ch] = routes
    return tables


def reference_discover_route(world, src, dst):
    """A fresh breadth-first search over `world.edges` for one packet."""
    ch_s = world.nodes[src].cluster
    ch_d = world.nodes[dst].cluster
    if ch_s is None:
        raise NoRoute(f"source {src} unclustered")
    if ch_d is None:
        raise NoRoute(f"destination {dst} unclustered")
    if ch_s == ch_d:
        return [(ch_s, ())]

    usable = {pair: gws for pair, gws in world.edges.items()
              if not any(g in world.blacklisted for g in gws)}
    adj = _ch_adjacency(usable)
    parent = {ch_s: None}
    queue = deque([ch_s])
    while queue:
        cur = queue.popleft()
        if cur == ch_d:
            break
        for nxt in sorted(adj.get(cur, ())):
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    if ch_d not in parent:
        raise NoRoute(f"no head path {ch_s} -> {ch_d}")

    order = [ch_d]
    while parent[order[-1]] is not None:
        order.append(parent[order[-1]])
    order.reverse()

    path = [(ch_s, ())]
    for prev, cur in zip(order, order[1:]):
        gws = usable[(prev, cur)] if (prev, cur) in usable else tuple(reversed(usable[(cur, prev)]))
        path.append((cur, gws))
    return path
