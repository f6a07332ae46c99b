"""Reference topology upkeep: the all-pairs neighbour scan with the
per-sample distance estimates of `radio_reference.py`, the both-way link
check the data plane made on every hop, the all-pairs gateway scan,
the per-packet route search and the route tables searched afresh on every
build, which the grid, adjacency lookups, link-indexed designation, the
head route tables and the kept search trees replaced, kept as the oracles
for the differential tests.
"""

from collections import deque

from manetsim.errors import NoRoute
from manetsim.radio import MIN_DISTANCE_M
from radio_reference import estimate_distance, friis_recv_power


def reference_link(a, b, params):
    """The link rule from current positions: in range, and each node hears
    the other above the sensitivity floor."""
    d = a.pos.distance_to(b.pos)
    if d > params.radio_range:
        return False
    d = max(d, MIN_DISTANCE_M)
    return (friis_recv_power(a.tx_power, d, params) >= params.recv_power_floor
            and friis_recv_power(b.tx_power, d, params) >= params.recv_power_floor)


def reference_estimate(sender, receiver, params):
    """The distance the receiver estimates from the sender's HELLO."""
    d = max(sender.pos.distance_to(receiver.pos), MIN_DISTANCE_M)
    return estimate_distance(sender.tx_power,
                             friis_recv_power(sender.tx_power, d, params), params)


def reference_adjacency(nodes, params):
    """Every pair of live nodes in id order: (adjacency, neighbours in id
    order, linked pairs as `World._pairs` holds them, each with the
    estimate of each direction)."""
    r = params.radio_range
    adj = {nid: set() for nid in nodes if nodes[nid].alive}
    ids = sorted(adj)
    pairs = []
    for i, a in enumerate(ids):
        na = nodes[a]
        for b in ids[i + 1:]:
            nb = nodes[b]
            dx, dy = na.pos.x - nb.pos.x, na.pos.y - nb.pos.y
            if dx * dx + dy * dy <= r * r and reference_link(na, nb, params):
                adj[a].add(b)
                adj[b].add(a)
                pairs.append((a, b, reference_estimate(na, nb, params),
                              reference_estimate(nb, na, params)))
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


def reference_route_tables(heads, edges, blacklisted):
    """One breadth-first search per head over the usable edges, from
    scratch: {head: {dest: (previous head, gateways into dest)}} in
    discovery order, neighbours visited in ascending id order."""
    out = {}
    for (a, b), gws in edges.items():
        if any(g in blacklisted for g in gws):
            continue
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
