"""Reference topology upkeep: the all-pairs gateway scan and the per-packet
route search that link-indexed designation and the head route tables
replaced, kept as the oracles for the differential tests.
"""

from collections import deque

from manetsim.errors import NoRoute


def reference_designate_gateways(clusters, adjacency, score_fn, excluded):
    """Every head pair, every member of both: O(heads^2 * members^2)."""
    edges = {}
    for cl in clusters.values():
        cl.gateways = set()

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

    for (a, b), gws in edges.items():
        for g in gws:
            for cl in (clusters[a], clusters[b]):
                if g in cl.members:
                    cl.gateways.add(g)
    return edges


def _ch_adjacency(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


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
