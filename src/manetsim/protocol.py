"""Session admission and cluster-head mediated routing.

All traffic is relayed through heads: a member hands its packet to its
head, the head forwards it across designated gateways to the next head,
and the destination's head delivers the final hop.  Every topology
refresh runs one breadth-first search per head over the head graph and
keeps its parent tree as that head's route table; forwarding reads each
path back from the table, so routes minimize head-to-head hops, and
blacklisted nodes never appear on them.
"""

from . import trust
from .errors import NoRoute, RejectedBlacklisted, RejectedUntrusted


def originate_request(world, src: int, dst: int, now: float):
    """Admission check at the head for one transfer request.

    Positive trust is the entry ticket; blacklisted nodes are refused
    regardless.  Returns the requester's trust snapshot used later for
    queue priority.
    """
    if src in world.blacklisted:
        raise RejectedBlacklisted(f"node {src}")
    if dst in world.blacklisted:
        # exclusion is network-wide: outlaws get no service as sinks either
        raise RejectedBlacklisted(f"destination {dst}")
    value = trust.trust_value(world.trust_registry[src])
    if value <= 0:
        raise RejectedUntrusted(f"node {src} trust {value}")
    return value


def drain_order(pending):
    """Serve queued requests by descending requester trust, id breaks ties."""
    return sorted(pending, key=lambda r: (-r[0], r[1], r[2]))


def route_tables(heads, edges, blacklisted):
    """One breadth-first search per head over the head graph.

    heads        head ids to build a table for
    edges        {(ch_a, ch_b): gateways ordered from ch_a's side}
    blacklisted  ids that may not carry traffic; an edge with one of them
                 among its gateways is left out

    Returns {head: {dest: (previous head, gateways into dest)}}, the BFS
    parent tree rooted at the head in discovery order, with neighbours
    visited in ascending id order.  The root has no entry.
    """
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


def discover_route(world, src: int, dst: int):
    """Minimum head-hop path src's head -> dst's head, with gateways.

    Returns [(ch, gateways_traversed_into_it)], first entry the source
    head with no gateways.  The path is read back from the source head's
    route table (see `route_tables`), which already leaves out every edge
    with a blacklisted gateway.
    """
    ch_s = world.nodes[src].cluster
    ch_d = world.nodes[dst].cluster
    if ch_s is None:
        raise NoRoute(f"source {src} unclustered")
    if ch_d is None:
        raise NoRoute(f"destination {dst} unclustered")
    if ch_s == ch_d:
        return [(ch_s, ())]
    routes = world.clusters[ch_s].routes
    if ch_d not in routes:
        raise NoRoute(f"no head path {ch_s} -> {ch_d}")
    path = []
    cur = ch_d
    while cur != ch_s:
        prev, gws = routes[cur]
        path.append((cur, gws))
        cur = prev
    path.append((ch_s, ()))
    path.reverse()
    return path


def build_plan(ch_path, src: int, dst: int):
    """Expand a head path into the radio-hop node sequence.

    Returns (plan, segments) where plan is the full id list
    src, head, [gw, gw?, head]..., dst (collapsing duplicates when the
    source or destination is itself a head) and segments lists
    (upstream_idx, downstream_idx) plan positions for every head-to-head
    edge crossed, which is what handover surveillance keys on.
    """
    plan = [src]
    if ch_path[0][0] != src:
        plan.append(ch_path[0][0])
    segments = []
    for ch, gws in ch_path[1:]:
        up = len(plan) - 1
        plan.extend(gws)
        plan.append(ch)
        segments.append((up, len(plan) - 1))
    if plan[-1] != dst:
        plan.append(dst)
    return plan, segments


def ack_plan(plan, segment):
    """Reverse hop sequence for the per-edge ACK: downstream head back up."""
    up, down = segment
    return list(reversed(plan[up:down + 1]))


def tx_time(size_bytes: int, channel_capacity: float) -> float:
    return size_bytes * 8 / channel_capacity


def ack_timeout(size_bytes: int, channel_capacity: float, path_hops: int,
                factor: float = 4.0) -> float:
    """Patience before a missing edge ACK counts as a timeout."""
    return factor * tx_time(size_bytes, channel_capacity) * path_hops
