"""Session admission and cluster-head mediated routing.

All traffic is relayed through heads: a member hands its packet to its
head, the head forwards it across designated gateways to the next head,
and the destination's head delivers the final hop.  A head's route table
is the parent tree of a breadth-first search from it over the head graph.
The search runs the first time a packet (or a table-size read) asks for
that head's table after a topology refresh changed the heads or the
usable head links, and its tree is kept until the next such change;
forwarding reads each path back from the table, so routes minimize
head-to-head hops, and blacklisted nodes never appear on them.
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


class RouteTables:
    """Head route tables and what they were built from.

    heads   the head ids, in table order
    pairs   the usable edge pairs, in edge order: those with no
            blacklisted id among their gateways
    edges   {(ch_a, ch_b): gateways ordered from ch_a's side}, the edges
            the tables take their gateways from
    out     head -> the heads it has a usable edge to, in ascending order
    via     (from head, to head) -> the route entry of that edge
    trees   head -> its table, for the heads whose table was read
    """
    __slots__ = ("heads", "pairs", "edges", "out", "via", "trees")

    def __init__(self, heads, pairs, edges, out, via, trees):
        self.heads = heads
        self.pairs = pairs
        self.edges = edges
        self.out = out
        self.via = via
        self.trees = trees

    def table(self, ch):
        """The head's table: {dest: (previous head, gateways into dest)},
        the parent tree of a breadth-first search from the head over the
        usable edges, in discovery order, with neighbours visited in
        ascending id order.  The head itself has no entry.  Searched on
        its first read and kept with the record."""
        routes = self.trees.get(ch)
        if routes is None:
            out, via = self.out, self.via
            routes = self.trees[ch] = {}
            frontier = [ch]
            while frontier:
                nxt = []
                for cur in frontier:
                    for other in out.get(cur, ()):
                        if other != ch and other not in routes:
                            routes[other] = via[cur, other]
                            nxt.append(other)
                frontier = nxt
        return routes


def refresh_route_tables(kept, heads, edges, blacklisted):
    """The head route tables as a `RouteTables` record, reusing what an
    earlier record, kept (or None), still holds.

    A head's search tree reads only the heads and the usable pairs, the
    edge pairs with no blacklisted gateway; the gateways only fill its
    entries.  So kept itself is returned while the heads and the edges are
    its own and the usable pairs unchanged, and the trees it searched are
    kept, their gateways read again from edges, while only the gateways
    differ.  A tree is searched when its head's table is first read, so a
    refresh costs nothing per head that no packet routes from.  Keys and
    their order are those of a build from scratch either way.
    """
    heads = tuple(heads)
    if blacklisted:
        pairs = tuple(pair for pair, gws in edges.items() if blacklisted.isdisjoint(gws))
    else:
        pairs = tuple(edges)
    if kept is not None and kept.heads == heads and kept.pairs == pairs:
        if kept.edges == edges:
            return kept
        via = _hops(edges)
        trees = {ch: {dest: via[prev, dest] for dest, (prev, _) in routes.items()}
                 for ch, routes in kept.trees.items()}
        return RouteTables(heads, pairs, edges, kept.out, via, trees)
    out = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
        out.setdefault(b, []).append(a)
    for links in out.values():
        links.sort()
    return RouteTables(heads, pairs, edges, out, _hops(edges), {})


def _hops(edges):
    """{(from head, to head): (from head, gateways ordered from its side)}:
    the route entry of every edge, both ways."""
    via = {}
    for (a, b), gws in edges.items():
        via[a, b] = (a, gws)
        via[b, a] = (b, tuple(reversed(gws)))
    return via


def discover_route(world, src: int, dst: int):
    """Minimum head-hop path src's head -> dst's head, with gateways.

    Returns [(ch, gateways_traversed_into_it)], first entry the source
    head with no gateways.  The path is read back from the source head's
    route table in `world.head_routes` (see `RouteTables.table`), which
    already leaves out every edge with a blacklisted gateway.
    """
    ch_s = world.nodes[src].cluster
    ch_d = world.nodes[dst].cluster
    if ch_s is None:
        raise NoRoute(f"source {src} unclustered")
    if ch_d is None:
        raise NoRoute(f"destination {dst} unclustered")
    if ch_s == ch_d:
        return [(ch_s, ())]
    routes = world.head_routes.table(ch_s)
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


def segment_table(plan, segments):
    """The head-to-head segment each hop of a plan lies in.

    Entry idx is the (upstream_idx, downstream_idx) pair from `build_plan`
    with upstream_idx <= idx < downstream_idx, or None for a hop inside
    one cluster (member to head, head to member).  Hop idx runs from
    plan[idx] to plan[idx + 1].
    """
    seg_at = [None] * (len(plan) - 1)
    for seg in segments:
        for idx in range(seg[0], seg[1]):
            seg_at[idx] = seg
    return seg_at


def ack_plan(plan, segment):
    """Reverse hop sequence for the per-edge ACK: downstream head back up."""
    up, down = segment
    return list(reversed(plan[up:down + 1]))


def tx_time(size_bytes: int, channel_capacity: float) -> float:
    return size_bytes * 8 / channel_capacity


def ack_timeout(size_bytes: int, channel_capacity: float, path_hops: int,
                factor: float) -> float:
    """Patience before a missing edge ACK counts as a timeout: factor
    (`SimConfig.ack_timeout_factor`) times the packet's airtime per hop."""
    return factor * tx_time(size_bytes, channel_capacity) * path_hops
