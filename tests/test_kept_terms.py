"""The route plans and mobility terms a World keeps against fresh ones.

A session keeps its last route (`packets.Route`: the plan, the segments,
the segment table, the ack timeout, and the texts and pairs its records
are built from) while `World.head_routes` is the same record and
both ends keep their heads, and `World.node_metrics` keeps each node's
mobility term with the HELLO round count and the neighbour list it came
from. `CheckedWorld` compares each of them, at every use, with what a
fresh route search and a fresh pass over the histories give on the state
of the moment, and counts how often each was reused and how often it was
worked out afresh.
"""

import dataclasses
from collections import Counter

import pytest

from manetsim import adversary, beacon, clustering, protocol, radio
from manetsim.engine import World
from manetsim.errors import NoRoute
from manetsim.packets import Route
from test_golden import mobile_config


class CheckedWorld(World):

    def __init__(self, cfg):
        super().__init__(cfg)
        self.reuse = Counter()

    def _emit_packet(self, sid):
        s = self.sessions[sid]
        sent, before = s.sent, s.route
        super()._emit_packet(sid)
        if s.sent == sent:
            return          # closed: nothing was planned
        kept = s.route
        self.reuse["plan_kept" if kept is not None and kept is before
                   else "plan_fresh"] += 1
        assert route_fields(kept) == fresh_plan(self, s, sid)

    def node_metrics(self, nid):
        self.reuse["read_by_link"] += self.beacons.by_link
        before = self._mobility.get(nid)
        m = super().node_metrics(nid)
        if self.cfg.speed_range[1] > 0:
            self.reuse["mobility_kept" if self._mobility[nid] is before
                       else "mobility_fresh"] += 1
            assert m.mobility == fresh_mobility(self, nid)
        return m


def route_fields(route):
    """The route's fields by name, but for the key it was planned from, or
    None for no route."""
    if route is None:
        return None
    return {name: getattr(route, name) for name in Route.__slots__
            if name != "key"}


def fresh_plan(world, s, sid):
    """The fields of the session's route (`route_fields`) built from a
    search from scratch now: the plan, segments, segment table and ack
    timeout, with the session id and the texts and pairs of the route's
    records built afresh, or None when there is no route."""
    try:
        route = protocol.discover_route(world, s.src, s.dst)
    except NoRoute:
        return None
    plan, segments = protocol.build_plan(route, s.src, s.dst)
    cfg = world.cfg
    plan, segments = tuple(plan), tuple(segments)
    return {"sid": sid, "plan": plan, "segments": segments,
            "seg_at": protocol.segment_table(plan, segments),
            "timeout_s": protocol.ack_timeout(
                cfg.packet_size, cfg.channel_capacity, len(plan) - 1,
                cfg.ack_timeout_factor),
            "plan_text": repr(plan), "segs_text": repr(segments),
            "plan_pair": ("plan", plan), "segs_pair": ("segs", segments),
            "session_pair": ("session", sid), "dst_pair": ("dst", plan[-1]),
            "path_pair": ("path", plan), "src_pair": ("src", plan[0])}


def fresh_mobility(world, nid):
    """The mobility term from the node's histories, folded to now."""
    n, cfg = world.nodes[nid], world.cfg
    beacon.fold(n)
    vals = []
    for nb in world._neighbors.get(nid, ()):
        hist = n.hello.get(nb)
        if hist is not None and hist.n >= 2:
            vals.append(hist.mobility(cfg.hello_interval))
    if not vals:
        return 1.0
    return clustering.mobility_membership(radio.avg_mobility(vals),
                                          cfg.speed_range[1])


@pytest.mark.parametrize("attack, seed", [(adversary.GREY_HOLE, 3),
                                          (adversary.WORMHOLE, 3),
                                          (adversary.SPOOF, 9)])
def test_kept_plans_and_terms_equal_fresh_ones(attack, seed):
    """The golden mobile cells at the traffic-greyhole benchmark's rates: a
    packet every 50 ms from half the nodes and a HELLO round every fifth
    topology tick. At their own rates (one packet every 250 ms from a
    tenth of the nodes, a round at every tick) a session's plan and a
    node's term are seldom kept. Next to a spoofer every round runs link
    by link, and a conviction in one reads election terms mid-round; the
    golden spoof cell convicts in its first round, before any history
    holds two samples, so the spoof cell here has seed 9."""
    cfg = dataclasses.replace(mobile_config(attack), seed=seed, source_fraction=0.5,
                              cbr_interval=0.05, hello_interval=0.5)
    world = CheckedWorld(cfg)
    world.run()
    for name in ("plan_kept", "plan_fresh", "mobility_kept", "mobility_fresh"):
        assert world.reuse[name] > 0, (name, world.reuse)
    # a closed session drops its route; packets in flight hold their own
    closed = [s for s in world.sessions.values() if s.closed]
    assert closed and all(s.route is None for s in closed)
    assert world.reuse["read_by_link"] > 0 or attack != adversary.SPOOF
