"""Links from the grid and from the adjacency against the all-pairs scan and
the both-way Friis check of every hop that they replaced
(`topology_reference.py`).
"""

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import desk_config, events_of, run_world
from manetsim import adversary, beacon, packets
from manetsim.config import SimConfig
from manetsim.engine import World
from topology_reference import reference_adjacency, reference_link

# ---- grid neighbour search ----


@st.composite
def placements(draw):
    """Nodes placed at random, on cell borders (of the grid and of a grid
    exactly `radio_range` wide), exactly `radio_range` from another node,
    on top of another node and outside the area, which is not a multiple
    of the range; some nodes are dead, and the sensitivity floor and path
    loss vary so that some in-range pairs do not link."""
    r = draw(st.sampled_from((10.0, 37.5, 75.0, 100.0)))
    area = (r * draw(st.sampled_from((0.7, 1.0, 2.6))),
            r * draw(st.sampled_from((3.1, 4.3))))
    coord = st.floats(0.0, 1.0)
    points = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("free", "border", "at_range", "same", "outside")))
        if kind == "free" or not points:
            point = (draw(coord) * area[0], draw(coord) * area[1])
        elif kind == "border":
            k = draw(st.integers(0, 4))
            edge = k * r * draw(st.sampled_from((1.0, 1 + 1e-9)))
            free = draw(coord) * area[1]
            point = (edge, free) if draw(st.booleans()) else (free, edge)
        elif kind == "at_range":
            x, y = draw(st.sampled_from(points))
            dx, dy = draw(st.sampled_from(((r, 0.0), (0.0, -r), (-0.6 * r, 0.8 * r),
                                           (r / math.sqrt(2), r / math.sqrt(2)))))
            point = (x + dx, y + dy)
        elif kind == "same":
            point = draw(st.sampled_from(points))
        else:
            point = (-r * draw(coord), area[1] + r * draw(coord))
        points.append(point)
    dead = draw(st.lists(st.integers(0, len(points) - 1), unique=True,
                         max_size=len(points) // 3))
    floor = draw(st.sampled_from((1e-4, 0.05, 0.2)))
    q = draw(st.sampled_from((2, 3, 4)))
    return r, area, floor, q, points, dead


# 1 - 2**-53 and 2.0 are one range apart after rounding (the difference
# rounds to 1.0) but two cells apart in a grid exactly 1.0 wide
@example((1.0, (3.0, 3.0), 1e-4, 2, [(1 - 2 ** -53, 0.5), (2.0, 0.5)], []))
@settings(max_examples=200, deadline=None)
@given(placements())
def test_grid_adjacency_matches_all_pairs_scan(case):
    r, area, floor, q, points, dead = case
    world = World(SimConfig(node_count=len(points), area=area, radio_range=r,
                            recv_power_floor=floor, path_loss_q=q,
                            positions=points, speed_range=(0.0, 0.0)))
    world.populate()
    for nid in dead:
        beacon.charge(world.nodes[nid].battery, "tx", 10 ** 12)   # past any battery
    world._rebuild_adjacency()
    adjacency, neighbors, pairs = reference_adjacency(world.nodes, world.cfg)
    # the linked pairs and, float for float, each direction's estimate
    assert world._pairs == pairs
    assert world._neighbors == neighbors
    # same keys and the same set iteration order, not just equal sets
    assert ([(nid, list(nbs)) for nid, nbs in world.adjacency.items()]
            == [(nid, list(nbs)) for nid, nbs in adjacency.items()])


# ---- data-plane links ----


class LinkCheckedWorld(World):
    """Checks, at every hop, ack hop and tunnel, that the adjacency the
    handler reads agrees with the link rule evaluated from the nodes'
    current positions, for every link whose ends are alive (the handlers
    test liveness before they read the adjacency)."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.checked = {"hop": 0, "ack": 0, "tunnel": 0}
        self.down = 0

    def _check(self, what, frm, to):
        a, b = self.nodes[frm], self.nodes[to]
        if a.alive and b.alive:
            want = reference_link(a, b, self.cfg)
            assert (to in self.adjacency.get(frm, ())) == want, (what, frm, to, self.now)
            self.checked[what] += 1
            self.down += not want

    def _hop(self, packet, plan, idx, *rest):
        self._check("hop", plan[idx], plan[idx + 1])
        return super()._hop(packet, plan, idx, *rest)

    def _ack_hop(self, ack, aplan, idx):
        self._check("ack", aplan[idx], aplan[idx + 1])
        return super()._ack_hop(ack, aplan, idx)

    def _tunnel(self, packet, nid, peer, session_id):
        if packet.kind == packets.DATA and peer != packet.dst:
            self._check("tunnel", peer, packet.dst)
        return super()._tunnel(packet, nid, peer, session_id)


def test_hop_links_follow_current_positions():
    """Short mobile cells with grey holes and a wormhole: positions move
    every tick and links break under hops in flight.  The checks change
    nothing, and every kind of decision, a broken link among them, is
    checked."""
    totals = Counter()
    for seed in range(1, 7):
        cfg = SimConfig(node_count=30, area=(260.0, 260.0), seed=seed, sim_duration=3.0,
                        speed_range=(10.0, 30.0), pause_time=0.2, hello_interval=0.1,
                        traffic_start=0.3, source_fraction=0.4, cbr_interval=0.05,
                        grey_drop_rate=0.5,
                        adversaries=[{"node": 3, "kind": adversary.GREY_HOLE},
                                     {"node": 8, "kind": adversary.GREY_HOLE},
                                     {"node": 11, "kind": adversary.WORMHOLE, "peer": 17},
                                     {"node": 17, "kind": adversary.WORMHOLE, "peer": 11}])
        world = LinkCheckedWorld(cfg)
        world.run()
        plain = World(cfg)
        plain.run()
        assert world.digest() == plain.digest()
        totals.update(world.checked)
        totals["down"] += world.down
    assert min(totals.values()) > 0, totals


def test_tunnel_to_a_peer_that_is_the_destination_needs_no_link():
    """The far end of a wormhole may be the packet's own destination: it
    injects the packet at itself, which no adjacency entry covers."""
    world, _ = run_world(desk_config(
        traffic=[(1, 22)],
        adversaries=[{"node": 28, "kind": adversary.WORMHOLE, "peer": 22}]))
    assert events_of(world.events_log, "tunnel_delivery_rejected")
    assert not events_of(world.events_log, "tunnel_no_outlet")
