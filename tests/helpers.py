"""Shared bench fixtures: a hand-placed static topology whose clustering
outcome is fully predictable.

Four node blobs sit on a line, too far apart to hear each other; a single
bridge node stands in each gap, in range of both flanking blobs. The
lowest id in each blob wins the initial all-equal election, so the heads
are 0, 7, 14 and 21, and the bridges 27/28/29 are the only possible
gateways on the backbone. Traffic from blob A to blob D must cross all
three bridges.

`StubWorld` is a hand-built head graph without an engine, for the
admission and routing tests.
"""

from manetsim import trust
from manetsim.clustering import Cluster
from manetsim.config import SimConfig
from manetsim.engine import World
from manetsim.protocol import route_tables

BLOB_CENTERS = ((60.0, 250.0), (180.0, 250.0), (300.0, 250.0), (420.0, 250.0))
BLOB_OFFSETS = ((0, 0), (6, 0), (-6, 0), (0, 6), (0, -6), (4, 4), (-4, -4))
BRIDGES = (27, 28, 29)
HEADS = (0, 7, 14, 21)

# blob node id ranges: A=0..6, B=7..13, C=14..20, D=21..26


def desk_positions():
    pos = []
    sizes = (7, 7, 7, 6)
    for (cx, cy), size in zip(BLOB_CENTERS, sizes):
        for dx, dy in BLOB_OFFSETS[:size]:
            pos.append((cx + dx, cy + dy))
    pos.append((120.0, 250.0))
    pos.append((240.0, 250.0))
    pos.append((360.0, 250.0))
    return pos


def desk_config(**overrides) -> SimConfig:
    kw = dict(
        node_count=30,
        positions=desk_positions(),
        speed_range=(0.0, 0.0),
        radio_range=75.0,
        sim_duration=5.0,
        hello_interval=0.05,
        traffic_start=1.0,
        source_fraction=0.0,
        traffic=[(1, 22)],
        seed=1,
    )
    kw.update(overrides)
    return SimConfig(**kw)


def run_world(cfg):
    world = World(cfg)
    result = world.run()
    return world, result


def events_of(log, kind):
    return [(t, dict(d)) for t, k, d in log if k == kind]


class StubNode:
    def __init__(self, cluster):
        self.cluster = cluster


class StubWorld:
    """Just enough state for admission and route discovery: the head route
    tables are built from `edges` the way the engine builds them."""

    def __init__(self, clusters, edges, blacklisted=(), records=None):
        # clusters: head -> member ids
        self.nodes = {}
        for ch, members in clusters.items():
            self.nodes[ch] = StubNode(ch)
            for m in members:
                self.nodes[m] = StubNode(ch)
        self.edges = dict(edges)
        self.blacklisted = {b: None for b in blacklisted}
        self.trust_registry = records or {n: trust.init_trust(n) for n in self.nodes}
        self.clusters = {ch: Cluster(ch, set(members)) for ch, members in clusters.items()}
        tables = route_tables(self.clusters, self.edges, self.blacklisted)
        for ch, cl in self.clusters.items():
            cl.routes = tables[ch]
