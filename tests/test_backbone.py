"""The gateway candidates and route tables a World keeps between refreshes
against a fresh designation on the same state.

`World._refresh_backbone` keeps its gateway candidates until the links
are rebuilt, the membership changes or a node is ejected, its route
tables while the heads and the edges stay, and their search trees while
the heads and the usable edge pairs stay. After every refresh, the edges,
each cluster's gateways and each head's routes must equal what the
all-pairs scan and the route search of `topology_reference.py` give from
scratch. The worlds are small, static or mobile, with batteries small
enough that heads fall under the energy floor and nodes run dry, a black
or grey hole for `eject_node` to expel, and a HELLO spoofer.
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import adversary, beacon, clustering
from manetsim.clustering import Cluster, composite_score
from manetsim.config import SimConfig
from manetsim.engine import World
from test_golden import static_reform_config
from topology_reference import (reference_designate_gateways,
                                reference_route_tables)


class CheckedWorld(World):
    """Checks every refresh against a fresh designation and counts how
    often the kept candidates and tables were reused."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.reuse = Counter()

    def _refresh_backbone(self):
        self.reuse["refreshes"] += 1
        self.reuse["candidates_kept"] += self._gateway_candidates is not None
        tables_before = self._route_tables
        super()._refresh_backbone()
        tables_after = self._route_tables
        if tables_before is not None:
            self.reuse["tables_kept"] += tables_after is tables_before
            self.reuse["trees_kept"] += (tables_after is not tables_before
                                         and tables_after.heads == tables_before.heads
                                         and tables_after.pairs == tables_before.pairs)
        check_backbone(self)

    def eject_node(self, nid):
        self.reuse["ejections"] += 1
        super().eject_node(nid)


def check_backbone(world):
    clusters = {ch: Cluster(ch, set(cl.members)) for ch, cl in world.clusters.items()}

    def score_fn(nid):
        return composite_score(world.node_metrics(nid), world.weights)

    edges = reference_designate_gateways(clusters, world.adjacency, score_fn,
                                         world.blacklisted)
    assert list(world.edges.items()) == list(edges.items())
    assert ({ch: cl.gateways for ch, cl in world.clusters.items()}
            == {ch: cl.gateways for ch, cl in clusters.items()})
    tables = reference_route_tables(clusters, edges, world.blacklisted)
    for ch, cl in world.clusters.items():
        assert list(cl.routes.items()) == list(tables[ch].items())


@st.composite
def small_worlds(draw):
    n = draw(st.integers(10, 24))
    hole, spoofer, victim = draw(st.permutations(range(n)))[:3]
    energy = draw(st.sampled_from((0.002, 0.005, 0.02)))
    return SimConfig(
        node_count=n,
        area=draw(st.sampled_from(((150.0, 150.0), (250.0, 150.0), (250.0, 250.0)))),
        seed=draw(st.integers(1, 10 ** 6)),
        sim_duration=2.0,
        speed_range=draw(st.sampled_from(((0.0, 0.0), (1.0, 5.0), (10.0, 30.0)))),
        hello_interval=0.05,
        initial_energy_range=(energy, 4 * energy),
        traffic_start=0.2,
        source_fraction=0.5,
        cbr_interval=0.05,
        accusation_threshold=draw(st.integers(1, 3)),
        velocity_low_threshold=1000.0,
        adversaries=[
            {"node": hole,
             "kind": draw(st.sampled_from((adversary.BLACK_HOLE, adversary.GREY_HOLE)))},
            {"node": spoofer, "kind": adversary.SPOOF, "victim": victim},
        ])


@settings(max_examples=40, deadline=None)
@given(small_worlds())
def test_kept_backbone_matches_fresh_designation(cfg):
    CheckedWorld(cfg).run()


def test_static_reform_cell_reuses_and_rebuilds():
    """The pinned re-forming cell takes every path: candidates and tables
    kept, search trees kept with new gateways, candidates dropped by
    membership changes and by ejections."""
    world = CheckedWorld(static_reform_config())
    world.run()
    reuse = world.reuse
    assert 0 < reuse["candidates_kept"] < reuse["refreshes"]
    assert 0 < reuse["tables_kept"] < reuse["refreshes"]
    assert reuse["trees_kept"] > 0
    assert reuse["ejections"] > 0


class PassWatchingWorld(World):
    """Notes, per topology tick, whether the membership pass ran and
    whether the adjacency was rebuilt, a node was ejected since the last
    tick or a head was under the energy floor as the tick began."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.ticks = []
        self.ejected = False

    def _rebuild_adjacency(self):
        self.ticks[-1]["rebuilt"] = True
        super()._rebuild_adjacency()

    def eject_node(self, nid):
        self.ejected = True
        super().eject_node(nid)

    def _sweep_topology(self):
        self.ticks.append({
            "rebuilt": False, "ejected": self.ejected, "passed": False,
            "floor": any(beacon.residual(self.nodes[ch].battery)
                         < clustering.ENERGY_FLOOR for ch in self.clusters)})
        self.ejected = False
        super()._sweep_topology()


def test_static_reform_cell_runs_the_pass_only_when_it_can_change():
    """On the pinned re-forming cell the membership pass runs on exactly
    the ticks that rebuilt the adjacency, followed an ejection or found a
    head under the energy floor (41 of 51 ticks), and each kind of tick
    occurs."""
    world = PassWatchingWorld(static_reform_config())
    maintain = clustering.maintain_membership

    def watched(*args):
        world.ticks[-1]["passed"] = True
        return maintain(*args)

    with mock.patch.object(clustering, "maintain_membership", watched):
        world.run()
    ticks = world.ticks
    assert [t["passed"] for t in ticks] == [
        t["rebuilt"] or t["ejected"] or t["floor"] for t in ticks]
    for cause in ("rebuilt", "ejected", "floor", "passed"):
        assert any(t[cause] for t in ticks)
    assert (sum(t["passed"] for t in ticks), len(ticks)) == (41, 51)
