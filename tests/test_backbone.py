"""The gateway candidates and route tables a World keeps between refreshes
against a fresh designation on the same state.

`World._refresh_backbone` keeps its gateway candidates, and the scores,
election terms, winners and rival bounds stored with them, until the
links are rebuilt, the membership changes or a node is ejected, its route
tables while the heads and the edges stay, and their search trees while
the heads and the usable edge pairs stay. A head's tree is searched when
its table is first read. After every refresh, the edges and every head's
table must equal what the all-pairs scan and the route search of
`topology_reference.py` give from scratch, and what the record stores
must agree with the state of the moment; the check reads the tables
through a copy of the record, so it searches no tree for the World. The worlds are small, static or mobile,
with batteries small enough that heads fall under the energy floor and
nodes run dry, a black or grey hole for `eject_node` to expel, and a HELLO
spoofer.
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import adversary, beacon, clustering
from manetsim.clustering import Cluster, composite_score
from manetsim.config import SimConfig
from manetsim.engine import World
from manetsim.protocol import RouteTables
from test_golden import mobile_config, static_reform_config
from topology_reference import (reference_designate_gateways,
                                reference_route_tables)


class CheckedWorld(World):
    """Checks every refresh against a fresh designation and counts how
    often the kept candidates, winners, election terms and tables were
    reused. A refresh kept a stored winner when some candidate list that
    offers a choice had an id it did not score, and scored an id from its
    stored terms when it scored an id without a `node_metrics` read. Also
    counts the head-refreshes (each refresh adds its heads) and the trees
    the World searched: the trees a route record holds when it is
    replaced, or the run ends, less those it was made with."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.reuse = Counter()
        self.scored = set()      # ids the last designation scored
        self.read = set()        # ids whose metrics it read
        self.trees_at = 0        # trees head_routes held when last counted

    def node_metrics(self, nid):
        self.read.add(nid)
        return super().node_metrics(nid)

    def _refresh_backbone(self):
        self.reuse["refreshes"] += 1
        self.reuse["head_refreshes"] += len(self.clusters)
        self.reuse["candidates_kept"] += self._gateway_candidates is not None
        tables_before = self.head_routes
        self.count_trees()
        self.scored, self.read = set(), set()
        designate = clustering.designate_gateways

        def counted(candidates, score_fn):
            def counted_score(nid):
                self.scored.add(nid)
                return score_fn(nid)
            return designate(candidates, counted_score)

        with mock.patch.object(clustering, "designate_gateways", counted):
            super()._refresh_backbone()
        self.reuse["winners_kept"] += any(
            len(ids) > width and not self.scored.issuperset(ids)
            for _, width, ids in self._gateway_candidates.lists)
        self.reuse["terms_kept"] += not self.read.issuperset(self.scored)
        tables_after = self.head_routes
        self.trees_at = len(tables_after.trees)
        if tables_before is not None:
            self.reuse["tables_kept"] += tables_after is tables_before
            self.reuse["trees_kept"] += (tables_after is not tables_before
                                         and tables_after.heads == tables_before.heads
                                         and tables_after.out is tables_before.out)
        check_backbone(self)

    def count_trees(self):
        if self.head_routes is not None:
            self.reuse["trees_built"] += len(self.head_routes.trees) - self.trees_at

    def collect(self):
        self.count_trees()
        return super().collect()

    def eject_node(self, nid):
        self.reuse["ejections"] += 1
        super().eject_node(nid)


def check_backbone(world):
    """Right after a refresh, when no id is marked: the edges and tables
    equal a fresh designation's and search's; every id's stored election
    terms other than its residual energy equal a fresh `node_metrics`
    read, which catches a missed invalidation even where the edges happen
    to agree; every stored score is an upper bound on the id's score now,
    and every stored rival bound on the highest key of its list's rivals
    now."""
    clusters = {ch: Cluster(ch, set(cl.members)) for ch, cl in world.clusters.items()}

    def score_fn(nid):
        return composite_score(world.node_metrics(nid), world.cfg)

    edges = reference_designate_gateways(clusters, world.adjacency, score_fn,
                                         world.blacklisted)
    assert list(world.edges.items()) == list(edges.items())
    candidates = world._gateway_candidates
    assert not candidates.moved
    for nid, m in candidates.terms.items():
        now = world.node_metrics(nid)
        assert (m.node_id, m.trust, m.mobility, m.dnc) == (
            now.node_id, now.trust, now.mobility, now.dnc)
    scores = {nid: score_fn(nid) for nid in candidates.scores}
    assert all(candidates.scores[nid] >= s for nid, s in scores.items())
    lists = {pair: (width, ids) for pair, width, ids in candidates.lists}
    for pair, rival in (candidates.rivals or {}).items():
        width, ids = lists[pair]
        assert rival >= clustering._rival(width, ids, world.edges[pair], scores)
    tables = reference_route_tables(clusters, edges)
    kept = world.head_routes
    assert kept.heads == tuple(tables)
    # the trees searched so far as they are, the others searched in a copy
    probe = RouteTables(kept.heads, kept.edges, kept.out, kept.via,
                        dict(kept.trees))
    for ch in kept.heads:
        assert list(probe.table(ch).items()) == list(tables[ch].items())


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


def test_static_cell_keeps_winners_and_mobile_cell_does_not():
    """Stored winners and election terms outlive a refresh only where the
    candidates do: on the pinned static cell some refreshes keep a winner
    and some score an id from its stored terms, on a mobile cell, which
    relinks on every tick, none does either."""
    static = CheckedWorld(static_reform_config())
    static.run()
    assert 0 < static.reuse["winners_kept"] < static.reuse["refreshes"]
    assert 0 < static.reuse["terms_kept"] < static.reuse["refreshes"]
    mobile = CheckedWorld(mobile_config(adversary.GREY_HOLE))
    mobile.run()
    assert mobile.reuse["refreshes"] > 0
    assert mobile.reuse["winners_kept"] == mobile.reuse["terms_kept"] == 0


def test_mobile_cell_searches_only_the_trees_it_reads():
    """On a mobile cell with light traffic the tables change on nearly
    every refresh, and only the heads that route a packet or size a flood
    log have their tree searched: far fewer trees than refreshes times
    heads."""
    world = CheckedWorld(mobile_config(adversary.GREY_HOLE))
    world.run()
    reuse = world.reuse
    assert 0 < reuse["trees_built"] < reuse["head_refreshes"] / 4


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
