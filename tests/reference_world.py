"""The whole-run oracle: a World that runs every fast path's reference.

`ReferenceWorld` swaps in the algorithms the engine's fast paths replaced,
all kept in `tests/*_reference.py`:

- the per-reception HELLO round, every charge one `consume` call
  (`beacon_reference.py`);
- the all-pairs adjacency scan, the all-pairs gateway designation on every
  refresh and a fresh breadth-first route search per packet
  (`topology_reference.py`);
- the forwarding judgment that scans every ledger entry
  (`detection_reference.py`);
- the membership pass on every topology tick, where the engine runs it
  only after a rebuild, an ejection or with a head under the energy floor.

Everything else is the engine's own code, so a run of both worlds on one
config must give the same event log, the same `Metrics` and the same
batteries. Each piece also has its own differential test; this one catches
faults where two fast paths meet.
"""

from unittest import mock

from beacon_reference import reference_hello_round
from detection_reference import reference_judge_forwarding
from manetsim import detection, protocol
from manetsim.clustering import composite_score
from manetsim.engine import World
from topology_reference import (reference_adjacency,
                                reference_designate_gateways,
                                reference_discover_route)


def _judge_by_scan(ledger, gateway, th):
    # by_packet keeps the entries in the order they were opened
    return reference_judge_forwarding(list(ledger.by_packet.values()), gateway, th)


class ReferenceWorld(World):

    def _sweep_topology(self):
        self._membership_settled = False
        super()._sweep_topology()

    def _rebuild_adjacency(self):
        self.adjacency, self._neighbors, self._pairs = reference_adjacency(
            self.nodes, self.radio)

    def _refresh_backbone(self):
        def score_fn(nid):
            return composite_score(self.node_metrics(nid), self.weights)

        self.edges = reference_designate_gateways(
            self.clusters, self.adjacency, score_fn, self.blacklisted)
        # routes are searched per packet; the tables, built afresh, only
        # size flood logs
        self.head_routes = protocol.refresh_route_tables(
            None, self.clusters, self.edges, self.blacklisted)

    def _hello_round(self):
        reference_hello_round(self)

    def run(self):
        with mock.patch.object(protocol, "discover_route", reference_discover_route), \
                mock.patch.object(detection, "judge_forwarding", _judge_by_scan):
            return super().run()
