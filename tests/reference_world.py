"""The whole-run oracle: a World that runs every fast path's reference.

`ReferenceWorld` swaps in the algorithms the engine's fast paths replaced,
all kept in `tests/*_reference.py`:

- the per-reception HELLO round, every charge one `consume` call
  (`beacon_reference.py`);
- the all-pairs adjacency scan, the all-pairs gateway designation on every
  refresh and a fresh breadth-first route search per packet
  (`topology_reference.py`), no session keeping its last route plan;
- the forwarding judgment that scans every ledger entry the head opened
  (`detection_reference.py`), as `keeping_opened_entries` collects them
  with the statuses they were resolved with, since the ledger itself
  keeps only counts of resolved entries;
- the membership pass on every topology tick, where the engine runs it
  only after a rebuild, an ejection or with a head under the energy floor;
- every mobility election term worked out afresh from the histories,
  where the engine keeps it by round count and neighbour list.

Everything else is the engine's own code, so a run of both worlds on one
config must give the same event log, the same `Metrics` and the same
batteries. Each piece also has its own differential test; this one catches
faults where two fast paths meet.
"""

import contextlib
from unittest import mock

from beacon_reference import reference_hello_round
from detection_reference import reference_judge_forwarding
from manetsim import detection, protocol
from manetsim.clustering import composite_score
from manetsim.engine import World
from topology_reference import (reference_adjacency,
                                reference_designate_gateways,
                                reference_discover_route)


def opened_entries(ledger):
    """Every entry the ledger opened under `keeping_opened_entries`, by
    packet id in open order: what `by_packet` held before resolved entries
    left it."""
    return ledger.__dict__.setdefault("opened_entries", {})


def resolved_statuses(ledger):
    """The status each packet id was resolved with under
    `keeping_opened_entries`; an opened entry missing here is PENDING."""
    return ledger.__dict__.setdefault("resolved_statuses", {})


@contextlib.contextmanager
def keeping_opened_entries():
    """Keep each ledger's opened entries (`opened_entries`) and the
    statuses it resolved them with (`resolved_statuses`) for the block."""
    open_entry = detection.SurveillanceLedger.open_entry
    resolve = detection.SurveillanceLedger.resolve

    def keeping(ledger, packet_id, *args, **kwargs):
        entry = open_entry(ledger, packet_id, *args, **kwargs)
        opened_entries(ledger)[packet_id] = entry
        return entry

    def recording(ledger, packet_id, status):
        entry = resolve(ledger, packet_id, status)
        if entry is not None:
            resolved_statuses(ledger)[packet_id] = status
        return entry

    with mock.patch.object(detection.SurveillanceLedger, "open_entry", keeping), \
            mock.patch.object(detection.SurveillanceLedger, "resolve", recording):
        yield


def _judge_by_scan(ledger, gateway):
    return reference_judge_forwarding(opened_entries(ledger),
                                      resolved_statuses(ledger), gateway, ledger)


class ReferenceWorld(World):

    def _sweep_topology(self):
        self._membership_settled = False
        super()._sweep_topology()

    def _rebuild_adjacency(self):
        self.adjacency, self._pairs = reference_adjacency(self.nodes, self.cfg)

    def _refresh_backbone(self):
        def score_fn(nid):
            return composite_score(self.node_metrics(nid), self.cfg)

        self.edges = reference_designate_gateways(
            self.clusters, self.adjacency, score_fn, self.blacklisted)
        # routes are searched per packet; the tables, built afresh, only
        # size flood logs
        self.head_routes = protocol.refresh_route_tables(
            None, self.clusters, self.edges)

    def _hello_round(self):
        reference_hello_round(self)

    def _emit_packet(self, sid):
        self.sessions[sid].route = None
        super()._emit_packet(sid)

    def node_metrics(self, nid):
        self._mobility.pop(nid, None)
        return super().node_metrics(nid)

    def run(self):
        with mock.patch.object(protocol, "discover_route", reference_discover_route), \
                mock.patch.object(detection, "judge_forwarding", _judge_by_scan), \
                keeping_opened_entries():
            return super().run()
