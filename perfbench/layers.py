"""Per-layer metrics of the traced run, derived from spans and counts.

Self times are medians over the traced calls of one run.  Counts are exact
and must repeat on every traced call; ratios and per-operation times are
taken from them.  All figures are totals over the cells of one CLI call.
"""

import statistics
from collections import Counter

from manetsim import adversary

import spans

US = 1e6

# name, unit; every name is printed on every workload, zero where the layer
# did no work.
PER_LAYER = tuple((f"{layer}.self_s", "s") for layer in spans.LAYERS) + (
    ("engine.beacon.rounds", "count"),
    ("engine.beacon.receptions", "count"),
    ("engine.beacon.us_per_reception", "us"),
    ("engine.adjacency.rebuilds", "count"),
    ("engine.adjacency.pairs_checked", "count"),
    ("engine.adjacency.link_ratio", "ratio"),
    ("clustering.metric_evals", "count"),
    ("engine.backbone.refreshes", "count"),
    ("engine.dataplane.hops", "count"),
    ("engine.dataplane.ack_hops", "count"),
    ("engine.dataplane.us_per_hop", "us"),
    ("protocol.discover_route.calls", "count"),
    ("protocol.route_ok_ratio", "ratio"),
    ("protocol.admit_ok_ratio", "ratio"),
    ("detection.judge_forwarding.calls", "count"),
    ("detection.judge_forwarding.us_per_call", "us"),
    ("detection.ledger_entries", "count"),
    ("detection.verdicts.malicious", "count"),
    ("detection.verdicts.selfish", "count"),
    ("detection.verdicts.inconclusive", "count"),
    ("detection.verdicts.normal", "count"),
    ("detection.punish.calls", "count"),
    ("engine.events_dispatched", "count"),
    ("engine.events_logged", "count"),
    ("scenario.output_bytes", "B"),
    ("trust.changes", "count"),
    ("adversary.intercept.calls", "count"),
    ("adversary.acts", "count"),
    ("trace.overhead_s", "s"),
)

TRUST_UPDATES = ("trust.on_forward_success", "trust.on_selfish",
                 "trust.on_malicious", "trust.on_service_charge")


def ratio(part, whole):
    return part / whole if whole else 0.0


class Tally:
    """Collects one snapshot of counts and self times per traced call."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.extra = Counter()     # counts the spans cannot give directly
        self.counts = []           # per traced call
        self.self_s = []           # per traced call: layer -> seconds
        tracer.hooks.update({
            "World._rebuild_adjacency": self._adjacency,
            "detection.judge_forwarding": self._verdict,
            "adversary.intercept": self._intercept,
        })

    def start(self):
        self.tracer.reset()
        self.extra = Counter()

    def _adjacency(self, args, _result):
        world = args[0]
        alive = len(world.adjacency)
        self.extra["pairs_checked"] += alive * (alive - 1) // 2
        self.extra["links"] += len(world._pairs)

    def _verdict(self, _args, verdict):
        self.extra[f"verdict.{verdict.label.lower()}"] += 1

    def _intercept(self, _args, action):
        if action.kind != adversary.FORWARD:
            self.extra["acts"] += 1

    def on_world(self, world):
        """Called with each finished World of a traced call."""
        self.extra["receptions"] += sum(
            dict(data)["receptions"] for _, kind, data in world.events_log
            if kind == "hello_round")
        self.extra["events_logged"] += len(world.events_log)

    def finish(self, call, notes):
        """Snapshot the call's tallies; the counts must repeat exactly."""
        tr, x = self.tracer, self.extra
        counts = {
            "engine.beacon.rounds": tr.calls("World._hello_round"),
            "engine.beacon.receptions": x["receptions"],
            "engine.adjacency.rebuilds": tr.calls("World._rebuild_adjacency"),
            "engine.adjacency.pairs_checked": x["pairs_checked"],
            "links": x["links"],
            "clustering.metric_evals": tr.calls("World.node_metrics"),
            "engine.backbone.refreshes": tr.calls("World._refresh_backbone"),
            "engine.dataplane.hops": tr.calls("World._hop"),
            "engine.dataplane.ack_hops": tr.calls("World._ack_hop"),
            "protocol.discover_route.calls": tr.calls("protocol.discover_route"),
            "no_route": tr.errors("protocol.discover_route"),
            "admissions": tr.calls("protocol.originate_request"),
            "refusals": tr.errors("protocol.originate_request"),
            "detection.judge_forwarding.calls":
                tr.calls("detection.judge_forwarding"),
            "detection.ledger_entries": tr.calls("SurveillanceLedger.open_entry"),
            "detection.verdicts.malicious": x["verdict.malicious"],
            "detection.verdicts.selfish": x["verdict.selfish"],
            "detection.verdicts.inconclusive": x["verdict.inconclusive"],
            "detection.verdicts.normal": x["verdict.normal"],
            "detection.punish.calls": tr.calls("detection.punish"),
            "engine.events_dispatched": sum(
                tr.calls(f"World.{h}") for h in spans.HANDLERS),
            "engine.events_logged": x["events_logged"],
            "scenario.output_bytes": call.out_bytes,
            "trust.changes": sum(tr.calls(n) for n in TRUST_UPDATES),
            "adversary.intercept.calls": tr.calls("adversary.intercept"),
            "adversary.acts": x["acts"],
        }
        if self.counts and counts != self.counts[0]:
            changed = sorted(k for k in counts if counts[k] != self.counts[0][k])
            notes.append(f"traced counts changed between repeats: {changed}")
        self.counts.append(counts)
        self.self_s.append(tr.layer_self_s())

    def metrics(self):
        """Medians of the self times, with the counts of the first call."""
        c = self.counts[0]
        med = {layer: statistics.median(s[layer] for s in self.self_s)
               for layer in spans.LAYERS}
        out = {f"{layer}.self_s": v for layer, v in med.items()}
        out.update((k, v) for k, v in c.items() if "." in k)
        calls = c["protocol.discover_route.calls"]
        out.update({
            "engine.beacon.us_per_reception":
                US * ratio(med["engine.beacon"], c["engine.beacon.receptions"]),
            "engine.adjacency.link_ratio":
                ratio(c["links"], c["engine.adjacency.pairs_checked"]),
            "engine.dataplane.us_per_hop":
                US * ratio(med["engine.dataplane"], c["engine.dataplane.hops"]),
            "protocol.route_ok_ratio": ratio(calls - c["no_route"], calls),
            "protocol.admit_ok_ratio":
                ratio(c["admissions"] - c["refusals"], c["admissions"]),
            "detection.judge_forwarding.us_per_call":
                US * ratio(med["detection.judge_forwarding"],
                           c["detection.judge_forwarding.calls"]),
        })
        return out
