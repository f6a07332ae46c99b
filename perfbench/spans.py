"""Outside-in span tracing for the traced benchmark run.

The tracer patches functions of the simulator from the outside: World
event handlers and helpers on the class (collect, which builds the
Metrics, among them), and public functions of the radio, clustering,
protocol, detection, trust, adversary and scenario modules.  Nothing under src/ knows about it.  Callers reach every
patched name through a module or class attribute at call time, so the
patch is seen by every call made while the tracer is installed.

Spans are aggregated in memory per name (calls, errors and self time) and read out when the traced call ends.  A span's self time is its
duration minus the durations of the spans it directly encloses, so the
self times of all spans under the root add up to the root's duration.

Only the functions in SPANS and COUNTS are wrapped.  The rest, above all
those called per beacon reception or per neighbour (radio's signal,
distance and HELLO-history functions, clustering's score helpers,
trust_value, protocol.tx_time, metrics.rate), are left alone on purpose: a
wrapper costs more than such a function does, which would both slow the
traced run and move their time out of the layer that calls them.  Their
time stays in the calling span.
"""

import time

from manetsim import (adversary, cli, clustering, detection, engine,
                      protocol, radio, scenario, trust)

World = engine.World

# (owner, attribute, layer): every span belongs to exactly one layer, so the
# layer self times partition the traced wall time.
SPANS = (
    (cli, "main", "scenario.other"),
    (scenario, "load_scenario", "scenario.other"),
    (scenario, "apply_env", "scenario.other"),
    (scenario, "run_scenario", "scenario.other"),
    (scenario, "summarize", "scenario.other"),
    (scenario, "emit_plotdata", "scenario.other"),
    (scenario, "write_outputs", "scenario.write_outputs"),
    (World, "populate", "engine.setup"),
    (World, "run", "engine.loop"),
    (World, "digest", "engine.digest"),
    (World, "collect", "metrics.collect"),
    (World, "_topo_tick", "engine.topology"),
    (World, "_sweep_topology", "engine.topology"),
    (World, "_step_mobility", "radio.mobility"),
    (radio, "waypoint_step", "radio.mobility"),
    (World, "_rebuild_adjacency", "engine.adjacency"),
    (clustering, "maintain_membership", "clustering.maintain_membership"),
    (clustering, "designate_gateways", "clustering.designate_gateways"),
    (World, "_refresh_backbone", "engine.backbone"),
    (World, "_hello_round", "engine.beacon"),
    (World, "_session_request", "engine.dataplane"),
    (World, "_drain_admissions", "engine.dataplane"),
    (World, "_emit_packet", "engine.dataplane"),
    (World, "_hop", "engine.dataplane"),
    (World, "_ack_hop", "engine.dataplane"),
    (protocol, "discover_route", "protocol.discover_route"),
    (protocol, "originate_request", "protocol.other"),
    (protocol, "drain_order", "protocol.other"),
    (protocol, "build_plan", "protocol.other"),
    (protocol, "ack_plan", "protocol.other"),
    (World, "_ack_timeout", "engine.detection"),
    (World, "_blacklist_rx", "engine.detection"),
    (World, "_slander_tick", "engine.detection"),
    (World, "_spoof_tick", "engine.detection"),
    (World, "_flood_tick", "engine.detection"),
    (World, "_judge", "engine.detection"),
    (detection, "judge_forwarding", "detection.judge_forwarding"),
    (detection, "punish", "detection.rules"),
    (detection, "verify_identity", "detection.rules"),
    (detection, "handle_trust_report", "detection.rules"),
    (detection, "handle_route_advert", "detection.rules"),
)

# (owner, attribute): counted, not timed; their time stays in the caller.
COUNTS = (
    (World, "node_metrics"),
    (detection.SurveillanceLedger, "open_entry"),
    (adversary, "intercept"),
    (trust, "on_forward_success"),
    (trust, "on_selfish"),
    (trust, "on_malicious"),
    (trust, "on_service_charge"),
)

# The World methods the run loop dispatches events to.
HANDLERS = ("_topo_tick", "_hello_round", "_session_request",
            "_drain_admissions", "_emit_packet", "_hop", "_ack_hop",
            "_ack_timeout", "_slander_tick", "_spoof_tick", "_flood_tick",
            "_blacklist_rx")

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPANS))


def qualname(owner, attr):
    short = owner.__name__.rsplit(".", 1)[-1]
    return f"{short}.{attr}"


LAYER_OF = {qualname(owner, attr): layer for owner, attr, layer in SPANS}


class Stat:
    __slots__ = ("calls", "errors", "self_s")

    def __init__(self):
        self.calls = self.errors = 0
        self.self_s = 0.0


class Tracer:
    """Installs span and count wrappers; `reset` starts a fresh tally."""

    def __init__(self):
        self.stats = {}          # span or count name -> Stat
        self.hooks = {}          # name -> fn(args, result), after success
        self._stack = []         # child-time accumulators of open spans
        self._saved = []         # (owner, attr, original) to restore

    def reset(self):
        for st in self.stats.values():
            st.calls = st.errors = 0
            st.self_s = 0.0
        self._stack.clear()

    def install(self):
        for owner, attr, _ in SPANS:
            name = qualname(owner, attr)
            self._patch(owner, attr, self._span(getattr(owner, attr), name))
        for owner, attr in COUNTS:
            name = qualname(owner, attr)
            self._patch(owner, attr, self._count(getattr(owner, attr), name))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name):
        st = self.stats.setdefault(name, Stat())
        stack, hooks, clock = self._stack, self.hooks, time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                st.calls += 1
                st.self_s += dur - child[0]
                if stack:
                    stack[-1][0] += dur
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        st = self.stats.setdefault(name, Stat())
        hooks = self.hooks

        def counted(*args, **kwargs):
            st.calls += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def exclude(self, seconds):
        """Take time the harness spent inside the open span out of it."""
        if self._stack:
            self._stack[-1][0] += seconds

    def calls(self, name):
        return self.stats[name].calls

    def errors(self, name):
        return self.stats[name].errors

    def layer_self_s(self):
        """Self time per layer, in LAYERS order."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, layer in LAYER_OF.items():
            out[layer] += self.stats[name].self_s
        return out
