#!/usr/bin/env python3
"""manetsim benchmark: named workloads run through the CLI, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload traffic-greyhole --seed 1 --seconds 40 --trace 0

Each workload is a scenario file under perfbench/workloads/.  One run
writes that scenario with a sweep of SWEEP_CELLS seeds derived from --seed
and calls manetsim.cli.main on it in this process, again and again, while
another call still fits in --seconds.  Every cell of every call is checked.

Timings are scaled to a reference host speed with perfbench/hostspeed.py,
whose loop is timed between the cells of every call and around every
set-up probe; the times as measured are printed too, on "measured" lines.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced calls and prints the per-layer metrics; see perfbench/spans.py for
the tracer.  Every metric is printed as "metric <name> <value> <unit>", and
"digest <sha256>" hashes the event-log digests of the sweep's cells; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is 0 when a result was printed,
2 when the simulator's sources are missing and 1 on a harness error.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOAD_DIR = HERE / "workloads"

WORKLOADS = ("mobile-beacon", "traffic-greyhole", "static-dense")
DEFAULT_SEED = 1
# Cells per CLI call.  Runs with different --seed values cover disjoint
# seed blocks; several cells per call shrink the seed-to-seed spread of the
# work a call does.
SWEEP_CELLS = 8
MIN_CALLS = 2            # the digest check needs a repeat of every cell
# Set-up is probed in fresh interpreters, SETUP_PROBES before every CLI
# call and at least SETUP_MIN_PROBES in all.
SETUP_PROBES = 4
SETUP_MIN_PROBES = 8
# Share of the untraced wall time by which the layer self times of a traced
# call may differ from it: the tracer's own cost (up to ~20%, on
# traffic-greyhole) plus call-to-call noise (up to ~20% on that VM).
TRACE_TOLERANCE = 0.5

END_TO_END = (
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivery_pct", "%"),
)
# Printed by name but kept out of the JSON result: they read 0 (or are
# undefined) whenever the run is healthy, so a relative bound cannot gate
# them.  The failure count gates through "failed" and "correct" instead.
REPORTED = (
    ("failed_cell_ratio", "ratio"),
    ("false_positives", "count"),
    ("detection_pct", "%"),   # only where attackers act
)

# Fields that metrics_from_log re-derives and the returned Metrics must match.
LOG_CHECKED = ("generated", "delivered", "throughput", "detection_rate",
               "false_positives")

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[3])
import hostspeed
loop_s = hostspeed.loop_time()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from manetsim import World, scenario
sc = scenario.apply_env(scenario.load_scenario(sys.argv[2]))
cfg = sc.config_for(*next(sc.cells()))
World(cfg).populate()   # World() validates cfg
setup_s = time.perf_counter() - t0
print(setup_s, (loop_s + hostspeed.loop_time()) / 2)
"""


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sweep_seeds(seed):
    base = SWEEP_CELLS * (seed - 1) + 1
    return list(range(base, base + SWEEP_CELLS))


def write_scenario(workload, seed):
    """The workload's scenario with the seed sweep of this run appended."""
    text = (WORKLOAD_DIR / f"{workload}.yaml").read_text()
    path = WORK / f"{workload}-seed{seed}.yaml"
    path.write_text(f"{text.rstrip()}\nseeds: {sweep_seeds(seed)}\n")
    return path


def events_dispatched(world):
    """Handler calls of a finished run.  Every scheduled event was either
    dispatched or is still on the heap, except the one popped past the
    horizon that ended the loop (off by one only if the heap ran dry
    exactly at the horizon)."""
    return world._seq - len(world._heap) - (1 if world._heap else 0)


@dataclass
class Cell:
    key: tuple
    digest: str
    events: int
    generated: int
    delivered: int
    acted: int
    caught: int
    false_positives: int
    problems: list


class CellProbe:
    """Wraps World.run to check each cell as it finishes.

    The check runs while the finished World is still alive, so no world
    outlives its cell, and the time it takes is recorded in `paused` so
    callers can take it out of their timings.  The host speed loop is
    timed in that pause too, after every cell.
    """

    def __init__(self, world_cls, metrics_from_log):
        self.world_cls = world_cls
        self.metrics_from_log = metrics_from_log
        self.cells = []
        self.paused = 0.0
        self.loop_s = []         # host speed loop times, one per cell
        self.on_world = None     # optional fn(world), called before the check
        self.exclude = None      # optional fn(seconds), told each check's time
        self._orig = None

    def __enter__(self):
        self._orig = orig = self.world_cls.run
        probe = self

        def run(world):
            result = orig(world)
            t0 = time.perf_counter()
            if probe.on_world is not None:
                probe.on_world(world)
            probe.cells.append(probe._check(world, result))
            probe.loop_s.append(hostspeed.loop_time())
            spent = time.perf_counter() - t0
            probe.paused += spent
            if probe.exclude is not None:
                probe.exclude(spent)
            return result

        self.world_cls.run = run
        return self

    def __exit__(self, *exc):
        self.world_cls.run = self._orig

    def _check(self, world, result):
        problems = []
        derived = self.metrics_from_log(world.events_log)
        for name in LOG_CHECKED:
            got, want = getattr(result, name), derived[name]
            if not same(got, want):
                problems.append(f"{name}: Metrics {got!r}, log {want!r}")
        acted = set(result.acted)
        return Cell(
            key=(result.node_count, result.seed, result.malicious_fraction),
            digest=result.digest, events=events_dispatched(world),
            generated=result.generated, delivered=result.delivered,
            acted=len(acted), caught=len(acted & set(result.blacklisted)),
            false_positives=result.false_positives, problems=problems)


def same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


@dataclass
class Call:
    rc: object
    wall_s: float
    cells: list
    out_bytes: int
    loop_s: float        # median host speed loop time around and in the call

    @property
    def scaled_s(self):
        return hostspeed.scale(self.wall_s, self.loop_s)


@dataclass
class Bench:
    """One benchmark run: the CLI calls made and the checks they passed."""
    cli: object
    probe: CellProbe
    scenario: Path
    digests: dict = field(default_factory=dict)   # cell key -> first digest
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    timings: list = field(default_factory=list)   # wall_s of every call

    def call(self, tag):
        """One timed cli.main call over the sweep; checks every cell."""
        out = WORK / f"out-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        self.probe.cells, self.probe.paused = [], 0.0
        self.probe.loop_s = [hostspeed.loop_time()]
        argv = [str(self.scenario), "--out", str(out)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except Exception as exc:   # a crash is a failed call, not a harness error
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0 - self.probe.paused
        self.probe.loop_s.append(hostspeed.loop_time())
        call = Call(rc, wall, list(self.probe.cells), dir_bytes(out),
                    statistics.median(self.probe.loop_s))
        self._score(call)
        return call

    def _score(self, call):
        self.attempted += SWEEP_CELLS
        if call.rc != 0 or len(call.cells) != SWEEP_CELLS:
            self.failed += SWEEP_CELLS
            self.notes.append(f"cli.main returned {call.rc!r} after "
                              f"{len(call.cells)} of {SWEEP_CELLS} cells")
            return
        for cell in call.cells:
            first = self.digests.setdefault(cell.key, cell.digest)
            if first != cell.digest:
                cell.problems.append("digest differs from an earlier repeat")
            if cell.problems:
                self.failed += 1
                self.notes.extend(f"cell {cell.key}: {p}" for p in cell.problems)

    @property
    def correct(self):
        return self.failed == 0 and not self.notes


def sweep_digest(digests):
    """One sha256 over every cell's digest, in sweep order: equal digests
    mean the same event logs, cell for cell."""
    text = "".join(f"{key} {digest}\n" for key, digest in digests.items())
    return hashlib.sha256(text.encode()).hexdigest()


def dir_bytes(path):
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def measure_setup(scenario, count):
    """(set-up time, host speed loop time) of `count` fresh interpreters."""
    probes = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario),
             str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, loop_s = proc.stdout.strip().splitlines()[-1].split()
        probes.append((float(setup_s), float(loop_s)))
    return probes


def repeat_until(deadline, minimum, step):
    """Call step() at least `minimum` times, then again while a step of
    typical length still ends before the deadline."""
    spent = []
    while True:
        t0 = time.perf_counter()
        if len(spent) >= minimum and t0 + statistics.median(spent) > deadline:
            return
        step()
        spent.append(time.perf_counter() - t0)


def run_untraced(bench, seconds):
    """End-to-end metrics: medians over repeated untraced CLI calls, and
    over set-up probes run between them, each scaled to the reference host
    speed by the loop timed next to it.  Also returns the medians as
    measured, unscaled."""
    setup, calls = [], []

    def step():
        setup.extend(measure_setup(bench.scenario, SETUP_PROBES))
        calls.append(bench.call(len(calls)))

    repeat_until(time.perf_counter() + seconds, MIN_CALLS, step)
    if len(setup) < SETUP_MIN_PROBES:
        setup.extend(measure_setup(bench.scenario,
                                   SETUP_MIN_PROBES - len(setup)))
    cells = calls[0].cells
    events = sum(c.events for c in cells)
    generated = sum(c.generated for c in cells)
    acted = sum(c.acted for c in cells)
    if not generated:
        bench.notes.append("no DATA packets generated")
    bench.timings = [c.wall_s for c in calls]
    wall = statistics.median(c.scaled_s for c in calls)
    metrics = {
        "wall_s": wall,
        "events_per_s": events / wall,
        "setup_s": statistics.median(hostspeed.scale(*p) for p in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "delivery_pct": 100.0 * sum(c.delivered for c in cells) / max(generated, 1),
        "failed_cell_ratio": bench.failed / bench.attempted,
        "false_positives": sum(c.false_positives for c in cells),
    }
    if acted:
        metrics["detection_pct"] = 100.0 * sum(c.caught for c in cells) / acted
    measured_wall = statistics.median(c.wall_s for c in calls)
    measured = {
        "wall_s": measured_wall,
        "events_per_s": events / measured_wall,
        "setup_s": statistics.median(t for t, _ in setup),
        "host_speed": statistics.median(
            hostspeed.REFERENCE_S / c.loop_s for c in calls),
    }
    return metrics, measured, calls


def run_traced(bench, seconds):
    """Per-layer metrics from traced calls, each paired with an untraced one.

    Pairing in one process gives the tracing overhead and lets every
    traced digest be compared with the untraced digest of the same cell.
    The layer self times of a traced call must also account for the time
    of the untraced calls: a costly wrapper, or time lost outside every
    span, shows as a gap larger than TRACE_TOLERANCE.
    """
    import spans
    import layers

    tracer = spans.Tracer()
    tally = layers.Tally(tracer)
    plain, traced = [], []

    def step():
        plain.append(bench.call(f"plain{len(plain)}"))
        tally.start()
        bench.probe.on_world, bench.probe.exclude = tally.on_world, tracer.exclude
        try:
            with tracer:
                call = bench.call(f"traced{len(traced)}")
        finally:
            bench.probe.on_world = bench.probe.exclude = None
        traced.append(call)
        tally.finish(call, bench.notes)

    repeat_until(time.perf_counter() + seconds, MIN_CALLS, step)
    metrics = tally.metrics()
    bench.timings = [c.wall_s for c in plain + traced]
    plain_s = statistics.median(c.wall_s for c in plain)
    layers_s = statistics.median(sum(s.values()) for s in tally.self_s)
    if abs(layers_s - plain_s) > TRACE_TOLERANCE * plain_s:
        bench.notes.append(
            f"layer self times add up to {layers_s:.4f} s per traced call, "
            f"untraced calls take {plain_s:.4f} s")
    metrics["trace.overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                   - plain_s)
    return metrics, plain, traced


def metric_table(trace):
    """(name, unit) of every metric a run prints, in print order."""
    if trace:
        import layers
        return layers.PER_LAYER
    return END_TO_END + REPORTED


def load_simulator():
    if not (SRC / "manetsim" / "__init__.py").is_file():
        raise HarnessError(f"simulator sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import manetsim
    from manetsim import cli, engine
    if Path(manetsim.__file__).resolve().parent != SRC / "manetsim":
        raise HarnessError(f"imported manetsim from {manetsim.__file__}, "
                           f"not from {SRC}")
    return cli, engine, manetsim.metrics_from_log


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed, at least 1 (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="how long to keep repeating CLI calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 1:
        p.error("--seed must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        cli, engine, metrics_from_log = load_simulator()
        WORK.mkdir(exist_ok=True)
        try:
            with CellProbe(engine.World, metrics_from_log) as probe:
                bench = Bench(cli, probe,
                              write_scenario(args.workload, args.seed))
                measured = {}
                if args.trace:
                    values, _, _ = run_traced(bench, args.seconds)
                else:
                    values, measured, _ = run_untraced(bench, args.seconds)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    overrides = sorted(k for k in os.environ if k.startswith("MANETSIM_"))
    print(f"workload {args.workload} seed {args.seed} "
          f"cells {sweep_seeds(args.seed)} trace {args.trace} "
          f"overrides {','.join(overrides) or 'none'}")
    print("call wall_s " + " ".join(f"{t:.4f}" for t in bench.timings))
    print(f"digest {sweep_digest(bench.digests)}")
    for name, value in measured.items():
        unit = dict(END_TO_END).get(name, "ratio")
        print(f"measured {name} {value!r} {unit}")
    for note in bench.notes:
        print(f"check failed: {note}")
    table = metric_table(args.trace)
    for name, unit in table:
        if name in values:
            print(f"metric {name} {values[name]!r} {unit}")
    gated = {name for name, _ in (table if args.trace else END_TO_END)}
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table if name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
