"""Self-tests of the benchmark harness.

Run from the repository root (they are outside the simulator's own suite):

    python3 -m pytest -q perfbench/tests

The smoke and self tests shrink every cell with MANETSIM_SIM_DURATION, the
CLI's own override.  test_traced_split runs the workloads at full size and
takes a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402

TINY = {"MANETSIM_SIM_DURATION": "2"}
ATTACKED = {"traffic-greyhole"}


def bench_run(workload, trace, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
        env={**os.environ, **(env or {})})
    return proc


def parse(stdout):
    lines = stdout.strip().splitlines()
    printed = [line.split() for line in lines if line.startswith("metric ")]
    return printed, json.loads(lines[-1])


def printed_digest(stdout):
    found = re.findall(r"^digest ([0-9a-f]{64})$", stdout, re.M)
    assert len(found) == 1, stdout
    return found[0]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_once(workload, trace):
    proc = bench_run(workload, trace, TINY)
    assert proc.returncode == 0, proc.stderr
    printed, result = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * run.SWEEP_CELLS

    names = [p[1] for p in printed]
    assert len(names) == len(set(names)), "a metric was printed twice"
    units = {p[1]: p[3] for p in printed}
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert units[name] == unit
    if not trace:
        assert {"failed_cell_ratio", "false_positives"} <= set(units)
        assert ("detection_pct" in units) == (workload in ATTACKED)
        measured = [line.split()[1] for line in proc.stdout.splitlines()
                    if line.startswith("measured ")]
        assert measured == ["wall_s", "events_per_s", "setup_s", "host_speed"]
    printed_digest(proc.stdout)


def test_host_speed_scaling():
    """A measurement taken while the loop ran at reference speed is kept;
    one taken on a host half as fast is halved."""
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref) == pytest.approx(2.0)
    assert hostspeed.scale(2.0, 2 * ref) == pytest.approx(1.0)
    assert 0 < hostspeed.loop_time() < 100 * ref


def test_tracing_keeps_digests_and_accounts_for_wall_time(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setenv(name, value)
    cli, engine, metrics_from_log = run.load_simulator()
    run.WORK.mkdir(exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            with run.CellProbe(engine.World, metrics_from_log) as probe:
                bench = run.Bench(cli, probe, run.write_scenario(workload, 1))
                metrics, plain, traced = run.run_traced(bench, 0)
            # correct covers: traced digests equal untraced ones, the layer
            # self times of the traced calls come within the tolerance of
            # the untraced call time, and the traced counts repeat exactly
            assert bench.correct, bench.notes
            assert [c.digest for c in plain[0].cells] == \
                [c.digest for c in traced[0].cells]
            # the untraced event count equals the handler calls traced
            assert metrics["engine.events_dispatched"] == \
                sum(c.events for c in plain[0].cells)
            assert world_run_restored(engine)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def test_trace_check_fails_on_a_slowed_wrapper(monkeypatch):
    """The layer self times are checked against the untraced calls, so a
    wrapper that costs more than the tolerance fails the run."""
    for name, value in TINY.items():
        monkeypatch.setenv(name, value)
    cli, engine, metrics_from_log = run.load_simulator()
    import spans

    install = spans.Tracer.install

    def slowed(tracer):
        # sleeps after the handler's span has closed, inside its caller's
        tracer.hooks["World._hello_round"] = lambda _args, _result: \
            time.sleep(0.02)
        return install(tracer)

    monkeypatch.setattr(spans.Tracer, "install", slowed)
    run.WORK.mkdir(exist_ok=True)
    try:
        with run.CellProbe(engine.World, metrics_from_log) as probe:
            bench = run.Bench(cli, probe,
                              run.write_scenario("static-dense", 1))
            run.run_traced(bench, 0)
        assert not bench.correct
        assert any("layer self times" in note for note in bench.notes), \
            bench.notes
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def world_run_restored(engine):
    return not hasattr(engine.World.run, "__wrapped__") and \
        engine.World.run.__qualname__ == "World.run"


def test_checks_can_fail(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setenv(name, value)
    cli, engine, metrics_from_log = run.load_simulator()
    run.WORK.mkdir(exist_ok=True)
    try:
        with run.CellProbe(engine.World, metrics_from_log) as probe:
            bench = run.Bench(cli, probe, run.write_scenario("static-dense", 1))
            first = bench.call("a")
            assert bench.correct
            # a repeat whose digest differs fails its cell
            bench.digests[first.cells[0].key] = "0" * 64
            bench.call("b")
            assert bench.failed == 1 and not bench.correct
            # a CLI that exits non-zero fails every cell of the call
            bench.scenario = run.WORK / "missing.yaml"
            bench.call("c")
            assert bench.failed == 1 + run.SWEEP_CELLS
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench_run("static-dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def self_times(metrics):
    return {k[:-len(".self_s")]: v["value"] for k, v in metrics.items()
            if k.endswith(".self_s")}


def group(times, *prefixes):
    return sum(v for k, v in times.items() if k.startswith(prefixes))


def test_traced_split():
    """The traced run reproduces the split the workloads were chosen for,
    and simulates the events the baseline recorded for seed 1."""
    baseline = json.loads((BENCH / "baseline.json").read_text())
    splits = {}
    for workload in run.WORKLOADS:
        proc = bench_run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        _, result = parse(proc.stdout)
        assert result["correct"] is True
        assert printed_digest(proc.stdout) == \
            baseline["digests"][workload]["1"]
        splits[workload] = self_times(result["metrics"])

    beacon = splits["mobile-beacon"]
    assert max(beacon, key=beacon.get) == "engine.beacon"

    traffic = splits["traffic-greyhole"]
    groups = {
        "traffic": group(traffic, "engine.dataplane", "protocol.",
                         "engine.detection", "detection."),
        "beacon": group(traffic, "engine.beacon"),
        "topology": group(traffic, "engine.topology", "radio.",
                          "engine.adjacency", "clustering.", "engine.backbone"),
        "core": group(traffic, "engine.loop", "engine.setup", "engine.digest",
                      "metrics."),
        "cli": group(traffic, "scenario."),
    }
    assert max(groups, key=groups.get) == "traffic", groups

    dense = splits["static-dense"]
    assert group(dense, "clustering.", "engine.backbone") > \
        dense["engine.adjacency"]
