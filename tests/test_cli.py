import pytest

from manetsim import scenario
from manetsim.cli import main
from manetsim.errors import ConfigError
from manetsim.metrics import Metrics
from manetsim.scenario import (ResultsTable, Scenario, apply_env, emit_plotdata,
                               load_scenario, run_scenario, scenario_from_dict,
                               summarize)

TINY = """\
node_counts: [10]
seeds: [1, 2]
malicious_fractions: [0.0]
sim_duration: 2.0
source_fraction: 0.2
"""


def write_scenario(tmp_path, text=TINY, name="s.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()
            if p.name != "run_meta.txt"}


# ---- scenario parsing ----

def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="nodez"):
        scenario_from_dict({"nodez": [10]})


def test_sweep_lists_and_base_split():
    sc = scenario_from_dict({"node_counts": [20, 40], "seeds": [1],
                             "sim_duration": 3.0, "out": "x"})
    assert sc.node_counts == (20, 40)
    assert sc.seeds == (1,)
    assert sc.out == "x"
    assert sc.base == {"sim_duration": 3.0}


def test_defaults_when_file_is_sparse():
    sc = scenario_from_dict({})
    assert sc.node_counts == (20, 40, 60, 80, 100)
    assert sc.seeds == tuple(range(1, 11))
    assert sc.malicious_fractions == (0.0,)


def test_cells_iterate_fraction_then_nodes_then_seed():
    sc = Scenario(node_counts=(10, 20), seeds=(1, 2), malicious_fractions=(0.0, 0.1))
    cells = list(sc.cells())
    assert cells[0] == (10, 1, 0.0)
    assert cells[:4] == [(10, 1, 0.0), (10, 2, 0.0), (20, 1, 0.0), (20, 2, 0.0)]
    assert cells[4] == (10, 1, 0.1)


def test_env_overrides_file(tmp_path):
    sc = scenario_from_dict({"sim_duration": 3.0})
    apply_env(sc, environ={"MANETSIM_SIM_DURATION": "7.5",
                           "MANETSIM_SEEDS": "3,4",
                           "HOME": "/ignored"})
    assert sc.base["sim_duration"] == 7.5
    assert sc.seeds == (3, 4)


def test_env_unknown_key_rejected():
    with pytest.raises(ConfigError, match="nodez"):
        apply_env(Scenario(), environ={"MANETSIM_NODEZ": "1"})


# ---- aggregation ----

def row(n, seed, thr, dr=None):
    return Metrics(node_count=n, seed=seed, malicious_fraction=0.0,
                   attack_kinds=(), detection_rate=dr, false_positives=0,
                   throughput=thr, mean_e2e_delay=None)


def test_summarize_mean_and_stddev():
    table = ResultsTable(rows=[row(10, 1, 40.0), row(10, 2, 60.0)])
    text = summarize(table)
    line = next(l for l in text.splitlines() if l.startswith("throughput"))
    cols = line.split()
    assert cols[1:4] == ["10", "2", "50.0000"]
    assert float(cols[4]) == pytest.approx(14.1421, abs=1e-3)


def test_plotdata_points_per_node_count():
    table = ResultsTable(rows=[row(10, 1, 40.0), row(10, 2, 60.0), row(20, 1, 80.0)])
    text, notice = emit_plotdata(table, "throughput")
    assert notice is None
    assert text.splitlines() == ["# x y err", "10 50 14.1421356", "20 80 0"]


def test_plotdata_all_missing_becomes_notice():
    table = ResultsTable(rows=[row(10, 1, 40.0)])
    text, notice = emit_plotdata(table, "detection_rate")
    assert text is None
    assert "detection_rate" in notice


def test_plotdata_unknown_metric_lists_valid_ones():
    with pytest.raises(ConfigError, match="throughput"):
        emit_plotdata(ResultsTable(), "latency")


def test_csv_has_fixed_header_and_na_tokens():
    table = ResultsTable(rows=[row(10, 1, 40.0)])
    lines = table.to_csv().splitlines()
    assert lines[0] == ("node_count,seed,malicious_fraction,attack_kinds,"
                        "detection_rate,false_positives,throughput,mean_e2e_delay")
    assert lines[1] == "10,1,0,,na,0,40,na"


# ---- end-to-end command ----

def test_cli_outputs_are_byte_stable(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main([cfg, "--out", str(out1)]) == 0
    assert main([cfg, "--out", str(out2)]) == 0
    a, b = read_outputs(out1), read_outputs(out2)
    assert set(a) == set(b) >= {"results.csv", "summary.txt", "digests.txt"}
    assert a == b
    assert (out1 / "run_meta.txt").exists()
    assert "rows ->" in capsys.readouterr().out


def test_cli_flags_pin_a_single_cell(tmp_path):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "one"
    assert main([cfg, "--nodes", "12", "--seed", "9", "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("12,9,")


def test_cli_sweep_flag_sets_node_counts(tmp_path):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "sw"
    assert main([cfg, "--sweep", "8,12", "--seed", "1", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["8", "12"]


def test_cli_rejects_unknown_key_naming_it(tmp_path, capsys):
    cfg = write_scenario(tmp_path, text="nodez: [10]\n")
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert "nodez" in capsys.readouterr().err


def test_cli_rejects_single_sample_hello_window(tmp_path, capsys):
    cfg = write_scenario(tmp_path, text=TINY + "hello_window: 1\n")
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert "hello_window" in capsys.readouterr().err


@pytest.mark.parametrize("extra, flags, key", [
    ("", ["--attack", "nonsense", "--malicious", "0.1"], "attack"),
    ("adversaries: [{node: 1, kind: nonsense}]\n", [], "kind"),
    ("adversaries: [{node: 99, kind: black_hole}]\n", [], "node"),
    ("adversaries: [{node: 1, kind: wormhole, peer: 10}]\n", [], "peer"),
    ("adversaries: [{node: 1, kind: wormhole}]\n", [], "peer"),
    ("adversaries: [{node: 1, kind: spoof, victim: -1}]\n", [], "victim"),
    ("adversaries: [{node: 1, kind: slander, targets: [2, 12]}]\n", [], "targets"),
    ("traffic: [[0, 50]]\n", [], "traffic"),
    ("traffic: [[3, 3]]\n", [], "traffic"),
    ("traffic: [[3]]\n", [], "traffic"),
    ("energy_overrides: {77: 1.0}\n", [], "energy_overrides"),
], ids=["attack", "kind", "node", "peer", "peer_missing", "victim", "targets",
        "traffic_range", "traffic_self", "traffic_shape", "energy_overrides"])
def test_cli_rejects_dangling_references(tmp_path, capsys, extra, flags, key):
    cfg = write_scenario(tmp_path, text=TINY + extra)
    assert main([cfg, "--out", str(tmp_path / "x")] + flags) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_rejects_malformed_yaml(tmp_path, capsys):
    cfg = write_scenario(tmp_path, text="node_counts: [10\n")
    assert main([cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "absent.yaml")]) == 2


def test_cli_rejects_unknown_log_level(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    assert main([cfg, "--log-level", "chatty"]) == 2
    assert "chatty" in capsys.readouterr().err


def test_cli_env_overrides_apply(tmp_path, monkeypatch):
    monkeypatch.setenv("MANETSIM_SEEDS", "5")
    cfg = write_scenario(tmp_path)
    out = tmp_path / "env"
    assert main([cfg, "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["5"]


def test_cli_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MANETSIM_SEEDS", "5")
    cfg = write_scenario(tmp_path)
    out = tmp_path / "fb"
    assert main([cfg, "--seed", "2", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["2"]


def test_debug_level_writes_event_logs(tmp_path):
    cfg = write_scenario(tmp_path, text="node_counts: [8]\nseeds: [1]\nsim_duration: 1.0\n")
    out = tmp_path / "dbg"
    assert main([cfg, "--out", str(out), "--log-level", "debug"]) == 0
    logs = list(out.glob("events_*.log"))
    assert len(logs) == 1
    assert "run_start" in logs[0].read_text()


def test_default_scenario_file_parses():
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent
    sc = load_scenario(str(here / "scenarios" / "default.yaml"))
    assert sc.node_counts == (20, 40, 60, 80, 100)
    assert sc.seeds == tuple(range(1, 11))
