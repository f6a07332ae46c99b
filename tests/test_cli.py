import gc
import pathlib
import re
import weakref

import pytest
import yaml

from manetsim import engine, scenario
from manetsim.cli import main
from manetsim.config import CONFIG_FIELDS, SimConfig
from manetsim.engine import World
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
    ("adversaries: [{node: 1, kind: slander, targets: 3}]\n", [],
     "adversaries[0].targets"),
    ("adversaries: [{node: 1, kind: grey_hole, droprate: 0.5}]\n", [],
     "adversaries[0].droprate"),
    ("adversaries: [{node: 1, kind: grey_hole}, {node: 1, kind: black_hole}]\n",
     [], "adversaries[1].node"),
    ("traffic: [[0, 50]]\n", [], "traffic"),
    ("traffic: [[3, 3]]\n", [], "traffic"),
    ("traffic: [[3]]\n", [], "traffic"),
    ("energy_overrides: {77: 1.0}\n", [], "energy_overrides"),
    ("", ["--attack", "spoof", "--malicious", "1.0"], "malicious_fraction"),
    # one wormhole in ten nodes would be planted without a peer
    ("", ["--attack", "wormhole", "--malicious", "0.1"], "malicious_fraction"),
], ids=["attack", "kind", "node", "peer", "peer_missing", "victim", "targets",
        "targets_scalar", "placement_key_typo", "placed_twice", "traffic_range", "traffic_self", "traffic_shape", "energy_overrides",
        "spoof_no_victim", "wormhole_odd"])
def test_cli_rejects_dangling_references(tmp_path, capsys, extra, flags, key):
    cfg = write_scenario(tmp_path, text=TINY + extra)
    assert main([cfg, "--out", str(tmp_path / "x")] + flags) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("extra, key", [
    ("area: [1, 2, 3]\n", "area"),
    ("area: 5\n", "area"),
    ("area: [1, abc]\n", "area"),
    ("speed_range: [1]\n", "speed_range"),
    ("tx_power_range: 7\n", "tx_power_range"),
    ("initial_energy_range: [1, .nan]\n", "initial_energy_range"),
    ("positions: [[1], [2], [3]]\n", "positions"),
    ("positions: 5\n", "positions"),
    ("energy_overrides: [1, 2]\n", "energy_overrides"),
    ("energy_overrides: {1: abc}\n", "energy_overrides"),
    ("sim_duration: .inf\n", "sim_duration"),
    ("sim_duration: .nan\n", "sim_duration"),
    ("hello_interval: .nan\n", "hello_interval"),
    ("radio_range: abc\n", "radio_range"),
    ("spoof_interval: 0\n", "spoof_interval"),
    ("sessions_per_source: 0\n", "sessions_per_source"),
    ("sessions_per_source: -3\n", "sessions_per_source"),
    ("weight_energy: .nan\n", "weight_energy"),
    ("weight_mobility: .inf\nweight_dnc: -.inf\n", "weight_mobility"),
    ("weight_trust: -0.25\nweight_dnc: 0.75\n", "weight_trust"),
    ("traffic_start: -1\n", "traffic_start"),
    ("traffic_start: .nan\n", "traffic_start"),
    ("flood_rate: .inf\n", "flood_rate"),
    ("flood_rate: -1\n", "flood_rate"),
    ("pause_time: .nan\n", "pause_time"),
    ("pause_time: -1\n", "pause_time"),
    ("grey_drop_rate: .nan\n", "grey_drop_rate"),
    ("grey_drop_rate: 1.5\n", "grey_drop_rate"),
    ("adversaries: [{node: 1, kind: table_overflow, rate: .inf}]\n",
     "adversaries[0].rate"),
    ("adversaries: [{node: 1, kind: table_overflow, rate: -5}]\n",
     "adversaries[0].rate"),
    ("adversaries: [{node: 1, kind: grey_hole, drop_rate: .nan}]\n",
     "adversaries[0].drop_rate"),
    ("adversaries: [{node: 1, kind: grey_hole, drop_rate: -0.5}]\n",
     "adversaries[0].drop_rate"),
    ("friis_k: 0\n", "friis_k"),
    ("friis_k: -1\n", "friis_k"),
    ("friis_k: .nan\n", "friis_k"),
    ("recv_power_floor: .nan\n", "recv_power_floor"),
    ("recv_power_floor: .inf\n", "recv_power_floor"),
    # a zero floor counts the zero power of a silent transmitter as heard,
    # and the distance estimate divides by it
    ("tx_power_range: [0, 0]\nrecv_power_floor: 0\n", "recv_power_floor"),
    ("session_packets: .inf\n", "session_packets"),
    ("hello_window: 2.5\n", "hello_window"),
    ("accusation_threshold: 1.5\n", "accusation_threshold"),
    ("accusation_threshold: .nan\n", "accusation_threshold"),
    ("nuisance_limit: .nan\n", "nuisance_limit"),
    ("nuisance_limit: -1\n", "nuisance_limit"),
    ("blacklist_limit: .nan\n", "blacklist_limit"),
    ("energy_high_threshold: -1\n", "energy_high_threshold"),
    ("traffic: 5\n", "traffic"),
    ("adversaries: null\n", "adversaries"),
    ("detection_enabled: ture\n", "detection_enabled"),
    ("detection_enabled: 7\n", "detection_enabled"),
], ids=["area_three", "area_scalar", "area_text", "speed_one", "tx_scalar",
        "energy_nan", "positions_points", "positions_scalar", "overrides_list",
        "overrides_text", "duration_inf", "duration_nan", "hello_nan",
        "range_text", "spoof_every_instant", "sessions_zero",
        "sessions_negative", "weight_nan", "weights_infinite",
        "weight_negative", "start_negative", "start_nan", "flood_inf",
        "flood_negative", "pause_nan", "pause_negative", "drop_nan",
        "drop_above_one", "adversary_rate_inf", "adversary_rate_negative",
        "adversary_drop_nan", "adversary_drop_negative", "friis_zero",
        "friis_negative", "friis_nan", "floor_nan", "floor_inf", "floor_zero",
        "packets_inf", "window_fraction", "accusations_fraction",
        "accusations_nan", "nuisance_nan", "nuisance_negative",
        "blacklist_limit_nan", "energy_high_negative", "traffic_scalar",
        "adversaries_null", "bool_typo", "bool_number"])
def test_cli_rejects_malformed_values(tmp_path, capsys, extra, key):
    text = TINY.replace("node_counts: [10]", "node_counts: [3]") + extra
    cfg = write_scenario(tmp_path, text=text)
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


BAD_ENV = (
    ("MANETSIM_RADIO_RANGE", "abc", "radio_range"),
    ("MANETSIM_SEEDS", "abc", "seeds"),
    ("MANETSIM_AREA", "abc", "area"),
    ("MANETSIM_DETECTION_ENABLED", "ture", "detection_enabled"),
    ("MANETSIM_ENERGY_OVERRIDES", "{1: 2.0", "energy_overrides"),
    ("MANETSIM_TRAFFIC", "[[0, 1]", "traffic"),
)


@pytest.mark.parametrize("var, value, key", BAD_ENV,
                         ids=[f"{var}-{key}" for var, _, key in BAD_ENV])
def test_cli_unparseable_env_value_names_its_key(tmp_path, capsys, monkeypatch,
                                                 var, value, key):
    monkeypatch.setenv(var, value)
    cfg = write_scenario(tmp_path)
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("words, want", [
    (("1", "true", "TRUE", "Yes", "on"), True),
    (("0", "false", "False", "NO", "Off"), False),
], ids=["true", "false"])
def test_bool_words_parse_in_any_case(words, want):
    for word in words:
        sc = apply_env(Scenario(), environ={"MANETSIM_DETECTION_ENABLED": word})
        assert sc.base["detection_enabled"] is want, word
    # a file's YAML reads 1 and 0 as numbers, and yes and off as bools
    for word in words[0], words[3], words[4]:
        sc = scenario_from_dict(yaml.safe_load(f"detection_enabled: {word}"))
        assert sc.base["detection_enabled"] is want, word


def test_env_sets_list_and_mapping_fields(tmp_path, monkeypatch):
    """The environment sets the list and mapping fields in the file's own
    YAML grammar, and resets an optional integer the file set to null."""
    env = {"MANETSIM_ENERGY_OVERRIDES": "{1: 2.0}",
           "MANETSIM_TRAFFIC": "[[0, 2]]",
           "MANETSIM_ADVERSARIES": "[{node: 1, kind: grey_hole}]",
           "MANETSIM_POSITIONS": "[[0, 0], [40, 0], [80, 0]]",
           "MANETSIM_SESSIONS_PER_SOURCE": "null"}
    sc = Scenario(base={"sessions_per_source": 2})
    cfg = apply_env(sc, environ=env).config_for(3, 1, 0.0).validate()
    assert cfg.energy_overrides == {1: 2.0}
    assert cfg.traffic == [[0, 2]]
    assert cfg.adversaries == [{"node": 1, "kind": "grey_hole"}]
    assert cfg.positions == [[0, 0], [40, 0], [80, 0]]
    assert cfg.sessions_per_source is None
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    out = tmp_path / "env"
    text = TINY + "sessions_per_source: 2\n"
    assert main([write_scenario(tmp_path, text=text), "--nodes", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    assert (out / "results.csv").read_text().splitlines()[1].startswith("3,1,")


def test_cli_runs_a_field_wider_than_tall(tmp_path):
    cfg = write_scenario(tmp_path, text=TINY + "area: [500, 300]\n")
    out = tmp_path / "wide"
    assert main([cfg, "--out", str(out)]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 3


def test_cli_rejects_negative_area(tmp_path, capsys):
    cfg = write_scenario(tmp_path, text=TINY + "area: [-5, 300]\n")
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert "area" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_rejects_malformed_yaml(tmp_path, capsys):
    cfg = write_scenario(tmp_path, text="node_counts: [10\n")
    assert main([cfg]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["env", "file"])
def test_cli_yaml_error_is_one_line(tmp_path, capsys, monkeypatch, source):
    """A value or a scenario file that is no YAML is reported on one line,
    with the line and column PyYAML found the problem at, naming the key
    or the file, and exits 2 before any cell runs."""
    if source == "env":
        monkeypatch.setenv("MANETSIM_ENERGY_OVERRIDES", "{1: 2.0")
        cfg = write_scenario(tmp_path)
        named, where = "energy_overrides", "line 1, column 8"
    else:
        cfg = write_scenario(tmp_path, text="node_counts: [20\n")
        named, where = cfg, "line 2, column 1"
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert named in err and where in err
    assert not (tmp_path / "x").exists()


def test_cli_rejects_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "absent.yaml")]) == 2


def test_cli_rejects_unknown_log_level(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    assert main([cfg, "--log-level", "chatty"]) == 2
    assert "chatty" in capsys.readouterr().err


def test_cli_rejects_a_logging_attribute_that_is_no_level(tmp_path, capsys,
                                                          monkeypatch):
    """`logging.BASIC_FORMAT` is a string: as a level it would make
    basicConfig raise, so it is refused as unknown, by flag or by
    environment, with exit 2 and the name in the message."""
    cfg = write_scenario(tmp_path)
    assert main([cfg, "--log-level", "basic_format", "--out",
                 str(tmp_path / "x")]) == 2
    assert "basic_format" in capsys.readouterr().err
    monkeypatch.setenv("MANETSIM_LOG_LEVEL", "basic_format")
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert "basic_format" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, key", [
    ("node_counts: [2.5]", "node_counts"),
    ("node_counts: [true]", "node_counts"),
    ("seeds: [1.5]", "seeds"),
    ("seeds: [true]", "seeds"),
    ("malicious_fractions: [true]", "malicious_fractions"),
], ids=["count_fraction", "count_bool", "seed_fraction", "seed_bool",
        "fraction_bool"])
def test_cli_rejects_sweep_entries_that_are_no_counts(tmp_path, capsys, line, key):
    """A sweep entry is not truncated or read as 1: a non-integral count
    or seed, or a bool anywhere in a sweep, is refused with exit 2 and the
    key named."""
    name = line.split(":")[0]
    text = "\n".join(line if ln.startswith(name + ":") else ln
                     for ln in TINY.splitlines()) + "\n"
    cfg = write_scenario(tmp_path, text=text)
    assert main([cfg, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--sweep", "2.5", "node_counts"),
    ("--nodes", "twelve", "node_counts"),
    ("--seed", "1.5", "seeds"),
    ("--malicious", "abc", "malicious_fractions"),
], ids=["sweep", "nodes", "seed", "malicious"])
def test_cli_unparseable_flag_value_names_its_key(tmp_path, capsys, flag, value,
                                                  key):
    """A flag value parses as the same value from the environment does, so
    one that does not parse exits 2 naming the key the flag sets."""
    cfg = write_scenario(tmp_path)
    assert main([cfg, flag, value, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, env, flags, key", [
    (TINY.replace("seeds: [1, 2]", "seeds: []"), {}, [], "seeds"),
    (TINY.replace("malicious_fractions: [0.0]", "malicious_fractions: []"), {},
     [], "malicious_fractions"),
    (TINY, {"MANETSIM_NODE_COUNTS": ""}, [], "node_counts"),
    (TINY, {}, ["--sweep="], "node_counts"),
], ids=["file_seeds", "file_fractions", "env", "flag"])
def test_cli_rejects_an_empty_sweep(tmp_path, capsys, monkeypatch, text, env,
                                    flags, key):
    """An empty sweep list runs no cell; from the file, the environment or
    a flag it exits 2 naming the key, and writes no empty table."""
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cfg = write_scenario(tmp_path, text=text)
    assert main([cfg, "--out", str(tmp_path / "x")] + flags) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_integral_float_sweep_entries_are_counts():
    sc = scenario_from_dict({"node_counts": [20.0], "seeds": [3.0]})
    assert (sc.node_counts, sc.seeds) == ((20,), (3,))
    assert all(type(v) is int for v in sc.node_counts + sc.seeds)


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


DEBUG_SWEEP = "node_counts: [8]\nseeds: [1, 2]\nsim_duration: 1.0\nsource_fraction: 0.5\n"


def test_debug_sweep_logs_equal_the_engine_logs(tmp_path):
    """Each log file a debug sweep writes as its cell ends is, byte for
    byte, one line per record of `engine.run`'s log: the time to nine
    places, the kind and `repr` of the data as a dict."""
    cfg = write_scenario(tmp_path, text=DEBUG_SWEEP)
    out = tmp_path / "dbg"
    assert main([cfg, "--out", str(out), "--log-level", "debug"]) == 0
    sc = load_scenario(cfg)
    want = {}
    for n, seed, frac in sc.cells():
        _, events = engine.run(sc.config_for(n, seed, frac))
        want[f"events_n{n}_s{seed}_m0.log"] = "".join(
            f"{t:.9f} {kind} {dict(data)!r}\n" for t, kind, data in events
        ).encode()
    got = {p.name: p.read_bytes() for p in out.glob("events_*.log")}
    assert sorted(got) == ["events_n8_s1_m0.log", "events_n8_s2_m0.log"]
    assert got == want


def test_failing_cell_keeps_the_logs_before_it(tmp_path, capsys, monkeypatch):
    """A debug sweep whose second cell fails exits 1 naming that cell; the
    first cell's log is on disk already, and nothing else is written."""
    run = engine.run

    def failing(cfg):
        if cfg.seed == 2:
            raise ValueError("boom")
        return run(cfg)

    monkeypatch.setattr(engine, "run", failing)
    cfg = write_scenario(tmp_path, text=DEBUG_SWEEP)
    out = tmp_path / "dbg"
    assert main([cfg, "--out", str(out), "--log-level", "debug"]) == 1
    assert "nodes=8 seed=2" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["events_n8_s1_m0.log"]


def test_debug_usage_error_writes_nothing(tmp_path, capsys):
    """Every cell config validates before the first log is written: a
    sweep whose second node count cannot carry its traffic exits 2 and
    leaves no output directory."""
    cfg = write_scenario(tmp_path, text="node_counts: [8, 4]\nseeds: [1]\n"
                                        "sim_duration: 1.0\ntraffic: [[0, 5]]\n")
    out = tmp_path / "dbg"
    assert main([cfg, "--out", str(out), "--log-level", "debug"]) == 2
    assert "traffic" in capsys.readouterr().err
    assert not out.exists()


class WatchedLog(list):
    """An event log a weak reference can follow."""


@pytest.mark.parametrize("write_logs", [False, True])
def test_sweep_frees_each_cell_before_the_next(monkeypatch, tmp_path,
                                               write_logs):
    """No cell's event log is alive while the next cell runs, the collector
    stays paused through every cell, and the caller's setting comes back.
    With logs on, each cell's log is on disk once the sweep returns."""
    logs, alive, collecting = [], [], []
    init = World.__init__

    def watched_init(self, cfg):
        init(self, cfg)
        alive.append(sum(ref() is not None for ref in logs))
        collecting.append(gc.isenabled())
        self.events_log = WatchedLog()
        logs.append(weakref.ref(self.events_log))

    monkeypatch.setattr(World, "__init__", watched_init)
    out = tmp_path / "out"
    sc = Scenario(base={"sim_duration": 0.5, "source_fraction": 0.5},
                  node_counts=(8,), seeds=(1, 2, 3), out=str(out))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            logs.clear()
            table, _, extras = run_scenario(sc, write_logs=write_logs)
            assert gc.isenabled() == enabled
            assert len(table.rows) == len(logs) == 3
            assert all(ref() is None for ref in logs)
            last = out / "events_n8_s3_m0.log"
            assert last.exists() == write_logs
            assert not write_logs or "run_start" in last.read_text()
            assert not any(name.endswith(".log") for name in extras)
    finally:
        (gc.enable if was else gc.disable)()
    assert alive == [0] * 6
    assert collecting == [False] * 6


def test_default_scenario_file_parses():
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent
    sc = load_scenario(str(here / "scenarios" / "default.yaml"))
    assert sc.node_counts == (20, 40, 60, 80, 100)
    assert sc.seeds == tuple(range(1, 11))


def test_default_scenario_file_lists_every_default():
    """Each commented-out `# key: value` line of scenarios/default.yaml that
    names a SimConfig field, uncommented and parsed as a scenario, gives
    that field's built-in default, and every field but the two the sweep
    lists set is listed once."""
    here = pathlib.Path(__file__).resolve().parent.parent
    text = (here / "scenarios" / "default.yaml").read_text()
    listed = [line[2:] for line in text.splitlines()
              if (m := re.match(r"# (\w+):", line)) and m[1] in CONFIG_FIELDS]
    sc = scenario_from_dict(yaml.safe_load("\n".join(listed)))
    assert len(listed) == len(sc.base)
    assert set(sc.base) == set(CONFIG_FIELDS) - {"node_count", "seed"}
    default = SimConfig()
    for key, value in sc.base.items():
        assert value == getattr(default, key), key
