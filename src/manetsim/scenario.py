"""Scenario files, sweep execution, and machine-readable outputs.

A scenario is a YAML document whose keys mirror SimConfig plus the sweep
lists (node_counts, seeds, malicious_fractions) and an output directory.
Environment variables prefixed MANETSIM_ override file values;
command-line flags override both.  All three set keys through `set_key`,
so a value parses the same wherever it comes from, and an unknown key or
a value that does not parse is rejected by name.

All output files are byte-stable across repeated invocations: wall-clock
timestamps live in a sidecar (run_meta.txt) that is excluded from the
stability promise.
"""

import dataclasses
import logging
import os
import statistics
from dataclasses import dataclass, field

import yaml

from . import engine, metrics
from .config import CONFIG_FIELDS, NODE_COUNT_SWEEP, SimConfig
from .errors import ConfigError

log = logging.getLogger("manetsim")

ENV_PREFIX = "MANETSIM_"

SCENARIO_ONLY_KEYS = ("node_counts", "seeds", "malicious_fractions", "out")

CSV_COLUMNS = ("node_count", "seed", "malicious_fraction", "attack_kinds",
               "detection_rate", "false_positives", "throughput",
               "mean_e2e_delay")

# metrics that can be aggregated into plot series
PLOT_METRICS = ("detection_rate", "false_positives", "throughput",
                "mean_e2e_delay")


@dataclass
class Scenario:
    base: dict = field(default_factory=dict)   # SimConfig overrides
    node_counts: tuple = tuple(NODE_COUNT_SWEEP)
    seeds: tuple = tuple(range(1, 11))
    malicious_fractions: tuple = (0.0,)
    out: str = "results"

    def cells(self):
        for frac in self.malicious_fractions:
            for n in self.node_counts:
                for seed in self.seeds:
                    yield n, seed, frac

    def config_for(self, node_count, seed, frac) -> SimConfig:
        kw = dict(self.base)
        kw["node_count"] = node_count
        kw["seed"] = seed
        kw["malicious_fraction"] = frac
        return SimConfig(**kw)


@dataclass
class ResultsTable:
    rows: list = field(default_factory=list)   # Metrics, one per cell

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for m in self.rows:
            lines.append(",".join((
                str(m.node_count),
                str(m.seed),
                _num(m.malicious_fraction),
                ";".join(m.attack_kinds),
                _num(m.detection_rate),
                str(m.false_positives),
                _num(m.throughput),
                _num(m.mean_e2e_delay),
            )))
        return "\n".join(lines) + "\n"


def _num(v) -> str:
    if v is None:
        return "na"
    return f"{v:.9g}"


def _type_name(t) -> str:
    if isinstance(t, str):
        return t
    return getattr(t, "__name__", str(t))


def set_key(sc: Scenario, key, raw, origin: str):
    """Set one key from a file value, an environment variable or a flag.

    A sweep list or `out` goes to the scenario, a SimConfig field to its
    base, both parsed by `_coerce`.  Any other key is a `ConfigError`
    naming it and origin, which says where it came from ("in <path>",
    "from $MANETSIM_<KEY>", "from --<flag>").
    """
    if key in SCENARIO_ONLY_KEYS:
        setattr(sc, key, _coerce(key, raw))
    elif key in CONFIG_FIELDS:
        sc.base[key] = _coerce(key, raw)
    else:
        raise ConfigError(f"unknown scenario key {key!r} {origin}")


def _coerce(name: str, raw):
    """Parse an override (env/flag string or YAML value) into the field's
    type; a value that does not parse is a `ConfigError` naming the key."""
    try:
        return _parse(name, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} ({exc})") from exc


def _integral(x):
    """A sweep count or seed: an int, a float with no fraction, or a
    string that int() parses; never a bool."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _fraction(x):
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _parse(name: str, raw):
    hints = {f.name: _type_name(f.type) for f in dataclasses.fields(SimConfig)}
    sweeps = {"node_counts": _integral, "seeds": _integral,
              "malicious_fractions": _fraction}
    if name in sweeps:
        if not isinstance(raw, (list, tuple)):
            raw = str(raw).replace(",", " ").split()
        if not raw:
            raise ValueError("an empty sweep runs no cell")
        return tuple(sweeps[name](x) for x in raw)
    if name == "out":
        return str(raw)
    hint = hints.get(name, "")
    if not isinstance(raw, str):
        # a YAML list is a tuple exactly where the field is one
        return tuple(raw) if hint == "tuple" and isinstance(raw, list) else raw
    if hint.startswith("int"):
        return int(raw)
    if hint.startswith("float"):
        return float(raw)
    if hint.startswith("bool"):
        return raw.lower() in ("1", "true", "yes", "on")
    if hint.startswith("tuple"):
        parts = raw.replace(",", " ").split()
        return tuple(float(x) if "." in x or "e" in x.lower() else int(x)
                     for x in parts)
    return raw


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario parse failure in {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario {path} must be a mapping, got {type(doc).__name__}")
    return scenario_from_dict(doc, origin=path)


def scenario_from_dict(doc: dict, origin: str = "<dict>") -> Scenario:
    sc = Scenario()
    for key, value in doc.items():
        set_key(sc, key, value, f"in {origin}")
    return sc


def apply_env(sc: Scenario, environ=None) -> Scenario:
    environ = os.environ if environ is None else environ
    for key, value in sorted(environ.items()):
        name = key[len(ENV_PREFIX):].lower()
        if key.startswith(ENV_PREFIX) and name != "log_level":
            set_key(sc, name, value, f"from ${key}")
    return sc


def run_scenario(sc: Scenario, write_logs: bool = False):
    """Execute the sweep cross-product; returns (table, summary text, extras).

    extras maps filename -> content for digests and per-metric plot data.
    Cells run in deterministic (fraction, node_count, seed) order; a
    failing cell is re-raised with its identity attached.
    """
    table = ResultsTable()
    digests = []
    event_logs = {}
    # a cell config that fails validation is a usage error, reported as
    # such before any cell runs
    cells = [(n, seed, frac, sc.config_for(n, seed, frac).validate())
             for n, seed, frac in sc.cells()]
    for n, seed, frac, cfg in cells:
        log.info("cell nodes=%d seed=%d malicious=%g", n, seed, frac)
        # the cell's log is dropped before the collector may run again,
        # so no pass scans it and no two logs are alive at once
        with engine.collector_paused():
            try:
                result, events = engine.run(cfg)
            except Exception as exc:
                raise RuntimeError(
                    f"run failed at cell nodes={n} seed={seed} malicious={frac}: {exc}"
                ) from exc
            table.rows.append(result)
            digests.append(f"{n},{seed},{_num(frac)},{result.digest}")
            if write_logs:
                name = f"events_n{n}_s{seed}_m{_num(frac)}.log"
                event_logs[name] = "".join(
                    f"{t:.9f} {kind} {dict(data)!r}\n" for t, kind, data in events)
            del events
    summary = summarize(table)
    extras = {"digests.txt": "\n".join(digests) + "\n"}
    for metric_name in PLOT_METRICS:
        series, notice = emit_plotdata(table, metric_name)
        if series is None:
            summary += f"\n# {notice}\n"
        else:
            extras[f"plot_{metric_name}.txt"] = series
    extras.update(event_logs)
    return table, summary, extras


def summarize(table: ResultsTable) -> str:
    """Mean and stddev of each metric per node_count, as aligned text."""
    by_n = {}
    for m in table.rows:
        by_n.setdefault(m.node_count, []).append(m)
    lines = [f"{'metric':<16} {'nodes':>5} {'runs':>4} {'mean':>12} {'stddev':>12}"]
    for metric_name in PLOT_METRICS:
        for n in sorted(by_n):
            vals = [getattr(m, metric_name) for m in by_n[n]]
            vals = [v for v in vals if v is not None]
            if not vals:
                lines.append(f"{metric_name:<16} {n:>5} {0:>4} {'na':>12} {'na':>12}")
                continue
            mean = statistics.fmean(vals)
            sd = statistics.stdev(vals) if len(vals) > 1 else 0.0
            lines.append(f"{metric_name:<16} {n:>5} {len(vals):>4} "
                         f"{mean:>12.4f} {sd:>12.4f}")
    return "\n".join(lines) + "\n"


def emit_plotdata(table: ResultsTable, metric_name: str):
    """One (x = node_count, y = mean, err = stddev) point per node count.

    Returns (text, None), or (None, notice) when every value is missing
    (a detection series without attackers, say).
    """
    if metric_name not in PLOT_METRICS:
        raise ConfigError(
            f"unknown metric {metric_name!r}; valid: {', '.join(PLOT_METRICS)}")
    by_n = {}
    for m in table.rows:
        by_n.setdefault(m.node_count, []).append(getattr(m, metric_name))
    points = []
    for n in sorted(by_n):
        vals = [v for v in by_n[n] if v is not None]
        if not vals:
            continue
        mean = statistics.fmean(vals)
        sd = statistics.stdev(vals) if len(vals) > 1 else 0.0
        points.append(f"{n} {_num(mean)} {_num(sd)}")
    if not points:
        return None, f"{metric_name}: no values in any cell; series omitted"
    return "# x y err\n" + "\n".join(points) + "\n", None


def write_outputs(out_dir: str, table: ResultsTable, summary: str, extras: dict):
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    payload = {"results.csv": table.to_csv(), "summary.txt": summary}
    payload.update(extras)
    for name, content in sorted(payload.items()):
        p = os.path.join(out_dir, name)
        with open(p, "w") as fh:
            fh.write(content)
        paths[name] = p
    # timestamps are quarantined here so everything above stays byte-stable
    import time
    with open(os.path.join(out_dir, "run_meta.txt"), "w") as fh:
        fh.write(f"finished_at_unix={time.time():.3f}\n")
        fh.write(f"cells={len(table.rows)}\n")
    return paths
