"""Command line entry point.

Exit status: 0 success, 1 a run panicked (the failing cell is named),
2 the scenario file or an override did not parse, or `out` cannot be a
directory.
"""

import argparse
import logging
import os
import sys

from . import scenario
from .errors import ConfigError

log = logging.getLogger("manetsim")

# (flag, scenario key), in the order the flags are applied: --nodes after
# --sweep, so it wins
FLAG_KEYS = (("sweep", "node_counts"), ("nodes", "node_counts"),
             ("seed", "seeds"), ("malicious", "malicious_fractions"),
             ("attack", "attack"), ("out", "out"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="manetsim",
        description="Clustered ad hoc network simulator with head-side "
                    "misbehavior detection.")
    p.add_argument("config", help="scenario file (YAML)")
    p.add_argument("--seed", help="single seed, replaces the seed list")
    p.add_argument("--nodes", help="single node count, replaces the sweep")
    p.add_argument("--malicious",
                   help="malicious fraction, replaces the fraction list")
    p.add_argument("--attack", help="adversary kind for fraction placement")
    p.add_argument("--out", help="output directory")
    p.add_argument("--sweep", help="comma list of node counts, e.g. 20,40,60")
    p.add_argument("--log-level", default=None,
                   help="debug also writes per-cell event logs")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level_name = (args.log_level or os.environ.get("MANETSIM_LOG_LEVEL")
                  or "warning")
    # a level name is one of logging's integer constants; BASIC_FORMAT
    # is an attribute too, but not a level
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        print(f"error: unknown log level {level_name!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")

    try:
        sc = scenario.load_scenario(args.config)
        scenario.apply_env(sc)
        for flag, key in FLAG_KEYS:
            value = getattr(args, flag)
            if value is not None:
                scenario.set_key(sc, key, value, f"from --{flag}")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        table, summary, extras = scenario.run_scenario(
            sc, write_logs=level <= logging.DEBUG)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    paths = scenario.write_outputs(sc.out, table, summary, extras)
    print(summary, end="")
    print(f"{len(table.rows)} rows -> {paths['results.csv']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
