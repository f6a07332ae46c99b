"""The traced benchmark wraps simulator functions by name.

`perfbench/spans.py` looks every name in SPANS and COUNTS up with getattr
when it installs, so renaming or deleting one of them breaks `--trace 1`.
This loads that file without installing anything and checks the names.
"""

import pathlib
import types

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    # compiled by hand, so no bytecode cache is written next to the file
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
    wanted = ([(owner, attr) for owner, attr, _ in spans.SPANS]
              + list(spans.COUNTS)
              + [(spans.World, attr) for attr in spans.HANDLERS])
    missing = [spans.qualname(owner, attr) for owner, attr in wanted
               if not callable(getattr(owner, attr, None))]
    assert missing == []
