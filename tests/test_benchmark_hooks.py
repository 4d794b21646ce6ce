"""The names the benchmark's tracer wraps.

`perfbench/tracing.py` replaces module attributes by name, and its install
fails on a name that is gone.  Every (module, attribute) it lists in
`SPANS` and `COUNTERS` must exist in the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_name_the_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS]
    assert ("equilibria", "satisfies_gamma") in names and ("formula", "substitute") in names
    missing = [(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(f"mvgames.{module}"), attr)]
    assert missing == []
