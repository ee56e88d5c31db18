"""The benchmark's tracer wraps library functions by name; each must exist.

perfbench/tracer.py binds its spans and counters to (module, attribute)
pairs at install time, so a deleted or renamed function would only show
when a traced benchmark runs.  This reads the tracer's tables without
installing anything.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import polybox.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    names = [(m, a) for m, a, _ in tracer.SPANS]
    names += [(m, a) for m, a, _, _ in tracer.COUNTS]
    names.append(("polybox.indices", "index_representatives"))
    missing = [
        (m, a) for m, a in names
        if m not in sys.modules or not callable(getattr(sys.modules[m], a, None))
    ]
    assert not missing
