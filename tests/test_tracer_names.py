"""The benchmark's tracer wraps library functions by name; each must exist,
and the CLI must run under it.

perfbench/tracer.py binds its spans and counters to (module, attribute)
pairs at install time, so a deleted or renamed function would only show
when a traced benchmark runs.  Its counters also read their arguments
(`suits.points.count` takes len(args[0].members) of every box_number
call), so a CLI route that passes another type would fail only there.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import polybox.cli  # imports every module the tracer wraps

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
FIX = Path(__file__).parent / "fixtures"


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
    # only `equiv` imports polybox.oracle, so a CLI process need not hold it
    # when the tracer looks its modules up in sys.modules
    assert "polybox.oracle" not in {m for m, _ in names}


def test_cli_commands_run_under_the_tracer(capsys):
    # one command of each kind the benchmark's CLI workload runs traced
    runs = [
        ["verify-suit", "--proper", "suit_x.json"],
        ["canon", "suit_x.json"],
        ["boxnum", "suit_x.json"],
        ["boxnum", "points_line.json"],
        ["genome-canon", "genome_class.json"],
        ["tiling-verify", "tiling_d2.json"],
        ["tiling-extremal", "tiling_d2.json"],
        ["tiling-decompose", "tiling_d2.json"],
        ["tiling-reconstruct", "tiling_plus_d2.json"],
        ["rigidity", "--plus", "genome_plus.json"],
    ]
    rec = load_tracer().Recorder()
    rec.install()
    try:
        codes = [
            polybox.cli.main([str(FIX / a) if a.endswith(".json") else a for a in argv])
            for argv in runs
        ]
    finally:
        rec.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(runs)
    assert rec.counts["suits.points.count"] == 3  # the three points of points_line
