#!/usr/bin/env python3
"""polybox benchmark: one workload, a closed loop of whole rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; polybox is imported from ./src,
nothing is installed.  A round is the workload's fixed, seeded list of
operations, run one at a time; rounds repeat until S seconds of operations
have passed, and the last round is always finished, so every run does whole
rounds of the same work.  Outputs are checked by independent code after
timing.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of a
separately traced run (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11
SPAWN_SAMPLES = 5
# Machine-speed calibration: the loop below takes REFERENCE_S at the
# reference speed, and every end-to-end time is scaled by REFERENCE_S over
# its measured time around the operations (at least every CHUNK_S).
REFERENCE_S = 0.005
CHUNK_S = 0.5


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return self.a, self.b & 7


def _pairs(n):
    for i in range(n):
        yield i, i * 7 % 13


def calibration() -> float:
    """Seconds for a fixed pure-Python loop, the faster of two tries: calls,
    a generator, small objects, then tuples and int keys in a growing dict,
    the kinds of work polybox's operations are made of.

    The machine is shared: its speed drifts by up to a factor 1.7 over
    minutes, and this loop drifts with it (see README.md), so dividing by
    it leaves the program's own cost.  The collector is off while it runs,
    so the size of the workload's heap does not slow it."""
    best = None
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            table = {}
            acc = 0
            for i, j in _pairs(3000):
                cell = _Cell(i, j)
                table[cell.key()] = cell
                acc += len(table) & 7
            table = {}
            for i in range(10000):
                table[i, i * 7 % 13] = i
                acc += len(table) & 7
            t = time.perf_counter() - t0
            best = t if best is None else min(best, t)
    finally:
        gc.enable()
    return best


def setup(wl, items, out_dir: Path):
    """Import the program and hand it the inputs: the part of set-up that
    setup_s times.  Building the items is the benchmark's own work."""
    import workloads

    pb = workloads.load_program()
    if not Path(pb.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polybox imported from {pb.__file__}, not from {SRC}")
    return wl.prepare(items, out_dir)


def setup_seconds(args, items_file: Path) -> float:
    """Wall time from starting a fresh interpreter until it has imported the
    program, read the items from items_file and handed them to the program."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(items_file)]
    before = calibration()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"set-up run failed with exit code {proc.returncode}")
    return elapsed * 2 * REFERENCE_S / (before + calibration())


class Loop:
    """Runs operations, times them, and keeps each distinct output once."""

    def __init__(self):
        # (workload, item) -> seconds, scaled to the reference speed
        self.times: dict[tuple, list[float]] = {}
        self.attempted = 0
        self.failed: list[tuple] = []
        self.outputs: list[tuple] = []  # (workload, item index, output)
        self._first: dict[tuple, object] = {}

    def run(self, wl, op, prepared, indices) -> float:
        """Runs the items once; returns the seconds spent in operations."""
        busy = 0.0
        chunk: list[tuple] = []
        chunk_s = 0.0
        before = calibration()
        for k in indices:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op(prepared[k])
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed.append((wl.name, k, repr(exc)))
                continue
            finally:
                dt = time.perf_counter() - t0
                busy += dt
            key = (wl.name, k)
            chunk.append((key, dt))
            chunk_s += dt
            if chunk_s >= CHUNK_S:
                before = self._scale(chunk, before)
                chunk, chunk_s = [], 0.0
            if key not in self._first:
                self._first[key] = out
                self.outputs.append((wl, k, out))
            elif out != self._first[key]:
                self.outputs.append((wl, k, out))
        self._scale(chunk, before)
        return busy

    def _scale(self, chunk, before: float) -> float:
        after = calibration()
        factor = 2 * REFERENCE_S / (before + after)
        for key, dt in chunk:
            self.times.setdefault(key, []).append(dt * factor)
        return after

    def check(self, items) -> bool:
        ok = True
        for wl, k, out in self.outputs:
            try:
                wl.check(items[wl.name][k], out)
            except checks.CheckFailed as exc:
                print(f"check failed: {wl.name} item {k}: {exc}", file=sys.stderr)
                ok = False
        for name, k, err in self.failed:
            print(f"operation failed: {name} item {k}: {err}", file=sys.stderr)
        return ok


def untraced(wl, args):
    items = wl.make(args.seed)
    out_dir = OUT / f"{wl.name}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    items_file = out_dir / "items.json"
    items_file.write_text(json.dumps(items))
    setups = [setup_seconds(args, items_file) for _ in range(SETUP_SAMPLES)]
    prepared = setup(wl, items, out_dir)
    # The inputs live for the whole run; keep full collections from walking
    # them over and over, which a single operation on its own would not pay.
    gc.freeze()
    loop = Loop()
    busy = 0.0
    while busy < args.seconds:
        busy += loop.run(wl, wl.op, prepared, range(len(prepared)))
    peak_kib = getattr(wl, "child_peak_kib", 0) or resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    # Each operation at its median over the rounds.
    per_op = [statistics.median(t) for t in loop.times.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    return loop, {wl.name: items}, metrics


def spawn_ms(code: str) -> list[float]:
    """Wall time of `python -c code` and the float it prints, if any."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [(time.perf_counter() - start) * 1e3, float(out or 0) * 1e3]


def traced(wl, args):
    """Per-layer metrics per pass: one set-up plus one round of the list.

    Other workloads' PROBE items ride along in each round so that every
    layer is timed on every workload.  Two rounds run untraced first; the
    second gives the tracing overhead on the workload's own list."""
    import tracer
    import workloads

    op = getattr(wl, "op_in_process", wl.op)
    items = wl.make(args.seed)
    prepared = setup(wl, items, OUT / f"trace-{wl.name}-{args.seed}")
    loop = Loop()
    loop.run(wl, op, prepared, range(len(prepared)))  # warm-up
    reference = loop.run(wl, op, prepared, range(len(prepared)))

    rec = tracer.Recorder()
    rec.install()
    try:
        prepared = wl.prepare(items, OUT / f"trace-{wl.name}-{args.seed}")
        probes = []
        all_items = {wl.name: items}
        for other in workloads.WORKLOADS.values():
            if other is wl:
                continue
            made = other.make(args.seed)
            chosen = [made[k] for k in other.PROBE]
            all_items[other.name] = chosen
            probe_dir = OUT / f"trace-{wl.name}-{args.seed}-{other.name}"
            probes.append((other, getattr(other, "op_in_process", other.op),
                           other.prepare(chosen, probe_dir)))
        setup_spans = len(rec.spans)
        setup_counts = dict(rec.counts)
        rounds, own, busy = 0, 0.0, 0.0
        while busy < args.seconds:
            spent = loop.run(wl, op, prepared, range(len(prepared)))
            own += spent
            busy += spent
            for other, other_op, probe in probes:
                busy += loop.run(other, other_op, probe, range(len(probe)))
            rounds += 1
    finally:
        rec.uninstall()
    rec.dump(OUT / f"trace-{wl.name}-{args.seed}.json")

    per_span = rec.self_ms(split=setup_spans)
    metrics = {}
    for name in tracer.COUNTERS:
        total = rec.counts[name] - setup_counts[name]
        value = setup_counts[name] + total / rounds
        metrics[name] = (int(value) if value == int(value) else value, "count")
    for name, (in_setup, in_rounds) in per_span.items():
        metrics[f"{name}.self_ms"] = (in_setup + in_rounds / rounds, "ms")
    bare = [spawn_ms("pass")[0] for _ in range(SPAWN_SAMPLES)]
    imports = [spawn_ms(
        "import time; t = time.perf_counter(); import polybox.cli; "
        "print(time.perf_counter() - t)")[1] for _ in range(SPAWN_SAMPLES)]
    metrics["cli.interpreter_ms"] = (statistics.median(bare), "ms")
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    metrics["trace.overhead_pct"] = (100 * (own / rounds / reference - 1), "%")
    return loop, all_items, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="ITEMS",
                        help="set up from the items in this JSON file, print "
                             "'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "polybox" / "__init__.py").is_file():
        print(f"no polybox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        items = json.loads(Path(args.setup_only).read_text())
        setup(wl, items, OUT / f"{wl.name}-{args.seed}")
        print("ready", flush=True)
        return 0

    loop, items, metrics = (traced if args.trace else untraced)(wl, args)
    correct = loop.check(items)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
