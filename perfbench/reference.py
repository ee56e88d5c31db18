#!/usr/bin/env python3
"""Reference figures, measured once and not gated (see README.md).

    python3 perfbench/reference.py

Prints the raw wall time of the tiling_rigidity operation over d = 4..8
(median of three seeds), and of is_polybox on the whole 3x3x3 space (the
instance left out of partition_search) and on ROADMAP's two partition-search
instances: a 25-point polybox in 3x3x3 with |G|_0 = 7 and a 4-box polybox in
4x4x4.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

MAX_D = 8
REPEATS = 3


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def main() -> int:
    pb = workloads.load_program()

    tiling = workloads.WORKLOADS["tiling_rigidity"]
    previous = None
    for d in range(4, MAX_D + 1):
        times = []
        for seed in range(REPEATS):
            item = {"d": d, "seed": seed}
            dt, out = timed(tiling.op, item)
            tiling.check(item, out)
            times.append(dt)
        ms = statistics.median(times) * 1e3
        ratio = f"  x{ms / previous:.1f}" if previous else ""
        print(f"tiling_rigidity d={d}: {ms:9.1f} ms per operation{ratio}")
        previous = ms

    rng = inputs.rng_for("reference", 0)
    small = []
    while not small:
        suit = inputs.random_full_suit(rng, (3, 3, 3))
        small = [b for b in suit if len(inputs.box_points(b)) == 2]
    cases = [
        ("whole-space suit of 3x3x3", (3, 3, 3), suit),
        ("25-point polybox in 3x3x3", (3, 3, 3), [b for b in suit if b != small[0]]),
        ("4-box polybox in 4x4x4", (4, 4, 4),
         inputs.random_sub_suit(rng, (4, 4, 4), 4)),
    ]
    for label, dims, boxes in cases:
        pts = sorted({p for b in boxes for p in inputs.box_points(b)})
        g = pb.PointSet(pb.BoxSpace(dims), frozenset(pts))
        dt, verdict = timed(pb.is_polybox, g)
        checks.require(verdict, f"{label}: union of a proper suit reported no polybox")
        print(f"is_polybox, {label} ({len(pts)} points, |G|_0 = {len(boxes)}): {dt:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
