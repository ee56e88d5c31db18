#!/usr/bin/env python3
"""Probe whether nested polyboxes have monotone box numbers.

Whether F inside G forces |F|_0 <= |G|_0 is an open question; this script
only collects evidence.  Nested pairs come from a random suit and one of its
sub-suits, so both unions are genuine polyboxes.  Nothing is asserted: the
output reports how often the inequality held and the worst gap seen.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from polybox import box_number, union_points, verify_suit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from generate import random_space, random_suit_for_space


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-d", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    held = 0
    violated = 0
    worst = None
    for _ in range(args.trials):
        space = random_space(rng, max_d=args.max_d, dim_choices=(2, 3, 4))
        suit = random_suit_for_space(space, rng)
        k = rng.randint(1, len(suit.boxes))
        inner = rng.sample(list(suit.boxes), k)
        f0 = box_number(union_points(verify_suit(inner)))
        g0 = box_number(union_points(suit))
        if f0 <= g0:
            held += 1
        else:
            violated += 1
            gap = f0 - g0
            if worst is None or gap > worst[0]:
                worst = (gap, space.dims, k)

    print(f"trials:    {args.trials}")
    print(f"held:      {held}")
    print(f"violated:  {violated}")
    if worst:
        print(f"worst gap: {worst[0]} on dims={worst[1]} with |inner|={worst[2]}")
    else:
        print("no violation observed (the question stays open regardless)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
