"""Independent checks of the program's outputs.

Nothing here imports polybox or the benchmark's generators: each check
recomputes its verdict from definitions (point enumeration, the raw
odd-intersection fingerprint, an exhaustive partition search, integer
coordinates), so it shares no decision route with the code it checks.
Every check raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def members(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def box_points(box) -> set[tuple[int, ...]]:
    return set(itertools.product(*(members(m) for m in box)))


def all_points(dims) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(n) for n in dims)))


# -- suits and point sets ---------------------------------------------------


def is_proper(dims, box) -> bool:
    return len(box) == len(dims) and all(
        0 < m < (1 << n) - 1 for m, n in zip(box, dims)
    )


def dichotomous(dims, a, b) -> bool:
    return any(x == ((1 << n) - 1) ^ y for x, y, n in zip(a, b, dims))


def disjoint_union(boxes) -> set[tuple[int, ...]]:
    """Union of the boxes; fails when two of them share a point."""
    out: set[tuple[int, ...]] = set()
    for b in boxes:
        pts = box_points(b)
        require(not (pts & out), "boxes overlap")
        out |= pts
    return out


def check_suit(dims, boxes):
    """Proper, pairwise dichotomous boxes."""
    require(len(boxes) > 0, "empty suit")
    for b in boxes:
        require(is_proper(dims, b), f"box {b} is not proper")
    for a, b in itertools.combinations(boxes, 2):
        require(dichotomous(dims, a, b), f"boxes {a} and {b} are not dichotomous")


def box_number(dims, points) -> Fraction:
    """|G|_0 by the literal fingerprint: odd subset tuples meeting G oddly."""
    odd = [
        [set(members(m)) for m in range(1, 1 << n) if bin(m).count("1") % 2]
        for n in dims
    ]
    hat = 0
    for subsets in itertools.product(*odd):
        inside = sum(1 for p in points if all(x in s for x, s in zip(p, subsets)))
        hat += inside % 2
    return Fraction(hat, 2 ** (sum(dims) - 2 * len(dims)))


def partition_exists(dims, points, k: int) -> bool:
    """Exhaustive search for a partition of the points into <= k proper boxes."""
    pts = sorted(points)
    index = {p: i for i, p in enumerate(pts)}
    boxes = []
    for box in itertools.product(*(range(1, (1 << n) - 1) for n in dims)):
        bits = 0
        for p in box_points(box):
            if p not in index:
                break
            bits |= 1 << index[p]
        else:
            boxes.append(bits)

    def cover(rest: int, left: int) -> bool:
        if not rest:
            return True
        if not left:
            return False
        low = rest & -rest
        return any(
            cover(rest & ~b, left - 1) for b in boxes if b & low and b & rest == b
        )

    return cover((1 << len(pts)) - 1, k)


def check_partition_verdict(dims, points, number, polybox, suit, known_polybox):
    """Outputs of box_number, is_polybox and proper_suit_for on one point set.

    `number` is a Fraction, `suit` a list of mask tuples or None, and
    `known_polybox` is True for inputs built as the union of a proper suit.
    """
    points = set(points)
    b0 = box_number(dims, points)
    require(number == b0, f"box number {number} != {b0}")
    require(polybox == (suit is not None), "is_polybox disagrees with proper_suit_for")
    if suit is not None:
        check_suit(dims, suit)
        require(disjoint_union(suit) == points, "partition does not cover the set")
        require(len(suit) == b0, f"partition of {len(suit)} boxes, |G|_0 = {b0}")
        return
    require(not known_polybox, "a suit union was declared no polybox")
    if b0.denominator == 1 and b0 > 0:
        require(
            not partition_exists(dims, points, int(b0)),
            f"a partition into {b0} proper boxes exists",
        )


def check_suit_equal(dims, f, g, verdicts):
    """Every verdict on a suit pair must match equality of the point unions."""
    equal = disjoint_union(f) == disjoint_union(g)
    for v in verdicts:
        require(v == equal, f"verdict {v}, unions equal: {equal}")


def check_box_canon(dims, suit, terms):
    """Terms [[subsets...], coeff] over the basis (factors full or holding 0)
    must sum, as indicator functions, to the indicator of the suit union."""
    union = disjoint_union(suit)
    total = {p: 0 for p in all_points(dims)}
    for subsets, coeff in terms:
        require(coeff != 0, "zero coefficient stored")
        require(len(subsets) == len(dims), "term of the wrong dimension")
        for s, n in zip(subsets, dims):
            require(len(s) == n or (0 in s and len(s) < n), f"{subsets} not a basis box")
        for p in itertools.product(*subsets):
            total[p] += coeff
    for p, v in total.items():
        require(v == (p in union), f"canonical form gives {v} at {p}")


# -- genomes ----------------------------------------------------------------

# Each letter pair maps to a distinct complementary pair of subsets of a
# four-element factor.  With at most three pairs the indicators of the
# positive subsets and of the full factor are linearly independent, so the
# map from formal expansions to functions on 4^d is injective: two genomes
# are equivalent exactly when their realized unions are equal.
REALIZED = ({0}, {1}, {2})
FACTOR = {0, 1, 2, 3}


def realization(pairs) -> dict[str, set[int]]:
    require(len(pairs) <= len(REALIZED), "too many letter pairs to realize")
    out = {"*": FACTOR}
    for (pos, neg), subset in zip(pairs, REALIZED):
        out[pos] = subset
        out[neg] = FACTOR - subset
    return out


def realized_union(pairs, words) -> set[tuple[int, ...]]:
    real = realization(pairs)
    boxes = [itertools.product(*(sorted(real[s]) for s in w)) for w in words]
    out: set[tuple[int, ...]] = set()
    total = 0
    for b in boxes:
        pts = set(b)
        total += len(pts)
        out |= pts
    require(total == len(out), "genome words overlap under the realization")
    return out


def check_genome_equal(pairs, v, w, verdict):
    equal = realized_union(pairs, v) == realized_union(pairs, w)
    require(verdict == equal, f"verdict {verdict}, realized unions equal: {equal}")


def check_word_canon(pairs, d, words, terms):
    """Terms [[letters...], coeff] over star and positive letters must realize
    the indicator of the genome's realized union."""
    real = realization(pairs)
    positive = {p for p, _ in pairs} | {"*"}
    union = realized_union(pairs, words)
    total: dict[tuple[int, ...], int] = {}
    for letters, coeff in terms:
        require(coeff != 0, "zero coefficient stored")
        require(len(letters) == d, "monomial of the wrong length")
        require(all(s in positive for s in letters), f"{letters} not a monomial")
        for p in itertools.product(*(sorted(real[s]) for s in letters)):
            total[p] = total.get(p, 0) + coeff
    for p in set(total) | union:
        require(total.get(p, 0) == (p in union), f"canonical form gives {total.get(p)} at {p}")


# -- tilings ----------------------------------------------------------------


def scaled(cubes, unit: int) -> list[tuple[int, ...]]:
    """Coordinates times `unit`, which must make every one an integer."""
    out = []
    for c in cubes:
        row = []
        for x in c:
            v = Fraction(x) * unit
            require(v.denominator == 1, f"coordinate {x} off the 1/{unit} grid")
            row.append(int(v))
        out.append(tuple(row))
    return out


def common_unit(cubes) -> int:
    unit = 1
    for c in cubes:
        for x in c:
            q = Fraction(x).denominator
            unit = unit * q // math.gcd(unit, q)
    return unit


def partners(cubes, unit: int) -> dict[int, int]:
    """The 2-extremality certificate: exactly one integral-offset partner each.

    Also checks range, count and pairwise dichotomy (some coordinate pair at
    distance exactly 1 on the circle of length 2)."""
    n = len(cubes)
    require(n > 0, "no cubes")
    d = len(cubes[0])
    require(n == 1 << d, f"{n} cubes in dimension {d}")
    for c in cubes:
        require(len(c) == d and all(0 <= x < 2 * unit for x in c), f"bad cube {c}")
    found: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            diffs = [(x - y) % (2 * unit) for x, y in zip(cubes[i], cubes[j])]
            require(unit in diffs, f"cubes {i} and {j} are not dichotomous")
            if all(x % unit == 0 for x in diffs):
                found[i].append(j)
                found[j].append(i)
    for i, js in found.items():
        require(len(js) == 1, f"cube {i} has {len(js)} integral partners")
    return {i: js[0] for i, js in found.items()}


def check_halves(cubes, plus, minus, unit: int, lex: bool):
    """plus and minus split the tiling, every partner pair across the split."""
    require(sorted(plus + minus) == sorted(cubes), "halves do not make up the tiling")
    mate = partners(cubes, unit)
    side = {c: 1 for c in plus}
    side.update({c: -1 for c in minus})
    require(len(side) == len(cubes), "a cube sits in both halves")
    for i, j in mate.items():
        a, b = cubes[i], cubes[j]
        require(side[a] == -side[b], f"partners {a}, {b} in one half")
        if lex:
            require(side[min(a, b)] == 1, "lex split put the larger cube in plus")


# -- CLI documents ----------------------------------------------------------


def canonical_bytes(text: str) -> bool:
    """Output is canonical: dumping the parsed document again is identical."""
    try:
        again = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError:
        return False
    return again == text
