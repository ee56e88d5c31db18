"""Seeded input generators of the benchmark, written with the stdlib only.

Nothing here imports polybox: inputs are plain tuples and ints, so a change
to the program (its own generators included) cannot change a workload.

Representations:
  box       tuple of per-factor bit masks over factors 0..n-1
  suit      (dims, [box, ...]), pairwise dichotomous proper boxes
  point set (dims, sorted tuple of point tuples)
  genome    (pairs, d, [word, ...]), words are tuples of letter strings
  tiling    list of cubes; a cube is a tuple of ints in [0, 2 * UNIT),
            the coordinate value times UNIT, so x' = x + UNIT mod 2 * UNIT
"""

from __future__ import annotations

import math
import random

# Coordinates of the generated tilings have denominators 2..6.
UNIT = 60
DENOMS = (2, 3, 4, 5, 6)

# At most three letter pairs, so a genome maps injectively into the
# four-element factor realization the checks use.
LETTER_PAIRS = (("a", "A"), ("b", "B"), ("c", "C"))


def rng_for(*parts) -> random.Random:
    """A generator seeded from a string: stable across runs and platforms."""
    return random.Random(":".join(str(p) for p in parts))


def full(n: int) -> int:
    return (1 << n) - 1


def random_full_suit(rng: random.Random, dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """A proper suit covering the whole space, by guillotine splitting.

    A region with a full factor i is cut into A and its complement at i;
    leaves without full factors are proper boxes, and two leaves are
    dichotomous at the coordinate where their common ancestor was cut.
    """
    out = []

    def split(region: list[int]):
        free = [i for i, m in enumerate(region) if m == full(dims[i])]
        if not free:
            out.append(tuple(region))
            return
        i = rng.choice(free)
        a = rng.randrange(1, full(dims[i]))
        for part in (a, full(dims[i]) ^ a):
            child = list(region)
            child[i] = part
            split(child)

    split([full(n) for n in dims])
    return out


def box_points(box: tuple[int, ...]) -> list[tuple[int, ...]]:
    pts = [()]
    for m in box:
        pts = [p + (x,) for p in pts for x in range(m.bit_length()) if m >> x & 1]
    return pts


def twin_positions(boxes, complement) -> list[tuple[int, int, int]]:
    """(j, k, i) for members j < k equal off coordinate i and complementary at it."""
    out = []
    for j in range(len(boxes)):
        for k in range(j + 1, len(boxes)):
            diff = [i for i, (x, y) in enumerate(zip(boxes[j], boxes[k])) if x != y]
            if len(diff) == 1 and complement(diff[0], boxes[j][diff[0]]) == boxes[k][diff[0]]:
                out.append((j, k, diff[0]))
    return out


def random_sub_suit(rng: random.Random, dims, keep: int) -> list[tuple[int, ...]]:
    boxes = random_full_suit(rng, dims)
    return sorted(rng.sample(boxes, keep))


def resplit_suit(rng: random.Random, dims, boxes) -> list[tuple[int, ...]]:
    """Replace twin pairs B x {A, A'} by B x {C, C'}: same union, new suit.

    Every other member is dichotomous to both twins off the twin coordinate,
    so the result is again a suit.
    """
    boxes = list(boxes)
    used = set()
    for j, k, i in twin_positions(boxes, lambda i, m: full(dims[i]) ^ m):
        if j in used or k in used:
            continue
        used.update((j, k))
        c = rng.randrange(1, full(dims[i]))
        for idx, part in ((j, c), (k, full(dims[i]) ^ c)):
            box = list(boxes[idx])
            box[i] = part
            boxes[idx] = tuple(box)
    rng.shuffle(boxes)
    return boxes


def random_point_set(rng: random.Random, dims, size: int) -> tuple:
    """`size` distinct points of the space, sorted."""
    return tuple(sorted(rng.sample(box_points(tuple(full(n) for n in dims)), size)))


# -- genomes ----------------------------------------------------------------


def letter_complement(pairs) -> dict[str, str]:
    out = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


def random_full_genome(rng: random.Random, d: int, pairs) -> list[tuple]:
    """2^d pairwise dichotomous words, as leaves of a random guillotine cut.

    Leaves come out in sibling order, so words 2k and 2k+1 are twins.
    """
    out = []

    def split(region: list):
        free = [i for i, s in enumerate(region) if s is None]
        if not free:
            out.append(tuple(region))
            return
        i = rng.choice(free)
        pair = rng.choice(pairs)
        if rng.randrange(2):
            pair = pair[::-1]
        for s in pair:
            child = list(region)
            child[i] = s
            split(child)

    split([None] * d)
    return out


def random_genome(rng: random.Random, d: int, pairs) -> list[tuple]:
    """A sub-genome of 2^(d-1) words: both words of a quarter of the twin
    pairs, one word of half of them and none of the last quarter."""
    words = random_full_genome(rng, d, pairs)
    twins = [words[k:k + 2] for k in range(0, len(words), 2)]
    rng.shuffle(twins)
    q = len(twins) // 4
    kept = [w for t in twins[:q] for w in t]
    kept += [rng.choice(t) for t in twins[q:len(twins) - q]]
    return kept


def resplit_genome(rng: random.Random, pairs, words) -> list[tuple]:
    """The word analogue of resplit_suit: s + (* - s) = * = t + (* - t)."""
    comp = letter_complement(pairs)
    words = list(words)
    used = set()
    for j, k, i in twin_positions(words, lambda i, s: comp[s]):
        if j in used or k in used:
            continue
        used.update((j, k))
        t = rng.choice(pairs)
        if rng.randrange(2):
            t = t[::-1]
        for idx, s in ((j, t[0]), (k, t[1])):
            w = list(words[idx])
            w[i] = s
            words[idx] = tuple(w)
    rng.shuffle(words)
    return words


# -- tilings ----------------------------------------------------------------


def partner_pairs(cubes) -> list[tuple[int, int]]:
    """Index pairs whose offsets are integral in every coordinate."""
    out = []
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            if all((x - y) % UNIT == 0 for x, y in zip(cubes[i], cubes[j])):
                out.append((i, j))
    return out


def random_fraction(rng: random.Random, nonzero: bool) -> int:
    """p/q with q in DENOMS and 0 <= p/q < 1, scaled by UNIT."""
    q = rng.choice(DENOMS)
    p = rng.randrange(1 if nonzero else 0, q)
    return p * UNIT // q


def random_tiling(rng: random.Random, d: int) -> list[tuple[int, ...]]:
    """A 2-extremal tiling of the 2-torus by layered doubling.

    Every partner pair (a, b) of a (k-1)-dimensional tiling becomes the four
    cubes a|0, a|1, b|s, b|s+1 with a non-integral shift s per pair, so each
    cube keeps exactly one partner (its own column).
    """
    c = random_fraction(rng, nonzero=False)
    cubes = [(c,), (c + UNIT,)]
    for _ in range(1, d):
        nxt = []
        for i, j in partner_pairs(cubes):
            a, b = cubes[i], cubes[j]
            if rng.randrange(2):
                a, b = b, a
            s = random_fraction(rng, nonzero=True)
            nxt += [a + (0,), a + (UNIT,), b + (s,), b + (s + UNIT,)]
        cubes = nxt
    return sorted(cubes)


def split_lex(cubes) -> tuple[list, list]:
    """Halves with the smaller cube of every partner pair in the first."""
    plus, minus = [], []
    for i, j in partner_pairs(cubes):
        a, b = sorted((cubes[i], cubes[j]))
        plus.append(a)
        minus.append(b)
    return sorted(plus), sorted(minus)


def coord_str(v: int) -> str:
    """Reduced 'p/q' text of the coordinate v / UNIT."""
    g = math.gcd(v, UNIT)
    p, q = v // g, UNIT // g
    return str(p) if q == 1 else f"{p}/{q}"


def coord_value(text: str) -> int:
    """Inverse of coord_str; raises ValueError on a value off the grid."""
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    if (p * UNIT) % q:
        raise ValueError(f"{text} is not a multiple of 1/{UNIT}")
    return p * UNIT // q


def cube_strs(cubes) -> list[list[str]]:
    return [[coord_str(x) for x in c] for c in cubes]


def tiling_pairs(cubes) -> list[tuple[str, str]]:
    """Letter pairs (v, v + 1 mod 2) of the occurring values, smaller first."""
    values = {x % UNIT for c in cubes for x in c}
    return [(coord_str(v), coord_str(v + UNIT)) for v in sorted(values)]
