"""Cube tilings of the flat torus of side 2, with exact rational arithmetic.

A tiling is 2^d unit-cube translates whose offset vectors are pairwise
dichotomous: some coordinate differs by an odd integer mod 2.  Coordinates
live in [0, 2) with complementation s' = s + 1 mod 2, an isomorphic
normalization of the usual (-1, 1] alphabet.  Each coordinate value is a
letter, so a tiling is exactly a genome of size 2^d, and the word kernel
(polybox.words) checks it and reconstructs it from either half.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from operator import getitem, ne
from typing import Iterable, NamedTuple, Optional, Sequence

from . import words as kernel
from ._frozen import Frozen
from .errors import (
    CoordOutOfRange,
    NotTwoExtremal,
    TheoremViolation,
    WrongCount,
    require_budget,
)

Cube = tuple[Fraction, ...]
Word = tuple[int, ...]


def _intern(
    rows: Iterable[Sequence],
) -> tuple[list[Cube], list[Word], list[tuple[int, int]]]:
    """Parse and range-check coordinate rows and intern their values.

    Returns the rows as cubes, the cubes as kernel words, and the pairs
    their letters number.  Values x and x + 1 mod 2 form one letter pair,
    numbered k by the fractional part (p mod q, q) of x = p/q in order of
    first occurrence; x is the positive letter 2k+3 in [0, 1) and the
    negative letter 2k+2 in [1, 2).  Each distinct string is parsed once, and
    each letter is kept by the id() of its Fraction, which the cubes hold until
    the call returns, so no id is reused.  A row of known values resolves in
    one pass; any other row is parsed whole, then range-checked.
    """
    parsed: dict[str, Fraction] = {}
    letters: dict[int, int] = {}
    pairs: dict[tuple[int, int], int] = {}
    cubes = []
    words = []
    for row in rows:
        try:
            cube = tuple(map(parsed.__getitem__, row) if type(row[0]) is str else row)
            word = tuple(map(letters.__getitem__, map(id, cube)))
        except (IndexError, KeyError, TypeError):
            cube = tuple(x if type(x) is Fraction else _parse(x, parsed) for x in row)
            for x in cube:
                p, q = x.numerator, x.denominator
                if not 0 <= p < 2 * q:
                    raise CoordOutOfRange(f"coordinate {_shown(x)} outside [0, 2)")
                k = pairs.setdefault((p % q, q), len(pairs))
                letters[id(x)] = 2 * k + 3 - p // q
            word = tuple(map(letters.__getitem__, map(id, cube)))
        cubes.append(cube)
        words.append(word)
    return cubes, words, list(pairs)


def _parse(x, parsed: dict[str, Fraction]) -> Fraction:
    """Fraction(x), parsing each distinct string once."""
    if type(x) is not str:
        return Fraction(x)
    value = parsed.get(x)
    if value is None:
        value = parsed[x] = Fraction(x)
    return value


def _shown(x: Fraction) -> str:
    """x as text, or its size when it has too many digits to print."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    return str(x) if bits <= 1024 else f"with a {bits}-bit numerator or denominator"


def _values(pairs: Sequence[tuple[int, int]]) -> dict[int, Fraction]:
    """The value of every letter of the pairs: the inverse of _intern."""
    values = {}
    for k, (r, q) in enumerate(pairs):
        values[2 * k + 3] = Fraction(r, q)
        values[2 * k + 2] = Fraction(r + q, q)
    return values


def _ranks(values: dict[int, Fraction]) -> dict[int, int]:
    """Each letter's rank by its value, so that words compare by these
    ranks as their cubes compare."""
    return {x: r for r, x in enumerate(sorted(values, key=values.__getitem__))}


class TorusTiling(Frozen):
    """A validated cube tiling: 2^d pairwise dichotomous offset vectors.

    `codes` (the cubes as kernel words) and `letter_pairs` (their letters'
    pairs (p mod q, q)) are set here, `extremality` and `rank_keys` on first use.
    """

    d: int
    cubes: tuple[Cube, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("a tiling needs dimension d >= 1")
        cubes, words, pairs = _intern(self.cubes)
        object.__setattr__(self, "cubes", tuple(cubes))
        if len(cubes) != 1 << self.d:
            raise WrongCount(f"{len(cubes)} cubes; a tiling needs {1 << self.d}")
        for c in cubes:
            if len(c) != self.d:
                raise WrongCount(f"cube {c} does not have {self.d} coordinates")
        object.__setattr__(self, "codes", tuple(words))
        object.__setattr__(self, "letter_pairs", tuple(pairs))
        kernel.require_dichotomous(words, (1,) * self.d)

    @cached_property
    def extremality(self) -> ExtremalityResult:
        # a complement class is a set of cubes at integral offsets
        classes = kernel.complement_classes(self.codes)
        partners = sorted(p for c in classes for p in itertools.combinations(c, 2))
        return ExtremalityResult(all(len(c) == 2 for c in classes), tuple(partners))

    @cached_property
    def rank_keys(self) -> tuple[Word, ...]:
        """Each code as its letters' ranks by value: keys compare as cubes do."""
        rank = _ranks(_values(self.letter_pairs))
        return tuple(tuple(map(rank.__getitem__, w)) for w in self.codes)


def tiling_verify(cubes: Sequence[Sequence]) -> TorusTiling:
    """Validate raw coordinate rows as a torus cube tiling."""
    rows = [tuple(c) for c in cubes]
    if not rows:
        raise WrongCount("no cubes given")
    return TorusTiling(len(rows[0]), tuple(rows))


class ExtremalityResult(NamedTuple):
    two_extremal: bool
    partners: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.two_extremal


def is_two_extremal(t: TorusTiling) -> ExtremalityResult:
    """Check, once per tiling, that each cube has exactly one integral partner."""
    return t.extremality


class ExtremalDecomposition(Frozen):
    """Halves of a 2-extremal tiling with every partner pair split."""

    plus: tuple[Cube, ...]
    minus: tuple[Cube, ...]

    @classmethod
    def _split(cls, plus: tuple[Cube, ...], minus: tuple[Cube, ...]):
        """decompose's halves, interned and split by construction: nothing to check."""
        dec = object.__new__(cls)
        object.__setattr__(dec, "plus", plus)
        object.__setattr__(dec, "minus", minus)
        return dec

    def __post_init__(self):
        plus, plus_words, _ = _intern(self.plus)
        minus, minus_words, _ = _intern(self.minus)
        object.__setattr__(self, "plus", tuple(plus))
        object.__setattr__(self, "minus", tuple(minus))
        for half, words in ((plus, plus_words), (minus, minus_words)):
            for c in kernel.complement_classes(words):
                if len(c) > 1:
                    raise NotTwoExtremal(
                        f"partner pair {half[c[0]]}, {half[c[1]]} sits inside one half"
                    )


def decompose(
    t: TorusTiling, select: str = "lex", seed: int = 0
) -> ExtremalDecomposition:
    """Split every partner pair; `lex` takes the smaller cube as plus,
    `seed` picks sides deterministically from the given seed (default 0).

    Partners always differ at an odd number of coordinates (an even pattern
    would force a third integral partner), so the split is an induced
    decomposition in the word-layer sense.
    """
    ext = is_two_extremal(t)
    if not ext.two_extremal:
        raise NotTwoExtremal("the tiling has a cube without a unique partner")
    if select not in ("lex", "seed"):
        raise ValueError(f"unknown selector {select!r}")
    rng = random.Random(seed)
    words = t.codes
    keys = t.rank_keys
    plus: list[int] = []
    minus: list[int] = []
    for i, j in ext.partners:
        if keys[j] < keys[i]:
            i, j = j, i
        if sum(map(ne, words[i], words[j])) % 2 == 0:
            raise TheoremViolation(
                f"partners {t.cubes[i]}, {t.cubes[j]} differ at an even pattern"
            )
        if select == "seed" and rng.randrange(2):
            i, j = j, i
        plus.append(i)
        minus.append(j)
    plus.sort(key=keys.__getitem__)
    minus.sort(key=keys.__getitem__)
    return ExtremalDecomposition._split(
        tuple(t.cubes[k] for k in plus), tuple(t.cubes[k] for k in minus)
    )


def reconstruct(plus: Sequence[Sequence]) -> tuple[Cube, ...]:
    """The unique minus half determined by a plus half of 2^(d-1) cubes.

    Completes the plus half in the word kernel over the coordinate values
    occurring in it and their complements; the completion reuses the tables
    that checked the plus half, so its pairs are checked once.
    """
    cubes, words, pairs = _intern(plus)
    if not cubes:
        raise WrongCount("an empty plus half determines nothing")
    d = len(cubes[0])
    if d < 1 or any(len(c) != d for c in cubes):
        raise ValueError("plus cubes need one common dimension d >= 1")
    if len(cubes) != 1 << d - 1:
        raise WrongCount(f"{len(cubes)} cubes; a plus half needs {1 << d - 1}")
    flip = (1,) * d
    minus = kernel._complete(words, flip, kernel.require_dichotomous(words, flip))
    values = _values(pairs)
    rank = _ranks(values)
    minus.sort(key=lambda w: tuple(map(rank.__getitem__, w)))
    return tuple(tuple(map(values.__getitem__, w)) for w in minus)


class ChessboardResult(NamedTuple):
    in_minus: bool
    overlap: Optional[Cube]

    def __bool__(self) -> bool:
        return self.in_minus


def chessboard_check(
    t: TorusTiling, decomposition: ExtremalDecomposition, z: Sequence
) -> ChessboardResult:
    """If the cube at z avoids every plus cube, certify that z is a minus cube.

    Two half-open unit intervals on the circle of circumference 2 are
    disjoint exactly when their left ends differ by 1 mod 2, so the cube at
    z meets the cube at c unless some coordinate pair sits at distance 1,
    that is, unless their kernel words are dichotomous.
    """
    zc = tuple(Fraction(x) % 2 for x in z)
    if len(zc) != t.d:
        raise WrongCount("query point has wrong dimension")
    _, (zw, *words), _ = _intern([zc, *decomposition.plus])
    for cube, w in zip(decomposition.plus, words):
        if not kernel.dichotomous(zw, w, (1,) * t.d):
            return ChessboardResult(False, cube)
    if zc not in decomposition.minus:
        raise TheoremViolation(
            f"{zc} avoids the plus half but is not a minus cube"
        )
    return ChessboardResult(True, None)


def _random_unit_fraction(rng: random.Random, nonzero: bool) -> Fraction:
    q = rng.randrange(2, 7)
    p = rng.randrange(1, q) if nonzero else rng.randrange(q)
    return Fraction(p, q)


def generate_two_extremal(d: int, seed: int) -> TorusTiling:
    """Deterministic-by-seed 2-extremal tiling via layered doubling.

    Dimension 1 is a translated {0, 1}; each further dimension stacks two
    unit cubes over every column of a (d-1)-dimensional tiling, with the two
    columns of each partner pair lifted at bases 0 and a random non-integral
    shift so no cross-column integral partners appear.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    require_budget(2 * d, "generation needs 2d")
    rng = random.Random(seed)
    # columns[i] maps the letters at position i to their values: 3 and 2 for
    # a base x and x + 1 (x random at position 0 and 0 above it), 5 and 4
    # for the layer's shift s and s + 1.
    columns: list[dict[int, Fraction]] = []

    # Layers are not validated on their own.  Two cubes of a lower layer
    # with no complementary coordinate have lifts whose last coordinates
    # are not complementary either, so the final validation rejects them.
    def build(dim: int) -> list[Word]:
        if dim == 1:
            c = _random_unit_fraction(rng, nonzero=False)
            columns.append({3: c, 2: c + 1})
            return [(3,), (2,)]
        below = build(dim - 1)
        classes = kernel.complement_classes(below)
        if any(len(c) != 2 for c in classes):
            raise TheoremViolation(f"generated layer {dim - 1} is not 2-extremal")
        shift = _random_unit_fraction(rng, nonzero=True)
        columns.append({3: Fraction(0), 2: Fraction(1), 5: shift, 4: shift + 1})
        out: list[Word] = []
        for i, j in classes:
            a, b = below[i], below[j]
            if rng.randrange(2):
                a, b = b, a
            out += [a + (3,), a + (2,), b + (5,), b + (4,)]
        return out

    words = build(d)
    ranks = [_ranks(col) for col in columns]
    words.sort(key=lambda w: tuple(map(getitem, ranks, w)))
    cubes = (tuple(map(getitem, columns, w)) for w in words)
    tiling = TorusTiling(d, tuple(cubes))
    if not is_two_extremal(tiling).two_extremal:
        raise TheoremViolation("generated tiling is not 2-extremal")
    return tiling
