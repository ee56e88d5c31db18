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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import words as kernel
from .errors import (
    BudgetExceeded,
    CoordOutOfRange,
    NotTwoExtremal,
    TheoremViolation,
    WrongCount,
)
from .genomes import Alphabet, GenomeSet

Cube = tuple[Fraction, ...]

MAX_GENERATED_DIM = 12


def _as_cube(raw: Sequence) -> Cube:
    cube = tuple(Fraction(x) for x in raw)
    for x in cube:
        if not 0 <= x < 2:
            raise CoordOutOfRange(f"coordinate {_shown(x)} outside [0, 2)")
    return cube


def _shown(x: Fraction) -> str:
    """x as text, or its size when it has too many digits to print."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    return str(x) if bits <= 1024 else f"with a {bits}-bit numerator or denominator"


def _letters(
    cubes: Sequence[Cube],
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """The cubes as kernel words, and the pairs their letters number.

    Values x and x + 1 mod 2 form one letter pair, numbered k by the
    fractional part p mod q / q of x = p/q; x is the positive letter 2k+3
    when its floor is even and the negative letter 2k+2 when it is odd.
    """
    pairs: dict[tuple[int, int], int] = {}
    words = []
    for c in cubes:
        word = []
        for x in c:
            p, q = x.numerator, x.denominator
            k = pairs.setdefault((p % q, q), len(pairs))
            word.append(2 * k + 3 - (p // q & 1))
        words.append(tuple(word))
    return words, list(pairs)


def _cube(word: Sequence[int], pairs: list[tuple[int, int]]) -> Cube:
    """Inverse of _letters for values in [0, 2)."""
    out = []
    for x in word:
        r, q = pairs[(x >> 1) - 1]
        out.append(Fraction(r if x & 1 else r + q, q))
    return tuple(out)


def cubes_dichotomous(a: Cube, b: Cube) -> bool:
    """True when some coordinate pair differs by 1 mod 2."""
    v, w = _letters([a, b])[0]
    return kernel.dichotomous(v, w, (1,) * len(v))


def _offset_classes(cubes: Sequence[Cube]) -> list[list[int]]:
    """Cube indices grouped by integral offsets: the letters of two cubes at
    integral offsets are of the same pair at every position."""
    classes = defaultdict(list)
    for k, word in enumerate(_letters(cubes)[0]):
        classes[tuple(x >> 1 for x in word)].append(k)
    return list(classes.values())


@dataclass(frozen=True)
class TorusTiling:
    """A validated cube tiling: 2^d pairwise dichotomous offset vectors."""

    d: int
    cubes: tuple[Cube, ...]

    def __post_init__(self):
        cubes = tuple(_as_cube(c) for c in self.cubes)
        object.__setattr__(self, "cubes", cubes)
        if len(cubes) != 1 << self.d:
            raise WrongCount(f"{len(cubes)} cubes; a tiling needs {1 << self.d}")
        for c in cubes:
            if len(c) != self.d:
                raise WrongCount(f"cube {c} does not have {self.d} coordinates")
        kernel.require_dichotomous(_letters(cubes)[0], (1,) * self.d)


def tiling_verify(cubes: Sequence[Sequence]) -> TorusTiling:
    """Validate raw coordinate rows as a torus cube tiling."""
    rows = [_as_cube(c) for c in cubes]
    if not rows:
        raise WrongCount("no cubes given")
    return TorusTiling(len(rows[0]), tuple(rows))


def tiling_genome(t: TorusTiling) -> GenomeSet:
    """The tiling's word set over the alphabet of occurring coordinate values."""
    values = sorted({x % 1 for c in t.cubes for x in c})
    alphabet = Alphabet(tuple((str(v), str(v + 1)) for v in values))
    return GenomeSet(alphabet, t.d, tuple(tuple(map(str, c)) for c in t.cubes))


class ExtremalityResult(NamedTuple):
    two_extremal: bool
    partners: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.two_extremal


def is_two_extremal(t: TorusTiling) -> ExtremalityResult:
    """Check that every cube has exactly one partner at integral offsets."""
    classes = _offset_classes(t.cubes)
    partners = sorted(p for c in classes for p in itertools.combinations(c, 2))
    return ExtremalityResult(all(len(c) == 2 for c in classes), tuple(partners))


@dataclass(frozen=True)
class ExtremalDecomposition:
    """Halves of a 2-extremal tiling with every partner pair split."""

    plus: tuple[Cube, ...]
    minus: tuple[Cube, ...]

    def __post_init__(self):
        object.__setattr__(self, "plus", tuple(_as_cube(c) for c in self.plus))
        object.__setattr__(self, "minus", tuple(_as_cube(c) for c in self.minus))
        for half in (self.plus, self.minus):
            for c in _offset_classes(half):
                if len(c) > 1:
                    raise NotTwoExtremal(
                        f"partner pair {half[c[0]]}, {half[c[1]]} sits inside one half"
                    )


def decompose(
    t: TorusTiling, select: str = "lex", seed: Optional[int] = None
) -> ExtremalDecomposition:
    """Split every partner pair; `lex` takes the smaller cube as plus,
    `seed` picks sides deterministically from the given seed.

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
    words = _letters(t.cubes)[0]
    plus: list[Cube] = []
    minus: list[Cube] = []
    for i, j in sorted(ext.partners):
        a, b = sorted((t.cubes[i], t.cubes[j]))
        if sum(kernel.epsilon(words[i], words[j], (1,) * t.d)) % 2 == 0:
            raise TheoremViolation(f"partners {a}, {b} differ at an even pattern")
        if select == "seed" and rng.randrange(2):
            a, b = b, a
        plus.append(a)
        minus.append(b)
    return ExtremalDecomposition(tuple(sorted(plus)), tuple(sorted(minus)))


def reconstruct(plus: Sequence[Sequence]) -> tuple[Cube, ...]:
    """The unique minus half determined by a plus half.

    Completes the plus half in the word kernel over the coordinate values
    occurring in it and their complements.
    """
    cubes = [_as_cube(c) for c in plus]
    if not cubes:
        raise WrongCount("an empty plus half determines nothing")
    d = len(cubes[0])
    if d < 1 or any(len(c) != d for c in cubes):
        raise ValueError("plus cubes need one common dimension d >= 1")
    words, pairs = _letters(cubes)
    kernel.require_dichotomous(words, (1,) * d)
    minus = kernel.complete(words, (1,) * d)
    return tuple(sorted(_cube(w, pairs) for w in minus))


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
    z meets the cube at c unless some coordinate pair sits at distance 1.
    """
    zc = tuple(Fraction(x) % 2 for x in z)
    if len(zc) != t.d:
        raise WrongCount("query point has wrong dimension")
    for cube in decomposition.plus:
        if not cubes_dichotomous(zc, cube):
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
    if d > MAX_GENERATED_DIM:
        raise BudgetExceeded(f"dimension {d} exceeds {MAX_GENERATED_DIM}")
    rng = random.Random(seed)

    def build(dim: int) -> list[Cube]:
        if dim == 1:
            c = _random_unit_fraction(rng, nonzero=False)
            return [(c,), (c + 1,)]
        below = build(dim - 1)
        tiling = TorusTiling(dim - 1, tuple(below))
        ext = is_two_extremal(tiling)
        shift = _random_unit_fraction(rng, nonzero=True)
        out: list[Cube] = []
        for i, j in ext.partners:
            a, b = tiling.cubes[i], tiling.cubes[j]
            if rng.randrange(2):
                a, b = b, a
            out.extend([a + (Fraction(0),), a + (Fraction(1),)])
            out.extend([b + (shift,), b + (shift + 1,)])
        return out

    tiling = TorusTiling(d, tuple(sorted(build(d))))
    if not is_two_extremal(tiling).two_extremal:
        raise TheoremViolation("generated tiling is not 2-extremal")
    return tiling
