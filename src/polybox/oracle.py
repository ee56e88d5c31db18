"""Independent brute-force references for every criterion in the library.

Nothing here shares a decision route with the functions it checks: polybox
equality is literal point-set comparison, minimality is a full backtracking
search over all proper-box partitions, and the cover relation is containment
inside the one-letter-per-pair selection space, computed from explicit
selection bit masks.  Deliberately naive; budget-guarded.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Optional, Sequence

from ._frozen import Frozen
from .boxes import Box, BoxSpace, members_of
from .errors import (
    BudgetExceeded, NoPartition, SpaceMismatch, TheoremViolation, require_budget
)
from .genomes import Alphabet, GenomeSet
from .suits import PointSet, Suit, union_points

Point = tuple[int, ...]


def points_equal(f: Suit, g: Suit) -> bool:
    """Ground truth for every polybox-equality criterion."""
    if f.space != g.space:
        raise SpaceMismatch("suits live in different spaces")
    for s in (f, g):
        require_budget(s.space.size_sum, "point enumeration needs |X|_1")
    return union_points(f).members == union_points(g).members


def _candidate_boxes(
    space: BoxSpace, remaining: frozenset[Point], anchor: Point
) -> Iterator[Box]:
    per_factor = []
    for i, full in enumerate(space.full_masks):
        bit = 1 << anchor[i]
        per_factor.append([m for m in range(1, full) if m & bit])
    for masks in itertools.product(*per_factor):
        box = Box(space, masks)
        if all(p in remaining for p in box.points()):
            yield box


def exhaustive_min_partition(g: PointSet) -> int:
    """True minimum size over all partitions of g into proper boxes.

    Backtracks over the lexicographically least uncovered point with a
    simple covering lower bound.  Exponential; meant for tiny instances.
    """
    require_budget(g.space.size_sum, "partition enumeration needs |X|_1")
    if not g.members:
        return 0
    max_box = math.prod(n - 1 for n in g.space.dims)

    best: Optional[int] = None

    def rec(remaining: frozenset[Point], used: int):
        nonlocal best
        if not remaining:
            if best is None or used < best:
                best = used
            return
        lower = used + -(-len(remaining) // max_box)
        if best is not None and lower >= best:
            return
        anchor = min(remaining)
        for box in _candidate_boxes(g.space, remaining, anchor):
            rec(remaining.difference(box.points()), used + 1)

    rec(g.members, 0)
    if best is None:
        raise NoPartition("no partition into proper boxes exists")
    return best


def enumerate_min_partitions(g: PointSet) -> list[list[Box]]:
    """All partitions of g into proper boxes of minimal size.

    The anchor-point branching produces every partition exactly once.
    """
    k = exhaustive_min_partition(g)
    max_box = math.prod(n - 1 for n in g.space.dims)

    out: list[list[Box]] = []
    acc: list[Box] = []

    def rec(remaining: frozenset[Point], left: int):
        if not remaining:
            out.append(list(acc))
            return
        if left == 0 or len(remaining) > left * max_box:
            return
        anchor = min(remaining)
        for box in _candidate_boxes(g.space, remaining, anchor):
            acc.append(box)
            rec(remaining.difference(box.points()), left - 1)
            acc.pop()

    if g.members:
        rec(g.members, k)
    else:
        out.append([])
    return out


def selection_mask(alphabet: Alphabet, letter: str) -> int:
    """Bit mask over all one-per-pair selections containing the letter.

    Selection k contains the positive letter of pair j iff bit j of k is
    set; there are 2^(#pairs) selections.
    """
    m = len(alphabet.pairs)
    pair, pol = alphabet.sort_key(letter)
    mask = 0
    for k in range(1 << m):
        if (k >> pair & 1) == (1 if pol == 0 else 0):
            mask |= 1 << k
    return mask


def e_realization(alphabet: Alphabet, v: Sequence[str]) -> tuple[int, ...]:
    """The box of v in the selection space: one selection mask per position."""
    m = len(alphabet.pairs)
    require_budget(2 * m, "selection masks need 2 * letter pairs")
    word = tuple(v)
    alphabet.encode(word)  # refuses a letter outside the alphabet
    return tuple(selection_mask(alphabet, s) for s in word)


def _realized(v: Sequence[str], w: GenomeSet) -> tuple[tuple[int, ...], list]:
    """The boxes of v and of w's members; refuses v unless of w's length."""
    vbox = e_realization(w.alphabet, v)
    if len(vbox) != w.d:
        raise ValueError("word has wrong length")
    return vbox, [e_realization(w.alphabet, x) for x in w.words]


def e_realization_covers(v: Sequence[str], w: GenomeSet) -> bool:
    """Cover verdict by containment in the selection-space realization.

    The member boxes are verified pairwise disjoint there, so containment
    reduces to comparing |box(v)| with the sum of its member overlaps, all
    computed by popcounts of explicit masks.
    """
    vbox, wboxes = _realized(v, w)
    for a, b in itertools.combinations(wboxes, 2):
        if all((x & y).bit_count() for x, y in zip(a, b)):
            raise TheoremViolation("genome members overlap in the selection space")
    covered = sum(
        math.prod((x & y).bit_count() for x, y in zip(vbox, wb)) for wb in wboxes
    )
    return covered == math.prod(x.bit_count() for x in vbox)


def e_realization_covers_points(v: Sequence[str], w: GenomeSet) -> bool:
    """Same verdict by raw point enumeration of the selection space."""
    vbox, wboxes = _realized(v, w)
    work = math.prod(x.bit_count() for x in vbox) * len(wboxes)
    require_budget((work - 1).bit_length(), "point cover check needs log2(points |W|)")
    for point in itertools.product(*(members_of(x) for x in vbox)):
        if not any(
            all(wb[i] >> k & 1 for i, k in enumerate(point)) for wb in wboxes
        ):
            return False
    return True


class Realization(Frozen):
    """Per-factor letter images: complementary letters map to complements."""

    alphabet: Alphabet
    space: BoxSpace
    factor_maps: tuple[dict[str, int], ...]

    def __post_init__(self):
        if len(self.factor_maps) != self.space.d:
            raise ValueError("one letter map per factor required")
        for table, full in zip(self.factor_maps, self.space.full_masks):
            for s, mask in table.items():
                if not 0 < mask < full:
                    raise ValueError(f"letter {s!r} maps to an improper subset")
                if table[self.alphabet.complement(s)] != full ^ mask:
                    raise ValueError(f"letter {s!r} breaks complementarity")

    def realize_word(self, word: Sequence[str]) -> Box:
        return Box(
            self.space,
            tuple(self.factor_maps[i][s] for i, s in enumerate(word)),
        )

    def realize(self, w: GenomeSet) -> list[Box]:
        return [self.realize_word(word) for word in w.words]


def random_exact_realization(
    alphabet: Alphabet, space: BoxSpace, rng: random.Random
) -> Realization:
    """Distinct complement classes per factor make the realization exact."""
    m = len(alphabet.pairs)
    maps = []
    for i, full in enumerate(space.full_masks):
        reps = [mask for mask in range(1, full) if mask & 1]
        if len(reps) < m:
            raise BudgetExceeded(
                f"factor {i} has {len(reps)} complement classes for {m} pairs"
            )
        chosen = rng.sample(reps, m)
        table: dict[str, int] = {}
        for (pos, neg), rep in zip(alphabet.pairs, chosen):
            if rng.randrange(2):
                rep = full ^ rep
            table[pos] = rep
            table[neg] = full ^ rep
        maps.append(table)
    return Realization(alphabet, space, tuple(maps))


def random_realization_check(
    v: Sequence[str], w: GenomeSet, space: BoxSpace, seed: int
) -> bool:
    """Containment of v's image in the union of w's under one seeded exact
    realization; a single failure refutes the cover relation."""
    what = "realization point enumeration needs |X|_1"
    require_budget(space.size_sum, what)
    for i, n in enumerate(space.dims):
        if n < 3:
            raise ValueError(f"factor {i} too small for an exact realization")
    rng = random.Random(seed)
    realization = random_exact_realization(w.alphabet, space, rng)
    word = tuple(v)
    w.alphabet.encode(word)  # refuses a letter outside the alphabet
    v_box = realization.realize_word(word)
    member_points: set[Point] = set()
    for box in realization.realize(w):
        member_points.update(box.points())
    return all(p in member_points for p in v_box.points())
