"""Independent brute-force references shared by the test modules.

Nothing here shares a decision route with the functions it checks, and
nothing imports the word kernel (polybox.words), so the library's fast
paths are checked against a second route, not against themselves.  The
little oracles recompute definitions by set algebra over explicit member
tuples, with no bit tricks.  The rigidity witness and the orientation
check of induced decompositions are kept here in their pairwise form,
comparing words letter by letter.  Minimality is a full backtracking search over
all proper-box partitions.  The cover relation is containment inside the
one-letter-per-pair selection space, computed from explicit selection bit
masks, or in one seeded exact realization.  The serializers and
tiling_genome build test inputs.  Deliberately naive; budget-guarded.
Polybox equality as literal point-set comparison is the package's own
point oracle, polybox.oracle.points_equal, since `equiv` runs it.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from polybox import (
    Alphabet,
    Box,
    BoxSpace,
    GenomeSet,
    PointSet,
    Suit,
    TorusTiling,
    word_index,
)
from polybox._frozen import Frozen
from polybox.boxes import members_of
from polybox.errors import (
    BudgetExceeded,
    InconsistentOrientation,
    NoWitness,
    PolyboxError,
    TheoremViolation,
    require_budget,
)
from polybox.serialize import VERSION, cube_rows
from polybox.tilings import Cube

Point = tuple[int, ...]


class NoPartition(PolyboxError):
    """A point set has no partition into proper boxes."""


def factor_sets(box: Box) -> list[set[int]]:
    return [set(members_of(m)) for m in box.factors]


def brute_dichotomous(a: Box, b: Box) -> bool:
    """Factor-by-factor complement test on explicit element sets."""
    out = False
    for i, (sa, sb) in enumerate(zip(factor_sets(a), factor_sets(b))):
        universe = set(range(a.space.dims[i]))
        if sa == universe - sb:
            out = True
    return out


def brute_points(box: Box) -> set[tuple[int, ...]]:
    pts = {()}
    for s in factor_sets(box):
        pts = {p + (x,) for p in pts for x in s}
    return pts


def suit_union_set(s: Suit) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for b in s.boxes:
        out |= brute_points(b)
    return out


def brute_hat(space: BoxSpace, members: Iterable[tuple[int, ...]]) -> int:
    """Literal definition: count odd-size subset tuples with odd overlap."""
    member_set = set(members)

    def odd_subsets(n: int) -> list[frozenset[int]]:
        out = []
        for mask in range(1, 1 << n):
            if bin(mask).count("1") % 2 == 1:
                out.append(frozenset(i for i in range(n) if mask >> i & 1))
        return out

    tuples = [()]
    for n in space.dims:
        tuples = [t + (s,) for t in tuples for s in odd_subsets(n)]
    count = 0
    for t in tuples:
        overlap = sum(
            1 for p in member_set if all(x in s for x, s in zip(p, t))
        )
        count += overlap % 2
    return count


def brute_box_number(space: BoxSpace, members: Iterable[tuple[int, ...]]) -> Fraction:
    return Fraction(
        brute_hat(space, members), 2 ** (space.size_sum - 2 * space.d)
    )


def epsilon_weight(space: BoxSpace, a: Box, b: Box) -> Optional[int]:
    """Number of complemented coordinates between class members, else None."""
    weight = 0
    for i, (sa, sb) in enumerate(zip(factor_sets(a), factor_sets(b))):
        universe = set(range(space.dims[i]))
        if sa == sb:
            continue
        if sb == universe - sa:
            weight += 1
        else:
            return None
    return weight


def signed_class_sum(boxes: Sequence[Box], c: Box) -> int:
    """Sum of (-1)^|eps| over the members of c's complement class."""
    total = 0
    for b in boxes:
        w = epsilon_weight(c.space, c, b)
        if w is not None:
            total += (-1) ** w
    return total


def n_plus_minus(s: Suit, c: Box) -> tuple[int, int]:
    """Counts of suit members matching c's class on its support with even
    and odd complement pattern, recomputed from element sets."""
    support = c.support()
    n_plus = 0
    n_minus = 0
    for a in s.boxes:
        weight = 0
        ok = True
        for i in support:
            sa = set(members_of(a.factors[i]))
            sc = set(members_of(c.factors[i]))
            universe = set(range(s.space.dims[i]))
            if sa == sc:
                continue
            if sa == universe - sc:
                weight += 1
            else:
                ok = False
                break
        if not ok:
            continue
        if weight % 2 == 0:
            n_plus += 1
        else:
            n_minus += 1
    return n_plus, n_minus


def serialize_suit(s: Suit) -> dict:
    return {
        "kind": "suit",
        "version": VERSION,
        "dims": list(s.space.dims),
        "boxes": [
            [list(members_of(m)) for m in box.factors] for box in s.boxes
        ],
    }


def serialize_points(ps: PointSet) -> dict:
    return {
        "kind": "points",
        "version": VERSION,
        "dims": list(ps.space.dims),
        "points": [list(p) for p in sorted(ps.members)],
    }


def serialize_cubes(d: int, cubes: Sequence[Cube]) -> dict:
    return {
        "kind": "tiling",
        "version": VERSION,
        "d": d,
        "cubes": cube_rows(cubes),
    }


def tiling_genome(t: TorusTiling) -> GenomeSet:
    """The tiling's word set over the alphabet of occurring coordinate values."""
    values = sorted({x % 1 for c in t.cubes for x in c})
    alphabet = Alphabet(tuple((str(v), str(v + 1)) for v in values))
    return GenomeSet(alphabet, t.d, tuple(tuple(map(str, c)) for c in t.cubes))


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


def letter_epsilon(
    alphabet: Alphabet, v: Sequence[str], w: Sequence[str]
) -> Optional[tuple[int, ...]]:
    """The complement pattern turning v into w, letter by letter, or None
    when w is outside v's complement class."""
    eps = []
    for a, b in zip(v, w):
        if a == b:
            eps.append(0)
        elif alphabet.complement(a) == b:
            eps.append(1)
        else:
            return None
    return tuple(eps)


def pairwise_orientation_check(w: GenomeSet, orientation) -> None:
    """induced_decomposition's checks, pair by pair: InconsistentOrientation
    for the first word without a sign, else for the first pair i < j of one
    class whose signs differ unless their pattern has odd weight."""
    signs = []
    for word in w.words:
        sign = orientation.get(word)
        if sign not in (1, -1):
            raise InconsistentOrientation(f"no sign for {word}")
        signs.append(sign)
    for i in range(len(w.words)):
        for j in range(i + 1, len(w.words)):
            eps = letter_epsilon(w.alphabet, w.words[i], w.words[j])
            if eps is None:
                continue
            if signs[j] != signs[i] * (-1) ** sum(eps):
                raise InconsistentOrientation(
                    f"{w.words[i]} and {w.words[j]} break the parity rule"
                )


def pairwise_witness_search(w: GenomeSet) -> tuple[str, ...]:
    """rigidity_witness without its premises, member by member: the first
    member u with |index(w, u)| below the count of members in u's class."""
    for u in w.words:
        members = [x for x in w.words if letter_epsilon(w.alphabet, u, x) is not None]
        if abs(word_index(w, u)) < len(members):
            return u
    raise NoWitness("no member violates the index bound")

