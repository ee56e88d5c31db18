"""Additive evaluators, indices, binary codes, and dyadic labellings.

Every function here is a polybox invariant: summed over any proper suit of
the same polybox it gives the same value.  The index relative to a box c is
the signed count of suit members falling in c's complement class, and
comparing indices over one representative per class decides polybox
equality.  Each box is nonzero on only 2^d representatives, so a suit F's
nonzero indices are summed directly in O(|F| 2^d), never by a scan.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Hashable, Iterator, Optional, Sequence

from . import words as kernel
from ._frozen import Frozen
from .boxes import Box, BoxSpace, EpsilonVector, complement_action, same_space
from .canon import proper_words, same_polybox
from .errors import EvenFactor, NotProper, SpaceMismatch, require_budget
from .suits import Suit, verify_suit


def phi(c: Box, a: Box) -> int:
    """Signed membership of a in c's complement class, in {-1, 0, 1}.

    Per factor: a full factor of c contributes 1; otherwise +1 when the
    factors agree, -1 when they are complementary, else the product is 0.
    """
    space = same_space(c, a)
    if not a.is_proper:
        raise ValueError("phi is defined on proper boxes only")
    return kernel.index(c.factors, [a.factors], space.full_masks)


def _require_odd(sizes, of: str = "") -> None:
    """EvenFactor naming the first factor whose size is even."""
    for i, n in enumerate(sizes):
        if n % 2 == 0:
            raise EvenFactor(f"factor {i}{of} has even cardinality")


def eta(b: Box, a: Box) -> int:
    """Parity of |a meet b| for a box b with all factors of odd size."""
    same_space(b, a)
    _require_odd((bm.bit_count() for bm in b.factors), " of b")
    parity = 1
    for bm, am in zip(b.factors, a.factors):
        parity *= (bm & am).bit_count() & 1
    return parity


def suit_index(s: Suit, c: Box) -> int:
    """Sum of phi(c, .) over the suit; for c = X this is just |s|."""
    same_space(c, s.boxes[0])
    return kernel.index(c.factors, proper_words(s), s.space.full_masks)


def index_representatives(space: BoxSpace) -> Iterator[Box]:
    """One box per complement class: factors full or containing element 0.

    Complementing flips the index sign factor-wise, so comparing indices on
    these representatives compares them on every box.
    """
    what = "index representative enumeration needs |X|_1"
    require_budget(space.size_sum, what)
    per_factor = []
    for full in space.full_masks:
        masks = [m for m in range(1, full) if m & 1]
        masks.append(full)
        per_factor.append(masks)
    for factors in itertools.product(*per_factor):
        yield Box(space, factors)


def polybox_equal_by_index(f: Suit, g: Suit) -> bool:
    """Polybox equality via index agreement on all class representatives:
    canon.same_polybox for the one mode with stars.

    A suit's nonzero indices are its expansion with stars (words.expand),
    and words.same_expansions compares the two suits' without summing them
    whole: boxes both suits hold cancel, one evaluation of each remainder
    mod a prime refutes most unequal pairs, a match is glued first, and only
    what gluing leaves unmatched has its indices summed, in O(|rest| 2^d).  A
    representative absent from both sums has index 0 in both.  The budget
    in force (errors.run_with_budget sets one) bounds |F| 2^d and |G| 2^d.
    """
    return same_polybox(f, g, (True,))[0]


def apply_epsilon(s: Suit, eps: EpsilonVector) -> Suit:
    """The suit of images a^eps; defined for every suit of proper boxes."""
    images = []
    for a in s.boxes:
        img = complement_action(a, eps)
        if img is None:
            raise NotProper(len(images))
        images.append(img)
    return verify_suit(images)


class BinaryCode(Frozen):
    """Per-factor 0/1 labels with complementary subsets summing to 1."""

    space: BoxSpace
    bit_fns: tuple[Callable[[int], int], ...]

    def __post_init__(self):
        if len(self.bit_fns) != self.space.d:
            raise ValueError("one bit function per factor required")

    def codeword(self, a: Box) -> tuple[int, ...]:
        if a.space != self.space:
            raise SpaceMismatch("box outside the code's space")
        if not a.is_proper:
            raise ValueError("binary codes label proper boxes only")
        return tuple(fn(m) for fn, m in zip(self.bit_fns, a.factors))

    def validate(self) -> bool:
        """Exhaustively check the complement-sum invariant on every factor."""
        what = "binary code validation needs |X|_1"
        require_budget(self.space.size_sum, what)
        for fn, full in zip(self.bit_fns, self.space.full_masks):
            for m in range(1, full):
                if fn(m) + fn(full ^ m) != 1:
                    return False
        return True


def even_odd_code(space: BoxSpace) -> BinaryCode:
    """Codeword bit i is |A_i| mod 2; needs every factor of odd cardinality."""
    _require_odd(space.dims)
    return BinaryCode(space, tuple(lambda m: m.bit_count() & 1 for _ in space.dims))


def more_less_code(space: BoxSpace) -> BinaryCode:
    """Codeword bit i is [|A_i| > n_i/2]; half-size subsets would break the
    complement-sum invariant, so even factors are rejected."""
    _require_odd(space.dims)
    return BinaryCode(
        space,
        tuple((lambda n: lambda m: int(2 * m.bit_count() > n))(n) for n in space.dims),
    )


class CodeProfile(Frozen):
    """Codeword multiset of a suit plus its histogram by codeword weight."""

    codewords: tuple[tuple[int, ...], ...]
    weight_histogram: tuple[int, ...]

    def multiset(self) -> Counter:
        return Counter(self.codewords)


def binary_code_profile(s: Suit, code: BinaryCode) -> CodeProfile:
    words = sorted(code.codeword(a) for a in s.boxes)
    hist = [0] * (s.space.d + 1)
    for w in words:
        hist[sum(w)] += 1
    return CodeProfile(tuple(words), tuple(hist))


class DyadicLabelling(Frozen):
    """A total labelling of proper boxes with a declared target label set."""

    space: BoxSpace
    label_fn: Callable[[Box], Hashable]
    labels: frozenset

    def __call__(self, a: Box) -> Hashable:
        return self.label_fn(a)


def equicomplementary_labelling(
    space: BoxSpace, transversals: Optional[Sequence[set[int]]] = None
) -> DyadicLabelling:
    """Labelling induced by an equicomplementary product partition.

    transversals[i] holds one proper mask from each complementary pair of
    factor i (default: masks containing element 0); a box is labelled by the
    vector saying on which side each factor falls.
    """
    require_budget(space.size_sum, "equicomplementary labelling needs |X|_1")
    if transversals is None:
        chosen = [{m for m in range(1, full) if m & 1} for full in space.full_masks]
    else:
        chosen = [set(t) for t in transversals]
        for i, t in enumerate(chosen):
            full = space.full_masks[i]
            for m in range(1, full):
                if (m in t) == (full ^ m in t):
                    raise ValueError(
                        f"transversal {i} must contain exactly one of each pair"
                    )

    def label(a: Box) -> tuple[int, ...]:
        return tuple(0 if m in chosen[i] else 1 for i, m in enumerate(a.factors))

    labels = frozenset(itertools.product((0, 1), repeat=space.d))
    return DyadicLabelling(space, label, labels)


def _all_proper_boxes(space: BoxSpace) -> Iterator[Box]:
    count = math.prod((1 << n) - 2 for n in space.dims)
    what = "proper box enumeration needs log2 count"
    require_budget((count - 1).bit_length(), what)
    per_factor = [range(1, full) for full in space.full_masks]
    for factors in itertools.product(*per_factor):
        yield Box(space, factors)


def verify_dyadic(l: DyadicLabelling) -> bool:
    """Check surjectivity and the twin-pair exchange identity exhaustively.

    Two twin pairs share a union exactly when that union is a box with one
    full coordinate, so the check walks those unions and compares the label
    pairs of all complementary splits of the full coordinate.
    """
    space = l.space
    seen = set()
    for a in _all_proper_boxes(space):
        seen.add(l(a))
    if seen != set(l.labels):
        return False

    for i, full in enumerate(space.full_masks):
        others = [range(1, f) for j, f in enumerate(space.full_masks) if j != i]
        for rest in itertools.product(*others):
            label_pair = None
            for m in range(1, full):
                if m > full ^ m:
                    continue
                fa = list(rest)
                fa.insert(i, m)
                fb = list(rest)
                fb.insert(i, full ^ m)
                pair = frozenset(
                    (l(Box(space, tuple(fa))), l(Box(space, tuple(fb))))
                )
                if label_pair is None:
                    label_pair = pair
                elif pair != label_pair:
                    return False
    return True
