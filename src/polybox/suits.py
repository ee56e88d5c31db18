"""Suits, polyboxes, the odd-intersection fingerprint, and box numbers.

The fingerprint of G inside X collects every d-tuple of odd-size factor
subsets whose product meets G in odd cardinality.  Its cardinality divided
by 2^(|X|_1 - 2d) is the box number |G|_0: for a polybox it equals the size
of every minimal partition into proper boxes, and a partition is minimal
exactly when it is a suit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import and_, getitem, ne
from typing import Iterator, Optional, Sequence, Union

from . import words as kernel
from ._frozen import Frozen
from .boxes import Box, BoxSpace, is_dichotomous
from .errors import (
    NotAPartition,
    NotDichotomous,
    NotProper,
    SpaceMismatch,
    TheoremViolation,
    UnionsOverlap,
    require_budget,
)

Point = tuple[int, ...]


class PointSet(Frozen):
    """An arbitrary subset of the points of a box space."""

    space: BoxSpace
    members: frozenset[Point]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for p in self.members:
            if len(p) != self.space.d or any(
                not 0 <= x < n for x, n in zip(p, self.space.dims)
            ):
                raise ValueError(f"point {p} outside the space {self.space.dims}")

    @classmethod
    def full(cls, space: BoxSpace) -> "PointSet":
        count = math.prod(space.dims)
        require_budget((count - 1).bit_length(), "full point set needs log2 points")
        return cls(space, frozenset(space.points()))

    def __len__(self) -> int:
        return len(self.members)


class Suit(Frozen):
    """A collection of pairwise dichotomous boxes; validated on construction."""

    space: BoxSpace
    boxes: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ValueError("a suit needs at least one box")
        for b in boxes:
            if b.space != self.space:
                raise SpaceMismatch("suit members live in different spaces")
        kernel.require_dichotomous([b.factors for b in boxes], self.space.full_masks)

    @property
    def is_proper(self) -> bool:
        full = self.space.full_masks
        return all(all(map(ne, b.factors, full)) for b in self.boxes)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes)


def verify_suit(boxes: Sequence[Box], require_proper: bool = False) -> Suit:
    """Validate a box list as a suit; optionally insist on proper members."""
    boxes = tuple(boxes)
    suit = Suit(boxes[0].space if boxes else None, boxes)  # Suit refuses ()
    if require_proper:
        for i, b in enumerate(suit.boxes):
            if not b.is_proper:
                raise NotProper(i)
    return suit


def union_points(s: Suit) -> PointSet:
    """Exact union of the suit's boxes; dichotomous boxes never overlap."""
    total = sum(b.size() for b in s.boxes)
    require_budget((total - 1).bit_length(), "union needs log2 points")
    pts: set[Point] = set()
    for b in s.boxes:
        pts.update(b.points())
    if total != len(pts):
        raise TheoremViolation("suit members overlap as point sets")
    return PointSet(s.space, frozenset(pts))


def _hat_of_box(b: Box) -> int:
    """Product formula: per factor, the odd subsets meeting it oddly.

    Of an n-element factor's 2^(n-1) odd subsets, every one meets the full
    factor oddly and 2^(n-2) meet any other; so a proper box has |A|_0 = 1.
    """
    space = b.space
    return 1 << sum(
        n - 1 - (m != full)
        for n, m, full in zip(space.dims, b.factors, space.full_masks)
    )


def _point_tables(g: PointSet) -> tuple[list[Point], list[list[int]]]:
    """g's points, sorted, and per factor i the table of slab bitsets: entry
    m has bit k set when the k-th point's i-th coordinate lies in mask m."""
    pts = sorted(g.members)
    tables: list[list[int]] = []
    for i, n in enumerate(g.space.dims):
        elem = [0] * n
        for k, x in enumerate(pts):
            elem[x[i]] |= 1 << k
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | elem[low.bit_length() - 1]
        tables.append(table)
    return pts, tables


def _hat_of_points(g: PointSet) -> int:
    """Raw parity counting over all tuples of odd-size factor subsets.

    A tuple contributes when the AND of its slab bitsets has odd popcount.
    Subtrees with an empty partial AND are skipped whole.
    """
    pts, tables = _point_tables(g)
    if not pts:
        return 0
    per_factor = [
        [table[mask] for mask in range(1, len(table)) if mask.bit_count() & 1]
        for table in tables
    ]

    d = g.space.d
    count = 0

    def rec(i: int, acc: int):
        nonlocal count
        if i == d:
            count += acc.bit_count() & 1
            return
        for pm in per_factor[i]:
            nacc = acc & pm
            if nacc:
                rec(i + 1, nacc)

    rec(0, (1 << len(pts)) - 1)
    return count


def hat_cardinality(g: Union[PointSet, Box, Suit]) -> int:
    """Size of the odd-intersection fingerprint of g.  A Box, or each box of
    a Suit, takes its O(d) closed form; only a point set has a budget."""
    if isinstance(g, Box):
        return _hat_of_box(g)
    if isinstance(g, Suit):
        return sum(map(_hat_of_box, g.boxes))
    require_budget(g.space.size_sum, "fingerprint enumeration needs |X|_1")
    return _hat_of_points(g)


def box_number(g: Union[PointSet, Box, Suit]) -> Fraction:
    """|G|_0 of a point set, a box or a suit's union (by hat_cardinality),
    exact; integral for every polybox but not in general."""
    space = g.space
    return Fraction(hat_cardinality(g), 1 << (space.size_sum - 2 * space.d))


def _extent(table: list[int], bits: int) -> int:
    """The mask of the coordinates whose slab in `table` meets `bits`."""
    n = len(table).bit_length() - 1
    return sum([1 << x for x in range(n) if table[1 << x] & bits])


def _line_options(
    tables: list[list[int]], full: tuple[int, ...], rem: int, anchor: Point
) -> list[list[int]]:
    """Per factor i, the proper masks holding the anchor's coordinate that
    lie inside the anchor's uncovered line: the y for which the anchor with
    y at i is still in rem.  A box through the anchor holds the anchor with
    y at i for every y of its factor i, so a mask with a y off the line
    fails the box test."""
    slabs = [t[1 << x] for t, x in zip(tables, anchor)]
    opts = []
    for i, (x, f, t) in enumerate(zip(anchor, full, tables)):
        line = _extent(t, reduce(and_, slabs[:i] + slabs[i + 1 :], rem))
        opts.append([m for m in range(1, f) if m >> x & 1 and not m & ~line])
    return opts


def _last_box(
    tables: list[list[int]],
    full: tuple[int, ...],
    rem: int,
    chosen: Sequence[tuple[int, ...]],
) -> Optional[tuple[int, ...]]:
    """rem as one proper box dichotomous to every chosen box, or None.  Its
    only candidate is rem's bounding box, which holds rem, so it is rem
    exactly when it holds no more points than rem."""
    masks = tuple(_extent(t, rem) for t in tables)
    if (
        all(map(ne, masks, full))
        and rem.bit_count() == math.prod(map(int.bit_count, masks))
        and all(kernel.dichotomous(masks, b, full) for b in chosen)
    ):
        return masks
    return None


def _proper_partition(g: PointSet, size: int) -> Optional[list[Box]]:
    """A partition of g into at most `size` proper boxes, or None; exact
    only at size = |g|_0, the one size `proper_suit_for` asks for.

    Every partition of g into proper boxes has at least |g|_0 members, and
    exactly |g|_0 iff it is a suit (fingerprint parities add, and proper
    boxes have disjoint fingerprints iff dichotomous).  So a node tries, in
    mask-lexicographic order, only the proper boxes through the anchor (the
    least uncovered point) dichotomous to every box chosen, as listed by
    `words._hitting`.  Point sets are bitsets over g's sorted points.

    Two prunes drop only boxes that cannot be in the partition, so the first
    partition found stays the same.  The line filter offers, per factor,
    only masks inside the anchor's uncovered line (`_line_options`): a box
    with any other coordinate there holds a point outside rem, which the
    box test rejects.  With one box left, that box must be the uncovered
    points themselves, and only their bounding box can be; so the node tests
    that box alone (`_last_box`) and lists no candidate.
    """
    space = g.space
    require_budget(space.size_sum, "partition search needs |X|_1")
    pts, tables = _point_tables(g)
    full = space.full_masks
    max_box = math.prod(n - 1 for n in space.dims)
    out: list[tuple[int, ...]] = []

    def rec(rem: int, left: int) -> bool:
        if not rem:
            return True
        if rem.bit_count() > left * max_box:
            return False
        if left == 1:
            last = _last_box(tables, full, rem, out)
            if last is not None:
                out.append(last)
            return last is not None
        anchor = pts[(rem & -rem).bit_length() - 1]
        opts = _line_options(tables, full, rem, anchor)
        for masks in kernel._hitting(opts, out, full, kernel._hits(out, full)):
            box = reduce(and_, map(getitem, tables, masks), rem)
            if box.bit_count() == math.prod(map(int.bit_count, masks)):
                out.append(masks)
                if rec(rem ^ box, left - 1):
                    return True
                out.pop()
        return False

    if rec((1 << len(pts)) - 1, size):
        return [Box(space, masks) for masks in out]
    return None


def is_polybox(g: PointSet) -> bool:
    """True iff g admits a partition into proper boxes of size |g|_0."""
    return proper_suit_for(g) is not None


def proper_suit_for(g: PointSet) -> Optional[Suit]:
    """Some proper suit with union g, or None when g is not a polybox: the
    first partition of size |g|_0 that `_proper_partition` finds.  Such a
    partition is a suit, so its validation fails only on an internal bug.
    """
    if not g.members:
        return None
    b0 = box_number(g)
    if b0.denominator != 1 or b0 <= 0:
        return None
    parts = _proper_partition(g, int(b0))
    return None if parts is None else verify_suit(parts, require_proper=True)


def is_minimal_partition(parts: Sequence[Box], g: PointSet) -> bool:
    """Decide minimality of a proper-box partition of g by two routes.

    The counting route compares the size with |g|_0; the structural route
    checks pairwise dichotomy.  The two must agree for partitions, so any
    disagreement is reported as an internal fault.
    """
    if not parts:
        raise NotAPartition("no parts given")
    # first, as box_number checks the budget before any point is listed
    by_count = len(parts) == box_number(g)
    covered: set[Point] = set()
    total = 0
    for k, b in enumerate(parts):
        if b.space != g.space:
            raise SpaceMismatch("partition member outside the point set's space")
        if not b.is_proper:
            raise NotAPartition(f"part {k} is not a proper box")
        covered.update(b.points())
        total += b.size()
    if total != len(covered) or covered != set(g.members):
        raise NotAPartition("parts do not partition the point set")
    try:
        verify_suit(parts)
        by_suit = True
    except NotDichotomous:
        by_suit = False
    if by_count != by_suit:
        raise TheoremViolation(
            "minimality by box number disagrees with the suit criterion"
        )
    return by_count


def strongly_disjoint(f: Suit, g: Suit) -> bool:
    """True iff the two proper suits concatenate into one suit.

    The verdict only depends on the polyboxes, not on the suits chosen to
    represent them; the unions overlap iff two boxes meet in every factor.
    """
    if f.space != g.space:
        raise SpaceMismatch("suits live in different spaces")
    for s in (f, g):
        for i, b in enumerate(s.boxes):
            if not b.is_proper:
                raise NotProper(i)
    if any(all(map(and_, a.factors, b.factors)) for a in f.boxes for b in g.boxes):
        raise UnionsOverlap("the suit unions share points")
    return all(is_dichotomous(a, b) for a in f.boxes for b in g.boxes)
