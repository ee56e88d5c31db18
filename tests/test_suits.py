from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import getitem, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybox import (
    Box,
    BoxSpace,
    PointSet,
    box_number,
    hat_cardinality,
    is_minimal_partition,
    is_polybox,
    proper_suit_for,
    simple_suit,
    strongly_disjoint,
    union_points,
    verify_suit,
)
from polybox import words as kernel
from polybox.boxes import is_dichotomous
from polybox.errors import (
    BudgetExceeded,
    NotAPartition,
    NotDichotomous,
    NotProper,
    SpaceMismatch,
    UnionsOverlap,
)
from polybox.oracle import enumerate_min_partitions, exhaustive_min_partition
from polybox.suits import _complement_hits
from generate import (
    all_suit_unions,
    mutate_suit,
    random_proper_suit,
    random_space,
    random_suit_for_space,
)

from conftest import boxes, spaces
from helpers import brute_hat


def bx(dims, *sets):
    return Box.from_sets(BoxSpace(tuple(dims)), [set(s) for s in sets])


S33 = BoxSpace((3, 3))
S3 = BoxSpace((3,))


class TestVerifySuit:
    def test_valid_proper_pair(self):
        suit = verify_suit([bx([3], {0}), bx([3], {1, 2})], require_proper=True)
        assert suit.is_proper and len(suit) == 2

    def test_simple_suit_is_valid(self):
        assert len(verify_suit(simple_suit(bx([3, 3], {0}, {1})))) == 4

    def test_rejects_non_dichotomous_pair(self):
        with pytest.raises(NotDichotomous) as err:
            verify_suit([bx([3, 3], {0}, {1}), bx([3, 3], {0}, {2})])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_rejects_improper_member_when_required(self):
        boxes = simple_suit(bx([3, 3], {0}, {0, 1, 2}))
        verify_suit(boxes)
        with pytest.raises(NotProper):
            verify_suit(boxes, require_proper=True)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            verify_suit([])

    @given(st.data())
    def test_is_proper_matches_per_factor_formula(self, data):
        # a simple suit keeps c's full factors; splitting its first member
        # at a full factor mixes proper and improper members
        c = data.draw(boxes())
        space = c.space
        members = simple_suit(c)
        full = [i for i in range(space.d) if c.factors[i] == space.full_masks[i]]
        if full and data.draw(st.booleans()):
            i = data.draw(st.sampled_from(full))
            t = data.draw(st.integers(1, space.full_masks[i] - 1))
            first = list(members[0].factors)
            halves = []
            for m in (t, space.full_masks[i] ^ t):
                first[i] = m
                halves.append(Box(space, tuple(first)))
            members[:1] = halves
        suit = verify_suit(members)
        assert suit.is_proper == all(
            m != space.full_masks[i] for b in members for i, m in enumerate(b.factors)
        )


class TestUnionPoints:
    def test_one_dimensional_whole_space(self):
        suit = verify_suit([bx([3], {0}), bx([3], {1, 2})])
        assert union_points(suit).members == {(0,), (1,), (2,)}

    def test_simple_suit_covers_space(self):
        suit = verify_suit(simple_suit(bx([3, 3], {0}, {1})))
        assert union_points(suit).members == set(S33.points())

    def test_singleton(self):
        suit = verify_suit([bx([3, 3], {0}, {1})])
        assert union_points(suit).members == {(0, 1)}


class TestHatCardinality:
    def test_single_point(self):
        g = PointSet(S33, frozenset({(1, 2)}))
        assert hat_cardinality(g) == 2 ** (6 - 4) * 1

    def test_whole_space(self):
        assert hat_cardinality(PointSet.full(S33)) == 16

    def test_empty(self):
        assert hat_cardinality(PointSet(S33, frozenset())) == 0

    def test_budget(self):
        big = BoxSpace((20, 20))
        with pytest.raises(BudgetExceeded):
            hat_cardinality(PointSet(big, frozenset()))

    @given(st.data())
    @settings(max_examples=40)
    def test_matches_literal_definition(self, data):
        space = data.draw(spaces(max_d=2, dims=(2, 3)))
        members = frozenset(
            p for p in space.points() if data.draw(st.booleans())
        )
        g = PointSet(space, members)
        assert hat_cardinality(g) == brute_hat(space, members)

    @given(st.data())
    @settings(max_examples=40)
    def test_box_route_matches_point_route(self, data):
        space = data.draw(spaces(max_d=3, dims=(2, 3, 4, 5)))
        factors = tuple(
            data.draw(st.integers(min_value=1, max_value=space.full_masks[i]))
            for i in range(space.d)
        )
        box = Box(space, factors)
        as_points = PointSet(space, frozenset(box.points()))
        assert hat_cardinality(box) == hat_cardinality(as_points)

    def test_seeded_fuzz_matches_literal_definition(self):
        rng = random.Random(4417)
        for _ in range(500):
            space = BoxSpace(tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3))))
            density = rng.random()
            members = frozenset(p for p in space.points() if rng.random() < density)
            assert hat_cardinality(PointSet(space, members)) == brute_hat(space, members)


class TestBoxNumber:
    def test_proper_suit_union_counts_members(self, rng):
        for _ in range(10):
            suit = random_proper_suit(S33, rng)
            assert box_number(union_points(suit)) == len(suit)

    def test_whole_space(self):
        assert box_number(PointSet.full(S33)) == 4

    def test_single_point(self):
        g = PointSet(S33, frozenset({(0, 0)}))
        assert brute_hat(S33, g.members) == 4
        assert box_number(g) == Fraction(4, 4) == 1


class TestIsPolybox:
    def test_whole_space(self):
        assert is_polybox(PointSet.full(S33))

    def test_non_dichotomous_singleton_union_is_not(self):
        g = PointSet(S33, frozenset({(0, 0), (1, 1)}))
        assert not is_polybox(g)

    def test_any_suit_union_is(self, rng):
        for _ in range(10):
            suit = random_proper_suit(S33, rng)
            assert is_polybox(union_points(suit))

    @given(st.data())
    @settings(max_examples=30)
    def test_polybox_number_is_positive_integer(self, data):
        space = data.draw(spaces(max_d=2, dims=(2, 3)))
        members = frozenset(
            p for p in space.points() if data.draw(st.booleans())
        )
        g = PointSet(space, members)
        if is_polybox(g):
            b0 = box_number(g)
            assert b0.denominator == 1 and b0 > 0


class TestMinimalPartition:
    def test_two_part_partition_is_minimal(self):
        g = PointSet(S3, frozenset({(0,), (1,), (2,)}))
        assert is_minimal_partition([bx([3], {0}), bx([3], {1, 2})], g)

    def test_three_singletons_are_not_minimal(self):
        g = PointSet(S3, frozenset({(0,), (1,), (2,)}))
        parts = [bx([3], {0}), bx([3], {1}), bx([3], {2})]
        assert not is_minimal_partition(parts, g)

    def test_every_suit_is_minimal_for_its_union(self, rng):
        for _ in range(10):
            suit = random_proper_suit(S33, rng)
            assert is_minimal_partition(list(suit.boxes), union_points(suit))

    def test_rejects_non_partition(self):
        g = PointSet(S3, frozenset({(0,), (1,)}))
        with pytest.raises(NotAPartition):
            is_minimal_partition([bx([3], {0})], g)
        with pytest.raises(NotAPartition):
            is_minimal_partition([bx([3], {0, 1}), bx([3], {1})], g)


def strongly_disjoint_on_points(f, g):
    """The point-union decision strongly_disjoint replaced: the reference."""
    if f.space != g.space:
        raise SpaceMismatch("suits live in different spaces")
    for s in (f, g):
        for i, b in enumerate(s.boxes):
            if not b.is_proper:
                raise NotProper(i)
    fp = union_points(f)
    gp = union_points(g)
    if fp.members & gp.members:
        raise UnionsOverlap("the suit unions share points")
    return all(is_dichotomous(a, b) for a in f.boxes for b in g.boxes)


def verdict(fn, f, g):
    try:
        return fn(f, g)
    except (SpaceMismatch, NotProper, UnionsOverlap) as exc:
        return type(exc).__name__, getattr(exc, "index", None)


class TestStronglyDisjoint:
    def test_twin_singletons(self):
        f = verify_suit([bx([3, 3], {0}, {0})])
        g = verify_suit([bx([3, 3], {1, 2}, {0})])
        assert strongly_disjoint(f, g)

    def test_disjoint_but_not_dichotomous(self):
        f = verify_suit([bx([3, 3], {0}, {0})])
        g = verify_suit([bx([3, 3], {1}, {1})])
        assert not strongly_disjoint(f, g)

    def test_halves_of_a_simple_suit(self):
        boxes = simple_suit(bx([3, 3], {0}, {1}))
        f = verify_suit(boxes[:2])
        g = verify_suit(boxes[2:])
        assert verify_suit(boxes) is not None
        assert strongly_disjoint(f, g)

    def test_overlap_is_rejected(self):
        f = verify_suit([bx([3, 3], {0}, {0})])
        with pytest.raises(UnionsOverlap):
            strongly_disjoint(f, f)

    def test_representation_independent(self, rng):
        # the verdict must not depend on which suits represent the polyboxes
        for _ in range(20):
            boxes = random_suit_for_space(S33, rng).boxes
            k = rng.randint(1, 3)
            f = verify_suit(boxes[:k])
            g = verify_suit(boxes[k:])
            assert strongly_disjoint(f, g)
            f2 = mutate_suit(f, rng)
            g2 = mutate_suit(g, rng)
            assert strongly_disjoint(f2, g2)

    def test_box_pairs_match_point_unions(self):
        # g is the rest of f's suit for the space or part of another one, so
        # all three verdicts come up: strongly disjoint, disjoint but not
        # dichotomous, and overlapping unions
        rng = random.Random(2311)
        seen = {}
        for _ in range(1500):
            space = random_space(rng, max_d=3, dim_choices=(2, 3, 4))
            a = rng.sample(random_suit_for_space(space, rng).boxes, 1 << space.d)
            k = rng.randint(1, len(a) - 1)
            f = verify_suit(a[:k])
            if rng.random() < 0.4:
                g = verify_suit(a[k:])
            else:
                b = random_suit_for_space(space, rng).boxes
                g = verify_suit(rng.sample(b, rng.randint(1, len(b))))
            if rng.random() < 0.3:
                f, g = mutate_suit(f, rng), mutate_suit(g, rng)
            want = verdict(strongly_disjoint_on_points, f, g)
            assert verdict(strongly_disjoint, f, g) == want
            seen[want] = seen.get(want, 0) + 1
        assert seen.keys() == {True, False, ("UnionsOverlap", None)}
        assert min(seen.values()) >= 10, seen

    def test_errors_come_in_order(self):
        # spaces, then properness of f, then of g, then overlap
        proper = bx([3, 3], {0}, {0})
        f = verify_suit([proper, bx([3, 3], {0, 1, 2}, {1, 2})])
        g = verify_suit([bx([3, 3], {0, 1, 2}, {0})])  # meets proper
        other = verify_suit([bx([3, 4], {0, 1, 2}, {0})])
        cases = [
            (f, other, ("SpaceMismatch", None)),
            (f, g, ("NotProper", 1)),
            (verify_suit([proper]), g, ("NotProper", 0)),
            (verify_suit([proper]), verify_suit([proper]), ("UnionsOverlap", None)),
        ]
        for f, g, want in cases:
            assert verdict(strongly_disjoint, f, g) == want
            assert verdict(strongly_disjoint_on_points, f, g) == want


class TestKrakow:
    def test_full_size_proper_suit_covers_space(self, rng):
        for _ in range(10):
            space = BoxSpace(tuple(rng.choice((2, 3)) for _ in range(rng.randint(1, 3))))
            suit = random_suit_for_space(space, rng)
            assert len(suit) == 1 << space.d
            assert union_points(suit).members == set(space.points())


class TestProperSuitFor:
    def test_roundtrip_union(self, rng):
        for _ in range(10):
            suit = random_proper_suit(S33, rng)
            g = union_points(suit)
            found = proper_suit_for(g)
            assert found is not None
            assert union_points(found).members == g.members

    def test_none_for_non_polybox(self):
        assert proper_suit_for(PointSet(S33, frozenset({(0, 0), (1, 1)}))) is None


def masks(parts):
    return [b.factors for b in parts]


class TestSuitPrune:
    """The search's suit prune, one OR of `_complement_hits` bitsets, against
    the pairwise dichotomy test it replaced, kept here as the reference."""

    def test_matches_pairwise_dichotomy(self):
        rng = random.Random(2417)
        verdicts = Counter()
        for _ in range(3000):
            space = BoxSpace(tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 4))))
            full = space.full_masks
            k = rng.choice((0, 1, rng.randint(2, 8)))
            if rng.random() < 0.5:
                # some chosen boxes not dichotomous among themselves
                chosen = [tuple(map(rng.randrange, [1] * space.d, full)) for _ in range(k)]
                candidate = tuple(map(rng.randrange, [1] * space.d, full))
            else:
                # leaves of one suit, as the search chooses them
                leaves = [b.factors for b in random_suit_for_space(space, rng).boxes]
                rng.shuffle(leaves)
                chosen, candidate = leaves[:k], leaves[-1]
            hit = _complement_hits(chosen, full)
            fast = reduce(or_, map(getitem, hit, candidate)) == (1 << len(chosen)) - 1
            slow = all(kernel.dichotomous(candidate, b, full) for b in chosen)
            assert fast == slow, (space.dims, chosen, candidate)
            verdicts[len(chosen) > 1, fast] += 1
        assert min(verdicts.values()) > 100 and len(verdicts) == 4


class TestSearchMatchesOracle:
    """proper_suit_for returns the oracle's first minimal partition: both
    branch on the least uncovered point, try its proper boxes in
    mask-lexicographic order and cut at the same size."""

    def test_every_suit_union_in_3x3(self):
        unions = all_suit_unions(S33, 4)
        assert len(unions) > 200
        for pts in unions:
            g = PointSet(S33, pts)
            assert masks(proper_suit_for(g)) == masks(enumerate_min_partitions(g)[0])

    @pytest.mark.parametrize("dims", [(4, 3), (2, 3, 4), (3, 3, 3)])
    def test_seeded_sub_suit_unions(self, dims, rng):
        space = BoxSpace(dims)
        for k in (1, 2, 3, 4):
            for _ in range(3):
                suit = verify_suit(rng.sample(random_suit_for_space(space, rng).boxes, k))
                g = union_points(suit)
                assert masks(proper_suit_for(g)) == masks(enumerate_min_partitions(g)[0])

    @pytest.mark.parametrize("dims", [(3, 3), (4, 3), (2, 3, 4), (3, 3, 3)])
    def test_seeded_integral_non_polyboxes(self, dims, rng):
        # |G|_0 is a positive integer, so the search runs to the end
        space = BoxSpace(dims)
        points = sorted(space.points())
        most = min(10, len(points))
        refuted = 0
        while refuted < 10:
            g = PointSet(space, frozenset(rng.sample(points, rng.randint(2, most))))
            b0 = box_number(g)
            if b0.denominator != 1 or b0 <= 0:
                continue
            minimal = exhaustive_min_partition(g) == b0
            assert is_polybox(g) == minimal
            refuted += not minimal


def _all_but_a_two_point_box(rng):
    space = BoxSpace((3, 3, 3))
    while True:
        boxes = random_suit_for_space(space, rng).boxes
        pairs = [b for b in boxes if b.size() == 2]
        if pairs:
            return union_points(verify_suit([b for b in boxes if b != pairs[0]]))


def _sub_suit_union(dims, k, rng):
    boxes = random_suit_for_space(BoxSpace(dims), rng).boxes
    return union_points(verify_suit(rng.sample(boxes, k)))


class TestReferenceInstances:
    """Polyboxes that took two seconds or more each in the Box-building
    search.  The 6-box one still takes over a second on a 2-CPU machine
    (3.7 s with one dichotomy test per chosen box, 1.6 s with the hit-table
    prune): the suit prune alone leaves random 6-box unions in 4^4 a long
    tail of backtracking."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: PointSet.full(BoxSpace((3, 3, 3))),
            _all_but_a_two_point_box,
            lambda rng: _sub_suit_union((4, 4, 4), 4, rng),
            lambda rng: PointSet.full(BoxSpace((4, 4, 4, 4))),
            lambda rng: _sub_suit_union((4, 4, 4, 4), 6, rng),
        ],
        ids=[
            "whole-3x3x3", "25-points-3x3x3", "4-boxes-4x4x4",
            "whole-4^4", "6-boxes-4^4",
        ],
    )
    def test_recognized_with_a_minimal_suit(self, build, rng):
        g = build(rng)
        suit = proper_suit_for(g)
        assert suit is not None
        verify_suit(suit.boxes, require_proper=True)
        assert union_points(suit).members == g.members
        assert len(suit) == box_number(g)
