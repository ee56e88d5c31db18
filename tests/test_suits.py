from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, getitem

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
from polybox.suits import Suit, _last_box, _line_options, _point_tables
from polybox.errors import (
    BudgetExceeded,
    NotAPartition,
    NotDichotomous,
    NotProper,
    SpaceMismatch,
    UnionsOverlap,
)
from generate import (
    all_suit_unions,
    mutate_suit,
    random_proper_suit,
    random_space,
    random_suit_for_space,
)

from conftest import boxes, spaces
from helpers import brute_hat, enumerate_min_partitions, exhaustive_min_partition


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
    """The search's candidates, listed by `words._hitting`, against the
    filtered product of masks it replaced, kept here as the reference."""

    def test_matches_pairwise_dichotomy(self):
        rng = random.Random(2417)
        classes = Counter()
        for _ in range(3000):
            space = BoxSpace(tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 4))))
            full = space.full_masks
            anchor = [rng.randrange(n) for n in space.dims]
            opts = [[m for m in range(1, f) if m >> x & 1] for x, f in zip(anchor, full)]
            k = rng.choice((0, 1, rng.randint(2, 8)))
            if rng.random() < 0.5:
                # some chosen boxes not dichotomous among themselves
                chosen = [tuple(map(rng.randrange, [1] * space.d, full)) for _ in range(k)]
            else:
                # leaves of one suit, as the search chooses them
                chosen = [b.factors for b in random_suit_for_space(space, rng).boxes]
                rng.shuffle(chosen)
                del chosen[k:]
            slow = [
                c for c in product(*opts)
                if all(kernel.dichotomous(c, b, full) for b in chosen)
            ]
            fast = kernel._hitting(opts, chosen, full, kernel._hits(chosen, full))
            assert fast == slow, (space.dims, anchor, chosen)
            classes[len(chosen) > 1, bool(fast)] += 1
        assert min(classes.values()) > 100 and len(classes) == 4

    def test_letter_words_match_brute_force(self):
        # genome letters: pair k is 2k+3 (positive) and 2k+2, flip 1
        rng = random.Random(2418)
        classes = Counter()
        for _ in range(3000):
            d = rng.randint(1, 4)
            flip = (1,) * d
            letters = range(2, 2 * rng.randint(1, 3) + 2)
            # unsorted, so the order of the result is the generator's own
            allowed = [rng.sample(letters, rng.randint(0, len(letters))) for _ in flip]
            members = [
                tuple(rng.choice(letters) for _ in flip) for _ in range(rng.randint(0, 6))
            ]
            slow = [
                w for w in product(*map(sorted, allowed))
                if all(kernel.dichotomous(w, v, flip) for v in members)
            ]
            fast = kernel._hitting(allowed, members, flip, kernel._hits(members, flip))
            assert fast == slow, (allowed, members)
            classes[len(members) > 1, bool(fast)] += 1
        assert min(classes.values()) > 100 and len(classes) == 4


def _fits(tables, rem, masks):
    """The box test: the box lies inside rem."""
    box = reduce(and_, map(getitem, tables, masks), rem)
    return box.bit_count() == math.prod(map(int.bit_count, masks))


def _search_state(rng, max_dim=4, max_d=4):
    """A seeded (space, g, rem): g a random point set or the union of part of
    a suit, rem a nonempty subset of g's points as a bitset over them."""
    space = BoxSpace(tuple(rng.randint(2, max_dim) for _ in range(rng.randint(1, max_d))))
    while True:
        if rng.random() < 0.5:
            density = rng.random()
            members = frozenset(p for p in space.points() if rng.random() < density)
        else:
            boxes = random_suit_for_space(space, rng).boxes
            part = verify_suit(rng.sample(boxes, rng.randint(1, len(boxes))))
            members = union_points(part).members
        if members:
            break
    g = PointSet(space, members)
    n = len(members)
    keep = rng.choice((1.0, rng.random()))
    rem = sum(1 << k for k in range(n) if rng.random() < keep) or 1 << rng.randrange(n)
    return space, g, rem


class TestSearchPrunes:
    """The line filter and the last-box shortcut of `proper_suit_for`'s
    search against the routes they replaced, kept here as the references:
    the full mask lists through the anchor, and the first `words._hitting`
    candidate whose box is exactly the uncovered points."""

    def test_line_filter_drops_only_boxes_that_fail(self):
        rng = random.Random(2419)
        classes = Counter()
        for _ in range(600):
            space, g, rem = _search_state(rng)
            full = space.full_masks
            pts, tables = _point_tables(g)
            anchor = pts[(rem & -rem).bit_length() - 1]
            old = [[m for m in range(1, f) if m >> x & 1] for x, f in zip(anchor, full)]
            new = _line_options(tables, full, rem, anchor)
            # kept masks come from the old lists, in their order
            assert all(n == [m for m in o if m in n] for o, n in zip(old, new))
            # a mask is kept iff its box along the anchor's line passes
            points = [1 << x for x in anchor]
            for i, (o, n) in enumerate(zip(old, new)):
                for m in o:
                    line_box = points[:i] + [m] + points[i + 1 :]
                    assert (m in n) == _fits(tables, rem, line_box)
            # and every box with a dropped mask fails the box test
            slow = [c for c in product(*old) if _fits(tables, rem, c)]
            assert [c for c in product(*new) if _fits(tables, rem, c)] == slow
            # the anchor alone always passes
            classes[new != old, len(slow) > 1] += 1
        assert min(classes.values()) > 50 and len(classes) == 4, classes

    def test_last_box_is_the_first_candidate_equal_to_rem(self):
        rng = random.Random(2420)
        classes = Counter()
        for _ in range(1500):
            space, g, rem = _search_state(rng, max_dim=3)
            full = space.full_masks
            pts, tables = _point_tables(g)
            if rng.random() < 0.5:
                # rem is one box of a suit, the others in it chosen or not
                boxes = [b.factors for b in random_suit_for_space(space, rng).boxes]
                rng.shuffle(boxes)
                target, chosen = boxes[0], boxes[1 : rng.randint(1, len(boxes))]
                pts, tables = _point_tables(PointSet.full(space))
                rem = reduce(and_, map(getitem, tables, target))
            else:
                k = rng.randint(0, 4)
                chosen = [tuple(map(rng.randrange, [1] * space.d, full)) for _ in range(k)]
            anchor = pts[(rem & -rem).bit_length() - 1]
            old = [[m for m in range(1, f) if m >> x & 1] for x, f in zip(anchor, full)]
            want = next(
                (
                    c
                    for c in kernel._hitting(old, chosen, full, kernel._hits(chosen, full))
                    if _fits(tables, rem, c) and reduce(and_, map(getitem, tables, c)) == rem
                ),
                None,
            )
            assert _last_box(tables, full, rem, chosen) == want, (space.dims, rem, chosen)
            classes[want is None, bool(chosen)] += 1
        assert min(classes.values()) > 50 and len(classes) == 4, classes


class TestLastBoxShortcut:
    """With one box left the search tests the uncovered points' bounding box
    and lists no candidate."""

    @pytest.fixture
    def listed(self, monkeypatch):
        calls = []
        hitting = kernel._hitting

        def counting(*args):
            calls.append(args)
            return hitting(*args)

        monkeypatch.setattr(kernel, "_hitting", counting)
        return calls

    def test_a_proper_box_comes_back_as_itself(self, listed):
        for b in (bx([3, 3], {1}, {0, 2}), bx([4, 3, 3], {0, 2}, {1}, {0, 1})):
            suit = proper_suit_for(PointSet(b.space, frozenset(b.points())))
            assert masks(suit) == [b.factors]
        assert not listed

    def test_box_number_one_only_for_proper_boxes(self, listed):
        # so is_polybox meets no other set with |G|_0 = 1, and answers every
        # one of them without listing a candidate
        for dims in ((3, 3), (2, 2, 3)):
            space = BoxSpace(dims)
            pts = sorted(space.points())
            seen = 0
            for bits in range(1, 1 << len(pts)):
                g = PointSet(space, frozenset(p for k, p in enumerate(pts) if bits >> k & 1))
                if box_number(g) == 1:
                    extent = [len({p[i] for p in g.members}) for i in range(space.d)]
                    assert math.prod(extent) == len(g) and all(map(int.__lt__, extent, dims))
                    assert is_polybox(g)
                    seen += 1
            assert seen == math.prod((1 << n) - 2 for n in dims)
        assert not listed

    def test_one_box_left_refuses_a_set_that_is_no_proper_box(self, listed):
        for pts in (
            {(0, 0), (0, 1), (1, 0)},  # bounding box holds a point outside
            {(0, 0), (0, 1), (0, 2)},  # a box, but not a proper one
            {(0, 0), (2, 2)},  # the bounding box leaves g
        ):
            g = PointSet(S33, frozenset(pts))
            _, tables = _point_tables(g)
            assert _last_box(tables, S33.full_masks, (1 << len(pts)) - 1, []) is None
        assert not listed


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


# Seeded 6-box unions in 4^4, the search's tail; seed 6, the slowest, takes
# about 0.8 s on a 2-CPU machine.
TAIL_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)


class TestReferenceInstances:
    """Polyboxes that took two seconds or more each in the Box-building
    search, and the seeded 6-box unions in 4^4 that make the search's tail.
    Listing only the boxes dichotomous to every chosen box took seeds 1-5, 7
    and 8 from about 11 s together to under 1 s on a 2-CPU machine (seed 3:
    6.5 to 0.3 s).  Offering only masks inside the anchor's uncovered line
    then took all eight from 3.7 to 1.0 s (seed 6: 2.9 to 0.8 s)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: PointSet.full(BoxSpace((3, 3, 3))),
            _all_but_a_two_point_box,
            lambda rng: _sub_suit_union((4, 4, 4), 4, rng),
            lambda rng: PointSet.full(BoxSpace((4, 4, 4, 4))),
            lambda rng: _sub_suit_union((4, 4, 4, 4), 6, rng),
        ] + [
            lambda rng, s=s: _sub_suit_union((4, 4, 4, 4), 6, random.Random(s))
            for s in TAIL_SEEDS
        ],
        ids=[
            "whole-3x3x3", "25-points-3x3x3", "4-boxes-4x4x4",
            "whole-4^4", "6-boxes-4^4",
        ] + [f"6-boxes-4^4-seed-{s}" for s in TAIL_SEEDS],
    )
    def test_recognized_with_a_minimal_suit(self, build, rng):
        g = build(rng)
        suit = proper_suit_for(g)
        assert suit is not None
        verify_suit(suit.boxes, require_proper=True)
        assert union_points(suit).members == g.members
        assert len(suit) == box_number(g)


S33 = BoxSpace((3, 3))
LINE = PointSet(S33, frozenset(Box(S33, (7, 1)).points()))


@pytest.mark.parametrize("make, error, message", [
    (lambda: Suit(S33, (Box(S33, (1, 1)), Box(BoxSpace((3, 4)), (6, 1)))),
     SpaceMismatch, "suit members live in different spaces"),
    (lambda: is_minimal_partition([], LINE), NotAPartition, "no parts given"),
    (lambda: is_minimal_partition([Box(BoxSpace((3,)), (1,))], LINE), SpaceMismatch,
     "partition member outside the point set's space"),
    (lambda: is_minimal_partition([Box(S33, (7, 1))], LINE), NotAPartition,
     "part 0 is not a proper box"),
], ids=["suit_spaces", "no_parts", "part_space", "improper_part"])
def test_refusals(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
