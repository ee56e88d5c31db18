from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polybox import (
    Box,
    BoxSpace,
    complement_action,
    epsilon_of,
    is_dichotomous,
    is_twin_pair,
    mask_of,
    members_of,
    simple_suit,
)
from polybox.errors import SpaceMismatch

from conftest import boxes, spaces
from helpers import brute_dichotomous, brute_points


def bx(dims, *sets):
    space = BoxSpace(tuple(dims))
    return Box.from_sets(space, [set(s) for s in sets])


class TestSpaceAndMasks:
    def test_rejects_small_factors(self):
        with pytest.raises(ValueError):
            BoxSpace((1,))
        with pytest.raises(ValueError):
            BoxSpace(())

    def test_rejects_oversized_factors(self):
        with pytest.raises(ValueError):
            BoxSpace((63,))

    def test_mask_roundtrip(self):
        assert members_of(mask_of({0, 2}, 3)) == (0, 2)
        with pytest.raises(ValueError):
            mask_of({3}, 3)

    def test_box_rejects_empty_factor(self):
        space = BoxSpace((3, 3))
        with pytest.raises(ValueError):
            Box(space, (0, 7))


class TestDichotomy:
    def test_one_factor_complement(self):
        assert is_dichotomous(bx([3], {0}), bx([3], {1, 2}))

    def test_second_factor_complement(self):
        assert is_dichotomous(bx([3, 3], {0}, {0, 1}), bx([3, 3], {0}, {2}))

    def test_no_complementary_factor(self):
        a = bx([3, 3], {0}, {0})
        b = bx([3, 3], {0, 1}, {0, 1})
        assert brute_dichotomous(a, b) is False
        assert is_dichotomous(a, b) is False

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            is_dichotomous(bx([3], {0}), bx([4], {0}))

    @given(st.data())
    def test_matches_brute_force_and_is_symmetric(self, data):
        space = data.draw(spaces())
        a = data.draw(boxes(space))
        b = data.draw(boxes(space))
        assert is_dichotomous(a, b) == brute_dichotomous(a, b)
        assert is_dichotomous(a, b) == is_dichotomous(b, a)

    @given(boxes())
    def test_never_self_dichotomous(self, a):
        assert not is_dichotomous(a, a)


class TestTwinPairs:
    def test_twin_in_first_factor(self):
        assert is_twin_pair(bx([3, 3], {0}, {1}), bx([3, 3], {1, 2}, {1}))

    def test_dichotomous_everywhere_equal_nowhere(self):
        assert not is_twin_pair(bx([3, 3], {0}, {1}), bx([3, 3], {1, 2}, {0, 2}))

    def test_one_dimensional_twins(self):
        assert is_twin_pair(bx([3], {0, 1}), bx([3], {2}))

    @given(st.data())
    def test_twins_are_dichotomous(self, data):
        space = data.draw(spaces())
        a = data.draw(boxes(space))
        b = data.draw(boxes(space))
        if is_twin_pair(a, b):
            assert is_dichotomous(a, b)


class TestComplementAction:
    def test_flips_selected_factors(self):
        a = bx([3, 3], {0}, {1, 2})
        assert complement_action(a, (1, 0)) == bx([3, 3], {1, 2}, {1, 2})

    def test_full_factor_flip_is_absent(self):
        a = bx([3], {0, 1, 2})
        assert complement_action(a, (1,)) is None

    def test_zero_epsilon_is_identity(self):
        a = bx([3, 3], {0}, {1})
        assert complement_action(a, (0, 0)) == a

    @given(st.data())
    def test_involution(self, data):
        space = data.draw(spaces())
        a = data.draw(boxes(space))
        eps = tuple(
            data.draw(st.integers(min_value=0, max_value=1))
            for _ in range(space.d)
        )
        image = complement_action(a, eps)
        if image is not None:
            assert complement_action(image, eps) == a


class TestSimpleSuit:
    def test_one_dimensional(self):
        got = set(simple_suit(bx([3], {0})))
        assert got == {bx([3], {0}), bx([3], {1, 2})}

    def test_two_supported_coordinates(self):
        assert len(simple_suit(bx([3, 3], {0}, {1}))) == 4

    def test_full_factor_contributes_no_flip(self):
        c = bx([3, 3], {0}, {0, 1, 2})
        # independent route: apply all four eps and drop the empties
        survivors = {
            complement_action(c, eps)
            for eps in itertools.product((0, 1), repeat=2)
        } - {None}
        got = simple_suit(c)
        assert len(got) == 2
        assert set(got) == survivors

    @given(boxes())
    def test_size_dichotomy_and_union(self, c):
        suit = simple_suit(c)
        assert len(suit) == 1 << len(c.support())
        for a, b in itertools.combinations(suit, 2):
            assert is_dichotomous(a, b)
        union = set()
        for b in suit:
            union |= brute_points(b)
        assert union == set(c.space.points())

    @given(boxes())
    def test_equal_parity_members_carry_same_sign(self, c):
        suit = simple_suit(c)
        for a, b in itertools.combinations(suit, 2):
            ea = epsilon_of(c, a)
            eb = epsilon_of(c, b)
            between = epsilon_of(a, b)
            assert ea is not None and eb is not None and between is not None
            same_parity = sum(ea) % 2 == sum(eb) % 2
            assert same_parity == (sum(between) % 2 == 0)


def per_factor_proper(b):
    """Properness as `Box.is_proper` tested it factor by factor."""
    return all(m != b.space.full_masks[i] for i, m in enumerate(b.factors))


class TestProperness:
    @given(boxes())
    def test_matches_per_factor_formula(self, b):
        assert b.is_proper == per_factor_proper(b)
        assert b.support() == tuple(
            i for i, m in enumerate(b.factors) if m != b.space.full_masks[i]
        )
