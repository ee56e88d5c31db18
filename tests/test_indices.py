from __future__ import annotations

import itertools
from math import comb

import pytest

from polybox import (
    Box,
    BoxSpace,
    DyadicLabelling,
    apply_epsilon,
    binary_code_profile,
    complement_action,
    equicomplementary_labelling,
    eta,
    even_odd_code,
    index_representatives,
    more_less_code,
    phi,
    polybox_equal_by_index,
    simple_suit,
    suit_index,
    union_points,
    verify_dyadic,
    verify_suit,
)
from polybox.errors import EvenFactor
from generate import (
    distinct_suit_pair,
    random_proper_box,
    random_proper_suit,
    random_suit_for_space,
)

from helpers import n_plus_minus, signed_class_sum


def bx(dims, *sets):
    return Box.from_sets(BoxSpace(tuple(dims)), [set(s) for s in sets])


S33 = BoxSpace((3, 3))
S333 = BoxSpace((3, 3, 3))


class TestPhi:
    def test_self_is_one(self):
        c = bx([3, 3], {0}, {1, 2})
        assert phi(c, c) == 1

    def test_complement_class_signs(self, rng):
        for _ in range(20):
            c = random_proper_box(S333, rng)
            eps = tuple(rng.randint(0, 1) for _ in range(3))
            a = complement_action(c, eps)
            assert phi(c, a) == (-1) ** sum(eps)

    def test_full_factor_contributes_one(self):
        c = bx([3, 3], {0}, {0, 1, 2})
        a = bx([3, 3], {0}, {1})
        assert phi(c, a) == 1

    def test_unrelated_box_scores_zero(self):
        assert phi(bx([3, 3], {0}, {1}), bx([3, 3], {0}, {0, 1})) == 0

    def test_requires_proper_second_argument(self):
        with pytest.raises(ValueError):
            phi(bx([3], {0}), bx([3], {0, 1, 2}))


class TestEta:
    def test_singleton_self(self):
        b = bx([3], {0})
        assert eta(b, b) == 1

    def test_even_intersection(self):
        assert eta(bx([3], {0, 1, 2}), bx([3], {1, 2})) == 0

    def test_product_of_parities(self):
        b = bx([3, 3], {0}, {0, 1, 2})
        a = bx([3, 3], {0, 1}, {1, 2})
        # |{0} & {0,1}| = 1 (odd), |X & {1,2}| = 2 (even)
        assert eta(b, a) == 0

    def test_rejects_even_factor(self):
        with pytest.raises(EvenFactor):
            eta(bx([3, 3], {0, 1}, {0}), bx([3, 3], {0}, {0}))


class TestSuitIndex:
    def test_whole_space_suit_has_zero_proper_indices(self, rng):
        suit = random_suit_for_space(S33, rng)
        full = Box(S33, (7, 7))
        for c in index_representatives(S33):
            if c != full:
                assert suit_index(suit, c) == 0

    def test_index_at_full_box_counts_members(self, rng):
        suit = random_proper_suit(S33, rng)
        assert suit_index(suit, Box(S33, (7, 7))) == len(suit)

    def test_singleton(self):
        c = bx([3, 3], {0}, {1})
        assert suit_index(verify_suit([c]), c) == 1

    def test_sign_decomposition(self, rng):
        # the phi sum must match the combinatorial n+ - n- recount
        for _ in range(30):
            suit = random_proper_suit(S333, rng)
            c = random_proper_box(S333, rng)
            n_plus, n_minus = n_plus_minus(suit, c)
            assert suit_index(suit, c) == n_plus - n_minus


class TestEqualByIndex:
    def test_reflexive(self, rng):
        suit = random_proper_suit(S33, rng)
        assert polybox_equal_by_index(suit, suit)

    def test_two_suits_for_whole_space(self, rng):
        f = random_suit_for_space(S33, rng)
        g = random_suit_for_space(S33, rng)
        assert union_points(f).members == union_points(g).members
        assert polybox_equal_by_index(f, g)

    def test_different_singletons(self):
        f = verify_suit([bx([3, 3], {0}, {1})])
        g = verify_suit([bx([3, 3], {0}, {2})])
        assert not polybox_equal_by_index(f, g)


class TestBinaryCodes:
    def test_even_odd_histogram_for_whole_space(self, rng):
        suit = random_suit_for_space(S33, rng)
        profile = binary_code_profile(suit, even_odd_code(S33))
        assert profile.weight_histogram == (1, 2, 1)

    def test_even_odd_codeword(self):
        suit = verify_suit([bx([3, 3], {0}, {1, 2})])
        profile = binary_code_profile(suit, even_odd_code(S33))
        assert profile.codewords == ((1, 0),)

    def test_more_less_codeword(self):
        suit = verify_suit([bx([3, 3], {0, 1}, {2})])
        profile = binary_code_profile(suit, more_less_code(S33))
        assert profile.codewords == ((1, 0),)

    def test_histogram_is_binomial_for_space(self, rng):
        for d in (1, 2, 3):
            space = BoxSpace((3,) * d)
            suit = random_suit_for_space(space, rng)
            for make in (even_odd_code, more_less_code):
                hist = binary_code_profile(suit, make(space)).weight_histogram
                assert hist == tuple(comb(d, k) for k in range(d + 1))

    def test_codes_reject_even_factors(self):
        with pytest.raises(EvenFactor):
            even_odd_code(BoxSpace((3, 4)))
        with pytest.raises(EvenFactor):
            more_less_code(BoxSpace((2, 3)))

    def test_codes_satisfy_complement_sum(self):
        assert even_odd_code(S33).validate()
        assert more_less_code(S33).validate()


class TestDyadic:
    def test_binary_code_is_dyadic(self):
        code = even_odd_code(S33)
        lab = DyadicLabelling(
            S33,
            code.codeword,
            frozenset(itertools.product((0, 1), repeat=2)),
        )
        assert verify_dyadic(lab)

    def test_equicomplementary_labelling_is_dyadic(self, rng):
        # a random transversal: one mask from each complementary pair
        transversals = []
        for i in range(S33.d):
            full = S33.full_masks[i]
            t = set()
            for m in range(1, full):
                if full ^ m not in t:
                    t.add(m if rng.random() < 0.5 else full ^ m)
            transversals.append(t)
        lab = equicomplementary_labelling(S33, transversals)
        assert verify_dyadic(lab)

    def test_default_labelling_is_dyadic(self):
        assert verify_dyadic(equicomplementary_labelling(S33))

    def test_constant_labelling_fails_surjectivity(self):
        lab = DyadicLabelling(S33, lambda a: "e0", frozenset({"e0", "e1"}))
        assert not verify_dyadic(lab)

    def test_exchange_violation_detected(self):
        # label by the raw first factor mask: twin splits disagree
        lab = DyadicLabelling(
            S33,
            lambda a: a.factors[0],
            frozenset(range(1, 7)),
        )
        assert not verify_dyadic(lab)


class TestApplyEpsilon:
    def test_zero_is_identity(self, rng):
        suit = random_proper_suit(S33, rng)
        assert apply_epsilon(suit, (0, 0)).boxes == suit.boxes

    def test_one_dimensional_swap(self):
        suit = verify_suit([bx([3], {0}), bx([3], {1, 2})])
        image = apply_epsilon(suit, (1,))
        assert image.boxes == (bx([3], {1, 2}), bx([3], {0}))

    def test_involution_on_points(self, rng):
        suit = random_proper_suit(S333, rng)
        eps = (1, 0, 1)
        twice = apply_epsilon(apply_epsilon(suit, eps), eps)
        assert union_points(twice).members == union_points(suit).members


class TestSuitInvariance:
    def test_indices_codes_and_eta_sums_agree(self, rng):
        # two different proper suits of one polybox give equal invariants
        for _ in range(15):
            pair = distinct_suit_pair(S33, rng)
            if pair is None:
                continue
            f, g = pair
            assert union_points(f).members == union_points(g).members
            for c in index_representatives(S33):
                assert suit_index(f, c) == suit_index(g, c)
            code = even_odd_code(S33)
            assert binary_code_profile(f, code) == binary_code_profile(g, code)
            b = bx([3, 3], {0}, {0, 1, 2})
            assert sum(eta(b, a) for a in f.boxes) == sum(
                eta(b, a) for a in g.boxes
            )


class TestOrthogonality:
    def test_phi_sums_to_zero_over_foreign_simple_suits(self, rng):
        for _ in range(30):
            c = random_proper_box(S33, rng)
            c2 = random_proper_box(S33, rng)
            from polybox import epsilon_of

            if epsilon_of(c, c2) is not None:
                continue
            assert sum(phi(c, a) for a in simple_suit(c2)) == 0


class TestParityTheorem:
    def test_symmetric_union_has_even_indices(self, rng):
        found = 0
        for _ in range(500):
            if found >= 10:
                break
            suit = random_proper_suit(S33, rng, max_size=2)
            eps = (rng.randint(0, 1), rng.randint(0, 1))
            if eps == (0, 0):
                continue
            image = apply_epsilon(suit, eps)
            pts_a = union_points(suit).members
            pts_b = union_points(image).members
            if pts_a & pts_b:
                continue
            try:
                combined = verify_suit(list(suit.boxes) + list(image.boxes))
            except Exception:
                continue
            found += 1
            full = Box(S33, (7, 7))
            supp = {i for i, e in enumerate(eps) if e}
            for c in index_representatives(S33):
                if c == full:
                    continue
                idx = suit_index(combined, c)
                assert idx % 2 == 0
                if len(set(c.support()) & supp) % 2 == 1:
                    assert idx == 0
        assert found >= 10


class TestZnaki:
    def test_signed_class_sum_vanishes_for_space_suits(self, rng):
        for _ in range(20):
            suit = random_suit_for_space(S33, rng)
            # all members have full support, hence maximal support
            c = rng.choice(suit.boxes)
            assert signed_class_sum(suit.boxes, c) == 0

    def test_with_improper_members(self, rng):
        # merge one twin pair to get a suit for X with an improper member
        for _ in range(20):
            boxes = list(random_suit_for_space(S33, rng).boxes)
            merged = None
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    from polybox import is_twin_pair

                    if is_twin_pair(boxes[i], boxes[j]):
                        merged = (i, j)
                        break
                if merged:
                    break
            assert merged is not None
            i, j = merged
            a, b = boxes[i], boxes[j]
            factors = tuple(
                am | bm for am, bm in zip(a.factors, b.factors)
            )
            union_box = Box(S33, factors)
            rest = [boxes[k] for k in range(len(boxes)) if k not in (i, j)]
            suit = verify_suit(rest + [union_box])
            proper_members = [x for x in suit.boxes if x.is_proper]
            if not proper_members:
                continue
            c = max(proper_members, key=lambda x: len(x.support()))
            assert len(c.support()) == max(
                len(x.support()) for x in suit.boxes
            )
            assert signed_class_sum(suit.boxes, c) == 0


class TestWiezaStructure:
    def test_odd_index_sets_are_empty_or_large(self, rng):
        # fuzz the structure theorem on random polyboxes in a 3-cube
        for _ in range(10):
            suit = random_proper_suit(S333, rng)
            reps = list(index_representatives(S333))
            parity = {c: suit_index(suit, c) % 2 for c in reps}
            for size in (2, 3):
                for subset in itertools.combinations(range(3), size):
                    hypothesis_ok = all(
                        parity[c] == 0
                        for c in reps
                        if set(c.support()) < set(subset)
                        and len(c.support()) == size - 1
                    )
                    if not hypothesis_ok:
                        continue
                    odd = [
                        c
                        for c in reps
                        if c.support() == subset and parity[c] == 1
                    ]
                    assert len(odd) == 0 or len(odd) >= 1 << size
                    if odd:
                        assert size < 3
                        for c in odd:
                            assert any(
                                all(
                                    d.factors[i] != c.factors[i]
                                    and d.factors[i]
                                    != S333.full_masks[i] ^ c.factors[i]
                                    for i in subset
                                )
                                for d in odd
                            )
