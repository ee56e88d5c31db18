from __future__ import annotations

import random
from collections import Counter

import pytest
from polybox import (
    Box,
    BoxSpace,
    canonical_form,
    is_twin_pair,
    polybox_equal_by_index,
    project_box,
    simple_suit,
    suit_index,
    suits_equivalent,
    verify_suit,
)
from polybox import words as kernel
from polybox.canon import CanonicalForm, same_polybox
from polybox.errors import (
    BudgetExceeded,
    PolyboxError,
    SpaceMismatch,
    run_with_budget,
)
from generate import (
    distinct_suit_pair,
    mutate_suit,
    random_proper_suit,
    random_space,
    random_suit_for_space,
    twin_pairs,
)
from polybox.oracle import points_equal


def bx(dims, *sets):
    return Box.from_sets(BoxSpace(tuple(dims)), [set(s) for s in sets])


S3 = BoxSpace((3,))
S33 = BoxSpace((3, 3))


class TestProjectBox:
    def test_subset_without_zero_becomes_difference(self):
        cf = project_box(bx([3], {1, 2}))
        assert cf.coeffs == {(0b111,): 1, (0b001,): -1}

    def test_basis_box_projects_to_itself(self):
        cf = project_box(bx([3], {0, 1}))
        assert cf.coeffs == {(0b011,): 1}

    def test_two_factor_distribution(self):
        # hand expansion: (X1 - {0}) x (X2 - {0,2})
        cf = project_box(bx([3, 3], {1, 2}, {1}))
        assert cf.coeffs == {
            (0b111, 0b111): 1,
            (0b111, 0b101): -1,
            (0b001, 0b111): -1,
            (0b001, 0b101): 1,
        }

    def test_rejects_improper_boxes(self):
        with pytest.raises(ValueError):
            project_box(bx([3], {0, 1, 2}))


class TestCanonicalForm:
    def test_twin_pair_cancels_to_full_factor(self):
        suit = verify_suit([bx([3], {0}), bx([3], {1, 2})])
        assert canonical_form(suit).coeffs == {(0b111,): 1}

    def test_every_suit_for_space_gives_the_space(self, rng):
        suit = verify_suit(simple_suit(bx([3, 3], {0}, {0})))
        assert canonical_form(suit).coeffs == {(0b111, 0b111): 1}
        for _ in range(10):
            from generate import random_suit_for_space

            suit = random_suit_for_space(S33, rng)
            assert canonical_form(suit).coeffs == {(0b111, 0b111): 1}

    def test_same_polybox_same_map(self, rng):
        for _ in range(10):
            pair = distinct_suit_pair(S33, rng)
            if pair is None:
                continue
            f, g = pair
            assert canonical_form(f) == canonical_form(g)

    def test_size_bound(self, rng):
        for _ in range(20):
            suit = random_proper_suit(S33, rng)
            cf = canonical_form(suit)
            assert len(cf.coeffs) <= len(suit) * (1 << S33.d)

    def test_sorted_items_are_sorted(self, rng):
        suit = random_proper_suit(S33, rng)
        items = canonical_form(suit).sorted_items()
        assert items == sorted(items)


class TestTwinKernel:
    def test_twin_pairs_with_equal_union_project_equally(self, rng):
        # all complementary splits of one unioned box give the same sum
        for _ in range(20):
            space = random_space(rng, max_d=2, dim_choices=(3, 4))
            i = rng.randrange(space.d)
            full = space.full_masks[i]
            rest = [
                rng.randrange(1, space.full_masks[j])
                for j in range(space.d)
                if j != i
            ]

            def pair_sum(split):
                fa = list(rest)
                fa.insert(i, split)
                fb = list(rest)
                fb.insert(i, full ^ split)
                a, b = Box(space, tuple(fa)), Box(space, tuple(fb))
                assert is_twin_pair(a, b)
                out: dict = {}
                for cf in (project_box(a), project_box(b)):
                    for k, v in cf.coeffs.items():
                        out[k] = out.get(k, 0) + v
                return {k: v for k, v in out.items() if v}

            splits = [m for m in range(1, full)]
            reference = pair_sum(splits[0])
            for split in splits[1:]:
                assert pair_sum(split) == reference


class TestSuitsEquivalent:
    def test_reflexive(self, rng):
        suit = random_proper_suit(S33, rng)
        assert suits_equivalent(suit, suit)

    def test_two_suits_for_space(self, rng):
        from generate import random_suit_for_space

        f = random_suit_for_space(S33, rng)
        g = random_suit_for_space(S33, rng)
        assert points_equal(f, g)
        assert suits_equivalent(f, g)

    def test_different_unions_differ(self, rng):
        for _ in range(20):
            f = random_proper_suit(S33, rng)
            g = random_proper_suit(S33, rng)
            assert suits_equivalent(f, g) == points_equal(f, g)

    def test_space_mismatch(self, rng):
        f = random_proper_suit(S33, rng)
        g = random_proper_suit(BoxSpace((3, 4)), rng)
        with pytest.raises(SpaceMismatch):
            suits_equivalent(f, g)


class TestAgreementWithIndexCriterion:
    def test_three_routes_agree_on_random_pairs(self, rng):
        # 50 independent pairs with d <= 3, then 2,000 with d <= 4 in which
        # every other g resplits f (mutate_suit), so equal verdicts are common
        for k in range(50 + 2000):
            space = random_space(rng, max_d=3 if k < 50 else 4, dim_choices=(2, 3, 4))
            f = random_proper_suit(space, rng, max_size=1 << space.d)
            if k >= 50 and k % 2 == 0:
                g = mutate_suit(f, rng, moves=3)
            else:
                g = random_proper_suit(space, rng, max_size=1 << space.d)
            canon = suits_equivalent(f, g)
            index = polybox_equal_by_index(f, g)
            oracle = points_equal(f, g)
            assert canon == index == oracle


def with_improper_box(s, rng):
    """s with a random twin pair glued into one box holding the full factor
    at their twin position, or s itself without twins; the union stays."""
    flip = s.space.full_masks
    words = [a.factors for a in s.boxes]
    twins = twin_pairs(words, flip)
    if not twins:
        return s
    i, j, c = rng.choice(twins)
    glued = list(words[i])
    glued[c] = flip[c]
    rest = [w for k, w in enumerate(words) if k not in (i, j)]
    return verify_suit([Box(s.space, w) for w in rest + [tuple(glued)]])


class TestSamePolybox:
    def test_both_criteria_at_once_match_the_public_calls(self, monkeypatch):
        # same_polybox cancels and glues once for both criteria; its verdicts,
        # or the first error and its message, must be what suits_equivalent
        # and polybox_equal_by_index give, at every budget up to one bit past
        # what the larger suit's expansion with stars needs
        glued = []
        glue = kernel._glue

        def counted(words, flip):
            glued.append(words)
            return glue(words, flip)

        def outcome(budget, fn):
            try:
                return run_with_budget(budget, fn)
            except (PolyboxError, ValueError) as exc:
                return type(exc).__name__, str(exc)

        monkeypatch.setattr(kernel, "_glue", counted)
        rng = random.Random(83)
        seen = Counter()
        for k in range(300):
            space = random_space(rng, max_d=4 if k % 3 == 0 else 3)
            f = random_proper_suit(space, rng)
            if k % 2:
                g = mutate_suit(f, rng, moves=rng.randint(1, 4))
            else:
                g = random_proper_suit(space, rng)
            if k % 5 == 1:
                f = with_improper_box(f, rng)
            elif k % 5 == 2:
                g = with_improper_box(g, rng)
            elif k % 13 == 3:
                g = random_proper_suit(random_space(rng), rng)
            bits = ((max(len(f), len(g)) << space.d) - 1).bit_length()
            for a, b in ((f, g), (g, f)):
                for budget in range(bits + 2):
                    glued.clear()
                    both = outcome(budget, lambda: tuple(
                        same_polybox(a, b, (False, True))
                    ))
                    once = len(glued)
                    glued.clear()
                    each = outcome(budget, lambda: (
                        suits_equivalent(a, b), polybox_equal_by_index(a, b)
                    ))
                    assert both == each, (a, b, budget)
                    # one glue per side, where the two calls glue per criterion
                    assert once <= min(2, len(glued))
                    if each == (True, True):
                        assert 2 * once == len(glued) == 4
                    if isinstance(each[0], bool):
                        seen[each] += 1
                    elif each[0] != "BudgetExceeded":
                        seen[each[0]] += 1
                    elif isinstance(outcome(budget, lambda: suits_equivalent(a, b)), bool):
                        seen["index refused"] += 1
                    else:
                        seen["canon refused"] += 1
        assert seen["canon refused"] >= 1000 and seen["index refused"] >= 200
        assert seen[True, True] >= 300 and seen[False, False] >= 250
        assert seen["ValueError"] >= 600 and seen["SpaceMismatch"] >= 100

    def test_improper_g_is_refused_before_f_over_the_budget(self, rng):
        # properness of both suits comes before either budget check
        f = random_suit_for_space(S33, rng)
        g = verify_suit([Box(S33, S33.full_masks)])
        for route in (suits_equivalent, polybox_equal_by_index):
            with pytest.raises(ValueError, match="^suit holds an improper box$"):
                run_with_budget(0, route, f, g)
            with pytest.raises(BudgetExceeded):
                run_with_budget(0, route, f, f)

    def test_one_text_for_an_improper_suit(self):
        g = verify_suit([Box(S33, S33.full_masks)])
        for refuse in (
            lambda: canonical_form(g),
            lambda: suit_index(g, Box(S33, (1, 1))),
            lambda: same_polybox(g, g, (False, True)),
        ):
            with pytest.raises(ValueError, match="^suit holds an improper box$"):
                refuse()


@pytest.mark.parametrize("coeffs, message", [
    ({(1, 1): 0}, "zero coefficients must not be stored"),
    ({(2, 7): 1}, r"\(2, 7\) is not a basis box"),  # {1} lacks element 0
    ({(1,): 1}, r"\(1,\) is not a basis box"),
], ids=["zero", "not_basis", "length"])
def test_canonical_form_refuses(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CanonicalForm(BoxSpace((3, 3)), coeffs)
