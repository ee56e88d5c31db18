from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest
import polybox.oracle
from polybox import (
    STAR,
    Alphabet,
    Box,
    BoxSpace,
    GenomeSet,
    PointSet,
    box_number,
    covers,
    epsilon_of,
    is_dichotomous,
    is_twin_pair,
    suit_index,
    union_points,
    verify_suit,
    word_index,
)
from polybox.errors import BudgetExceeded, SpaceMismatch
from generate import letter_names, random_proper_suit, random_suit_for_space
from polybox.oracle import points_equal
from helpers import (
    Realization,
    e_realization,
    e_realization_covers,
    e_realization_covers_points,
    enumerate_min_partitions,
    exhaustive_min_partition,
    random_exact_realization,
    selection_mask,
)


def bx(dims, *sets):
    return Box.from_sets(BoxSpace(tuple(dims)), [set(s) for s in sets])


S33 = BoxSpace((3, 3))
AB = Alphabet(letter_names(2))


class TestPointsEqual:
    def test_reflexive(self, rng):
        s = random_proper_suit(S33, rng)
        assert points_equal(s, s)

    def test_two_suits_for_space(self, rng):
        assert points_equal(
            random_suit_for_space(S33, rng), random_suit_for_space(S33, rng)
        )

    def test_different_singletons(self):
        f = verify_suit([bx([3, 3], {0}, {0})])
        g = verify_suit([bx([3, 3], {0}, {1})])
        assert not points_equal(f, g)

    def test_spaces_must_match(self):
        # one box [[0],[0]]: the same points in 3x3 and in 3x4
        f = verify_suit([bx([3, 3], {0}, {0})])
        g = verify_suit([bx([3, 4], {0}, {0})])
        for a, b in ((f, g), (g, f)):
            with pytest.raises(SpaceMismatch, match="^suits live in different spaces$"):
                points_equal(a, b)

    def test_budget(self, rng):
        space = BoxSpace((5,) * 5)
        f = verify_suit([Box(space, (1,) * 5)])
        with pytest.raises(BudgetExceeded):
            points_equal(f, f)


class TestMinPartition:
    def test_whole_space_needs_two_to_the_d(self):
        assert exhaustive_min_partition(PointSet.full(S33)) == 4

    def test_one_dimensional_space(self):
        g = PointSet(BoxSpace((3,)), frozenset({(0,), (1,), (2,)}))
        assert exhaustive_min_partition(g) == 2

    def test_non_dichotomous_singletons(self):
        g = PointSet(S33, frozenset({(0, 0), (1, 1)}))
        assert exhaustive_min_partition(g) == 2
        assert box_number(g) < 2  # proves g is not a polybox

    def test_empty(self):
        assert exhaustive_min_partition(PointSet(S33, frozenset())) == 0

    def test_matches_suit_size_on_polyboxes(self, rng):
        for _ in range(15):
            suit = random_proper_suit(S33, rng)
            g = union_points(suit)
            assert exhaustive_min_partition(g) == len(suit)

    def test_strictly_exceeds_box_number_off_polyboxes(self, rng):
        from polybox import is_polybox

        seen = 0
        for _ in range(200):
            members = frozenset(p for p in S33.points() if rng.random() < 0.4)
            if not members:
                continue
            g = PointSet(S33, members)
            minimum = exhaustive_min_partition(g)
            b0 = box_number(g)
            if is_polybox(g):
                assert minimum == b0
            else:
                seen += 1
                assert minimum > b0
        assert seen > 20

    def test_enumerates_all_minimal_partitions(self):
        g = PointSet(BoxSpace((3,)), frozenset({(0,), (1,), (2,)}))
        partitions = enumerate_min_partitions(g)
        # exactly the three twin splits of a 3-element factor
        assert len(partitions) == 3
        for parts in partitions:
            assert len(parts) == 2
            verify_suit(parts)


class TestSelectionSpace:
    def test_letter_mask_is_half_of_selections(self):
        m = len(AB.pairs)
        for letter in AB.letters():
            assert selection_mask(AB, letter).bit_count() == 1 << (m - 1)

    def test_complementary_masks_partition_selections(self):
        full = (1 << (1 << len(AB.pairs))) - 1
        for pos, neg in AB.pairs:
            a = selection_mask(AB, pos)
            b = selection_mask(AB, neg)
            assert a & b == 0 and a | b == full

    def test_single_pair_realization(self):
        one = Alphabet(letter_names(1))
        (mask,) = e_realization(one, ("a",))
        assert mask.bit_count() == 1

    def test_independent_letters_intersect_by_halving(self):
        # |Es1 & ... & Esn| = |E(S)| / 2^n for pairwise unrelated letters
        four = Alphabet(letter_names(4))
        letters = ["a", "b'", "c", "d'"]
        total = 1 << len(four.pairs)
        acc = (1 << total) - 1
        for n, s in enumerate(letters, start=1):
            acc &= selection_mask(four, s)
            assert acc.bit_count() == total >> n

    def test_pair_budget(self):
        big = Alphabet(letter_names(20))
        with pytest.raises(BudgetExceeded):
            e_realization(big, ("a",))

    def test_mask_and_point_routes_agree(self, rng):
        from generate import random_alphabet, random_genome, random_word

        for _ in range(100):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 2)
            w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            v = random_word(alphabet, d, rng)
            assert e_realization_covers(v, w) == e_realization_covers_points(v, w)

    @pytest.mark.parametrize("word", [("a",), ("a", "a", "a")])
    def test_word_of_wrong_length_is_refused(self, word):
        # as genomes.covers refuses it, on both oracle routes
        one = Alphabet(letter_names(1))
        genome = GenomeSet(one, 2, tuple(itertools.product(("a", "a'"), repeat=2)))
        for route in (covers, e_realization_covers, e_realization_covers_points):
            with pytest.raises(ValueError, match="^word has wrong length$"):
                route(word, genome)


class TestRealizations:
    def test_exact_realization_respects_complements(self, rng):
        realization = random_exact_realization(AB, S33, rng)
        for i in range(S33.d):
            full = S33.full_masks[i]
            table = realization.factor_maps[i]
            for pos, neg in AB.pairs:
                assert table[pos] ^ table[neg] == full

    def test_realized_genome_is_a_proper_suit(self, rng):
        genome = GenomeSet(AB, 2, (("a", "b"), ("a'", "b'")))
        realization = random_exact_realization(AB, S33, rng)
        suit = verify_suit(realization.realize(genome), require_proper=True)
        assert len(suit) == 2

    def test_rejects_too_many_pairs_for_small_factors(self, rng):
        five = Alphabet(letter_names(5))
        with pytest.raises(BudgetExceeded):
            random_exact_realization(five, BoxSpace((3, 3)), rng)

    def test_word_routes_match_the_realized_suit(self, rng):
        # An exact realization keeps letter pairs apart, so every word-layer
        # answer must equal the box-layer answer on the realized boxes.
        from generate import random_alphabet, random_genome, random_word, twin_pairs
        from polybox.genomes import epsilon_between, words_dichotomous

        for _ in range(40):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            space = BoxSpace((4,) * d)
            genome = random_genome(alphabet, d, rng)
            realization = random_exact_realization(alphabet, space, rng)
            suit = verify_suit(realization.realize(genome), require_proper=True)
            words = list(genome.words) + [
                random_word(alphabet, d, rng) for _ in range(4)
            ]
            boxes = [realization.realize_word(w) for w in words]
            for (v, a), (w, b) in itertools.product(zip(words, boxes), repeat=2):
                assert words_dichotomous(alphabet, v, w) == is_dichotomous(a, b)
                assert epsilon_between(alphabet, v, w) == epsilon_of(a, b)
            codes = [alphabet.encode(w) for w in words]
            assert {(i, j) for i, j, _ in twin_pairs(codes, (1,) * d)} == {
                (i, j)
                for i, j in itertools.combinations(range(len(words)), 2)
                if is_twin_pair(boxes[i], boxes[j])
            }
            per_position = [(STAR,) + alphabet.letters()] * d
            for u in itertools.product(*per_position):
                c = Box(space, tuple(
                    space.full_masks[i] if s == STAR else realization.factor_maps[i][s]
                    for i, s in enumerate(u)
                ))
                assert word_index(genome, u) == suit_index(suit, c)

    def test_validation_catches_broken_complements(self):
        with pytest.raises(ValueError):
            Realization(
                AB,
                BoxSpace((3,)),
                ({"a": 0b001, "a'": 0b010, "b": 0b011, "b'": 0b100},),
            )


def imported_names(path):
    """Every dotted part of every name that the module's imports name."""
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        for name in names:
            yield from name.split(".")


def test_oracle_does_not_import_the_word_kernel():
    # the references must share no decision route with the code they check
    for path in (polybox.oracle.__file__, Path(__file__).parent / "helpers.py"):
        assert "words" not in set(imported_names(path)), path


def test_the_package_ships_the_point_oracle_alone():
    # the package imports no test module, and its oracle module holds the
    # one reference that `equiv` runs; the others live in tests/helpers.py
    package = Path(polybox.oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert not {"helpers", "generate"} & set(imported_names(path)), path.name
    tree = ast.parse(Path(polybox.oracle.__file__).read_text())
    public = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    assert public == ["points_equal"]
