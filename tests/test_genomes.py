from __future__ import annotations

import itertools

import pytest
from polybox import (
    Alphabet,
    BoxSpace,
    GenomeSet,
    STAR,
    covers,
    genome_canonical,
    genomes_equivalent,
    induced_decomposition,
    reconstruct_minus,
    rigidity_witness,
    word_expand,
    word_index,
)
from polybox.errors import (
    GSumExceeds2d,
    InconsistentOrientation,
    NotDichotomous,
    NotUnique,
    SpaceMismatch,
    TheoremViolation,
)
from generate import (
    letter_names,
    mutate_genome,
    random_alphabet,
    random_genome,
    random_word,
)
from polybox.genomes import (
    _overlap,
    epsilon_between,
    equivalent_by_cover,
    words_dichotomous,
)
from polybox.oracle import (
    e_realization,
    e_realization_covers,
    e_realization_covers_points,
    random_realization_check,
)

AB = Alphabet(letter_names(2))  # a/a', b/b'
ABCD = Alphabet(letter_names(4))


def genome(alphabet, d, *words):
    return GenomeSet(alphabet, d, tuple(tuple(w) for w in words))


class TestAlphabet:
    def test_complement_is_an_involution(self):
        assert AB.complement("a") == "a'"
        assert AB.complement("a'") == "a"

    def test_rejects_duplicates_and_star(self):
        with pytest.raises(ValueError):
            Alphabet((("a", "a"),))
        with pytest.raises(ValueError):
            Alphabet((("*", "x"),))

    def test_every_route_names_the_first_foreign_letter(self):
        w = genome(AB, 2, ("a", "b"), ("a'", "b"))
        routes = [
            lambda: AB.encode(("a", "x", "y")),
            # the first bad word decides, whether its length or a letter is bad
            lambda: genome(AB, 2, ("a", "b"), ("x", "b"), ("a",)),
            lambda: word_expand(AB, ("a", "x", "y")),
            # a bad letter is reported before a wrong length
            lambda: covers(("a", "x", "y"), w),
            lambda: rigidity_witness(w, ("x", "b")),
            lambda: reconstruct_minus(w, universe=Alphabet((("a", "a'"), ("x", "x'")))),
            lambda: e_realization(AB, ("a", "x", "y")),
            lambda: random_realization_check(("x", "b"), w, BoxSpace((3, 3)), 0),
        ]
        for route in routes:
            with pytest.raises(ValueError, match=r"^letter '[xb]' not in the alphabet$"):
                route()
        with pytest.raises(ValueError, match="does not have length 2"):
            genome(AB, 2, ("a", "b"), ("a",), ("x", "b"))


class TestWordPairs:
    def test_words_of_two_lengths_are_refused(self):
        # the kernel's map/zip would stop at the shorter word: True and (0,)
        for route in (words_dichotomous, epsilon_between):
            with pytest.raises(ValueError, match="^words of lengths 2 and 1$"):
                route(AB, ("a", "b"), ("a'",))
            with pytest.raises(ValueError, match="^words of lengths 1 and 2$"):
                route(AB, ("a",), ("a", "b"))
        assert words_dichotomous(AB, ("a", "b"), ("a'", "b"))
        assert epsilon_between(AB, ("a", "b"), ("a'", "b")) == (1, 0)


class TestGenomeValidation:
    def test_rejects_non_dichotomous_words(self):
        with pytest.raises(NotDichotomous):
            genome(ABCD, 2, ("a", "b"), ("a", "c"))
        genome(AB, 2, ("a", "b"), ("a'", "b"))

    def test_rejects_duplicate_words(self):
        with pytest.raises(NotDichotomous):
            genome(AB, 1, ("a",), ("a",))


class TestWordExpand:
    def test_positive_word_is_one_monomial(self):
        cf = word_expand(AB, ("a", "b"))
        assert cf.coeffs == {("a", "b"): 1}

    def test_single_negative_letter(self):
        cf = word_expand(AB, ("a'", "b"))
        assert cf.coeffs == {(STAR, "b"): 1, ("a", "b"): -1}

    def test_two_negative_letters(self):
        cf = word_expand(AB, ("a'", "b'"))
        assert cf.coeffs == {
            (STAR, STAR): 1,
            (STAR, "b"): -1,
            ("a", STAR): -1,
            ("a", "b"): 1,
        }


class TestGenomeCanonical:
    def test_complement_pair_is_star(self):
        w = genome(AB, 1, ("a",), ("a'",))
        assert genome_canonical(w).coeffs == {(STAR,): 1}

    def test_two_whole_space_genomes_are_equivalent(self):
        w = genome(AB, 1, ("a",), ("a'",))
        v = genome(AB, 1, ("b",), ("b'",))
        assert genome_canonical(v).coeffs == {(STAR,): 1}
        assert genomes_equivalent(v, w)
        # oracle route agrees
        for word in v.words:
            assert e_realization_covers(word, w)

    def test_size_bound(self, rng):
        for _ in range(20):
            g = random_genome(ABCD, 2, rng)
            assert len(genome_canonical(g).coeffs) <= len(g) * 4


class TestWordIndex:
    def test_all_star_counts_members(self, rng):
        g = random_genome(ABCD, 3, rng)
        assert word_index(g, (STAR,) * 3) == len(g)

    def test_one_dimensional_cancellation(self):
        w = genome(AB, 1, ("a",), ("a'",))
        assert word_index(w, ("a",)) == 1 + (-1) == 0

    def test_member_scores(self):
        w = genome(AB, 2, ("a", "b"), ("a'", "b"))
        assert word_index(w, ("a", "b")) == 0  # 1 + (-1)


class TestCovers:
    def test_member_is_covered_in_full_genome(self):
        w = genome(AB, 1, ("a",), ("a'",))
        assert covers(("a",), w).covered

    def test_foreign_letter_covered_by_complement_pair(self):
        w = genome(AB, 1, ("b",), ("b'",))
        result = covers(("a",), w)
        assert result.covered and result.g_sum == 2
        assert e_realization_covers(("a",), w)
        assert e_realization_covers_points(("a",), w)

    def test_single_complement_does_not_cover(self):
        w = genome(AB, 1, ("a'",))
        result = covers(("a",), w)
        assert not result.covered and result.g_sum == 0

    def test_overlap_above_2d_is_a_theorem_violation(self):
        # a word twice is no genome: each copy overlaps it in 2^2
        with pytest.raises(GSumExceeds2d, match="overlap sum 8 exceeds 4") as info:
            _overlap((3, 5), [(3, 5), (3, 5)])
        assert isinstance(info.value, TheoremViolation)
        assert info.value.code == "GSumExceeds2d"

    def test_g_sum_bound_and_oracle_agreement(self, rng):
        for _ in range(300):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            v = random_word(alphabet, d, rng)
            result = covers(v, w)
            assert result.g_sum <= 1 << d
            assert result.covered == e_realization_covers(v, w)

    def test_random_realizations_corroborate(self, rng):
        space = BoxSpace((3, 3))
        hits = 0
        for trial in range(60):
            alphabet = random_alphabet(rng, max_pairs=2)
            d = 2
            w = random_genome(alphabet, d, rng, size=rng.randint(1, 4))
            v = random_word(alphabet, d, rng)
            verdict = covers(v, w).covered
            if verdict:
                # covered words are inside every realization's union
                assert random_realization_check(v, w, space, seed=trial)
                hits += 1
        assert hits > 0

    def test_non_covered_word_refuted_by_some_realization(self, rng):
        w = genome(AB, 1, ("a'",))
        assert not any(
            random_realization_check(("a",), w, BoxSpace((4,)), seed=s)
            for s in range(8)
        )


class TestStoliczek:
    def test_full_size_genomes_cover_everything(self, rng):
        for _ in range(30):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            w = random_genome(alphabet, d, rng, size=1 << d)
            per_position = [w.occurring_letters(i) for i in range(d)]
            for v in itertools.product(*per_position):
                assert covers(v, w).covered


class TestEquivalence:
    def test_reflexive(self, rng):
        g = random_genome(ABCD, 2, rng)
        assert genomes_equivalent(g, g)

    def test_one_dimensional_whole_spaces(self):
        v = genome(AB, 1, ("a",), ("a'",))
        w = genome(AB, 1, ("b",), ("b'",))
        assert genomes_equivalent(v, w)

    def test_two_dimensional_counterexample(self):
        v = genome(AB, 2, ("a", "b"), ("a'", "b"))
        w = genome(AB, 2, ("a", "b"), ("a'", "b'"))
        assert not genomes_equivalent(v, w)

    def test_mutations_preserve_equivalence(self, rng):
        for _ in range(40):
            alphabet = random_alphabet(rng, max_pairs=4)
            d = rng.randint(1, 3)
            first = random_genome(alphabet, d, rng)
            second = mutate_genome(first, rng, moves=4)
            assert genomes_equivalent(first, second)

    def test_routes_agree_on_random_pairs(self, rng):
        for _ in range(120):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            v = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            genomes_equivalent(v, w)  # raises CriteriaDisagree on any split

    def test_alphabet_mismatch(self):
        v = genome(AB, 1, ("a",))
        w = genome(ABCD, 1, ("a",))
        with pytest.raises(SpaceMismatch):
            genomes_equivalent(v, w)

    def test_cover_route_matches_all_words_route(self, rng):
        def all_words(v, w):
            """Every word of each genome checked against the other."""
            return (
                len(v) == len(w)
                and all(covers(x, w).covered for x in v.words)
                and all(covers(x, v).covered for x in w.words)
            )

        def without_one(g):
            words = list(g.words)
            del words[rng.randrange(len(words))]
            return GenomeSet(g.alphabet, g.d, tuple(words))

        verdicts = []
        for k in range(600):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 4)
            v = random_genome(alphabet, d, rng, size=rng.randint(2, 1 << d))
            if k % 3 == 0:
                w = mutate_genome(v, rng, moves=rng.randint(0, 2))
            elif k % 3 == 1:  # most words shared, verdict either way
                w = without_one(mutate_genome(v, rng, moves=1))
                v = without_one(v)
            else:
                w = random_genome(alphabet, d, rng, size=len(v))
            verdict = equivalent_by_cover(v, w)
            assert verdict == all_words(v, w)
            verdicts.append(verdict)
        assert 250 <= sum(verdicts) <= 450

    def test_overlap_over_the_unshared_words_only(self, rng):
        # the cover route sums a word of v missing from w over the words of
        # w missing from v: each shared word is in v, so dichotomous to it
        sums = 0
        for k in range(300):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 4)
            v = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            if k % 2:
                w = mutate_genome(v, rng, moves=rng.randint(1, 3))
            else:
                w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            for x, y in ((v, w), (w, v)):
                unshared = [c for c in y.codes if c not in x.codes]
                for c in x.codes:
                    if c not in y.codes:
                        assert _overlap(c, unshared) == _overlap(c, y.codes)
                        sums += len(unshared) < len(y.codes)
        assert sums >= 200


class TestRigidityWitness:
    def test_one_dimensional_witness(self):
        w = genome(AB, 1, ("a",), ("a'",))
        assert rigidity_witness(w, ("b",)) == ("a",)

    def test_twin_pair_witness(self, rng):
        for _ in range(20):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            w = random_genome(alphabet, d, rng, size=1 << d)
            v = random_word(alphabet, d, rng)
            if v in w.words:
                continue
            assert covers(v, w).covered
            u = rigidity_witness(w, v)
            assert u in w.words

    def test_requires_covered_word(self):
        w = genome(AB, 1, ("a'",))
        with pytest.raises(ValueError):
            rigidity_witness(w, ("a",))


class TestInducedDecomposition:
    def test_one_dimensional(self):
        w = genome(AB, 1, ("a",), ("a'",))
        plus, minus = induced_decomposition(w, {("a",): 1, ("a'",): -1})
        assert plus.words == (("a",),)
        assert minus.words == (("a'",),)

    def test_same_class_parity_enforced(self):
        w = genome(AB, 2, ("a", "b"), ("a'", "b"))
        with pytest.raises(InconsistentOrientation):
            induced_decomposition(
                w, {("a", "b"): 1, ("a'", "b"): 1}
            )

    def test_missing_sign_rejected(self):
        w = genome(AB, 1, ("a",), ("a'",))
        with pytest.raises(InconsistentOrientation):
            induced_decomposition(w, {("a",): 1})

    def test_plus_may_be_whole_genome(self):
        # no two members share a class: any signs are consistent
        w = genome(ABCD, 2, ("a", "b"), ("a'", "c"))
        plus, minus = induced_decomposition(
            w, {("a", "b"): 1, ("a'", "c"): 1}
        )
        assert plus.words == w.words and len(minus) == 0


class TestRikitikigenom:
    def test_plus_half_inside_equivalent_genome_forces_equality(self, rng):
        checked = 0
        for _ in range(200):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            w = random_genome(alphabet, d, rng, size=1 << d)
            v = mutate_genome(w, rng, moves=2)
            assert genomes_equivalent(w, v)
            # orient each class at random, consistently
            signs = {}
            for word in w.words:
                if word in signs:
                    continue
                sign = rng.choice((1, -1))
                from polybox.genomes import epsilon_between

                for other in w.words:
                    eps = epsilon_between(alphabet, word, other)
                    if eps is not None:
                        signs[other] = sign * (-1) ** sum(eps)
            plus, _ = induced_decomposition(w, signs)
            if set(plus.words) <= set(v.words):
                checked += 1
                assert set(v.words) == set(w.words)
        assert checked > 0


class TestReconstructMinus:
    def test_one_dimensional(self):
        fragment = genome(AB, 1, ("a",))
        minus = reconstruct_minus(fragment)
        assert minus.words == (("a'",),)

    def test_full_genome_has_empty_minus(self):
        w = genome(AB, 1, ("a",), ("a'",))
        assert reconstruct_minus(w).words == ()

    def test_universe_must_contain_fragment_letters(self):
        fragment = genome(AB, 2, ("a", "b"))
        with pytest.raises(ValueError):
            reconstruct_minus(fragment, universe=Alphabet((("a", "a'"),)))

    def test_repaired_universe_breaks_the_members(self):
        # a and a' complement each other in the fragment's alphabet but not in
        # a universe pairing a with b, where the two members are not dichotomous
        fragment = genome(AB, 1, ("a",), ("a'",))
        universe = Alphabet((("a", "b"), ("a'", "b'")))
        with pytest.raises(NotUnique, match="do not extend"):
            reconstruct_minus(fragment, universe=universe)

    def test_wider_universe_changes_nothing(self):
        # extra pairs never occur in the fragment, so they cannot serve
        # dichotomy and drop out of the per-position candidate sets
        fragment = genome(AB, 2, ("a", "b"))
        wide = reconstruct_minus(fragment, universe=ABCD)
        narrow = reconstruct_minus(fragment)
        assert set(wide.words) == set(narrow.words)

    def test_roundtrip_with_decomposition(self, rng):
        for _ in range(50):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 3)
            w = random_genome(alphabet, d, rng, size=1 << d)
            signs = {}
            from polybox.genomes import epsilon_between

            for word in w.words:
                if word in signs:
                    continue
                sign = rng.choice((1, -1))
                for other in w.words:
                    eps = epsilon_between(alphabet, word, other)
                    if eps is not None:
                        signs[other] = sign * (-1) ** sum(eps)
            plus, minus = induced_decomposition(w, signs)
            if not plus.words:
                continue
            got = reconstruct_minus(plus)
            assert set(got.words) == set(minus.words)
