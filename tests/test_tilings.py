"""Tilings against plain routes kept here as references.

`reference_intern` is the row-by-row `_intern` that remembered only parsed
strings and interned values; the current one also keeps each value's letter
by the id() of its Fraction within a call, and resolves known rows at once.
`cubes_dichotomous` is the Fraction dichotomy test the chess-board check
made before it decided on kernel words.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from polybox import (
    chessboard_check,
    covers,
    decompose,
    generate_two_extremal,
    is_two_extremal,
    reconstruct,
    tiling_verify,
)
from polybox.errors import (
    CoordOutOfRange,
    NotDichotomous,
    NotTwoExtremal,
    WrongCount,
)
from polybox import words as kernel
from polybox import tilings
from polybox.tilings import (
    ChessboardResult,
    ExtremalDecomposition,
    ExtremalityResult,
    TorusTiling,
    _intern,
    _shown,
)
from helpers import tiling_genome

F = Fraction


def cube(*coords):
    return tuple(F(x) for x in coords)


EXAMPLE = [cube(0, 0), cube(1, 0), cube(F(1, 2), 1), cube(F(3, 2), 1)]


def cubes_dichotomous(a, b) -> bool:
    """True when some coordinate pair differs by 1 mod 2."""
    return any((x - y) % 2 == 1 for x, y in zip(a, b))


def reference_intern(rows):
    """_intern as it was before its per-call letter memo: each row is parsed
    whole, then each value is range-checked and interned."""
    parsed = {}
    pairs = {}
    seen = {}
    cubes = []
    words = []
    for row in rows:
        cube_ = tuple(
            x if type(x) is F else parsed.setdefault(x, F(x)) if type(x) is str else F(x)
            for x in row
        )
        word = []
        for x in cube_:
            p, q = x.numerator, x.denominator
            letter = seen.get((p, q))
            if letter is None:
                if not 0 <= p < 2 * q:
                    raise CoordOutOfRange(f"coordinate {_shown(x)} outside [0, 2)")
                k = pairs.setdefault((p % q, q), len(pairs))
                letter = seen[p, q] = 2 * k + 3 - p // q
            word.append(letter)
        cubes.append(cube_)
        words.append(tuple(word))
    return cubes, words, list(pairs)


def intern_outcome(fn, rows):
    try:
        return fn(rows)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


GOOD = ["0", "1", "1/2", "3/2", "1/3", "4/3", "5/3", "0.25", "1.75", "2/4"]
BAD = ["5", "-1/2", "2", "1/0", "x"]


class TestIntern:
    def test_matches_the_reference(self):
        rng = random.Random(61)
        failed = 0
        for _ in range(1500):
            d = rng.randint(1, 4)
            good = rng.sample(GOOD, rng.randint(1, len(GOOD)))
            shared = {x: F(x) for x in good}
            kind = rng.randrange(4)
            rows = []
            for _ in range(rng.randint(1, 12)):
                texts = [rng.choice(good) for _ in range(d)]
                if kind == 0:
                    row = texts
                elif kind == 1:
                    row = [shared[x] for x in texts]
                elif kind == 2:
                    row = [F(x) for x in texts]  # fresh objects
                else:
                    row = [rng.choice((x, shared[x], F(x))) for x in texts]
                if rng.randrange(8) == 0:
                    row[rng.randrange(d)] = rng.choice((0, 1, 3, F(5, 2)))
                if rng.randrange(10) == 0:
                    row[rng.randrange(d)] = rng.choice(BAD)
                if rng.randrange(25) == 0:
                    row = ["5", "x"]
                rows.append(tuple(row) if rng.randrange(2) else row)
            expected = intern_outcome(reference_intern, rows)
            failed += type(expected[0]) is type
            assert intern_outcome(_intern, rows) == expected, rows
        assert 300 < failed < 1200

    def test_fresh_fractions_from_a_generator(self):
        # every row arrives as new Fraction objects, so no id is seen twice
        base = [cube(*c) for c in generate_two_extremal(4, 3).cubes]
        expected = reference_intern(base)
        for rows in ((tuple(F(x) for x in c) for c in base),
                     ([F(x) for x in c] for c in base)):
            assert _intern(rows) == expected

    def test_repeated_values_and_rows(self):
        shared = F(1, 3)
        rows = [(shared, shared), ("1/3", "4/3"), (shared, F(4, 3)), ["1/3", "1/3"]]
        assert _intern(rows * 3) == reference_intern(rows * 3)
        ints = [(0, 1), [1, 0], (0, 0), ["1", 1], (F(1), 0)]
        assert _intern(ints * 2) == reference_intern(ints * 2)

    def test_parse_error_comes_before_range_error(self):
        for rows in ([["5", "x"]], [["1/2"], ["5", "x"]], [(F(1, 2),), ("5", "1/0")]):
            assert intern_outcome(_intern, rows) == intern_outcome(reference_intern, rows)
        with pytest.raises(ValueError, match="Invalid literal"):
            _intern([["1/2", "1"], ["5", "x"]])


class TestVerify:
    def test_one_dimensional(self):
        t = tiling_verify([cube(0), cube(1)])
        assert t.d == 1

    def test_two_dimensional_example(self):
        t = tiling_verify(EXAMPLE)
        # independent route: all six pairs have a unit difference mod 2
        for a, b in itertools.combinations(EXAMPLE, 2):
            assert any((x - y) % 2 == 1 for x, y in zip(a, b))
        assert len(t.cubes) == 4

    def test_rejects_non_dichotomous_pair(self):
        bad = [cube(0, 0), cube(1, 0), cube(0, 1), cube(F(1, 2), 1)]
        assert any(
            not cubes_dichotomous(a, b)
            for a, b in itertools.combinations(bad, 2)
        )
        with pytest.raises(NotDichotomous):
            tiling_verify(bad)

    def test_cubes_dichotomous_matches_the_kernel_route(self, rng):
        values = [F(0), F(1, 2), F(1), F(3, 2), F(1, 3), F(4, 3), F(5, 3)]
        for _ in range(500):
            d = rng.randint(1, 4)
            a, b = (tuple(rng.choice(values) for _ in range(d)) for _ in "ab")
            v, w = _intern([a, b])[1]
            expected = kernel.dichotomous(v, w, (1,) * d)
            assert cubes_dichotomous(a, b) == expected, (a, b)

    def test_rejects_wrong_count(self):
        with pytest.raises(WrongCount):
            tiling_verify([cube(0, 0), cube(1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(CoordOutOfRange):
            tiling_verify([cube(0), cube(2)])

    def test_huge_out_of_range_coordinate(self):
        # the value has more digits than int-to-str conversion allows
        with pytest.raises(CoordOutOfRange) as info:
            tiling_verify([["1e5000"], ["0"]])
        assert "outside [0, 2)" in str(info.value)

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError, match="d >= 1"):
            tiling_verify([[]])
        with pytest.raises(ValueError, match="d >= 1"):
            TorusTiling(0, ((),))

    def test_word_layer_consistency(self, rng):
        for seed in range(10):
            t = generate_two_extremal(rng.randint(1, 3), seed)
            g = tiling_genome(t)
            assert len(g) == 1 << t.d


class TestTwoExtremal:
    def test_example_pairs(self):
        t = tiling_verify(EXAMPLE)
        result = is_two_extremal(t)
        assert result.two_extremal
        got = {frozenset((t.cubes[i], t.cubes[j])) for i, j in result.partners}
        assert got == {
            frozenset((cube(0, 0), cube(1, 0))),
            frozenset((cube(F(1, 2), 1), cube(F(3, 2), 1))),
        }

    def test_integer_grid_is_not(self):
        grid = [cube(a, b) for a in (0, 1) for b in (0, 1)]
        t = tiling_verify(grid)
        result = is_two_extremal(t)
        assert not result.two_extremal
        assert len(result.partners) == 6  # every pair is integral

    def test_one_dimensional(self):
        assert is_two_extremal(tiling_verify([cube(0), cube(1)])).two_extremal

    def test_cached_once_per_tiling(self):
        t = generate_two_extremal(3, 5)
        assert is_two_extremal(t) is t.extremality

    def test_cache_leaves_equality_hash_and_repr(self):
        t = tiling_verify([[str(x) for x in c] for c in generate_two_extremal(3, 5).cubes])
        before = repr(t), hash(t)
        is_two_extremal(t)
        assert t.rank_keys
        fresh = tiling_verify(t.cubes)
        assert "extremality" not in repr(t) and "rank_keys" not in repr(t)
        assert (repr(t), hash(t)) == before == (repr(fresh), hash(fresh))
        assert t == fresh and fresh == t


class TestRankKeys:
    def test_keys_order_words_as_cubes(self):
        # 1/3 and 4/3 share a letter pair, as do 1/2 and 3/2
        third = [cube(F(1, 3), 0), cube(F(4, 3), 0), cube(F(4, 3), 1), cube(F(1, 3), 1)]
        halves = [cube(F(1, 2), F(3, 2)), cube(F(3, 2), F(3, 2)),
                  cube(F(5, 6), F(1, 2)), cube(F(11, 6), F(1, 2))]
        examples = [tiling_verify(third), tiling_verify(halves)]
        for d, seed in itertools.product((1, 2, 3, 4), range(8)):
            examples.append(generate_two_extremal(d, seed))
        for t in examples:
            keys = t.rank_keys
            assert len(keys) == len(t.cubes)
            for i, j in itertools.product(range(len(keys)), repeat=2):
                a, b = t.cubes[i], t.cubes[j]
                assert (keys[i] < keys[j], keys[i] == keys[j]) == (a < b, a == b)

    def test_two_decompose_calls_rank_once(self, monkeypatch):
        t = tiling_verify(generate_two_extremal(4, 3).cubes)
        ranks = tilings._ranks
        calls = []

        def counted(values):
            calls.append(values)
            return ranks(values)

        monkeypatch.setattr(tilings, "_ranks", counted)
        for dec in (decompose(t), decompose(t, select="seed", seed=3)):
            assert list(dec.plus) == sorted(dec.plus)
            assert list(dec.minus) == sorted(dec.minus)
        assert len(calls) == 1


class TestDecompose:
    def test_lex_selector_on_example(self):
        dec = decompose(tiling_verify(EXAMPLE))
        assert set(dec.plus) == {cube(0, 0), cube(F(1, 2), 1)}
        assert set(dec.minus) == {cube(1, 0), cube(F(3, 2), 1)}

    def test_one_dimensional(self):
        dec = decompose(tiling_verify([cube(0), cube(1)]))
        assert dec.plus == (cube(0),) and dec.minus == (cube(1),)

    def test_seed_selector_is_deterministic(self):
        t = tiling_verify(EXAMPLE)
        a = decompose(t, select="seed", seed=5)
        b = decompose(t, select="seed", seed=5)
        assert a == b

    def test_seed_defaults_to_zero(self):
        t = generate_two_extremal(3, 2)
        halves = {decompose(t, "seed") for _ in range(9)}
        assert halves == {decompose(t, "seed", 0)}

    def test_cubes_out_of_order_give_the_same_halves(self):
        # each partner pair listed in reverse: the pairs keep their order, so
        # the seed selector draws the same side for each
        for d in range(1, 6):
            t = generate_two_extremal(d, d)
            cubes = list(t.cubes)
            for i, j in is_two_extremal(t).partners:
                cubes[i], cubes[j] = cubes[j], cubes[i]
            swapped = TorusTiling(d, tuple(cubes))
            assert swapped.cubes != t.cubes
            for select in ("lex", "seed"):
                assert decompose(swapped, select) == decompose(t, select)

    def test_rejects_non_extremal(self):
        grid = [cube(a, b) for a in (0, 1) for b in (0, 1)]
        with pytest.raises(NotTwoExtremal):
            decompose(tiling_verify(grid))

    def test_split_halves_pass_the_checks_they_skip(self):
        # decompose builds its result unchecked; checking it changes nothing
        for d in range(1, 8):
            for seed in range(4):
                cubes = generate_two_extremal(d, seed).cubes
                t = tiling_verify([[str(x) for x in c] for c in cubes])
                for select in ("lex", "seed"):
                    dec = decompose(t, select=select, seed=seed)
                    checked = ExtremalDecomposition(dec.plus, dec.minus)
                    assert checked == dec and repr(checked) == repr(dec)
                    assert type(dec.plus) is type(dec.minus) is tuple

    def test_halves_must_split_pairs(self):
        with pytest.raises(NotTwoExtremal):
            ExtremalDecomposition(
                plus=(cube(0, 0), cube(1, 0)),
                minus=(cube(F(1, 2), 1), cube(F(3, 2), 1)),
            )


class TestReconstruct:
    def test_example_minus_half(self):
        minus = reconstruct([cube(0, 0), cube(F(1, 2), 1)])
        assert set(minus) == {cube(1, 0), cube(F(3, 2), 1)}

    def test_one_dimensional(self):
        assert reconstruct([cube(0)]) == (cube(1),)

    def test_rejects_fragment_that_is_not_a_half(self):
        # a d = 3 fragment of 2 cubes once got a six-cube "minus half", and a
        # d = 22 fragment of 2 cubes searched for longer than 20 s
        for fragment in (
            [cube(0, 0, 0), cube(1, 1, 1)],
            [cube(*[0] * 22), cube(*[1] * 22)],
            [cube(0, 0), cube(F(1, 2), 1), cube(1, 1)],
        ):
            with pytest.raises(WrongCount):
                reconstruct(fragment)

    def test_roundtrip_on_generated_tilings(self):
        # rigidity: each half of a generated tiling determines the other
        for d in range(1, 10):
            for seed in range(8):
                t = generate_two_extremal(d, seed)
                for select in ("lex", "seed"):
                    dec = decompose(t, select=select, seed=seed)
                    assert reconstruct(dec.plus) == dec.minus
                    assert reconstruct(dec.minus) == dec.plus


class TestChessboard:
    def test_minus_members_pass(self):
        t = tiling_verify(EXAMPLE)
        dec = decompose(t)
        for z in dec.minus:
            result = chessboard_check(t, dec, z)
            assert result.in_minus and result.overlap is None

    def test_plus_member_overlaps_itself(self):
        t = tiling_verify(EXAMPLE)
        dec = decompose(t)
        z = dec.plus[0]
        result = chessboard_check(t, dec, z)
        assert not result.in_minus and result.overlap == z

    def test_quarter_point_overlaps(self):
        t = tiling_verify(EXAMPLE)
        dec = decompose(t)
        result = chessboard_check(t, dec, cube(F(1, 4), 0))
        assert not result.in_minus
        assert result.overlap == cube(0, 0)

    def test_normalizes_mod_two(self):
        t = tiling_verify(EXAMPLE)
        dec = decompose(t)
        z = tuple(x + 2 for x in dec.minus[0])
        assert chessboard_check(t, dec, z).in_minus

    def test_matches_the_fraction_route(self, rng):
        hits = 0
        for _ in range(300):
            t = generate_two_extremal(rng.randint(1, 5), rng.randrange(100))
            dec = decompose(t, "seed", rng.randrange(100))
            values = sorted({x for c in t.cubes for x in c})
            z = [rng.choice(values) + rng.choice((0, 2, -2)) for _ in range(t.d)]
            if rng.randrange(4) == 0:
                z[rng.randrange(t.d)] = F(rng.randrange(12), rng.randrange(1, 7))
            zc = tuple(x % 2 for x in z)
            overlap = next((c for c in dec.plus if not cubes_dichotomous(zc, c)), None)
            result = chessboard_check(t, dec, z)
            assert result == (overlap is None, overlap), (t, z)
            hits += result.in_minus
        assert 10 < hits < 290


class TestGenerator:
    def test_one_dimensional_is_translate(self):
        t = generate_two_extremal(1, 123)
        a, b = sorted(t.cubes)
        assert b[0] - a[0] == 1

    def test_deterministic_by_seed(self):
        assert generate_two_extremal(3, 9).cubes == generate_two_extremal(3, 9).cubes

    def test_batch_is_valid_and_extremal(self):
        for d in (1, 2, 3, 4):
            for seed in range(6):
                t = generate_two_extremal(d, seed)
                assert len(t.cubes) == 1 << d
                assert is_two_extremal(t).two_extremal

    def test_cover_saturation(self):
        # every word over occurring letters is covered by the tiling genome
        for seed in range(4):
            t = generate_two_extremal(2, seed)
            g = tiling_genome(t)
            per_position = [g.occurring_letters(i) for i in range(g.d)]
            for v in itertools.product(*per_position):
                assert covers(v, g).covered


T2 = generate_two_extremal(2, 0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: TorusTiling(2, (("0", "0"), ("1", "0"), ("1/2", "1"), ("3/2",))), WrongCount,
     r"cube \(Fraction\(3, 2\),\) does not have 2 coordinates"),
    (lambda: tiling_verify([]), WrongCount, "no cubes given"),
    (lambda: decompose(T2, select="x"), ValueError, "unknown selector 'x'"),
    (lambda: reconstruct([]), WrongCount, "an empty plus half determines nothing"),
    (lambda: reconstruct([("0", "0"), ("1",)]), ValueError,
     "plus cubes need one common dimension d >= 1"),
    (lambda: chessboard_check(T2, decompose(T2), ("0",)), WrongCount,
     "query point has wrong dimension"),
    (lambda: generate_two_extremal(0, 0), ValueError, "dimension must be at least 1"),
], ids=["cube_length", "no_cubes", "selector", "empty_plus", "plus_lengths", "query",
        "gen_d"])
def test_refusals(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_results_are_truthy_as_their_verdict():
    assert is_two_extremal(T2)
    assert not ExtremalityResult(False, ())
    assert chessboard_check(T2, decompose(T2), decompose(T2).minus[0])
    assert not ChessboardResult(False, T2.cubes[0])
