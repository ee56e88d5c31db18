from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from polybox import (
    chessboard_check,
    covers,
    decompose,
    generate_two_extremal,
    is_two_extremal,
    reconstruct,
    tiling_genome,
    tiling_verify,
)
from polybox.errors import (
    CoordOutOfRange,
    NotDichotomous,
    NotTwoExtremal,
    WrongCount,
)
from polybox import words as kernel
from polybox.tilings import ExtremalDecomposition, _intern, cubes_dichotomous

F = Fraction


def cube(*coords):
    return tuple(F(x) for x in coords)


EXAMPLE = [cube(0, 0), cube(1, 0), cube(F(1, 2), 1), cube(F(3, 2), 1)]


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

    def test_rejects_non_extremal(self):
        grid = [cube(a, b) for a in (0, 1) for b in (0, 1)]
        with pytest.raises(NotTwoExtremal):
            decompose(tiling_verify(grid))

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
