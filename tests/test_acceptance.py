"""Acceptance gate: one test per criterion, exact verdicts, stated sizes.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any failure shows up as a normal pytest failure.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from math import comb
from pathlib import Path

from polybox import (
    Box,
    BoxSpace,
    PointSet,
    apply_epsilon,
    binary_code_profile,
    box_number,
    covers,
    even_odd_code,
    generate_two_extremal,
    genomes_equivalent,
    hat_cardinality,
    index_representatives,
    is_twin_pair,
    more_less_code,
    chessboard_check,
    decompose,
    polybox_equal_by_index,
    reconstruct,
    suit_index,
    suits_equivalent,
    union_points,
    verify_suit,
)
from polybox.cli import main as cli_main
from generate import (
    all_suit_unions,
    distinct_suit_pair,
    mutate_genome,
    mutate_suit,
    random_alphabet,
    random_genome,
    random_proper_box,
    random_proper_suit,
    random_space,
    random_suit_for_space,
    random_word,
)
from polybox.oracle import (
    e_realization_covers,
    enumerate_min_partitions,
    exhaustive_min_partition,
    points_equal,
)
from polybox import serialize as ser

from helpers import n_plus_minus, signed_class_sum

FIX = Path(__file__).parent / "fixtures"


def _ok(n: int, label: str):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_criterion_01_equivalence_oracle_agreement():
    rng = random.Random(101)
    started = time.monotonic()
    for k in range(10_000):
        space = random_space(rng, max_d=3, dim_choices=(2, 3, 4))
        f = random_proper_suit(space, rng, max_size=1 << space.d)
        if k % 2 == 0:
            g = mutate_suit(f, rng, moves=3)
        else:
            g = random_proper_suit(space, rng, max_size=1 << space.d)
        canon = suits_equivalent(f, g)
        index = polybox_equal_by_index(f, g)
        oracle = points_equal(f, g)
        assert canon == index == oracle
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _ok(1, f"equivalence oracle agreement (10000 pairs, {elapsed:.1f}s)")


def test_criterion_02_minimality_exhaustive():
    space = BoxSpace((3, 3))
    unions = all_suit_unions(space, 4)
    assert len(unions) > 200
    for pts in unions:
        g = PointSet(space, pts)
        b0 = box_number(g)
        assert b0.denominator == 1
        assert exhaustive_min_partition(g) == b0
        for parts in enumerate_min_partitions(g):
            verify_suit(parts)  # every minimal partition is a suit
    _ok(2, f"minimality exhaustive on 3x3 ({len(unions)} polyboxes)")


def test_criterion_03_box_number_identities():
    rng = random.Random(303)
    spaces_seen: set[BoxSpace] = set()
    for _ in range(1_000):
        space = random_space(rng, max_d=3, dim_choices=(2, 3, 4))
        b = random_proper_box(space, rng)
        assert hat_cardinality(b) == 1 << (space.size_sum - 2 * space.d)
        spaces_seen.add(space)
    for space in spaces_seen:
        assert box_number(PointSet.full(space)) == 1 << space.d
    _ok(3, f"box-number identities (1000 boxes, {len(spaces_seen)} spaces)")


def test_criterion_04_index_laws():
    rng = random.Random(404)
    for _ in range(1_000):
        space = random_space(rng, max_d=3, dim_choices=(2, 3, 4))
        full = Box(space, space.full_masks)

        # zero theorem: every index of a suit for X vanishes off the full box
        whole = random_suit_for_space(space, rng)
        for c in index_representatives(space):
            if c != full:
                assert suit_index(whole, c) == 0

        # sign decomposition: phi sum equals the combinatorial recount
        suit = random_proper_suit(space, rng)
        c = random_proper_box(space, rng)
        n_plus, n_minus = n_plus_minus(suit, c)
        assert suit_index(suit, c) == n_plus - n_minus
        assert suit_index(suit, full) == len(suit)

        # signed class sums vanish at maximal support, improper members too
        merged = mutate_suit(whole, rng, moves=1)
        boxes = list(merged.boxes)
        twins = [
            (i, j)
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
            if is_twin_pair(boxes[i], boxes[j])
        ]
        if twins and space.d > 1:
            i, j = twins[0]
            union_box = Box(
                space,
                tuple(
                    a | b
                    for a, b in zip(boxes[i].factors, boxes[j].factors)
                ),
            )
            rest = [boxes[k] for k in range(len(boxes)) if k not in (i, j)]
            improper = verify_suit(rest + [union_box])
            candidates = [x for x in improper.boxes if x.is_proper] or list(
                improper.boxes
            )
            target = max(candidates, key=lambda x: len(x.support()))
            assert signed_class_sum(improper.boxes, target) == 0
        assert signed_class_sum(whole.boxes, rng.choice(list(whole.boxes))) == 0
    _ok(4, "index laws (zero theorem, sign decomposition, signed class sums)")


def test_criterion_05_parity_theorem():
    rng = random.Random(505)
    usable = 0
    attempts = 0
    while usable < 500:
        attempts += 1
        assert attempts < 50_000
        space = random_space(rng, max_d=3, dim_choices=(2, 3, 4))
        suit = random_proper_suit(space, rng, max_size=max(1, 1 << (space.d - 1)))
        eps = tuple(rng.randint(0, 1) for _ in range(space.d))
        if not any(eps):
            continue
        image = apply_epsilon(suit, eps)
        if union_points(suit).members & union_points(image).members:
            continue
        try:
            combined = verify_suit(list(suit.boxes) + list(image.boxes))
        except Exception:
            continue
        usable += 1
        full = Box(space, space.full_masks)
        supp = {i for i, e in enumerate(eps) if e}
        for c in index_representatives(space):
            if c == full:
                continue
            idx = suit_index(combined, c)
            assert idx % 2 == 0
            if len(set(c.support()) & supp) % 2 == 1:
                assert idx == 0
    _ok(5, f"parity theorem (500 symmetric polyboxes, {attempts} draws)")


def test_criterion_06_genome_layer():
    rng = random.Random(606)
    for _ in range(100_000):
        alphabet = random_alphabet(rng, max_pairs=4)
        d = rng.randint(1, 3)
        w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
        v = random_word(alphabet, d, rng)
        result = covers(v, w)
        assert result.g_sum <= 1 << d
        assert result.covered == e_realization_covers(v, w)

    for k in range(10_000):
        alphabet = random_alphabet(rng, max_pairs=3)
        d = rng.randint(1, 3)
        v = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
        if k % 2 == 0:
            w = mutate_genome(v, rng, moves=3)
            expect = True
        else:
            w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            expect = None
        equal = genomes_equivalent(v, w)  # raises on any route split
        if expect is not None:
            assert equal is expect
    _ok(6, "genome layer (100000 cover instances, 10000 equivalence pairs)")


def test_criterion_07_full_genomes_cover_everything():
    rng = random.Random(707)
    for _ in range(1_000):
        alphabet = random_alphabet(rng, max_pairs=4)
        d = rng.randint(1, 4)
        w = random_genome(alphabet, d, rng, size=1 << d, moves=3)
        per_position = [w.occurring_letters(i) for i in range(d)]
        for v in itertools.product(*per_position):
            assert covers(v, w).covered
    _ok(7, "cover saturation of 1000 full-size genomes")


def test_criterion_08_rigidity_roundtrip():
    started = time.monotonic()
    for k in range(1_000):
        d = 1 + (k % 4)
        tiling = generate_two_extremal(d, seed=800_000 + k)
        for select in ("lex", "seed"):
            dec = decompose(tiling, select=select, seed=k)
            assert reconstruct(dec.plus) == dec.minus
            assert reconstruct(dec.minus) == dec.plus
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _ok(8, f"rigidity round-trip (1000 tilings, both polarities, {elapsed:.1f}s)")


def test_criterion_09_chessboard():
    rng = random.Random(909)
    for k in range(200):
        d = 1 + (k % 4)
        tiling = generate_two_extremal(d, seed=900_000 + k)
        dec = decompose(tiling)
        assert len(dec.minus) == 1 << (d - 1)
        for z in dec.minus:
            result = chessboard_check(tiling, dec, z)
            assert result.in_minus and result.overlap is None
        for z in dec.plus:
            result = chessboard_check(tiling, dec, z)
            assert not result.in_minus and result.overlap == z
        # jittered probes overlap some plus cube or land in the minus half
        for _ in range(4):
            base = rng.choice(dec.plus)
            z = tuple(
                (x + random.Random(k).choice((0, 1, 7))
                 * rng.choice((0, 1)) / 7) % 2
                for x in base
            )
            chessboard_check(tiling, dec, z)  # must never raise
    _ok(9, "chess-board theorem on 200 tilings")


def test_criterion_10_binary_codes():
    rng = random.Random(1010)
    for d in range(1, 6):
        space = BoxSpace((3,) * d)
        suit = random_suit_for_space(space, rng)
        for make in (even_odd_code, more_less_code):
            hist = binary_code_profile(suit, make(space)).weight_histogram
            assert hist == tuple(comb(d, k) for k in range(d + 1))

    pairs = 0
    while pairs < 100:
        space = random_space(rng, max_d=3, dim_choices=(3, 5))
        pair = distinct_suit_pair(space, rng)
        if pair is None:
            continue
        pairs += 1
        f, g = pair
        for make in (even_odd_code, more_less_code):
            code = make(space)
            assert (
                binary_code_profile(f, code).multiset()
                == binary_code_profile(g, code).multiset()
            )
    _ok(10, "binary codes (binomial histograms, 100 invariant suit pairs)")


def test_criterion_11_cli_determinism(capsys):
    def fx(name: str) -> str:
        return str(FIX / name)

    matrix = [
        ("verify-suit", fx("suit_x.json"), "--proper"),
        ("boxnum", fx("suit_x.json")),
        ("boxnum", fx("points_line.json")),
        ("canon", fx("suit_x.json")),
        ("equiv", "--a", fx("suit_x.json"), "--b", fx("suit_x2.json")),
        ("equiv", "--a", fx("suit_x.json"), "--b", fx("suit_small.json"),
         "--method", "canon"),
        ("index", "--suit", fx("suit_x.json"), "--box", "[[0],[0,1]]"),
        ("codes", fx("suit_x.json"), "--pattern", "eo"),
        ("codes", fx("suit_x.json"), "--pattern", "ml"),
        ("genome-canon", fx("genome_class.json")),
        ("genome-equiv", "--a", fx("genome_class.json"),
         "--b", fx("genome_swapped.json")),
        ("cover", "--word", "a,b", "--genome", fx("genome_class.json")),
        ("rigidity", "--plus", fx("genome_plus.json")),
        ("tiling-verify", fx("tiling_d2.json")),
        ("tiling-extremal", fx("tiling_d2.json")),
        ("tiling-decompose", fx("tiling_d2.json"), "--select", "seed",
         "--seed", "4"),
        ("tiling-reconstruct", fx("tiling_plus_d2.json")),
        ("tiling-gen", "--d", "3", "--seed", "12", "--count", "2"),
        ("tiling-chessboard", fx("tiling_d2.json"), "--z", "1,0"),
        ("verify-suit", fx("suit_bad.json")),
        ("tiling-verify", fx("tiling_bad.json")),
    ]
    commands_covered = {argv[0] for argv in matrix}
    assert len(commands_covered) == 16  # every subcommand appears

    for argv in matrix:
        for fmt in ("json", "pretty"):
            first_code = cli_main([*argv, "--format", fmt])
            first = capsys.readouterr().out
            second_code = cli_main([*argv, "--format", fmt])
            second = capsys.readouterr().out
            assert first_code == second_code
            assert first == second
            json.loads(first)

    # parse/serialize round-trip identity on the valid fixture corpus
    for name in ("suit_x.json", "suit_x2.json", "suit_small.json"):
        doc = ser.loads((FIX / name).read_text())
        space, boxes = ser.parse_suit(doc)
        assert ser.serialize_suit(verify_suit(boxes)) == doc
    for name in ("genome_class.json", "genome_swapped.json", "genome_plus.json"):
        doc = ser.loads((FIX / name).read_text())
        assert ser.serialize_genome(ser.parse_genome(doc)) == doc
    doc = ser.loads((FIX / "points_line.json").read_text())
    assert ser.serialize_points(ser.parse_points(doc)) == doc
    doc = ser.loads((FIX / "tiling_d2.json").read_text())
    assert ser.serialize_cubes(2, ser.parse_tiling(doc).cubes) == doc
    doc = ser.loads((FIX / "tiling_plus_d2.json").read_text())
    assert ser.serialize_cubes(2, ser.parse_cubes(doc)) == doc
    _ok(11, "CLI determinism and round-trip identity")
