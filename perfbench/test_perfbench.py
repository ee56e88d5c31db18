"""Tests of the benchmark's own code.

    python3 -m pytest perfbench          (or: python3 -m unittest discover perfbench)

Each check must reject a corrupted output, and a seed must always give
byte-identical inputs.
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out" / "test"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

workloads.load_program()
W = workloads.WORKLOADS


def first(wl, kind=None, seed=3, skip=0):
    """An item of the workload (the first of the given kind after skipping
    `skip` of them) and the program's output on it."""
    items = wl.make(seed)
    k = [i for i, it in enumerate(items) if kind is None or kind(it)][skip]
    prepared = wl.prepare([items[k]], OUT)
    op = getattr(wl, "op_in_process", wl.op)
    return items[k], op(prepared[0])


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for wl in W.values():
            a = json.dumps(wl.make(7))
            self.assertEqual(a, json.dumps(wl.make(7)), wl.name)
            self.assertNotEqual(a, json.dumps(wl.make(8)), wl.name)

    def test_generated_structures_are_valid(self):
        rng = inputs.rng_for("test", 0)
        for dims in ((3, 3), (4, 4, 4), (3, 3, 3, 3)):
            suit = inputs.random_full_suit(rng, dims)
            checks.check_suit(dims, suit)
            self.assertEqual(len(checks.disjoint_union(suit)), len(checks.all_points(dims)))
            sub = inputs.random_sub_suit(rng, dims, 3)
            again = inputs.resplit_suit(rng, dims, sub)
            checks.check_suit(dims, again)
            checks.check_suit_equal(dims, sub, again, [True])
        words = inputs.random_genome(rng, 5, inputs.LETTER_PAIRS)
        again = inputs.resplit_genome(rng, inputs.LETTER_PAIRS, words)
        checks.check_genome_equal(inputs.LETTER_PAIRS, words, again, True)
        cubes = inputs.random_tiling(rng, 4)
        plus, minus = inputs.split_lex(cubes)
        checks.check_halves(cubes, plus, minus, inputs.UNIT, lex=True)

    def test_coordinates_round_trip(self):
        for v in range(2 * inputs.UNIT):
            text = inputs.coord_str(v)
            self.assertEqual(Fraction(text) * inputs.UNIT, v)
            self.assertEqual(inputs.coord_value(text), v)


class Checks(unittest.TestCase):
    def test_tiling_rejects_dropped_cube_and_wrong_half(self):
        wl = W["tiling_rigidity"]
        item, out = first(wl)
        wl.check(item, out)
        dropped = list(out)
        dropped[0] = out[0][1:]
        dropped[1] = dropped[0]
        with self.assertRaises(CheckFailed):
            wl.check(item, dropped)
        swapped = list(out)
        swapped[5] = out[3]  # reconstruct(plus) answered with plus
        with self.assertRaises(CheckFailed):
            wl.check(item, swapped)
        flipped = list(out)
        flipped[2] = False
        with self.assertRaises(CheckFailed):
            wl.check(item, flipped)

    def test_partition_rejects_flipped_verdict_and_missing_point(self):
        wl = W["partition_search"]
        pb = workloads.polybox
        item, (number, polybox, suit) = first(wl, lambda it: it["kind"] == "union")
        wl.check(item, (number, polybox, suit))
        with self.assertRaises(CheckFailed):
            wl.check(item, (number, False, None))
        with self.assertRaises(CheckFailed):
            wl.check(item, (number + 1, polybox, suit))
        big = max(suit.boxes, key=lambda b: b.size())
        low = big.factors[0] & -big.factors[0]
        self.assertNotEqual(big.factors[0], low, "need a factor with two elements")
        shrunk = pb.Box(big.space, (big.factors[0] ^ low,) + big.factors[1:])
        short = pb.Suit(suit.space, tuple(shrunk if b is big else b for b in suit.boxes))
        with self.assertRaises(CheckFailed):
            wl.check(item, (number, polybox, short))
        item, out = first(wl, lambda it: it["kind"] == "integral")
        wl.check(item, out)
        with self.assertRaises(CheckFailed):
            wl.check(item, (out[0], True, None))

    def test_exhaustive_search_finds_partitions(self):
        dims = (3, 3)
        square = checks.box_points((0b011, 0b011))
        self.assertTrue(checks.partition_exists(dims, square, 1))
        l_shape = square - {(1, 1)}
        self.assertFalse(checks.partition_exists(dims, l_shape, 1))
        self.assertTrue(checks.partition_exists(dims, l_shape, 2))
        column = checks.box_points((0b111, 0b001))  # a full factor: no proper box
        self.assertFalse(checks.partition_exists(dims, column, 1))

    def test_equivalence_rejects_flipped_verdicts(self):
        wl = W["equivalence"]
        for kind in ("suits", "genomes"):
            for skip in (0, 1):  # a resplit copy, then an independent draw
                item, out = first(wl, lambda it: it["kind"] == kind, skip=skip)
                wl.check(item, out)
                with self.assertRaises(CheckFailed):
                    wl.check(item, tuple(not v for v in out))

    def test_realization_separates_inequivalent_genomes(self):
        pairs = inputs.LETTER_PAIRS
        with self.assertRaises(CheckFailed):
            checks.check_genome_equal(pairs, [("a", "b")], [("a", "c")], True)
        checks.check_genome_equal(pairs, [("a", "b"), ("A", "b")], [("c", "b"), ("C", "b")], True)

    def test_cli_rejects_flipped_verdict_and_wrong_exit(self):
        wl = W["cli_docs"]
        for cmd in ("tiling-extremal", "tiling-reconstruct", "canon", "boxnum"):
            item, (code, out) = first(wl, lambda it: it["cmd"][0] == cmd and "error" not in it)
            wl.check(item, (code, out))
            with self.assertRaises(CheckFailed):
                wl.check(item, (1, out))
            doc = json.loads(out)
            key = {"tiling-extremal": "partners", "tiling-reconstruct": "minus",
                   "canon": "terms", "boxnum": "point_count"}[cmd]
            doc[key] = doc[key][1:] if isinstance(doc[key], list) else doc[key] + 1
            bad = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            with self.assertRaises(CheckFailed):
                wl.check(item, (code, bad))
            with self.assertRaises(CheckFailed):
                wl.check(item, (code, json.dumps(json.loads(out), indent=1)))
        item, result = first(wl, lambda it: "error" in it)
        wl.check(item, result)
        with self.assertRaises(CheckFailed):
            wl.check(item, (1, result[1]))

    def test_cli_peak_memory_is_the_childs_own(self):
        wl = W["cli_docs"]
        item = wl.make(3)[0]
        argv = wl.prepare([item], OUT)[0]
        ballast = b"\xff" * (64 << 20)  # the parent's peak now exceeds 64 MiB
        wl.check(item, wl.op(argv))
        del ballast
        self.assertGreater(wl.child_peak_kib, 1024)
        self.assertLess(wl.child_peak_kib, 48 << 10)


class Tracer(unittest.TestCase):
    def test_spans_and_counts(self):
        pb = workloads.polybox
        original = pb.suits.box_number
        rec = tracer.Recorder()
        rec.install()
        try:
            self.assertIsNot(pb.suits.box_number, original)
            g = pb.PointSet(pb.BoxSpace((3, 3)), frozenset({(0, 0), (0, 1)}))
            self.assertTrue(pb.suits.is_polybox(g))
        finally:
            rec.uninstall()
        self.assertIs(pb.suits.box_number, original)
        self.assertIs(pb.box_number, original)
        names = [s[0] for s in rec.spans]
        self.assertEqual(names[0], "suits.is_polybox")
        self.assertIn("suits.box_number", names)
        self.assertEqual(rec.counts["suits.points.count"], 2)
        self.assertGreater(rec.counts["boxes.box_new.count"], 0)
        spans = rec.self_ms(split=0)
        total = (rec.spans[0][2] - rec.spans[0][1]) / 1e6
        self.assertAlmostEqual(sum(v[1] for v in spans.values()), total, places=6)


if __name__ == "__main__":
    unittest.main()
