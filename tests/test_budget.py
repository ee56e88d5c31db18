"""The one budget rule: every exponential step refuses before it starts.

Each hostile document runs in its own `python -m polybox.cli` process with
a 10 s timeout, so a step that lost its check fails here instead of
hanging the suite.  Each document is small; only the work it asks for is
exponential.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from polybox import (
    Box,
    BoxSpace,
    PointSet,
    box_number,
    equicomplementary_labelling,
    generate_two_extremal,
    hat_cardinality,
    is_minimal_partition,
    polybox_equal_by_index,
    simple_suit,
    suits_equivalent,
    verify_dyadic,
)
from polybox.cli import main
from polybox.errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    require_budget,
    run_with_budget,
)
from generate import random_genome, random_suit_for_space, random_word
from polybox.genomes import (
    Alphabet,
    GenomeSet,
    equivalent_by_index,
    genome_canonical,
)
from polybox.oracle import e_realization_covers_points

SRC = Path(__file__).resolve().parents[1] / "src"
FIX = Path(__file__).parent / "fixtures"


def cli(cwd: Path, *argv: str) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    env.pop("POLYBOX_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-m", "polybox.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=10,
    )
    return proc.returncode, json.loads(proc.stdout)


def suit(dims, box) -> dict:
    return {"kind": "suit", "version": "1", "dims": dims, "boxes": [box]}


def genome(d, words) -> dict:
    return {"kind": "genome", "version": "1", "d": d,
            "pairs": [["a", "a'"]], "words": words}


@pytest.fixture
def hostile(tmp_path) -> Path:
    docs = {
        # 2^30 expansion terms: the one factor {1} of {0, 1} is not in
        # the basis, and a'...a' has a negative letter at every position
        "wide_suit": suit([2] * 30, [[1]] * 30),
        "long_word": genome(30, [["a'"] * 30]),
        # one point, but the fingerprint of a point set in 20^6 enumerates
        # tuples of odd subsets: |X|_1 = 120
        "big_space": {"kind": "points", "version": "1", "dims": [20] * 6,
                      "points": [[0] * 6]},
        # a fragment of 2 words for a genome of 2^22
        "two_words": genome(22, [["a"] * 22, ["a'"] * 22]),
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ("canon", "wide_suit.json"),
        ("genome-canon", "long_word.json"),
        ("genome-equiv", "--a", "long_word.json", "--b", "long_word.json"),
        ("equiv", "--method", "canon", "--a", "wide_suit.json",
         "--b", "wide_suit.json"),
        ("boxnum", "big_space.json"),
        ("rigidity", "--plus", "two_words.json"),
        ("tiling-gen", "--d", "1", "--count", "100000000"),
        ("tiling-gen", "--d", "12", "--count", "2"),
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_hostile_document_is_refused_before_work(hostile, argv):
    code, doc = cli(hostile, *argv)
    assert code == 2 and doc["error"]["code"] == "BudgetExceeded", doc


@pytest.mark.parametrize(
    "dims, box, box_number, point_count",
    [
        # the whole space: 2^6 boxes' worth of fingerprint, 64 million points
        ([20] * 6, [list(range(20))] * 6, "64", 20 ** 6),
        # one proper box: its closed form is 1
        ([2] * 100000, [[0]] * 100000, "1", 1),
    ],
    ids=["whole_20^6", "proper_2^100000"],
)
def test_box_number_of_a_suit_needs_no_budget(tmp_path, dims, box, box_number, point_count):
    (tmp_path / "suit.json").write_text(json.dumps(suit(dims, box)))
    code, doc = cli(tmp_path, "boxnum", "suit.json")
    assert code == 0, doc
    assert (doc["box_number"], doc["integral"], doc["point_count"]) == (
        box_number, True, point_count
    )


def test_a_number_too_long_to_print_is_an_input_error(tmp_path):
    # box number and point count of the whole of 2^15000 are both 2^15000,
    # more digits than int-to-text conversion allows
    (tmp_path / "suit.json").write_text(json.dumps(suit([2] * 15000, [[0, 1]] * 15000)))
    code, doc = cli(tmp_path, "boxnum", "suit.json")
    assert code == 2 and doc["error"]["code"] == "InputError", doc
    assert "15001-bit" in doc["error"]["detail"]


def test_larger_budget_admits_larger_generation(tmp_path):
    code, doc = cli(tmp_path, "tiling-gen", "--d", "13", "--budget", "26")
    assert code == 0 and len(doc["tilings"][0]) == 1 << 13


def test_cli_budget_ends_with_the_run(capsys):
    assert main(["--budget", "2", "boxnum", str(FIX / "points_line.json")]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "BudgetExceeded"
    require_budget(DEFAULT_BUDGET, "a step at the default budget")
    with pytest.raises(BudgetExceeded):
        require_budget(DEFAULT_BUDGET + 1, "a step over the default budget")


def test_run_with_budget_is_scoped():
    assert run_with_budget(30, require_budget, 30, "a step") is None
    with pytest.raises(BudgetExceeded, match="a step needs n = 25 <= budget 24"):
        require_budget(25, "a step needs n")
    with pytest.raises(BudgetExceeded):
        run_with_budget(3, generate_two_extremal, 2, 0)


def test_generation_needs_2d_bits():
    with pytest.raises(BudgetExceeded):
        generate_two_extremal(13, 0)
    assert len(run_with_budget(26, generate_two_extremal, 13, 0).cubes) == 1 << 13


def test_expansion_counts_its_terms():
    alphabet = Alphabet((("a", "a'"),))
    positive = GenomeSet(alphabet, 30, (("a",) * 30,))
    assert genome_canonical(positive).coeffs == {("a",) * 30: 1}
    with pytest.raises(BudgetExceeded):
        genome_canonical(GenomeSet(alphabet, 30, (("a'",) * 30,)))
    with pytest.raises(BudgetExceeded):  # index sums star every position
        equivalent_by_index(positive, positive)


def test_point_cover_oracle_checks_points_times_words(rng):
    alphabet = Alphabet((("a", "a'"), ("b", "b'")))
    w = random_genome(alphabet, 3, rng, size=4)
    v = random_word(alphabet, 3, rng)
    # 2^3 points of v's box (2 of 4 selections per position) times 4 words
    assert run_with_budget(5, e_realization_covers_points, v, w) in (True, False)
    with pytest.raises(BudgetExceeded):
        run_with_budget(4, e_realization_covers_points, v, w)


def test_minimality_check_refuses_before_listing_points():
    space = BoxSpace((3, 3))
    part = Box.from_sets(space, [{0, 1}, {0, 1}])
    with pytest.raises(BudgetExceeded):
        run_with_budget(5, is_minimal_partition, [part], PointSet.full(space))


def test_dyadic_check_counts_proper_boxes():
    # (2^3 - 2)^2 = 36 proper boxes: 6 bits
    labelling = equicomplementary_labelling(BoxSpace((3, 3)))
    assert run_with_budget(6, verify_dyadic, labelling)
    with pytest.raises(BudgetExceeded):
        run_with_budget(5, verify_dyadic, labelling)


def test_index_route_is_bounded_by_its_sums_not_by_the_space():
    # |X|_1 = 28 is over the budget, but 2^7 boxes x 2^7 terms are not
    space = BoxSpace((4,) * 7)
    rng = random.Random(5)
    for _ in range(3):
        f = random_suit_for_space(space, rng)
        g = random_suit_for_space(space, rng)
        assert polybox_equal_by_index(f, g) == suits_equivalent(f, g)
    with pytest.raises(BudgetExceeded):
        run_with_budget(7, polybox_equal_by_index, f, g)


@pytest.mark.parametrize(
    "fn, arg, bits",
    [
        # 2^5 boxes, one per subset of the support
        (simple_suit, Box.from_sets(BoxSpace((3,) * 5), [{0}] * 5), 5),
        # 3^5 = 243 points: 8 bits
        (PointSet.full, BoxSpace((3,) * 5), 8),
        # 2^11 masks per factor of 12 x 12: |X|_1 = 24
        (equicomplementary_labelling, BoxSpace((12, 12)), 24),
    ],
    ids=["simple_suit", "full_point_set", "equicomplementary_labelling"],
)
def test_construction_is_refused_before_it_starts(fn, arg, bits):
    run_with_budget(bits, fn, arg)
    with pytest.raises(BudgetExceeded, match=f" = {bits} <= budget {bits - 1}$"):
        run_with_budget(bits - 1, fn, arg)


def test_box_number_of_a_box_needs_no_budget():
    # |X|_1 = 28 is over the budget, but a box's closed form is O(d)
    space = BoxSpace((4,) * 7)
    box = Box.from_sets(space, [{0}] * 7)
    assert box_number(box) == 1 and hat_cardinality(box) == 1 << 14
    with pytest.raises(BudgetExceeded, match="fingerprint enumeration needs"):
        box_number(PointSet(space, frozenset(box.points())))
