from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest
from generate import random_proper_suit, random_space
from polybox import Box, box_number, hat_cardinality, simple_suit, union_points
from polybox import words as kernel
from polybox.cli import _build_parser, main
from polybox.errors import (
    CriteriaDisagree,
    GSumExceeds2d,
    NoWitness,
    TheoremViolation,
)
from polybox.serialize import serialize_suit
from polybox.suits import verify_suit

FIX = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def fx(name: str) -> str:
    return str(FIX / name)


class TestVerifySuit:
    def test_valid(self, capsys):
        code, doc = run_json(capsys, "verify-suit", fx("suit_x.json"), "--proper")
        assert code == 0
        assert doc["valid"] and doc["proper"] and doc["box_count"] == 4

    def test_invalid_exits_2(self, capsys):
        code, doc = run_json(capsys, "verify-suit", fx("suit_bad.json"))
        assert code == 2
        assert doc["error"]["code"] == "NotDichotomous"

    def test_reads_stdin(self, capsys, monkeypatch):
        text = (FIX / "suit_small.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, doc = run_json(capsys, "verify-suit")
        assert code == 0 and doc["box_count"] == 1


class TestBoxnum:
    def test_suit_union(self, capsys):
        code, doc = run_json(capsys, "boxnum", fx("suit_x.json"))
        assert code == 0
        assert doc["box_number"] == "4" and doc["integral"]

    def test_suit_route_matches_the_point_union(self, capsys, monkeypatch):
        # the suit route adds up closed forms and box sizes; the reference
        # lists the union and counts its fingerprint.  Improper suits are
        # random parts of simple suits of boxes with full factors.
        rng = random.Random(2303)
        suits = [random_proper_suit(random_space(rng), rng) for _ in range(600)]
        for _ in range(200):
            space = random_space(rng)
            factors = [rng.choice((rng.randrange(1, full), full))
                       for full in space.full_masks]
            i = rng.randrange(space.d)
            factors[i] = space.full_masks[i]
            boxes = simple_suit(Box(space, tuple(factors)))
            suits.append(verify_suit(rng.sample(boxes, rng.randint(1, len(boxes)))))
        assert sum(not s.is_proper for s in suits) == 200
        for s in suits:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(serialize_suit(s))))
            code, doc = run_json(capsys, "boxnum")
            points = union_points(s)
            want = box_number(points)
            assert hat_cardinality(s) == hat_cardinality(points)
            assert (code, doc["box_number"], doc["integral"], doc["point_count"]) == (
                0, str(want), want.denominator == 1, len(points)
            )

    def test_explicit_points(self, capsys):
        code, doc = run_json(capsys, "boxnum", fx("points_line.json"))
        assert code == 0
        assert doc["box_number"] == "2"


class TestCanonAndEquiv:
    def test_canonical_form_of_space_suit(self, capsys):
        code, doc = run_json(capsys, "canon", fx("suit_x.json"))
        assert code == 0
        assert doc["terms"] == [[[[0, 1, 2], [0, 1, 2]], 1]]

    def test_equiv_all_methods(self, capsys):
        code, doc = run_json(
            capsys, "equiv", "--a", fx("suit_x.json"), "--b", fx("suit_x2.json")
        )
        assert code == 0
        assert doc["equal"] is True
        assert doc["methods"] == {"canon": True, "index": True, "oracle": True}

    def test_unequal_exits_1(self, capsys):
        code, doc = run_json(
            capsys, "equiv", "--a", fx("suit_x.json"), "--b", fx("suit_small.json")
        )
        assert code == 1 and doc["equal"] is False

    @pytest.mark.parametrize("method", ["canon", "index", "oracle"])
    @pytest.mark.parametrize(
        "b, equal", [("suit_x2.json", True), ("suit_small.json", False)]
    )
    def test_single_method(self, capsys, method, b, equal):
        code, doc = run_json(
            capsys, "equiv", "--a", fx("suit_x.json"), "--b", fx(b),
            "--method", method,
        )
        assert code == (0 if equal else 1)
        assert doc["equal"] is equal and doc["methods"] == {method: equal}

    @pytest.mark.parametrize("method", ["canon", "index", "oracle", "all"])
    def test_spaces_must_match_on_every_route(self, capsys, tmp_path, method):
        # suit_small.json's one box [[0],[1]] in 3x4: equal point sets of
        # different spaces, which the point oracle alone would call equal
        other = tmp_path / "suit_3x4.json"
        other.write_text(json.dumps({
            "version": "1", "kind": "suit", "dims": [3, 4], "boxes": [[[0], [1]]]
        }))
        code, doc = run_json(
            capsys, "equiv", "--a", fx("suit_small.json"), "--b", str(other),
            "--method", method,
        )
        assert code == 2
        assert doc["error"] == {
            "code": "SpaceMismatch", "detail": "suits live in different spaces"
        }

    def test_all_methods_glue_each_side_once(self, capsys, monkeypatch):
        # canon and index share one cancellation and one glue per suit pair
        glue = kernel._glue
        glued = []

        def counted(words, flip):
            glued.append(words)
            return glue(words, flip)

        monkeypatch.setattr(kernel, "_glue", counted)
        code, doc = run_json(
            capsys, "equiv", "--a", fx("suit_x.json"), "--b", fx("suit_x2.json")
        )
        assert code == 0 and doc["methods"] == {
            "canon": True, "index": True, "oracle": True
        }
        assert len(glued) == 2


class TestIndexAndCodes:
    def test_index_against_full_box(self, capsys):
        code, doc = run_json(
            capsys,
            "index",
            "--suit",
            fx("suit_x.json"),
            "--box",
            "[[0,1,2],[0,1,2]]",
        )
        assert code == 0 and doc["index"] == 4

    def test_index_against_proper_box(self, capsys):
        code, doc = run_json(
            capsys, "index", "--suit", fx("suit_x.json"), "--box", "[[0],[1]]"
        )
        assert code == 0 and doc["index"] == 0

    def test_codes_histogram(self, capsys):
        code, doc = run_json(
            capsys, "codes", fx("suit_x.json"), "--pattern", "eo"
        )
        assert code == 0
        assert doc["weight_histogram"] == [1, 2, 1]

    def test_bad_box_is_input_error(self, capsys):
        code, doc = run_json(
            capsys, "index", "--suit", fx("suit_x.json"), "--box", "nope"
        )
        assert code == 2 and doc["error"]["code"] == "InputError"

    @pytest.mark.parametrize("box", [
        "[" * 50_000 + "]" * 50_000,  # parsed like documents, not a traceback
        "[[0],[1],[2]]",  # one subset more than the suit's two factors
        "[[true],[1]]",  # a JSON boolean is not an element index
    ], ids=["nested", "extra_subset", "boolean"])
    def test_malformed_box_is_input_error(self, capsys, box):
        code, doc = run_json(
            capsys, "index", "--suit", fx("suit_x.json"), "--box", box
        )
        assert code == 2 and doc["error"]["code"] == "InputError"


class TestGenomeCommands:
    def test_genome_canon(self, capsys):
        code, doc = run_json(capsys, "genome-canon", fx("genome_class.json"))
        assert code == 0
        assert doc["terms"] == [[["*", "*"], 1]]

    def test_genome_equiv(self, capsys):
        code, doc = run_json(
            capsys,
            "genome-equiv",
            "--a",
            fx("genome_class.json"),
            "--b",
            fx("genome_swapped.json"),
        )
        assert code == 0 and doc["equal"] is True

    @pytest.mark.parametrize("method", ["canon", "index", "cover"])
    @pytest.mark.parametrize(
        "b, equal", [("genome_swapped.json", True), ("genome_plus.json", False)]
    )
    def test_genome_equiv_single_method(self, capsys, method, b, equal):
        code, doc = run_json(
            capsys, "genome-equiv", "--a", fx("genome_class.json"), "--b", fx(b),
            "--method", method,
        )
        assert code == (0 if equal else 1)
        assert doc["equal"] is equal and doc["methods"] == {method: equal}

    def test_cover(self, capsys):
        code, doc = run_json(
            capsys,
            "cover",
            "--word",
            "a,b",
            "--genome",
            fx("genome_class.json"),
        )
        assert code == 0 and doc["covered"] and doc["g_sum"] == 4

    def test_cover_negative_exits_1(self, capsys):
        # a,b' is complementary or orthogonal to both fragment members
        code, doc = run_json(
            capsys,
            "cover",
            "--word",
            "a,b'",
            "--genome",
            fx("genome_plus.json"),
        )
        assert code == 1 and not doc["covered"]

    @pytest.mark.parametrize(
        "word, detail",
        [("a,x", "letter 'x' not in the alphabet"), ("a,b,a", "word has wrong length")],
    )
    def test_cover_bad_word_is_input_error(self, capsys, word, detail):
        code, doc = run_json(
            capsys, "cover", "--word", word, "--genome", fx("genome_class.json")
        )
        assert code == 2
        assert doc["error"] == {"code": "InputError", "detail": detail}

    def test_rigidity(self, capsys):
        code, doc = run_json(capsys, "rigidity", "--plus", fx("genome_plus.json"))
        assert code == 0
        assert doc["kind"] == "genome"
        assert sorted(map(tuple, doc["words"])) == [("a", "b'"), ("a'", "b")]

    def test_rigidity_over_a_wider_universe(self, capsys, tmp_path):
        pairs = [["a", "a'"], ["b", "b'"], ["c", "c'"]]
        universe = tmp_path / "universe.json"
        universe.write_text(json.dumps(
            {"kind": "genome", "version": "1", "d": 2, "pairs": pairs, "words": []}
        ))
        code, doc = run_json(
            capsys, "rigidity", "--plus", fx("genome_plus.json"),
            "--universe", str(universe),
        )
        assert code == 0 and doc["pairs"] == pairs
        assert sorted(map(tuple, doc["words"])) == [("a", "b'"), ("a'", "b")]

    def test_rigidity_universe_missing_a_letter_is_input_error(self, capsys, tmp_path):
        universe = tmp_path / "universe.json"
        universe.write_text(json.dumps(
            {"kind": "genome", "version": "1", "d": 2,
             "pairs": [["a", "a'"], ["c", "c'"]], "words": []}
        ))
        code, doc = run_json(
            capsys, "rigidity", "--plus", fx("genome_plus.json"),
            "--universe", str(universe),
        )
        assert code == 2 and doc["error"] == {
            "code": "InputError", "detail": "letter 'b' not in the alphabet"
        }


class TestTilingCommands:
    def test_verify(self, capsys):
        code, doc = run_json(capsys, "tiling-verify", fx("tiling_d2.json"))
        assert code == 0 and doc["valid"] and doc["cube_count"] == 4

    def test_verify_bad_exits_2(self, capsys):
        code, doc = run_json(capsys, "tiling-verify", fx("tiling_bad.json"))
        assert code == 2 and doc["error"]["code"] == "NotDichotomous"

    def test_extremal(self, capsys):
        code, doc = run_json(capsys, "tiling-extremal", fx("tiling_d2.json"))
        assert code == 0 and doc["two_extremal"]

    def test_decompose_lex(self, capsys):
        code, doc = run_json(capsys, "tiling-decompose", fx("tiling_d2.json"))
        assert code == 0
        assert doc["plus"] == [["0", "0"], ["1/2", "1"]]
        assert doc["minus"] == [["1", "0"], ["3/2", "1"]]

    def test_reconstruct(self, capsys):
        code, doc = run_json(
            capsys, "tiling-reconstruct", fx("tiling_plus_d2.json")
        )
        assert code == 0
        assert doc["minus"] == [["1", "0"], ["3/2", "1"]]

    def test_gen_is_deterministic(self, capsys):
        code_a, doc_a = run_json(
            capsys, "tiling-gen", "--d", "2", "--seed", "3", "--count", "2"
        )
        code_b, doc_b = run_json(
            capsys, "tiling-gen", "--d", "2", "--seed", "3", "--count", "2"
        )
        assert code_a == code_b == 0
        assert doc_a == doc_b
        assert len(doc_a["tilings"]) == 2

    def test_gen_output_is_pinned(self, capsys):
        # captured before tilings moved onto int words; the generator's rng
        # draws and its output order must not change
        code, out = run(
            capsys, "tiling-gen", "--d", "5", "--seed", "7", "--count", "3"
        )
        assert code == 0
        assert out == (FIX / "tiling_gen_d5_seed7_count3.json").read_text()

    def test_reconstruct_rejects_fragment_that_is_not_a_half(self, capsys, tmp_path):
        for d in (3, 22):
            path = tmp_path / "fragment.json"
            path.write_text(json.dumps({
                "kind": "tiling", "version": "1", "d": d,
                "cubes": [["0"] * d, ["1"] * d],
            }))
            code, doc = run_json(capsys, "tiling-reconstruct", str(path))
            assert code == 2 and doc["error"]["code"] == "WrongCount"

    def test_reconstruct_rejects_unprintable_coordinates(self, capsys, tmp_path):
        # 1/(10^4300 - 1) parses, but its minus partner 10^4300/(10^4300 - 1)
        # has more digits than int-to-text conversion allows
        path = tmp_path / "plus.json"
        path.write_text(json.dumps({
            "kind": "tiling", "version": "1", "d": 1, "cubes": [["1/" + "9" * 4300]],
        }))
        code, out = run(capsys, "tiling-reconstruct", str(path))
        doc = json.loads(out)
        assert code == 2 and doc["error"]["code"] == "InputError"
        assert "14285-bit" in doc["error"]["detail"]

    def test_gen_rejects_nonpositive_d(self, capsys):
        for d in ("0", "-1"):
            code, doc = run_json(capsys, "tiling-gen", "--d", d)
            assert code == 2 and doc["error"]["code"] == "InputError"

    def test_verify_rejects_exponent_coordinates(self, capsys, tmp_path):
        # "1e5000" once crashed while its error message was formatted, and
        # "1e20000000" built a 20-million-digit integer before any check
        for raw in ("1e5000", "1e20000000"):
            path = tmp_path / "tiling.json"
            path.write_text(json.dumps(
                {"kind": "tiling", "version": "1", "d": 1, "cubes": [[raw], ["0"]]}
            ))
            code, doc = run_json(capsys, "tiling-verify", str(path))
            assert code == 2 and doc["error"]["code"] == "InputError"

    def test_chessboard_rejects_exponent_z(self, capsys):
        code, doc = run_json(
            capsys, "tiling-chessboard", fx("tiling_d2.json"), "--z", "1e5000,0"
        )
        assert code == 2 and doc["error"]["code"] == "InputError"

    def test_zero_denominator_has_its_own_message(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "tiling-chessboard", fx("tiling_d2.json"), "--z", "1/0,0"
        )
        assert code == 2
        assert doc["error"] == {"code": "InputError", "detail": "z: zero denominator"}
        path = tmp_path / "tiling.json"
        path.write_text(json.dumps(
            {"kind": "tiling", "version": "1", "d": 1, "cubes": [["1/00"], ["0"]]}
        ))
        code, doc = run_json(capsys, "tiling-verify", str(path))
        assert code == 2
        assert doc["error"] == {"code": "InputError", "detail": "cube 0: zero denominator"}

    def test_chessboard_minus_member(self, capsys):
        code, doc = run_json(
            capsys,
            "tiling-chessboard",
            fx("tiling_d2.json"),
            "--z",
            "1,0",
        )
        assert code == 0 and doc["in_minus"] and doc["overlap"] is None

    def test_chessboard_overlap_exits_1(self, capsys):
        code, doc = run_json(
            capsys,
            "tiling-chessboard",
            fx("tiling_d2.json"),
            "--z",
            "1/4,0",
        )
        assert code == 1
        assert not doc["in_minus"]
        assert doc["overlap"] == ["0", "0"]


class TestDeterminismAndFormats:
    def test_byte_identical_runs(self, capsys):
        matrix = [
            ("verify-suit", fx("suit_x.json")),
            ("boxnum", fx("points_line.json")),
            ("canon", fx("suit_x.json")),
            ("codes", fx("suit_x.json"), "--pattern", "ml"),
            ("genome-canon", fx("genome_class.json")),
            ("tiling-decompose", fx("tiling_d2.json"), "--select", "seed",
             "--seed", "9"),
        ]
        for argv in matrix:
            _, first = run(capsys, *argv)
            _, second = run(capsys, *argv)
            assert first == second

    def test_pretty_format(self, capsys):
        code, out = run(
            capsys, "boxnum", fx("points_line.json"), "--format", "pretty"
        )
        assert code == 0 and out.startswith("{\n")

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, doc = run_json(capsys, "verify-suit", str(path))
        assert code == 2 and doc["error"]["code"] == "InputError"

    @pytest.mark.parametrize("command, doc", [
        ("genome-canon", {"kind": "genome", "version": "1", "d": True,
                          "pairs": [["a", "a'"]], "words": [["a"]]}),
        ("boxnum", {"kind": "points", "version": "1", "dims": [3, 3],
                    "points": [[True, False]]}),
    ], ids=["genome_d", "point"])
    def test_boolean_is_not_an_integer(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, command, str(path))
        assert code == 2 and out["error"]["code"] == "InputError"

    @pytest.mark.parametrize("pairs, words", [
        ([[True, None]], [[True]]),
        ([["1", "1'"]], [[1]]),
    ], ids=["pair", "word"])
    def test_letters_must_be_strings(self, capsys, tmp_path, pairs, words):
        # str() once turned these into the letters "True" and "1"
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(
            {"kind": "genome", "version": "1", "d": 1, "pairs": pairs, "words": words}
        ))
        code, out = run_json(capsys, "genome-canon", str(path))
        assert code == 2 and out["error"]["code"] == "InputError"

    def test_missing_file_is_input_error(self, capsys):
        code, doc = run_json(capsys, "canon", fx("missing.json"))
        assert code == 2 and doc["error"]["code"] == "InputError"

    def test_budget_flag_is_enforced(self, capsys):
        code, doc = run_json(
            capsys, "boxnum", fx("points_line.json"), "--budget", "2"
        )
        assert code == 2 and doc["error"]["code"] == "BudgetExceeded"

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYBOX_BUDGET", "2")
        code, doc = run_json(capsys, "boxnum", fx("points_line.json"))
        assert code == 2 and doc["error"]["code"] == "BudgetExceeded"
        monkeypatch.setenv("POLYBOX_BUDGET", "24")
        code, doc = run_json(capsys, "boxnum", fx("points_line.json"))
        assert code == 0

    def test_outputs_match_the_pinned_matrix(self, capsys, monkeypatch):
        # every subcommand and six error cases in both formats, captured
        # before handlers stopped writing their own output; paths are
        # relative to the fixtures so error details carry no absolute path
        monkeypatch.chdir(FIX)
        monkeypatch.delenv("POLYBOX_BUDGET", raising=False)
        cases = json.loads((FIX / "cli_matrix.json").read_text())
        assert len({case["argv"][0] for case in cases}) == 16
        for case in cases:
            assert run(capsys, *case["argv"]) == (case["code"], case["stdout"]), (
                case["argv"]
            )


class TestGlobalFlags:
    def test_budget_before_the_subcommand(self, capsys):
        code, doc = run_json(
            capsys, "--budget", "2", "boxnum", fx("points_line.json")
        )
        assert code == 2 and doc["error"]["code"] == "BudgetExceeded"

    def test_flag_after_the_subcommand_wins(self, capsys):
        code, _ = run(
            capsys, "--budget", "2", "boxnum", fx("points_line.json"),
            "--budget", "3",
        )
        assert code == 0

    def test_seed_before_the_subcommand(self, capsys):
        before = run(capsys, "--seed", "5", "tiling-gen", "--d", "3")
        after = run(capsys, "tiling-gen", "--d", "3", "--seed", "5")
        default = run(capsys, "tiling-gen", "--d", "3")
        assert before == after != default

    def test_format_before_the_subcommand(self, capsys):
        code, out = run(
            capsys, "--format", "pretty", "boxnum", fx("points_line.json")
        )
        assert code == 0 and out.startswith("{\n")

    def test_usage_error_before_the_subcommand_stays_pretty(self, capsys):
        code = main(["--format", "pretty", "--budget", "q", "boxnum",
                     fx("points_line.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out.startswith("{\n")
        assert json.loads(captured.out)["error"]["code"] == "InputError"
        assert captured.err == ""


class TestArgumentAndFaultReports:
    def test_bad_budget_env_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYBOX_BUDGET", "x")
        code, doc = run_json(capsys, "verify-suit", fx("suit_x.json"))
        assert code == 2 and doc["error"]["code"] == "InputError"
        assert "POLYBOX_BUDGET" in doc["error"]["detail"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("boxnum", "--budget", "abc"),
            ("equiv", "--b", "suit_x.json"),
            ("genome-equiv", "--a", "x", "--b", "y", "--method", "bogus"),
            ("no-such-command",),
            (),
        ],
    )
    def test_usage_errors_are_json_input_errors(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 2 and doc["error"]["code"] == "InputError"
        assert captured.err == ""

    def test_usage_error_honours_pretty_format(self, capsys):
        code = main(["boxnum", fx("points_line.json"), "--format", "pretty",
                     "--budget", "q"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out.startswith("{\n")
        assert json.loads(captured.out)["error"]["code"] == "InputError"
        assert captured.err == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["equiv", "--help"])
        assert info.value.code == 0
        assert "--method" in capsys.readouterr().out

    def test_one_parser_serves_every_call_of_a_process(self, capsys, monkeypatch):
        # a usage error, a valid command and --help in turn, all through the
        # one cached parser, each answering as it would alone
        monkeypatch.chdir(FIX)
        monkeypatch.delenv("POLYBOX_BUDGET", raising=False)
        argv = ["equiv", "--a", "suit_x.json", "--b", "suit_x2.json", "--format", "json"]
        pinned = next(
            case for case in json.loads((FIX / "cli_matrix.json").read_text())
            if case["argv"] == argv
        )
        _build_parser.cache_clear()
        code, doc = run_json(capsys, "equiv", "--b", "suit_x2.json")
        assert code == 2 and doc["error"]["code"] == "InputError"
        assert run(capsys, *argv) == (pinned["code"], pinned["stdout"])
        with pytest.raises(SystemExit) as info:
            main(["equiv", "--help"])
        assert info.value.code == 0
        assert "--method" in capsys.readouterr().out
        assert _build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("command, a, b", [
        ("equiv", "suit_x.json", "suit_x2.json"),
        ("genome-equiv", "genome_class.json", "genome_swapped.json"),
    ])
    def test_disagreeing_route_exits_3(self, capsys, monkeypatch, command, a, b):
        # each layer takes its canon and index verdicts from one
        # same_expansions call; the fixtures are equivalent, so index alone
        # disagrees
        monkeypatch.setattr(
            "polybox.words.same_expansions",
            lambda v, w, flip, modes: [True, False],
        )
        code = main([command, "--a", fx(a), "--b", fx(b)])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["error"]["code"] == "CriteriaDisagree"
        assert "Traceback" in captured.err and "CriteriaDisagree" in captured.err

    def test_overlap_fault_exits_3(self, capsys, monkeypatch):
        def broken(code, members):
            raise GSumExceeds2d("overlap sum 5 exceeds 4")

        monkeypatch.setattr("polybox.genomes._overlap", broken)
        code = main(["cover", "--word", "a,b", "--genome", fx("genome_class.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["error"] == {
            "code": "GSumExceeds2d", "detail": "overlap sum 5 exceeds 4"
        }
        assert "Traceback" in captured.err and "GSumExceeds2d" in captured.err

    @pytest.mark.parametrize("fault", [TheoremViolation, CriteriaDisagree, NoWitness])
    def test_internal_faults_exit_3(self, capsys, monkeypatch, fault):
        def broken(genome):
            raise fault("broken on purpose")

        monkeypatch.setattr("polybox.cli.genome_canonical", broken)
        code = main(["genome-canon", fx("genome_class.json"), "--format", "pretty"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.startswith("{\n")
        assert json.loads(captured.out)["error"] == {
            "code": fault.code,
            "detail": "broken on purpose",
        }
        assert fault.__name__ in captured.err
