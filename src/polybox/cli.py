"""Command-line surface: JSON in, JSON out, deterministic bytes.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
domain verdict (not equivalent, not covered, not 2-extremal, a chess-board
point meeting a plus cube), 2 for any input problem, bad arguments, a
bad POLYBOX_BUDGET and a step over the budget included, and 3 for an
internal fault (TheoremViolation, CriteriaDisagree, NoWitness), a bug whose
traceback also goes to stderr.  A tiling that is not 2-extremal given to
tiling-decompose or tiling-chessboard exits 2, since 2-extremality is their
premise.  Exits 2 and 3 print a machine-readable
{"error": {"code": ..., "detail": ...}} on stdout.

The global flags --budget, --seed and --format go on either side of the
subcommand.  main puts the budget in force for the run, and each handler
returns (exit code, document) without writing; main alone serializes the
document, error documents included, to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from . import serialize as ser
from .canon import canonical_form, same_polybox, suits_equivalent
from .errors import (
    DEFAULT_BUDGET,
    CriteriaDisagree,
    InputError,
    NoWitness,
    PolyboxError,
    TheoremViolation,
    require_budget,
    run_with_budget,
)
from .genomes import (
    covers,
    equivalent_by_canon,
    equivalent_by_cover,
    equivalent_by_index,
    genome_canonical,
    genomes_equivalent,
    reconstruct_minus,
)
from .indices import (
    binary_code_profile,
    even_odd_code,
    more_less_code,
    polybox_equal_by_index,
    suit_index,
)
from .oracle import points_equal
from .suits import Suit, box_number, hat_cardinality, verify_suit
from .tilings import (
    chessboard_check,
    decompose,
    generate_two_extremal,
    is_two_extremal,
    reconstruct,
)

# Faults in the library itself must stay loud instead of becoming polite
# input errors: they get their own exit code and a traceback on stderr.
_INTERNAL = (TheoremViolation, CriteriaDisagree, NoWitness)


class _Parser(argparse.ArgumentParser):
    """Turns usage errors into InputError, reported like any bad input."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _load(path: str) -> dict:
    if path == "-":
        return ser.loads(sys.stdin.read())
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return ser.loads(text)


def _load_suit(path: str, require_proper: bool = False) -> Suit:
    space, boxes = ser.parse_suit(_load(path))
    return verify_suit(boxes, require_proper=require_proper)


def _cmd_verify_suit(args) -> tuple[int, dict]:
    suit = _load_suit(args.input, require_proper=args.proper)
    return 0, ser.report(
        args.command, valid=True, proper=suit.is_proper, box_count=len(suit)
    )


def _cmd_boxnum(args) -> tuple[int, dict]:
    kind, parsed = ser.parse_point_source(_load(args.input))
    if kind == "suit":  # additive over the boxes, each |A|_0 a power of 2
        suit = verify_suit(parsed[1])
        value = hat_cardinality(suit) >> (suit.space.size_sum - 2 * suit.space.d)
        count = sum(b.size() for b in suit)
    else:
        value, count = box_number(parsed), len(parsed)
    return 0, ser.report(
        args.command,
        box_number=str(ser.printable(value)),
        integral=value.denominator == 1,
        point_count=ser.printable(count),
    )


def _cmd_canon(args) -> tuple[int, dict]:
    suit = _load_suit(args.input, require_proper=True)
    return 0, ser.serialize_canonical_form(canonical_form(suit))


def _cmd_equiv(args) -> tuple[int, dict]:
    f = _load_suit(args.a, require_proper=True)
    g = _load_suit(args.b, require_proper=True)
    if args.method == "all":
        methods = dict(zip(("canon", "index"), same_polybox(f, g, (False, True))))
        methods["oracle"] = points_equal(f, g)
        if len(set(methods.values())) > 1:
            raise CriteriaDisagree(f"methods disagree: {methods}")
    else:
        route = {"canon": suits_equivalent, "index": polybox_equal_by_index,
                 "oracle": points_equal}[args.method]
        methods = {args.method: route(f, g)}
    equal = all(methods.values())
    return 0 if equal else 1, ser.report(args.command, equal=equal, methods=methods)


def _cmd_index(args) -> tuple[int, dict]:
    suit = _load_suit(args.suit, require_proper=True)
    box = ser.parse_box(suit.space, args.box)
    return 0, ser.report(args.command, index=suit_index(suit, box))


def _cmd_codes(args) -> tuple[int, dict]:
    suit = _load_suit(args.input, require_proper=True)
    code = (even_odd_code if args.pattern == "eo" else more_less_code)(suit.space)
    profile = binary_code_profile(suit, code)
    return 0, ser.report(
        args.command,
        pattern=args.pattern,
        codewords=[list(w) for w in profile.codewords],
        weight_histogram=list(profile.weight_histogram),
    )


def _cmd_genome_canon(args) -> tuple[int, dict]:
    genome = ser.parse_genome(_load(args.input))
    return 0, ser.serialize_word_canonical_form(genome_canonical(genome))


def _cmd_genome_equiv(args) -> tuple[int, dict]:
    v = ser.parse_genome(_load(args.a))
    w = ser.parse_genome(_load(args.b))
    if args.method == "all":
        methods = dict.fromkeys(("canon", "index", "cover"), genomes_equivalent(v, w))
    else:
        route = {"canon": equivalent_by_canon, "index": equivalent_by_index,
                 "cover": equivalent_by_cover}[args.method]
        methods = {args.method: route(v, w)}
    equal = all(methods.values())
    return 0 if equal else 1, ser.report(args.command, equal=equal, methods=methods)


def _parse_word(raw: str) -> tuple[str, ...]:
    letters = tuple(s.strip() for s in raw.split(","))
    if not all(letters):
        raise InputError(f"malformed word {raw!r}")
    return letters


def _cmd_cover(args) -> tuple[int, dict]:
    genome = ser.parse_genome(_load(args.genome))
    try:
        result = covers(_parse_word(args.word), genome)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return 0 if result.covered else 1, ser.report(
        args.command, covered=result.covered, gap=result.gap, g_sum=result.g_sum
    )


def _cmd_rigidity(args) -> tuple[int, dict]:
    fragment = ser.parse_genome(_load(args.plus))
    universe = None
    if args.universe:
        universe = ser.parse_genome(_load(args.universe)).alphabet
    try:
        minus = reconstruct_minus(fragment, universe)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return 0, ser.serialize_genome(minus)


def _cmd_tiling_verify(args) -> tuple[int, dict]:
    tiling = ser.parse_tiling(_load(args.input))
    return 0, ser.report(
        args.command, valid=True, d=tiling.d, cube_count=len(tiling.cubes)
    )


def _cmd_tiling_extremal(args) -> tuple[int, dict]:
    result = is_two_extremal(ser.parse_tiling(_load(args.input)))
    return 0 if result.two_extremal else 1, ser.report(
        args.command,
        two_extremal=result.two_extremal,
        partners=[list(p) for p in result.partners],
    )


def _cmd_tiling_decompose(args) -> tuple[int, dict]:
    tiling = ser.parse_tiling(_load(args.input))
    dec = decompose(tiling, select=args.select, seed=args.seed)
    return 0, ser.report(
        args.command,
        select=args.select,
        plus=ser.cube_rows(dec.plus),
        minus=ser.cube_rows(dec.minus),
    )


def _cmd_tiling_reconstruct(args) -> tuple[int, dict]:
    cubes = ser.parse_cubes(_load(args.input))
    minus = reconstruct(cubes)
    return 0, ser.report(args.command, d=len(cubes[0]), minus=ser.cube_rows(minus))


def _cmd_tiling_gen(args) -> tuple[int, dict]:
    if args.count < 1:
        raise InputError("count must be positive")
    if args.d < 1:
        raise InputError("d must be positive")
    bits = 2 * args.d + (args.count - 1).bit_length()
    require_budget(bits, "generation needs log2(count 4^d)")
    tilings = [
        generate_two_extremal(args.d, args.seed + k) for k in range(args.count)
    ]
    return 0, ser.report(
        args.command,
        d=args.d, seed=args.seed, count=args.count,
        tilings=[ser.cube_rows(t.cubes) for t in tilings],
    )


def _cmd_tiling_chessboard(args) -> tuple[int, dict]:
    tiling = ser.parse_tiling(_load(args.input))
    dec = decompose(tiling, select=args.select, seed=args.seed)
    z = tuple(ser.fraction(s.strip(), "z") for s in args.z.split(","))
    result = chessboard_check(tiling, dec, z)
    overlap = None if result.overlap is None else [str(x) for x in result.overlap]
    return 0 if result.in_minus else 1, ser.report(
        args.command, z=[str(x) for x in z], in_minus=result.in_minus, overlap=overlap
    )


def _default_budget() -> int:
    raw = os.environ.get("POLYBOX_BUDGET", str(DEFAULT_BUDGET))
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"POLYBOX_BUDGET must be an integer, got {raw!r}")


@cache  # parsing leaves the parser as it was, so a process builds it once
def _build_parser() -> argparse.ArgumentParser:
    # Global flags, on the main parser and every subparser, set nothing
    # unless given (main supplies the defaults), so either side may hold them.
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int,
                        help="log2 of the work any exponential step may do "
                             "(default 24; env override: POLYBOX_BUDGET)")
    common.add_argument("--seed", type=int)
    common.add_argument("--format", choices=("json", "pretty"))

    parser = _Parser(
        prog="polybox",
        parents=[common],
        description="Exact verification toolkit for dichotomous boxes, "
        "polybox invariants, word genomes, and torus cube tilings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, input=False, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        if input:
            p.add_argument("input", nargs="?", default="-")
        return p

    p = add("verify-suit", _cmd_verify_suit, input=True,
            help="validate a suit document")
    p.add_argument("--proper", action="store_true")

    add("boxnum", _cmd_boxnum, input=True,
        help="box number of a suit union or point set")
    add("canon", _cmd_canon, input=True, help="canonical form of a proper suit")

    p = add("equiv", _cmd_equiv, help="polybox equality of two proper suits")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=("canon", "index", "oracle", "all"),
                   default="all")

    p = add("index", _cmd_index, help="index of a suit relative to a box")
    p.add_argument("--suit", required=True)
    p.add_argument("--box", required=True,
                   help="JSON array of factor subsets, e.g. [[0],[0,1,2]]")

    p = add("codes", _cmd_codes, input=True,
            help="binary code profile of a proper suit")
    p.add_argument("--pattern", choices=("eo", "ml"), required=True)

    add("genome-canon", _cmd_genome_canon, input=True,
        help="canonical form of a genome")

    p = add("genome-equiv", _cmd_genome_equiv, help="genome equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=("canon", "index", "cover", "all"),
                   default="all")

    p = add("cover", _cmd_cover, help="decide whether a genome covers a word")
    p.add_argument("--word", required=True, help="comma-separated letters")
    p.add_argument("--genome", required=True)

    p = add("rigidity", _cmd_rigidity,
            help="reconstruct the minus half of a genome from its plus half")
    p.add_argument("--plus", required=True)
    p.add_argument("--universe", default=None,
                   help="genome document supplying the search alphabet")

    add("tiling-verify", _cmd_tiling_verify, input=True,
        help="validate a tiling document")
    add("tiling-extremal", _cmd_tiling_extremal, input=True,
        help="check 2-extremality")

    p = add("tiling-decompose", _cmd_tiling_decompose, input=True,
            help="split a 2-extremal tiling into plus and minus halves")
    p.add_argument("--select", choices=("lex", "seed"), default="lex")

    add("tiling-reconstruct", _cmd_tiling_reconstruct, input=True,
        help="recover the minus half from a plus half")

    p = add("tiling-gen", _cmd_tiling_gen, help="generate 2-extremal tilings")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=1)

    p = add("tiling-chessboard", _cmd_tiling_chessboard, input=True,
            help="chess-board membership test for a translation vector")
    p.add_argument("--z", required=True, help="comma-separated rationals")
    p.add_argument("--select", choices=("lex", "seed"), default="lex")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # --format is read first, so that a usage error elsewhere in argv is still
    # reported in that format; the full parse reports a bad or missing value
    pre = _Parser(add_help=False)
    pre.add_argument("--format", nargs="?", default="json")
    fmt = pre.parse_known_args(argv)[0].format
    try:
        defaults = argparse.Namespace(budget=None, seed=0)
        args = _build_parser().parse_args(argv, defaults)
        budget = _default_budget() if args.budget is None else args.budget
        code, doc = run_with_budget(budget, args.fn, args)
    except _INTERNAL as exc:
        import traceback  # on the fault path only, to keep start-up lean

        traceback.print_exc()
        code, doc = 3, ser.error_document(exc)
    except PolyboxError as exc:
        code, doc = 2, ser.error_document(exc)
    sys.stdout.write(ser.dumps(doc, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
