"""JSON document schemas: parse and serialize every CLI payload kind.

Subsets are sorted index arrays, rationals are reduced fraction strings, and
serialization is canonical (sorted keys, fixed separators), so identical
values always produce identical bytes and parse/serialize round-trips are
exact.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Sequence

from .boxes import Box, BoxSpace, members_of
from .canon import CanonicalForm
from .errors import InputError, PolyboxError
from .genomes import Alphabet, GenomeSet, WordCanonicalForm
from .suits import PointSet, Suit
from .tilings import Cube, TorusTiling

VERSION = "1"

KINDS = ("suit", "points", "genome", "tiling", "canonical-form", "report")


def dumps(doc: dict, fmt: str = "json") -> str:
    if fmt == "pretty":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{what}: nested too deeply") from exc


def loads(text: str) -> dict:
    obj = _json(text, "invalid JSON")
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    return obj


def check_envelope(obj: dict, expected_kind: str | None = None) -> str:
    kind = obj.get("kind")
    if kind not in KINDS:
        raise InputError(f"unknown document kind {kind!r}")
    if obj.get("version") != VERSION:
        raise InputError(f"unsupported document version {obj.get('version')!r}")
    if expected_kind is not None and kind != expected_kind:
        raise InputError(f"expected a {expected_kind} document, got {kind}")
    return kind


def _dims(obj: dict) -> BoxSpace:
    dims = obj.get("dims")
    if not isinstance(dims, list) or not all(type(n) is int for n in dims):
        raise InputError("dims must be a list of integers")
    try:
        return BoxSpace(tuple(dims))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _box(space: BoxSpace, raw: Any, where: str) -> Box:
    if not isinstance(raw, list) or len(raw) != space.d:
        raise InputError(f"{where}: a box needs {space.d} subsets")
    try:
        box = Box.from_sets(space, [_subset(s, where) for s in raw])
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    for s in raw:
        if any(a >= b for a, b in zip(s, s[1:])):
            raise InputError(f"{where}: subset {s} is not increasing without repeats")
    return box


def parse_box(space: BoxSpace, text: str) -> Box:
    """A box given as a JSON array of subsets, checked as in documents."""
    return _box(space, _json(text, "invalid box"), "invalid box")


def _subset(raw: Any, where: str) -> list[int]:
    if not isinstance(raw, list) or not all(type(x) is int for x in raw):
        raise InputError(f"{where}: subsets are integer arrays")
    return raw


def parse_suit(obj: dict) -> tuple[BoxSpace, list[Box]]:
    """The space and box list of a suit document; suit validation is the
    caller's move so invalid collections can be reported precisely."""
    check_envelope(obj, "suit")
    space = _dims(obj)
    raw = obj.get("boxes")
    if not isinstance(raw, list) or not raw:
        raise InputError("boxes must be a nonempty list")
    return space, [_box(space, b, f"box {k}") for k, b in enumerate(raw)]


def serialize_suit(s: Suit) -> dict:
    return {
        "kind": "suit",
        "version": VERSION,
        "dims": list(s.space.dims),
        "boxes": [
            [list(members_of(m)) for m in box.factors] for box in s.boxes
        ],
    }


def parse_points(obj: dict) -> PointSet:
    check_envelope(obj, "points")
    space = _dims(obj)
    raw = obj.get("points")
    if not isinstance(raw, list):
        raise InputError("points must be a list")
    pts = []
    for p in raw:
        if not isinstance(p, list) or not all(type(x) is int for x in p):
            raise InputError("each point is an integer array")
        pts.append(tuple(p))
    try:
        ps = PointSet(space, frozenset(pts))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if len(ps) != len(pts):
        raise InputError("points must not repeat")
    return ps


def serialize_points(ps: PointSet) -> dict:
    return {
        "kind": "points",
        "version": VERSION,
        "dims": list(ps.space.dims),
        "points": [list(p) for p in sorted(ps.members)],
    }


def parse_point_source(obj: dict) -> tuple[str, Any]:
    """Accept a suit or an explicit point set where either is meaningful."""
    kind = check_envelope(obj)
    if kind == "suit":
        return "suit", parse_suit(obj)
    if kind == "points":
        return "points", parse_points(obj)
    raise InputError(f"expected a suit or points document, got {kind}")


def _letters(raw: list) -> tuple[str, ...]:
    if not all(isinstance(s, str) for s in raw):
        raise InputError("letters must be JSON strings")
    return tuple(raw)


def _alphabet(obj: dict) -> Alphabet:
    raw = obj.get("pairs")
    if not isinstance(raw, list) or not raw:
        raise InputError("pairs must be a nonempty list")
    pairs = []
    for p in raw:
        if not isinstance(p, list) or len(p) != 2:
            raise InputError("each letter pair is a two-element array")
        pairs.append(_letters(p))
    try:
        return Alphabet(tuple(pairs))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_genome(obj: dict) -> GenomeSet:
    check_envelope(obj, "genome")
    d = obj.get("d")
    if type(d) is not int or d < 1:
        raise InputError("d must be a positive integer")
    alphabet = _alphabet(obj)
    raw = obj.get("words")
    if not isinstance(raw, list):
        raise InputError("words must be a list")
    words = []
    for w in raw:
        if not isinstance(w, list):
            raise InputError("each word is an array of letters")
        words.append(_letters(w))
    try:
        return GenomeSet(alphabet, d, tuple(words))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def serialize_genome(g: GenomeSet) -> dict:
    return {
        "kind": "genome",
        "version": VERSION,
        "d": g.d,
        "pairs": [list(p) for p in g.alphabet.pairs],
        "words": [list(w) for w in g.words],
    }


# The documented rational form; rejecting exponents and decimals up front
# keeps a short string from standing for a huge integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def fraction(raw: Any, where: str) -> Fraction:
    """A rational given as a 'p/q' string, checked as in documents."""
    if not isinstance(raw, str) or not _RATIONAL.fullmatch(raw):
        raise InputError(f"{where}: rationals are 'p/q' strings")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise InputError(f"{where}: zero denominator") from None
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc


def parse_cubes(obj: dict) -> list[Cube]:
    """Cube rows of a tiling document, without the full-tiling count check."""
    check_envelope(obj, "tiling")
    d = obj.get("d")
    if type(d) is not int or d < 1:
        raise InputError("d must be a positive integer")
    raw = obj.get("cubes")
    if not isinstance(raw, list) or not raw:
        raise InputError("cubes must be a nonempty list")
    cubes = []
    for k, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != d:
            raise InputError(f"cube {k} needs {d} coordinates")
        cubes.append(tuple(fraction(x, f"cube {k}") for x in row))
    return cubes


def parse_tiling(obj: dict) -> TorusTiling:
    cubes = parse_cubes(obj)
    d = len(cubes[0])
    return TorusTiling(d, tuple(cubes))


def printable(x: int | Fraction) -> int | Fraction:
    """x, once it is known to print: a number of more digits than int-to-text
    conversion allows is an input error, not Python's ValueError."""
    try:
        str(x)
    except ValueError:
        big = max(abs(x.numerator), x.denominator).bit_length()
        raise InputError(f"cannot print a {big}-bit numerator or denominator") from None
    return x


def cube_rows(cubes: Sequence[Cube]) -> list[list[str]]:
    """Each cube's coordinates as reduced fraction strings."""
    return [[str(printable(x)) for x in c] for c in cubes]


def serialize_cubes(d: int, cubes: Sequence[Cube]) -> dict:
    return {
        "kind": "tiling",
        "version": VERSION,
        "d": d,
        "cubes": cube_rows(cubes),
    }


def serialize_canonical_form(cf: CanonicalForm) -> dict:
    return {
        "kind": "canonical-form",
        "version": VERSION,
        "basis": "box",
        "dims": list(cf.space.dims),
        "terms": [
            [[list(members_of(m)) for m in key], value]
            for key, value in cf.sorted_items()
        ],
    }


def serialize_word_canonical_form(cf: WordCanonicalForm) -> dict:
    return {
        "kind": "canonical-form",
        "version": VERSION,
        "basis": "word",
        "d": cf.d,
        "terms": [[list(key), value] for key, value in cf.sorted_items()],
    }


def report(command: str, **payload) -> dict:
    doc = {"kind": "report", "version": VERSION, "command": command}
    doc.update(payload)
    return doc


def error_document(exc: PolyboxError) -> dict:
    return {"error": {"code": exc.code, "detail": str(exc)}}
