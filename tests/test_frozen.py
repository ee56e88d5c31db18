"""The value classes' shared frozen base, checked against dataclasses.

Each class is compared with a frozen `dataclasses.make_dataclass` reference
holding the same field values: equality, hash, repr, keyword construction
and refused assignment must behave alike.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import polybox
import pytest
from polybox import (
    Alphabet,
    BinaryCode,
    Box,
    BoxSpace,
    CanonicalForm,
    CodeProfile,
    DyadicLabelling,
    ExtremalDecomposition,
    GenomeSet,
    PointSet,
    Suit,
    TorusTiling,
    WordCanonicalForm,
)
from helpers import Realization

SRC = Path(__file__).resolve().parents[1] / "src"

S33 = BoxSpace((3, 3))
S2 = BoxSpace((2,))
AB = Alphabet((("a", "b"),))
CD = Alphabet((("c", "d"),))
F0, F1 = Fraction(0), Fraction(1)


def parity(x):
    return x & 1


def label(box):
    return 0


# class -> (field names, values of one instance, values of a different one);
# function-valued fields compare by identity, so both sides share them
CASES = {
    BoxSpace: (("dims",), ((3, 3),), ((2, 3),)),
    Box: (("space", "factors"), (S33, (1, 6)), (S33, (1, 2))),
    PointSet: (("space", "members"), (S33, {(0, 1)}), (S33, {(0, 1), (2, 2)})),
    Suit: (("space", "boxes"), (S33, [Box(S33, (1, 7))]), (S33, [Box(S33, (6, 7))])),
    CanonicalForm: (("space", "coeffs"), (S33, {(1, 7): 1}), (S33, {(7, 7): -1})),
    Alphabet: (("pairs",), ((("a", "b"),),), ((("a", "c"),),)),
    GenomeSet: (("alphabet", "d", "words"), (AB, 1, [("a",)]), (AB, 1, [("a",), ("b",)])),
    WordCanonicalForm: (("d", "coeffs"), (1, {("a",): 1}), (1, {("*",): 1})),
    BinaryCode: (("space", "bit_fns"), (S33, (parity, parity)), (S2, (parity,))),
    CodeProfile: (("codewords", "weight_histogram"), (((0, 1),), (0, 1, 0)), ((), (0,))),
    DyadicLabelling: (("space", "label_fn", "labels"), (S33, label, frozenset({0})),
                      (S33, label, frozenset({1}))),
    Realization: (("alphabet", "space", "factor_maps"), (AB, S2, ({"a": 1, "b": 2},)),
                  (CD, S2, ({"c": 1, "d": 2},))),
    TorusTiling: (("d", "cubes"), (1, [("0",), ("1",)]), (1, [("1/2",), ("3/2",)])),
    ExtremalDecomposition: (("plus", "minus"), (((F0,),), ((F1,),)), (((F1,),), ((F0,),))),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_behaves_as_a_frozen_dataclass(cls):
    names, one, other = CASES[cls]
    a, b, c = cls(*one), cls(*one), cls(*other)
    Ref = dataclasses.make_dataclass(cls.__name__, names, frozen=True)

    def ref(x):
        return Ref(*(getattr(x, name) for name in names))

    ra, rb, rc = ref(a), ref(b), ref(c)
    assert a is not b and a == b and a == a and not a != b
    assert (a == c) is (ra == rc) is False and (a != c) is (ra != rc) is True
    assert a.__eq__(object()) is ra.__eq__(object()) is NotImplemented
    assert a != ra  # another class never compares equal
    assert (cls.__hash__ is None) is (cls in (CanonicalForm, WordCanonicalForm))
    try:
        expected = hash(ra)
    except TypeError:  # a field value is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected and hash(c) == hash(rc)
    if cls is Box:
        assert repr(a) == "Box[{0},{1,2}]"
    else:
        assert repr(a) == repr(ra) and repr(c) == repr(rc)
    assert cls(**dict(zip(names, one))) == a
    assert cls(*one[:1], **dict(zip(names[1:], one[1:]))) == a
    for x in (a, ra):
        with pytest.raises(AttributeError):
            setattr(x, names[0], getattr(x, names[0]))
        with pytest.raises(AttributeError):
            delattr(x, names[-1])


def test_wrong_arguments_are_refused():
    names, one, _ = CASES[Box]
    keywords = dict(zip(names, one))
    for args, kwargs in [
        (one[:-1], {}),  # a field missing
        (one + (None,), {}),  # one value too many
        (one, {names[0]: one[0]}),  # a field given twice
        ((), {**keywords, "extra": 1}),  # no such field
    ]:
        with pytest.raises(TypeError, match="takes the fields"):
            Box(*args, **kwargs)


@pytest.mark.parametrize(
    "cls, make",
    [
        (Box, lambda: Box(S33, (1, 2))),
        (GenomeSet, lambda: GenomeSet(AB, 1, (("a",), ("b",)))),
    ],
    ids=["Box", "GenomeSet"],
)
def test_post_init_patched_on_the_class_runs(monkeypatch, cls, make):
    # the benchmark's tracer counts constructions this way
    seen = []
    original = cls.__post_init__

    def post_init(obj):
        original(obj)
        seen.append(obj)

    monkeypatch.setattr(cls, "__post_init__", post_init)
    obj = make()
    assert seen == [obj]


def test_cli_import_loads_no_dataclasses():
    code = (
        "import sys; before = set(sys.modules); import polybox.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_are_pinned():
    assert polybox.__all__ == [
        "Alphabet", "BinaryCode", "Box", "BoxSpace", "CanonicalForm",
        "ChessboardResult", "CodeProfile", "CoverResult", "DEFAULT_BUDGET",
        "DyadicLabelling", "ExtremalDecomposition", "GenomeSet", "PointSet",
        "STAR", "Suit", "TorusTiling", "WordCanonicalForm", "apply_epsilon",
        "binary_code_profile", "box_number", "boxes", "canon", "canonical_form",
        "chessboard_check", "complement_action", "covers", "decompose",
        "epsilon_of", "equicomplementary_labelling", "errors", "eta",
        "even_odd_code", "generate_two_extremal", "genome_canonical", "genomes",
        "genomes_equivalent", "hat_cardinality", "index_representatives",
        "indices", "induced_decomposition", "is_dichotomous",
        "is_minimal_partition", "is_polybox", "is_twin_pair", "is_two_extremal",
        "mask_of", "members_of", "more_less_code", "phi",
        "polybox_equal_by_index", "project_box", "proper_suit_for",
        "reconstruct", "reconstruct_minus", "rigidity_witness", "simple_suit",
        "strongly_disjoint", "suit_index", "suits", "suits_equivalent",
        "tiling_verify", "tilings", "union_points",
        "verify_dyadic", "verify_suit", "word_expand", "word_index",
    ]
