"""CLI fuzz: any documents and arguments give one JSON document and exit
0, 1 or 2.

Documents of every kind are drawn small and often malformed: fixture
documents with a field replaced or added, structured documents with random
fields, and arbitrary JSON.  Every subcommand gets its required options,
with values that are sometimes nonsense.  Runs are under --budget 12, so
any exponential step is refused long before the deadline; exit 3 (an
internal fault) or an uncaught exception fails the test.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from polybox.cli import main

FIX = Path(__file__).parent / "fixtures"
FIXTURES = [
    json.loads((FIX / name).read_text())
    for name in ("suit_x.json", "suit_small.json", "suit_bad.json",
                 "points_line.json", "genome_class.json", "genome_plus.json",
                 "tiling_d2.json", "tiling_plus_d2.json", "tiling_bad.json")
]

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
small = st.integers(-1, 5)
rational = st.sampled_from(["0", "1", "1/2", "3/2", "1/3", "4/3", "2", "-1",
                            "1/0", "x", "1e9"])
letters = st.sampled_from(["a", "a'", "b", "b'", "c", "*", ""])


def envelope(kind, **fields):
    return st.fixed_dictionaries(
        {"kind": st.just(kind), "version": st.just("1"), **fields}
    )


structured = st.one_of(
    envelope("suit", dims=st.lists(small, max_size=3),
             boxes=st.lists(st.lists(st.lists(small, max_size=3), max_size=3),
                            max_size=4)),
    envelope("points", dims=st.lists(small, max_size=3),
             points=st.lists(st.lists(small, max_size=3), max_size=5)),
    envelope("genome", d=small,
             pairs=st.lists(st.lists(letters, min_size=2, max_size=2),
                            max_size=3),
             words=st.lists(st.lists(letters, max_size=3), max_size=5)),
    envelope("tiling", d=small,
             cubes=st.lists(st.lists(rational, max_size=3), max_size=5)),
    envelope("canonical-form", terms=junk),
    envelope("report", command=junk),
)


@st.composite
def mutated_fixture(draw):
    doc = dict(draw(st.sampled_from(FIXTURES)))
    key = draw(st.sampled_from(sorted(doc) + ["extra"]))
    doc[key] = draw(junk | structured)
    return doc


documents = st.one_of(st.sampled_from(FIXTURES), mutated_fixture(),
                      structured, junk)
text = st.text(alphabet="ab',*0123456789[]/ -", max_size=12)


@st.composite
def argv(draw):
    command = draw(st.sampled_from([
        "verify-suit", "boxnum", "canon", "equiv", "index", "codes",
        "genome-canon", "genome-equiv", "cover", "rigidity", "tiling-verify",
        "tiling-extremal", "tiling-decompose", "tiling-reconstruct",
        "tiling-gen", "tiling-chessboard",
    ]))
    a, b = "a.json", "b.json"
    methods = {"equiv": ["canon", "index", "oracle", "all"],
               "genome-equiv": ["canon", "index", "cover", "all"]}
    options = {
        "equiv": ["--a", a, "--b", b, "--method",
                  draw(st.sampled_from(methods["equiv"]))],
        "genome-equiv": ["--a", a, "--b", b, "--method",
                         draw(st.sampled_from(methods["genome-equiv"]))],
        "index": ["--suit", a, "--box",
                  draw(st.sampled_from(["[[0],[0,1]]", "[[0]]"]) | text
                       | junk.map(json.dumps))],
        "codes": [a, "--pattern", draw(st.sampled_from(["eo", "ml"]))],
        "cover": ["--genome", a, "--word",
                  draw(st.sampled_from(["a,b", "a',b", "a"]) | text)],
        "rigidity": ["--plus", a]
        + draw(st.sampled_from([[], ["--universe", b]])),
        "tiling-gen": ["--d", str(draw(st.integers(-1, 7))),
                       "--count", str(draw(st.integers(-1, 3)))],
        "tiling-chessboard": [a, "--z",
                              draw(st.sampled_from(["1,0", "1/2,0"]) | text),
                              "--select", draw(st.sampled_from(["lex", "seed"]))],
        "tiling-decompose": [a, "--select",
                             draw(st.sampled_from(["lex", "seed"]))],
        "verify-suit": [a] + draw(st.sampled_from([[], ["--proper"]])),
    }.get(command, [a])
    seed = ["--seed", str(draw(st.integers(0, 9)))]
    return [command, *options, *seed, "--budget", "12"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(args=argv(), a=documents, b=documents,
       fmt=st.sampled_from(["json", "pretty"]))
@settings(max_examples=200, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_run_prints_one_json_document(workdir, args, a, b, fmt):
    (workdir / "a.json").write_text(json.dumps(a))
    (workdir / "b.json").write_text(json.dumps(b))
    paths = {"a.json": str(workdir / "a.json"), "b.json": str(workdir / "b.json")}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([paths.get(x, x) for x in args] + ["--format", fmt])
    assert code in (0, 1, 2), (args, a, b)
    json.loads(out.getvalue())
