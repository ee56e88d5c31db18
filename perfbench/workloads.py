"""The four workloads: seeded inputs, the timed operation, and its check.

Each workload has
  make(seed)          plain, JSON-able items built by the benchmark's own code
  prepare(items, out) program objects (or files) built from the items; this
                      and the package import are the workload's set-up
  op(arg)             one timed operation, returning the program's outputs
  check(item, result) independent check of those outputs (checks.py)
  PROBE               indices of a few items that other workloads' traced
                      rounds add, so that every layer is timed on every workload
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import inputs
from checks import CheckFailed, require

# Bound at set-up by load_program(); the tracer patches these modules.
polybox = None


def load_program():
    global polybox
    import polybox as pb
    import polybox.cli  # noqa: F401  (cli_docs and the traced run call main)

    polybox = pb
    return pb


def masks(suit) -> list[tuple[int, ...]]:
    return [tuple(b.factors) for b in suit.boxes]


# -- tiling_rigidity --------------------------------------------------------


class TilingRigidity:
    """generate -> verify -> extremality -> decompose (lex, seed) -> reconstruct."""

    name = "tiling_rigidity"
    D = 6
    OPS = 32
    PROBE = (0,)

    def make(self, seed):
        rng = inputs.rng_for(self.name, seed)
        return [{"d": self.D, "seed": rng.randrange(1 << 31)} for _ in range(self.OPS)]

    def prepare(self, items, out_dir):
        return items

    def op(self, item):
        t = polybox.tilings
        tiling = t.generate_two_extremal(item["d"], item["seed"])
        verified = t.tiling_verify([[str(x) for x in c] for c in tiling.cubes])
        extremal = t.is_two_extremal(verified)
        out = [tiling.cubes, verified.cubes, extremal.two_extremal]
        for select in ("lex", "seed"):
            dec = t.decompose(verified, select=select, seed=item["seed"])
            out += [dec.plus, dec.minus, t.reconstruct(dec.plus), t.reconstruct(dec.minus)]
        return out

    def check(self, item, result):
        cubes, verified, extremal = result[:3]
        require(verified == cubes, "tiling_verify changed the cubes")
        require(extremal is True, "generated tiling reported not 2-extremal")
        unit = checks.common_unit(cubes)
        scaled = checks.scaled(cubes, unit)
        require(len(scaled[0]) == item["d"], "wrong dimension")
        checks.partners(scaled, unit)
        for k, lex in ((3, True), (7, False)):
            plus, minus, from_plus, from_minus = (
                checks.scaled(c, unit) for c in result[k:k + 4]
            )
            checks.check_halves(scaled, plus, minus, unit, lex)
            require(sorted(from_plus) == sorted(minus), "reconstruct(plus) != minus")
            require(sorted(from_minus) == sorted(plus), "reconstruct(minus) != plus")


# -- partition_search -------------------------------------------------------


class PartitionSearch:
    """box_number, is_polybox and proper_suit_for of one point set."""

    name = "partition_search"
    # (kind, dims, size, count) per round; size is the number of suit boxes
    # of a union and the number of points of a random set.  Every class has
    # one input size, and the counts put the median among the 90 integral
    # 5-point sets in 3x3 (0.25 ms today), away from the other clusters.
    # Whole-space suits in 4x4 set the tail: in 3x3x3 a single one takes
    # seconds and its time swings by a quarter with the load on a shared
    # machine, so that instance is a reference figure (README.md) instead.
    CLASSES = (
        ("non-integral", (3, 3), 5, 45),
        ("non-integral", (4, 4), 8, 45),
        ("non-integral", (3, 3, 3), 10, 45),
        ("union", (3, 3), 2, 30),
        ("union", (4, 4), 2, 30),
        ("union", (3, 3, 3), 2, 30),
        ("union", (3, 3, 3), 3, 15),
        ("integral", (3, 3), 5, 90),
        ("integral", (4, 4), 8, 30),
        ("integral", (3, 3, 3), 7, 30),
        ("union", (4, 4), 4, 30),
    )
    PROBE = (0,)

    def make(self, seed):
        rng = inputs.rng_for(self.name, seed)
        items = []
        for kind, dims, size, count in self.CLASSES:
            for _ in range(count):
                if kind == "union":
                    items.append(self._union(dims, inputs.random_sub_suit(rng, dims, size)))
                else:
                    items.append(self._sample(rng, dims, kind, size))
        return items

    @staticmethod
    def _union(dims, boxes):
        pts = sorted({p for b in boxes for p in inputs.box_points(b)})
        require(checks.box_number(dims, pts) == len(boxes), "suit union with |G|_0 != |F|")
        return {"dims": dims, "points": pts, "kind": "union", "boxes": len(boxes)}

    @staticmethod
    def _sample(rng, dims, kind, size):
        """A random set with a non-integral |G|_0, or an integral positive
        one that the exhaustive search shows is no polybox."""
        while True:
            pts = inputs.random_point_set(rng, dims, size)
            b0 = checks.box_number(dims, pts)
            if (b0.denominator == 1) != (kind == "integral"):
                continue
            if kind == "integral" and (b0 <= 0 or checks.partition_exists(dims, pts, int(b0))):
                continue
            return {"dims": dims, "points": list(pts), "kind": kind}

    def prepare(self, items, out_dir):
        pb = polybox
        return [
            pb.PointSet(pb.BoxSpace(tuple(it["dims"])), frozenset(map(tuple, it["points"])))
            for it in items
        ]

    def op(self, g):
        s = polybox.suits
        number = s.box_number(g)
        return number, s.is_polybox(g), s.proper_suit_for(g)

    def check(self, item, result):
        number, polybox_, suit = result
        checks.check_partition_verdict(
            tuple(item["dims"]),
            [tuple(p) for p in item["points"]],
            number,
            polybox_,
            None if suit is None else masks(suit),
            item["kind"] == "union",
        )


# -- equivalence ------------------------------------------------------------


class Equivalence:
    """One pair: suits by canon and by index, genomes by all three routes."""

    name = "equivalence"
    # (dims or word length, suit size or letter pairs, pairs per round); half
    # of each class are resplit copies, half independent draws.  Equal suit
    # pairs of four boxes in 3x3x3 cost 1.1-1.25 ms and hold the median:
    # independent draws exit early and sit below it, the larger classes above.
    SUITS = (((3, 3, 3), 2, 80), ((3, 3, 3), 4, 240), ((4, 4, 4), 4, 80),
             ((3, 3, 3, 3), 8, 80))
    # d = 6 over three letter pairs costs 50-190 ms a pair and would outweigh
    # everything else.
    GENOMES = ((5, 3, 80), (6, 2, 80))
    PROBE = (0, -1)

    def make(self, seed):
        rng = inputs.rng_for(self.name, seed)
        items = []
        for dims, size, count in self.SUITS:
            for k in range(count):
                f = inputs.random_sub_suit(rng, dims, size)
                if k % 2 == 0:
                    g = inputs.resplit_suit(rng, dims, f)
                else:
                    g = inputs.random_sub_suit(rng, dims, size)
                items.append({"kind": "suits", "dims": dims, "f": f, "g": g})
        for d, npairs, count in self.GENOMES:
            pairs = inputs.LETTER_PAIRS[:npairs]
            for k in range(count):
                v = inputs.random_genome(rng, d, pairs)
                if k % 2 == 0:
                    w = inputs.resplit_genome(rng, pairs, v)
                else:
                    w = inputs.random_genome(rng, d, pairs)
                items.append({"kind": "genomes", "d": d, "pairs": pairs, "v": v, "w": w})
        return items

    def prepare(self, items, out_dir):
        pb = polybox
        args = []
        for it in items:
            if it["kind"] == "suits":
                space = pb.BoxSpace(tuple(it["dims"]))
                pair = []
                for boxes in (it["f"], it["g"]):
                    suit = pb.verify_suit([pb.Box(space, tuple(b)) for b in boxes], True)
                    pb.union_points(suit)
                    pair.append(suit)
                args.append(("suits", *pair))
            else:
                alphabet = pb.Alphabet(tuple(map(tuple, it["pairs"])))
                v, w = (
                    pb.GenomeSet(alphabet, it["d"], tuple(map(tuple, words)))
                    for words in (it["v"], it["w"])
                )
                args.append(("genomes", v, w))
        return args

    def op(self, arg):
        kind, a, b = arg
        if kind == "suits":
            return (
                polybox.canon.suits_equivalent(a, b),
                polybox.indices.polybox_equal_by_index(a, b),
            )
        return (polybox.genomes.genomes_equivalent(a, b),)

    def check(self, item, result):
        if item["kind"] == "suits":
            checks.check_suit_equal(item["dims"], item["f"], item["g"], result)
        else:
            checks.check_genome_equal(item["pairs"], item["v"], item["w"], result[0])


# -- cli_docs ---------------------------------------------------------------


def doc(kind, **fields) -> str:
    return json.dumps({"kind": kind, "version": "1", **fields}, sort_keys=True)


# `python -m polybox.cli`, then the process's own peak resident memory as the
# last line of stderr.  VmHWM covers this address space only; the rusage of
# a child counts the peak of the parent's address space it was forked from.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("polybox.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(l for l in status if l.startswith("VmHWM:")))
"""


class CliDocs:
    """One `python -m polybox.cli` process on one document written at set-up."""

    name = "cli_docs"
    COPIES = 2
    D = 5
    PROBE = (0,)

    def make(self, seed):
        rng = inputs.rng_for(self.name, seed)
        items = []
        for _ in range(self.COPIES):
            dims = (3, 3, 3)
            boxes = inputs.random_sub_suit(rng, dims, rng.randint(2, 8))
            suit = doc("suit", dims=dims, boxes=[[checks.members(m) for m in b] for b in boxes])
            for cmd in (["verify-suit", "--proper"], ["canon"], ["boxnum"]):
                items.append({"cmd": cmd, "doc": suit, "dims": dims, "boxes": boxes})
            pdims = rng.choice(((4, 4), (3, 3, 3)))
            pts = inputs.random_point_set(rng, pdims, 8)
            items.append({
                "cmd": ["boxnum"], "dims": pdims, "points": pts,
                "doc": doc("points", dims=pdims, points=pts),
            })
            pairs = inputs.LETTER_PAIRS
            words = inputs.random_genome(rng, self.D, pairs)
            items.append({
                "cmd": ["genome-canon"], "pairs": pairs, "words": words,
                "doc": doc("genome", d=self.D, pairs=pairs, words=words),
            })
            cubes = inputs.random_tiling(rng, self.D)
            plus, minus = inputs.split_lex(cubes)
            tiling = doc("tiling", d=self.D, cubes=inputs.cube_strs(cubes))
            for cmd in (["tiling-verify"], ["tiling-extremal"], ["tiling-decompose"]):
                items.append({"cmd": cmd, "doc": tiling, "cubes": cubes})
            items.append({
                "cmd": ["tiling-reconstruct"], "cubes": cubes, "half": minus,
                "doc": doc("tiling", d=self.D, cubes=inputs.cube_strs(plus)),
            })
            items.append({
                "cmd": ["rigidity", "--plus"], "cubes": cubes, "half": plus,
                "doc": doc("genome", d=self.D, pairs=inputs.tiling_pairs(cubes),
                           words=inputs.cube_strs(minus)),
            })
            items += self._malformed(rng, suit, boxes, dims, cubes, words)
        return items

    def _malformed(self, rng, suit, boxes, dims, cubes, words):
        """Documents whose correct answer is an exit-2 error document."""
        cut = rng.randrange(1, len(suit) - 1)
        overlap = [[checks.members(m) for m in b] for b in boxes[:1] * 2]
        drop = rng.randrange(len(cubes))
        word = list(words[0])
        word[rng.randrange(len(word))] = "z"
        return [
            {"cmd": ["verify-suit"], "doc": suit[:cut], "error": "InputError"},
            {"cmd": ["verify-suit"], "doc": doc("suit", dims=dims, boxes=overlap),
             "error": "NotDichotomous"},
            {"cmd": ["tiling-verify"], "error": "WrongCount",
             "doc": doc("tiling", d=self.D, cubes=inputs.cube_strs(cubes[:drop] + cubes[drop + 1:]))},
            {"cmd": ["genome-canon"], "error": "InputError",
             "doc": doc("genome", d=self.D, pairs=inputs.LETTER_PAIRS, words=[word] + words[1:])},
        ]

    def prepare(self, items, out_dir):
        src = Path(polybox.__file__).resolve().parent.parent
        self._env = {**os.environ, "PYTHONPATH": str(src)}
        self.child_peak_kib = 0
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = []
        for k, it in enumerate(items):
            path = out_dir / f"doc{k:03d}.json"
            path.write_text(it["doc"])
            argv.append([*it["cmd"], str(path)])
        return argv

    def op(self, argv):
        """(exit code, stdout) of one CLI process; keeps the largest child RSS."""
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *argv],
            capture_output=True, env=self._env,
        )
        peak = proc.stderr.rsplit(b"\n", 2)[-2]
        require(peak.startswith(b"VmHWM:"), f"no peak memory in {peak[-200:]!r}")
        self.child_peak_kib = max(self.child_peak_kib, int(peak.split()[1]))
        return proc.returncode, proc.stdout.decode()

    def op_in_process(self, argv):
        """The same command through polybox.cli.main in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = polybox.cli.main(argv)
        return code, buf.getvalue()

    def check(self, item, result):
        code, out = result
        require(checks.canonical_bytes(out), "output is not canonical JSON")
        got = json.loads(out)
        if "error" in item:
            require(code == 2, f"exit {code} for a malformed document")
            require(got["error"]["code"] == item["error"], f"error {got['error']}")
            return
        require(code == 0, f"exit {code}: {out[:200]}")
        cmd = item["cmd"][0]
        if cmd == "verify-suit":
            require(got["valid"] and got["proper"], "suit reported invalid")
            require(got["box_count"] == len(item["boxes"]), "box count")
        elif cmd == "canon":
            require(got["basis"] == "box" and got["dims"] == list(item["dims"]), "canon header")
            checks.check_box_canon(item["dims"], item["boxes"], got["terms"])
        elif cmd == "boxnum":
            pts = item.get("points")
            if pts is None:
                pts = checks.disjoint_union(item["boxes"])
            b0 = checks.box_number(item["dims"], pts)
            require(got["box_number"] == str(b0), f"box number {got['box_number']} != {b0}")
            require(got["integral"] == (b0.denominator == 1), "integral flag")
            require(got["point_count"] == len(pts), "point count")
        elif cmd == "genome-canon":
            require(got["basis"] == "word" and got["d"] == self.D, "canon header")
            checks.check_word_canon(item["pairs"], self.D, item["words"], got["terms"])
        else:
            self._check_tiling(cmd, item, got)

    def _check_tiling(self, cmd, item, got):
        unit = inputs.UNIT
        cubes = [tuple(c) for c in item["cubes"]]

        def read(rows):
            return [tuple(inputs.coord_value(x) for x in r) for r in rows]

        if cmd == "tiling-verify":
            require(got["valid"] and got["d"] == self.D, "tiling reported invalid")
            require(got["cube_count"] == len(cubes), "cube count")
        elif cmd == "tiling-extremal":
            mate = checks.partners(cubes, unit)
            want = sorted([i, j] for i, j in mate.items() if i < j)
            require(got["two_extremal"] is True, "tiling reported not 2-extremal")
            require(sorted(got["partners"]) == want, "partner pairs")
        elif cmd == "tiling-decompose":
            checks.check_halves(cubes, read(got["plus"]), read(got["minus"]), unit, True)
        elif cmd == "tiling-reconstruct":
            require(sorted(read(got["minus"])) == sorted(map(tuple, item["half"])), "minus half")
        elif cmd == "rigidity":
            require(sorted(read(got["words"])) == sorted(map(tuple, item["half"])), "plus half")
        else:
            raise CheckFailed(f"no check for {cmd}")


WORKLOADS = {w.name: w for w in (TilingRigidity(), PartitionSearch(), Equivalence(), CliDocs())}
