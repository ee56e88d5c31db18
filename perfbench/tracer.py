"""Span recorder for the traced run.

Wraps public functions of polybox from outside the package: each wrapper is
bound to the name in every module that holds the original object, so calls
from one layer into another are recorded too.  Spans (name, start, end,
parent) stay in memory until dump(); counters are exact integers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name); serialize's parse_* functions share a span.
SPANS = [
    ("polybox.suits", "box_number", "suits.box_number"),
    ("polybox.suits", "is_polybox", "suits.is_polybox"),
    ("polybox.suits", "proper_suit_for", "suits.proper_suit_for"),
    ("polybox.suits", "verify_suit", "suits.verify_suit"),
    ("polybox.suits", "union_points", "suits.union_points"),
    ("polybox.canon", "canonical_form", "canon.canonical_form"),
    ("polybox.indices", "polybox_equal_by_index", "indices.polybox_equal_by_index"),
    ("polybox.genomes", "reconstruct_minus", "genomes.reconstruct_minus"),
    ("polybox.genomes", "equivalent_by_canon", "genomes.equivalent_by_canon"),
    ("polybox.genomes", "equivalent_by_index", "genomes.equivalent_by_index"),
    ("polybox.genomes", "equivalent_by_cover", "genomes.equivalent_by_cover"),
    ("polybox.tilings", "generate_two_extremal", "tilings.generate_two_extremal"),
    ("polybox.tilings", "tiling_verify", "tilings.tiling_verify"),
    ("polybox.tilings", "is_two_extremal", "tilings.is_two_extremal"),
    ("polybox.tilings", "decompose", "tilings.decompose"),
    ("polybox.tilings", "reconstruct", "tilings.reconstruct"),
    ("polybox.serialize", "loads", "serialize.loads"),
    ("polybox.serialize", "parse_suit", "serialize.parse"),
    ("polybox.serialize", "parse_points", "serialize.parse"),
    ("polybox.serialize", "parse_point_source", "serialize.parse"),
    ("polybox.serialize", "parse_genome", "serialize.parse"),
    ("polybox.serialize", "parse_cubes", "serialize.parse"),
    ("polybox.serialize", "parse_tiling", "serialize.parse"),
    ("polybox.serialize", "dumps", "serialize.dumps"),
    ("polybox.cli", "main", "cli.main"),
]

# Counters: (module, attribute, counter name, amount(args, result)).
COUNTS = [
    ("polybox.boxes", "is_dichotomous", "boxes.is_dichotomous.count", None),
    ("polybox.suits", "box_number", "suits.points.count", lambda a, r: len(a[0].members)),
    ("polybox.canon", "canonical_form", "canon.terms.count", lambda a, r: len(r.coeffs)),
    ("polybox.tilings", "is_two_extremal", "tilings.is_two_extremal.count", None),
    ("polybox.serialize", "dumps", "serialize.bytes_out.count",
     lambda a, r: len(r.encode())),
]

SELF_MS = sorted({name for _, _, name in SPANS})
COUNTERS = sorted(
    {name for _, _, name, _ in COUNTS}
    | {"boxes.box_new.count", "genomes.words.count", "indices.representatives.count"}
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(k)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[k][2] = clock()

        return wrapper

    def _count(self, name, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(args, result)
            return result

        return wrapper

    def _yields(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _post_init(self, cls, name, amount):
        counts = self.counts
        original = cls.__post_init__

        def post_init(obj):
            original(obj)
            counts[name] += amount(obj)

        self._undo.append((cls, "__post_init__", original))
        cls.__post_init__ = post_init

    # -- installation -------------------------------------------------------

    def _rebind(self, module, attr, make):
        """Replace module.attr in every polybox module (and in the
        benchmark's workloads module) that holds the same object."""
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name.startswith("polybox") or name == "workloads") and getattr(
                mod, attr, None
            ) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self):
        for module, attr, name, amount in COUNTS:
            self._rebind(module, attr, lambda fn: self._count(name, fn, amount))
        for module, attr, name in SPANS:
            self._rebind(module, attr, lambda fn: self._span(name, fn))
        self._rebind(
            "polybox.indices", "index_representatives",
            lambda fn: self._yields("indices.representatives.count", fn),
        )
        boxes = sys.modules["polybox.boxes"]
        genomes = sys.modules["polybox.genomes"]
        self._post_init(boxes.Box, "boxes.box_new.count", lambda obj: 1)
        self._post_init(genomes.GenomeSet, "genomes.words.count", lambda obj: len(obj.words))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_ms(self, split: int) -> dict[str, tuple[float, float]]:
        """Per span name: total duration minus the duration of child spans,
        summed separately over spans[:split] and spans[split:]."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: [0.0, 0.0] for name in SELF_MS}
        for k, (name, t0, t1, _) in enumerate(self.spans):
            out[name][k >= split] += (t1 - t0 - child[k]) / 1e6
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
