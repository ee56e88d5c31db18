"""The word kernel against plain routes kept here as references.

`pairwise_first_clash` is the pair-by-pair dichotomy check the per-letter
bitset version of `require_dichotomous` replaced, `brute_complete`
enumerates every candidate word at once where `complete` branches on the
members not yet hit, `dense_index_sums` scans `index` over every starred
positive word where `expand` with stars visits only the nonzero ones, and
comparing two whole expansions is the reference for `same_expansion`.
`exact_expansion_check` sums every word's terms where `require_expansion`
counts them only when their bound is over the budget.  All run on box masks
(flip = full masks) and on interned letters (flip = 1).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from polybox import BoxSpace, index_representatives, polybox_equal_by_index
from polybox import words as kernel
from polybox.errors import (
    BudgetExceeded,
    NotDichotomous,
    NotUnique,
    PolyboxError,
    require_budget,
    run_with_budget,
)
from generate import (
    letter_names,
    mutate_genome,
    mutate_suit,
    random_alphabet,
    random_genome,
    random_proper_suit,
    random_suit_for_space,
)
from helpers import suit_union_set
from polybox.genomes import Alphabet, equivalent_by_cover, equivalent_by_index
from polybox.oracle import points_equal


def pairwise_first_clash(words, flip):
    for i, v in enumerate(words):
        for j in range(i + 1, len(words)):
            if not any(a ^ f == b for a, b, f in zip(v, words[j], flip)):
                return i, j
    return None


def bitset_first_clash(words, flip):
    try:
        kernel.require_dichotomous(words, flip)
    except NotDichotomous as exc:
        return exc.i, exc.j
    return None


def candidates(members, flip):
    out = []
    for i, f in enumerate(flip):
        having = {w[i] for w in members}
        out.append(sorted(having | {x ^ f for x in having}))
    return out


def brute_found(members, flip):
    return [
        w
        for w in itertools.product(*candidates(members, flip))
        if all(any(a ^ f == b for a, b, f in zip(w, v, flip)) for v in members)
    ]


def brute_complete(members, flip):
    if len(members) > 1 << len(flip):
        return "ValueError"
    found = brute_found(members, flip)
    missing = (1 << len(flip)) - len(members)
    if len(found) < missing:
        return "Incomplete"
    if len(found) > missing:
        return "NotUnique"
    if pairwise_first_clash(list(members) + found, flip) is not None:
        return "NotUnique"
    return found


def outcome(members, flip):
    try:
        return kernel.complete(members, flip)
    except PolyboxError as exc:
        return exc.code
    except ValueError:
        return "ValueError"


def genome_words(rng, d):
    """A full genome in interned letters (flip = 1)."""
    g = random_genome(random_alphabet(rng, max_pairs=3), d, rng)
    return list(g.codes)


def suit_words(rng, d):
    """A proper suit for a whole space as factor masks, with its flip."""
    space = BoxSpace(tuple(rng.choice((2, 3, 4)) for _ in range(d)))
    return [b.factors for b in random_suit_for_space(space, rng)], space.full_masks


def damaged(rng, words, letters):
    """A shuffled copy with one word replaced or duplicated."""
    out = list(words)
    rng.shuffle(out)
    k = rng.randrange(len(out))
    if rng.randrange(2):
        out[k] = tuple(rng.choice(s) for s in letters)
    else:
        out.insert(rng.randrange(len(out) + 1), out[k])
    return out


class TestRequireDichotomous:
    def test_matches_pairwise_on_letters(self):
        rng = random.Random(51)
        raised = 0
        for _ in range(300):
            d = rng.randint(1, 5)
            flip = (1,) * d
            letters = [range(2, 2 * rng.randint(1, 3) + 2)] * d
            kind = rng.randrange(3)
            if kind == 0:
                n = rng.randint(0, 12)
                words = [tuple(rng.choice(s) for s in letters) for _ in range(n)]
            else:
                words = genome_words(rng, d)
                if kind == 2:
                    words = damaged(rng, words, letters)
            expected = pairwise_first_clash(words, flip)
            raised += expected is not None
            assert bitset_first_clash(words, flip) == expected
        assert 50 < raised < 250

    def test_matches_pairwise_on_masks(self):
        rng = random.Random(52)
        raised = 0
        for _ in range(300):
            d = rng.randint(1, 3)
            words, flip = suit_words(rng, d)
            letters = [range(1, f + 1) for f in flip]
            if rng.randrange(2):
                words = damaged(rng, words, letters)
            expected = pairwise_first_clash(words, flip)
            raised += expected is not None
            assert bitset_first_clash(words, flip) == expected
        assert 50 < raised < 250

    def test_empty_and_single(self):
        kernel.require_dichotomous([], (1, 1))
        kernel.require_dichotomous([(2, 3)], (1, 1))
        with pytest.raises(NotDichotomous) as info:
            kernel.require_dichotomous([(2, 3), (3, 3), (2, 3)], (1, 1))
        assert (info.value.i, info.value.j) == (0, 2)


class TestComplete:
    def test_matches_brute_force_on_letters(self):
        rng = random.Random(53)
        solved = 0
        for _ in range(250):
            d = rng.randint(1, 5)
            flip = (1,) * d
            words = genome_words(rng, d)
            rng.shuffle(words)
            members = words[: rng.randint(0, len(words))]
            if members and rng.randrange(4) == 0:
                members = damaged(rng, members, candidates(members, flip))
            expected = brute_complete(members, flip)
            solved += isinstance(expected, list)
            assert outcome(members, flip) == expected
        assert 20 < solved < 180

    def test_matches_brute_force_on_masks(self):
        rng = random.Random(54)
        solved = 0
        for _ in range(150):
            d = rng.randint(1, 4)
            words, flip = suit_words(rng, d)
            rng.shuffle(words)
            members = words[: rng.randint(0, len(words))]
            expected = brute_complete(members, flip)
            solved += isinstance(expected, list)
            assert outcome(members, flip) == expected
        assert 20 < solved < 130

    def test_members_not_pairwise_dichotomous(self):
        # the found words pass the count checks, so only the final dichotomy
        # check sees the members' clash
        for members, flip, clash in (
            ([(2,), (4,)], (1,), (0, 1)),
            ([(2, 2), (2, 3), (4, 2)], (1, 1), (0, 2)),
        ):
            with pytest.raises(NotUnique, match="do not extend") as info:
                kernel.complete(members, flip)
            cause = info.value.__cause__
            assert isinstance(cause, NotDichotomous)
            assert (cause.i, cause.j) == clash

    def test_clash_cause_matches_pairwise_on_damaged_fragments(self):
        # the final check runs on the members through the search's hit
        # tables and on the words found on their own; its cause must still
        # be the first clash of members + found
        rng = random.Random(55)
        causes = Counter()
        for _ in range(1500):
            on_letters = rng.randrange(2)
            if on_letters:
                d = rng.randint(1, 4)
                flip = (1,) * d
                words = genome_words(rng, d)
            else:
                words, flip = suit_words(rng, rng.randint(1, 3))
            rng.shuffle(words)
            members = words[: rng.randint(1, len(words))]
            members = damaged(rng, members, candidates(members, flip))
            try:
                kernel.complete(members, flip)
            except NotUnique as exc:
                cause = exc.__cause__
                if cause is not None:
                    found = brute_found(members, flip)
                    clash = pairwise_first_clash(members + found, flip)
                    assert (cause.i, cause.j) == clash
                    causes[on_letters] += 1
            except (PolyboxError, ValueError):
                pass
        assert causes[0] > 10 and causes[1] > 10

    def test_clash_among_the_words_found(self):
        # pairwise dichotomous members that no genome extends: the 10 words
        # found hit every member, but two of them clash with each other, so
        # the cause indexes members + found past the 6 members
        members = [
            (4, 4, 3, 5), (5, 3, 3, 3), (2, 3, 2, 5),
            (4, 5, 4, 4), (5, 2, 4, 2), (3, 5, 5, 2),
        ]
        flip = (1,) * 4
        kernel.require_dichotomous(members, flip)
        found = brute_found(members, flip)
        assert len(found) == 10
        with pytest.raises(NotUnique, match="do not extend") as info:
            kernel.complete(members, flip)
        cause = info.value.__cause__
        assert (cause.i, cause.j) == pairwise_first_clash(members + found, flip)
        assert cause.i >= len(members)

    def test_half_of_a_product_genome(self):
        flip = (1, 1, 1)
        genome = list(itertools.product((2, 3), (4, 5), (2, 3)))
        plus = [w for w in genome if sum(x & 1 for x in w) % 2]
        minus = [w for w in genome if w not in plus]
        assert kernel.complete(plus, flip) == minus
        assert kernel.complete(minus, flip) == plus


def positives(letters, f):
    return sorted({x if x & 1 else x ^ f for x in letters})


def dense_index_sums(words, flip, letters):
    """index over every starred positive word on the given letters, with
    zeros dropped."""
    universe = itertools.product(
        *([f] + positives(s, f) for s, f in zip(letters, flip))
    )
    sums = {u: kernel.index(u, words, flip) for u in universe}
    return {u: c for u, c in sums.items() if c}


def dense_suits_equal(f, g):
    """Index agreement scanned over every class representative."""
    flip = f.space.full_masks
    fw = [a.factors for a in f.boxes]
    gw = [a.factors for a in g.boxes]
    return all(
        kernel.index(c.factors, fw, flip) == kernel.index(c.factors, gw, flip)
        for c in index_representatives(f.space)
    )


def dense_genomes_equal(v, w):
    """Index agreement scanned over starred positive words on the letters
    occurring at each position."""
    flip = (1,) * v.d
    letters = [{c[i] for c in v.codes + w.codes} for i in range(v.d)]
    return dense_index_sums(v.codes, flip, letters) == dense_index_sums(
        w.codes, flip, letters
    )


class TestIndexSums:
    def test_small_words_by_hand(self):
        assert kernel.expand([], (1, 1), stars=True) == {}
        assert kernel.expand([(3,)], (1,), stars=True) == {(1,): 1, (3,): 1}
        assert kernel.expand([(2,)], (1,), stars=True) == {(1,): 1, (3,): -1}
        assert kernel.expand([(3,), (2,)], (1,), stars=True) == {(1,): 2}
        # masks in a 3-element factor: {0} is positive, {1, 2} is not
        assert kernel.expand([(0b001,), (0b110,)], (0b111,), stars=True) == {
            (0b111,): 2
        }
        assert kernel.expand([(0b010, 0b011)], (0b111, 0b111), stars=True) == {
            (0b111, 0b111): 1,
            (0b111, 0b011): 1,
            (0b101, 0b111): -1,
            (0b101, 0b011): -1,
        }

    def test_matches_dense_scan_on_letters(self):
        rng = random.Random(55)
        for _ in range(300):
            d = rng.randint(1, 5)
            flip = (1,) * d
            letters = [range(2, 2 * rng.randint(1, 3) + 2)] * d
            kind = rng.randrange(3)
            if kind == 0:
                n = rng.randint(0, 12)
                words = [tuple(rng.choice(s) for s in letters) for _ in range(n)]
            else:
                words = genome_words(rng, d)
                if kind == 2:
                    words = damaged(rng, words, letters)
            letters = [{*s, *(w[i] for w in words)} for i, s in enumerate(letters)]
            assert kernel.expand(words, flip, stars=True) == dense_index_sums(
                words, flip, letters
            )

    def test_matches_dense_scan_on_masks(self):
        rng = random.Random(56)
        for _ in range(200):
            d = rng.randint(1, 3)
            words, flip = suit_words(rng, d)
            letters = [range(1, f) for f in flip]
            if rng.randrange(2):
                words = damaged(rng, words, letters)
            words = words[: rng.randint(0, len(words))]
            assert kernel.expand(words, flip, stars=True) == dense_index_sums(
                words, flip, letters
            )

    def test_suit_verdicts_match_dense_route(self):
        rng = random.Random(57)
        verdicts = []
        for k in range(120):
            d = rng.randint(1, 3)
            space = BoxSpace(tuple(rng.choice((2, 3, 4)) for _ in range(d)))
            f = random_proper_suit(space, rng)
            if k % 2:
                g = mutate_suit(f, rng, moves=4)
            else:
                g = random_proper_suit(space, rng)
            verdict = polybox_equal_by_index(f, g)
            assert verdict == dense_suits_equal(f, g)
            verdicts.append(verdict)
        assert 60 <= sum(verdicts) < 110

    def test_genome_verdicts_match_dense_route(self):
        rng = random.Random(58)
        verdicts = []
        for k in range(90):
            if k < 6:
                d, alphabet = 6, Alphabet(letter_names(3))
            else:
                d, alphabet = rng.randint(1, 4), random_alphabet(rng, max_pairs=3)
            v = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            if k % 2:
                w = mutate_genome(v, rng, moves=4)
            else:
                w = random_genome(alphabet, d, rng, size=len(v))
            verdict = equivalent_by_index(v, w)
            assert verdict == dense_genomes_equal(v, w)
            verdicts.append(verdict)
        assert 45 <= sum(verdicts) < 80


def same_by_expanding(v, w, flip, stars):
    return kernel.expand(v, flip, stars) == kernel.expand(w, flip, stars)


def regrouped(rng, words, flip, letters):
    """A shuffled copy with the same expansion: disjoint twin pairs are
    resplit into another letter and its complement, or merged into one word
    holding the star."""
    out = list(words)
    used, dropped = set(), set()
    for i, j, at in kernel.twin_pairs(words, flip):
        if used & {i, j}:
            continue
        used |= {i, j}
        if rng.randrange(3):
            y = rng.choice(letters[at])
            out[i], out[j] = (
                out[i][:at] + (z,) + out[i][at + 1:] for z in (y, y ^ flip[at])
            )
        else:
            out[i] = out[i][:at] + (flip[at],) + out[i][at + 1:]
            dropped.add(j)
    out = [u for k, u in enumerate(out) if k not in dropped]
    rng.shuffle(out)
    return out


def corner(rng, flip, letters):
    """Two twin-free sides with one expansion: three words of a 2 x 2 block
    at positions i < j, grouped as (*, y) + (x, y') and as (x, *) + (x', y).
    Gluing leaves both as they are, so only expanding tells them equal."""
    i, j = sorted(rng.sample(range(len(flip)), 2))
    u = [rng.choice(s) for s in letters]
    x, y = u[i], u[j]

    def put(a, b):
        w = list(u)
        w[i], w[j] = a, b
        return tuple(w)

    return (
        [put(flip[i], y), put(x, y ^ flip[j])],
        [put(x, flip[j]), put(x ^ flip[i], y)],
    )


class TestSameExpansion:
    def pairs(self, rng, n):
        """(v, w, flip): equal pairs by regrouping, permuting or grouping a
        corner two ways, unequal pairs, duplicate words and empty sides, on
        letters (flip = 1) and masks, d <= 5."""
        for k in range(n):
            d = rng.randint(1, 5)
            if k % 2:
                flip = (1,) * d
                letters = [range(2, 2 * rng.randint(1, 3) + 2)] * d
                words = genome_words(rng, d)
            else:
                words, flip = suit_words(rng, min(d, 4))
                letters = [range(1, f) for f in flip]
            words = words[: rng.randint(0, len(words))]
            kind = rng.randrange(7)
            if kind == 0 or kind == 6 and d < 2:
                other = regrouped(rng, words, flip, letters)
            elif kind == 1:
                other = rng.sample(words, len(words))
            elif kind == 2:
                other = damaged(rng, words, letters) if words else words
            elif kind == 3:
                other = [tuple(rng.choice(s) for s in letters) for _ in words]
            elif kind == 4:
                other = []
            elif kind == 5:
                other = regrouped(rng, words, flip, letters)
                extra = [tuple(rng.choice(s) for s in letters)] * rng.randint(1, 3)
                words = words + extra
                other = other + extra[: rng.randint(0, len(extra))]
            else:
                one, two = corner(rng, flip, letters)
                other = regrouped(rng, words, flip, letters) + two
                words = words + one
            yield (words, other, flip) if rng.randrange(2) else (other, words, flip)

    def test_matches_full_expansion(self, monkeypatch):
        calls = Counter()

        def counted(fn):
            def call(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return call

        for fn in (kernel._glue, kernel.expand):
            monkeypatch.setattr(kernel, fn.__name__, counted(fn))
        rng = random.Random(61)
        verdicts = []
        decided = Counter()  # matching residues, by the branch deciding them
        for v, w, flip in self.pairs(rng, 1500):
            for stars in (False, True):
                calls.clear()
                verdict = kernel.same_expansion(v, w, flip, stars)
                if calls["_glue"]:
                    decided["expanded" if calls["expand"] else "glued"] += 1
                assert verdict == same_by_expanding(v, w, flip, stars), (v, w, flip)
            verdicts.append(verdict)
        assert 500 <= sum(verdicts) <= 1000
        assert decided["glued"] >= 900 and decided["expanded"] >= 200

    def test_both_modes_at_once_match_two_calls(self, monkeypatch):
        # same_expansions cancels and glues once for both modes; each
        # verdict, or the first error and its message, must be what one
        # same_expansion call per mode gives, at every budget up to one bit
        # past what the larger side's expansion with stars needs
        glued = []
        glue = kernel._glue

        def counted(words, flip):
            glued.append(words)
            return glue(words, flip)

        def outcome(budget, fn):
            try:
                return run_with_budget(budget, fn)
            except PolyboxError as exc:
                return type(exc).__name__, str(exc)

        monkeypatch.setattr(kernel, "_glue", counted)
        rng = random.Random(73)
        seen = Counter()
        for k in range(160):
            if k < 8:
                d, alphabet = 5, Alphabet(letter_names(3))
            else:
                d, alphabet = rng.randint(1, 4), random_alphabet(rng, max_pairs=3)
            v = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            if k % 2:
                w = mutate_genome(v, rng, moves=rng.randint(1, 4))
            else:
                w = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            flip = (1,) * d
            bits = ((max(len(v), len(w)) << d) - 1).bit_length()
            for a, b in ((v.codes, w.codes), (w.codes, v.codes)):
                for budget in range(bits + 2):
                    glued.clear()
                    both = outcome(budget, lambda: tuple(
                        kernel.same_expansions(a, b, flip, (False, True))
                    ))
                    once = len(glued)
                    glued.clear()
                    each = outcome(budget, lambda: tuple(
                        kernel.same_expansion(a, b, flip, stars)
                        for stars in (False, True)
                    ))
                    assert both == each, (a, b, budget)
                    # one glue per side, where two calls glue per mode
                    assert once <= min(2, len(glued))
                    if each == (True, True):
                        assert 2 * once == len(glued) == 4
                    if isinstance(each[0], bool):
                        seen[each] += 1
                    elif isinstance(outcome(budget, lambda: kernel.same_expansion(
                        a, b, flip
                    )), bool):
                        seen["index refused"] += 1
                    else:
                        seen["canon refused"] += 1
        # both verdicts, and refusals before either verdict and after the
        # first, where the budget passes the count of terms without stars
        # but not the bound with them
        assert seen["canon refused"] >= 500 and seen["index refused"] >= 100
        assert seen[True, True] >= 100 and seen[False, False] >= 100

    def test_glue_keeps_expansion_and_leaves_no_twin(self):
        rng = random.Random(67)
        shrunk = 0
        for k in range(600):
            d = rng.randint(1, 4)
            if k % 2:
                flip = (1,) * d
                letters = [range(1, 2 * rng.randint(1, 2) + 2)] * d  # 1 is the star
            else:
                flip = tuple(rng.choice((3, 7, 15)) for _ in range(d))
                letters = [range(1, f + 1) for f in flip]  # f is the star
            pool = [tuple(rng.choice(s) for s in letters) for _ in range(3)]
            for u in rng.sample(pool, 2):
                i = rng.randrange(d)
                pool.append(u[:i] + (u[i] ^ flip[i],) + u[i + 1:])
            words = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
            glued = list(Counter(kernel._glue(words, flip)).elements())
            assert not kernel.twin_pairs(glued, flip), (words, glued)
            for stars in (False, True):
                assert same_by_expanding(glued, words, flip, stars), (words, glued)
            shrunk += len(glued) < len(words)
        assert shrunk >= 300

    def test_cover_and_oracle_never_glue(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("glued")

        monkeypatch.setattr(kernel, "_glue", refuse)
        rng = random.Random(71)
        verdicts = Counter()
        for k in range(60):
            alphabet = random_alphabet(rng, max_pairs=3)
            d = rng.randint(1, 4)
            v = random_genome(alphabet, d, rng, size=rng.randint(1, 1 << d))
            if k % 2:
                w = mutate_genome(v, rng)
            else:
                w = random_genome(alphabet, d, rng, size=len(v))
            verdict = equivalent_by_cover(v, w)
            assert verdict == dense_genomes_equal(v, w)
            verdicts["cover", verdict] += 1
            space = BoxSpace(tuple(rng.choice((2, 3)) for _ in range(min(d, 3))))
            f = random_proper_suit(space, rng)
            g = mutate_suit(f, rng) if k % 2 else random_proper_suit(space, rng)
            verdict = points_equal(f, g)
            assert verdict == (suit_union_set(f) == suit_union_set(g))
            verdicts["oracle", verdict] += 1
        assert min(verdicts.values()) >= 10 and len(verdicts) == 4
        # the routes through same_expansion do glue a matching residue
        with pytest.raises(AssertionError, match="glued"):
            equivalent_by_index(v, v)

    def test_duplicates_cancel_as_a_multiset(self):
        v = [(6,), (7,), (3,), (5,)]
        w = [(6,), (5,), (3,), (2,), (5,)]
        for stars in (False, True):
            assert same_by_expanding(v, w, (7,), stars)
            assert kernel.same_expansion(v, w, (7,), stars)
            assert not kernel.same_expansion(v + [(5,)], w, (7,), stars)
        assert kernel.same_expansion([], [], (1, 1))
        assert kernel.same_expansion([(2,), (3,)], [(1,)], (1,))
        assert not kernel.same_expansion([(2,), (3,)], [], (1,))

    def test_refutes_without_expanding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("expanded")

        v = [(2, 3, 5), (3, 2, 4)]
        w = [(3, 3, 5), (2, 2, 4)]
        flip = (1, 1, 1)
        for stars in (False, True):
            assert not same_by_expanding(v, w, flip, stars)
        monkeypatch.setattr(kernel, "expand", refuse)
        for stars in (False, True):
            assert not kernel.same_expansion(v, w, flip, stars)
        # equal residues are glued first: the twins (2, 3, 5) and (3, 3, 5)
        # glue into the starred word (1, 3, 5)
        for stars in (False, True):
            assert kernel.same_expansion(
                [(2, 3, 5), (3, 3, 5)], [(1, 3, 5)], flip, stars
            )
        # twin-free sides with equal expansions still reach expand
        v, w, flip = [(1, 3), (3, 2)], [(3, 1), (2, 3)], (1, 1)
        assert not kernel.twin_pairs(v, flip) and not kernel.twin_pairs(w, flip)
        for stars in (False, True):
            with pytest.raises(AssertionError, match="expanded"):
                kernel.same_expansion(v, w, flip, stars)
        monkeypatch.undo()
        for stars in (False, True):
            assert same_by_expanding(v, w, flip, stars)
            assert kernel.same_expansion(v, w, flip, stars)

    def test_budget_refuses_before_any_work(self):
        v = [(2,) * 8, (3,) * 8]  # 2^8 + 1 terms, or 2 * 2^8 with stars
        w = [(2,) * 7 + (3,)]  # 2^7 terms, or 2^8 with stars
        flip = (1,) * 8
        for stars, first, second in ((False, v, w), (False, w, v), (True, w, v)):
            with pytest.raises(BudgetExceeded) as expected:
                run_with_budget(7, kernel.expand, first, flip, stars)
                run_with_budget(7, kernel.expand, second, flip, stars)
            with pytest.raises(BudgetExceeded) as got:
                run_with_budget(7, kernel.same_expansion, first, second, flip, stars)
            assert str(got.value) == str(expected.value)
        assert str(got.value) == "expansion needs log2 terms = 8 <= budget 7"


def exact_expansion_bits(words, stars):
    """log2 of the terms, summed word by word as require_expansion once did."""
    positive = (1).__and__
    size = sum(1 << len(w) - (0 if stars else sum(map(positive, w))) for w in words)
    return (size - 1).bit_length()


def exact_expansion_check(words, stars):
    require_budget(exact_expansion_bits(words, stars), "expansion needs log2 terms")


def budget_outcome(fn, budget, words, stars):
    try:
        run_with_budget(budget, fn, words, stars)
    except BudgetExceeded as exc:
        return str(exc)
    return None


class TestRequireExpansion:
    def test_matches_exact_count(self):
        rng = random.Random(7316)
        cases = [[], [()]]
        for _ in range(400):
            d = rng.randrange(1, 9)
            n = rng.choice((1, 1, 2, 3, 8, 40))
            # even letters are negative and odd ones positive, in box masks
            # and in interned letters alike
            top = rng.choice((3, 15, (1 << 20) - 1))
            cases.append([tuple(rng.randint(1, top) for _ in range(d)) for _ in range(n)])
        refused = passed = 0
        for words in cases:
            for stars in (False, True):
                for budget in range(exact_expansion_bits(words, stars) + 2):
                    got = budget_outcome(kernel.require_expansion, budget, words, stars)
                    want = budget_outcome(exact_expansion_check, budget, words, stars)
                    assert got == want, (words, stars, budget)
                    refused += got is not None
                    passed += got is None
        assert refused and passed

    def test_bound_over_budget_but_exact_count_within(self):
        # 3 positive words of length 8: 3 terms (2 bits), bounded by 3 << 8
        words = [(3,) * 8, (5,) * 8, (7,) * 8]
        for budget in (2, 3, 9):
            run_with_budget(budget, kernel.require_expansion, words)
        with pytest.raises(BudgetExceeded) as got:
            run_with_budget(9, kernel.require_expansion, words, True)
        assert str(got.value) == "expansion needs log2 terms = 10 <= budget 9"

    def test_empty_list_states_one_bit(self):
        for stars in (False, True):
            run_with_budget(1, kernel.require_expansion, [], stars)
            with pytest.raises(BudgetExceeded) as got:
                run_with_budget(0, kernel.require_expansion, [], stars)
            assert str(got.value) == "expansion needs log2 terms = 1 <= budget 0"
