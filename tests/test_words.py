"""The word kernel against plain routes kept here as references.

`pairwise_first_clash` is the pair-by-pair dichotomy check the per-letter
bitset version of `require_dichotomous` replaced, and `brute_complete`
enumerates every candidate word at once where `complete` searches depth
first.  Both run on box masks (flip = full masks) and on interned letters
(flip = 1).
"""

from __future__ import annotations

import itertools
import random

import pytest
from polybox import BoxSpace
from polybox import words as kernel
from polybox.errors import NotDichotomous, PolyboxError
from polybox.generate import random_alphabet, random_genome, random_suit_for_space


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


def brute_complete(members, flip):
    if len(members) > 1 << len(flip):
        return "ValueError"
    found = [
        w
        for w in itertools.product(*candidates(members, flip))
        if all(any(a ^ f == b for a, b, f in zip(w, v, flip)) for v in members)
    ]
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
        for _ in range(200):
            d = rng.randint(1, 4)
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
            d = rng.randint(1, 3)
            words, flip = suit_words(rng, d)
            rng.shuffle(words)
            members = words[: rng.randint(0, len(words))]
            expected = brute_complete(members, flip)
            solved += isinstance(expected, list)
            assert outcome(members, flip) == expected
        assert 20 < solved < 130

    def test_half_of_a_product_genome(self):
        flip = (1, 1, 1)
        genome = list(itertools.product((2, 3), (4, 5), (2, 3)))
        plus = [w for w in genome if sum(x & 1 for x in w) % 2]
        minus = [w for w in genome if w not in plus]
        assert kernel.complete(plus, flip) == minus
        assert kernel.complete(minus, flip) == plus
