"""Seeded random generators for fuzzing every layer of the library.

All functions take an explicit random.Random so experiments and the
acceptance suite are reproducible.  Suits for a whole space come from a
random twin-splitting tree (always of size 2^d); suits and genomes for the
same polybox come from twin merge-and-resplit moves, which provably preserve
both the suit property and the union.
"""

from __future__ import annotations

import itertools
import random
import string
from operator import xor
from typing import Optional

from polybox import words as kernel
from polybox.boxes import Box, BoxSpace, is_dichotomous
from polybox.genomes import Alphabet, GenomeSet, Word
from polybox.suits import Suit, verify_suit


def random_space(
    rng: random.Random, max_d: int = 3, dim_choices: tuple[int, ...] = (2, 3, 4)
) -> BoxSpace:
    d = rng.randint(1, max_d)
    return BoxSpace(tuple(rng.choice(dim_choices) for _ in range(d)))


def random_proper_box(space: BoxSpace, rng: random.Random) -> Box:
    return Box(
        space,
        tuple(rng.randrange(1, space.full_masks[i]) for i in range(space.d)),
    )


def random_suit_for_space(space: BoxSpace, rng: random.Random) -> Suit:
    """A proper suit for the whole space via a random twin-splitting tree.

    Every branch splits each coordinate exactly once with a random proper
    subset, so the 2^d leaves are pairwise dichotomous and partition X.
    """

    def rec(factors: tuple[int, ...], remaining: tuple[int, ...]) -> list[Box]:
        if not remaining:
            return [Box(space, factors)]
        i = rng.choice(remaining)
        rest = tuple(c for c in remaining if c != i)
        t = rng.randrange(1, space.full_masks[i])
        left = list(factors)
        left[i] = t
        right = list(factors)
        right[i] = space.full_masks[i] ^ t
        return rec(tuple(left), rest) + rec(tuple(right), rest)

    boxes = rec(space.full_masks, tuple(range(space.d)))
    return verify_suit(boxes, require_proper=True)


def random_proper_suit(
    space: BoxSpace, rng: random.Random, max_size: Optional[int] = None
) -> Suit:
    """A random nonempty subset of a random suit for the space."""
    leaves = random_suit_for_space(space, rng).boxes
    cap = len(leaves) if max_size is None else min(max_size, len(leaves))
    k = rng.randint(1, cap)
    return verify_suit(rng.sample(leaves, k), require_proper=True)


def all_suit_unions(space: BoxSpace, max_size: int) -> list[frozenset]:
    """Every distinct union of a proper suit of at most max_size boxes, in
    the order a depth-first walk over mask-lexicographic boxes finds them."""
    boxes = [
        Box(space, masks)
        for masks in itertools.product(*(range(1, full) for full in space.full_masks))
    ]
    unions: dict[frozenset, None] = {}

    def grow(current: list[int], start: int):
        for j in range(start, len(boxes)):
            if all(is_dichotomous(boxes[k], boxes[j]) for k in current):
                nxt = current + [j]
                unions.setdefault(frozenset(p for k in nxt for p in boxes[k].points()))
                if len(nxt) < max_size:
                    grow(nxt, j + 1)

    grow([], 0)
    return list(unions)


def _resplit(
    words, flip, rng: random.Random, moves: int, draw
) -> list[tuple[int, ...]]:
    """Resplit random twin pairs at their twin position into a letter drawn
    by draw(position) and its complement; pairwise dichotomy and the union
    are unchanged."""
    words = [list(w) for w in words]
    for _ in range(moves):
        twins = kernel.twin_pairs(words, flip)
        if not twins:
            break
        i, j, c = rng.choice(twins)
        words[i][c] = draw(c)
        words[j][c] = words[i][c] ^ flip[c]
    return [tuple(w) for w in words]


def mutate_suit(s: Suit, rng: random.Random, moves: int = 3) -> Suit:
    """Resplit random twin pairs on their own coordinate: union unchanged."""
    flip = s.space.full_masks
    words = _resplit(
        [b.factors for b in s.boxes], flip, rng, moves,
        lambda c: rng.randrange(1, flip[c]),
    )
    return verify_suit([Box(s.space, w) for w in words])


def distinct_suit_pair(
    space: BoxSpace, rng: random.Random, tries: int = 24
) -> Optional[tuple[Suit, Suit]]:
    """Two different proper suits of one polybox, or None when unlucky."""
    for _ in range(tries):
        first = random_proper_suit(space, rng)
        second = mutate_suit(first, rng, moves=4)
        if set(first.boxes) != set(second.boxes):
            return first, second
    return None


def letter_names(n_pairs: int) -> tuple[tuple[str, str], ...]:
    """Pairs a/a', b/b', ... falling back to s10/s10' past the alphabet."""
    names = []
    for k in range(n_pairs):
        base = string.ascii_lowercase[k] if k < 26 else f"s{k}"
        names.append((base, base + "'"))
    return tuple(names)


def random_alphabet(rng: random.Random, max_pairs: int = 4) -> Alphabet:
    return Alphabet(letter_names(rng.randint(1, max_pairs)))


def random_word(alphabet: Alphabet, d: int, rng: random.Random) -> Word:
    letters = alphabet.letters()
    return tuple(rng.choice(letters) for _ in range(d))


def random_genome(
    alphabet: Alphabet,
    d: int,
    rng: random.Random,
    size: Optional[int] = None,
    moves: int = 3,
) -> GenomeSet:
    """A genome sampled from a complement class and shuffled by twin moves.

    It works in kernel letters, where complementing is x ^ 1, and builds
    and validates one GenomeSet at the end.
    """
    base = alphabet.encode(random_word(alphabet, d, rng))
    cls = [tuple(map(xor, base, eps)) for eps in itertools.product((0, 1), repeat=d)]
    cap = len(cls) if size is None else min(size, len(cls))
    return _resplit_genome(alphabet, d, rng.sample(cls, cap), rng, moves)


def mutate_genome(g: GenomeSet, rng: random.Random, moves: int = 3) -> GenomeSet:
    """Substitute random twin word pairs with a fresh complementary pair."""
    return _resplit_genome(g.alphabet, g.d, g.codes, rng, moves)


def _resplit_genome(
    alphabet: Alphabet, d: int, codes, rng: random.Random, moves: int
) -> GenomeSet:
    """The GenomeSet of the codes after `moves` twin resplits."""
    letters = alphabet.encode(alphabet.letters())
    codes = _resplit(codes, (1,) * d, rng, moves, lambda c: rng.choice(letters))
    return GenomeSet(alphabet, d, tuple(alphabet.decode(w) for w in codes))
