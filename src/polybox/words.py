"""The word kernel shared by boxes, genomes and tilings.

A word is a tuple of int letters, and position i has a complement flip:
the complement of letter x there is x ^ flip[i], and x is positive when
x & 1.  A proper box is the word of its factor masks with flip[i] the full
mask of factor i, so complementing a letter complements the subset and the
positive letters are the subsets containing element 0.  Genomes and tilings
intern letter pair k as 2k+3 (positive) and 2k+2 (negative) with
flip[i] = 1.  In both encodings the star (the full factor) is flip[i]
itself, so expansion and index sums serve every layer unchanged.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import eq, xor
from typing import Optional, Sequence

from .errors import Incomplete, NotDichotomous, NotUnique, require_budget

Word = tuple[int, ...]


def dichotomous(v: Sequence[int], w: Sequence[int], flip: Word) -> bool:
    """True iff some position holds complementary letters."""
    return any(map(eq, map(xor, v, flip), w))


def require_dichotomous(words: Sequence[Sequence[int]], flip: Word) -> None:
    """Raise NotDichotomous(i, j) for the first pair i < j that is not.

    Each position keeps, per letter, the bitset of the words holding it;
    the OR over positions of the bitsets of a word's complement letters is
    the set of words dichotomous to it, so n words cost O(n d) int ops.
    """
    cols = []
    for letters in zip(*words):
        col: dict[int, int] = {}
        bit = 1
        for x in letters:
            col[x] = col.get(x, 0) | bit
            bit <<= 1
        cols.append(col)
    everyone = (1 << len(words)) - 1
    for i, v in enumerate(words):
        cover = 0
        for x, f, col in zip(v, flip, cols):
            cover |= col.get(x ^ f, 0)
        gap = (everyone >> i + 1) & ~(cover >> i + 1)
        if gap:
            raise NotDichotomous(i, i + (gap & -gap).bit_length())


def twin_at(v: Sequence[int], w: Sequence[int], flip: Word) -> Optional[int]:
    """The one position where v and w differ, when they are complementary
    there; None for any other pair."""
    at = None
    for k, (a, b, f) in enumerate(zip(v, w, flip)):
        if a != b:
            if a ^ b != f or at is not None:
                return None
            at = k
    return at


def twin_pairs(
    words: Sequence[Sequence[int]], flip: Word
) -> list[tuple[int, int, int]]:
    """(i, j, position) for every twin pair i < j, in lexicographic order."""
    out = []
    for i, v in enumerate(words):
        for j in range(i + 1, len(words)):
            at = twin_at(v, words[j], flip)
            if at is not None:
                out.append((i, j, at))
    return out


def epsilon(
    v: Sequence[int], w: Sequence[int], flip: Word
) -> Optional[tuple[int, ...]]:
    """The complement pattern turning v into w, or None when w is outside
    v's complement class."""
    eps = []
    for a, b, f in zip(v, w, flip):
        if a == b:
            eps.append(0)
        elif a ^ b == f:
            eps.append(1)
        else:
            return None
    return tuple(eps)


def expand(
    words: Sequence[Sequence[int]], flip: Word, stars: bool = False
) -> dict[Word, int]:
    """Summed signed expansion over starred positive letters.

    Each negative letter x at position i becomes the star flip[i] minus the
    positive letter x ^ flip[i], so a word expands to 2^(its negative
    letters) terms; with stars, each positive letter x also becomes the
    star plus x, for 2^d terms.  Zero coefficients of the sum are dropped.
    """
    size = sum(1 << sum(stars or not x & 1 for x in w) for w in words)
    require_budget((size - 1).bit_length(), "expansion needs log2 terms")
    coeffs: dict[Word, int] = defaultdict(int)
    for w in words:
        terms: list[tuple[Word, int]] = [((), 1)]
        for x, f in zip(w, flip):
            y, t = (x, 1) if x & 1 else (x ^ f, -1)
            heads = ((f, 1), (y, t)) if stars or t < 0 else ((y, 1),)
            terms = [(key + (z,), r * s) for z, r in heads for key, s in terms]
        for key, s in terms:
            coeffs[key] += s
    return {key: c for key, c in coeffs.items() if c}


def index_sums(words: Sequence[Sequence[int]], flip: Word) -> dict[Word, int]:
    """index(u, words, flip) at every starred positive u where it is nonzero.

    A word is nonzero only on the 2^d words u holding at each position the
    star or its own pair's positive letter (-1 against a negative letter),
    which is its expansion with stars: O(|words| 2^d) in all, instead of one
    scan of the words per class representative.
    """
    return expand(words, flip, stars=True)


def index(u: Sequence[int], words: Sequence[Sequence[int]], flip: Word) -> int:
    """Sum over the words of the product of per-position scores against u.

    A position scores +1 where u holds the star or the same letter and -1
    where the letters are complementary; any other letter zeroes the word.
    """
    total = 0
    for w in words:
        term = 1
        for s, t, f in zip(u, w, flip):
            if s == t or s == f:
                continue
            if s ^ t == f:
                term = -term
            else:
                term = 0
                break
        total += term
    return total


def complete(members: Sequence[Word], flip: Word) -> list[Word]:
    """The words completing members to 2^d pairwise dichotomous words (d >= 1).

    Searches all words whose letter at each position occurs there among the
    members or is the complement of one, and keeps those dichotomous to
    every member.  Raises Incomplete or NotUnique unless the survivors are
    exactly the missing words and pairwise dichotomous with the members.
    """
    d = len(flip)
    m = len(members)
    if m > 1 << d:
        raise ValueError("fragment larger than the expected genome")
    full_hit = (1 << m) - 1

    # cand[i]: (letter, members it is complementary to at position i)
    cand: list[list[tuple[int, int]]] = []
    for i, f in enumerate(flip):
        having: dict[int, int] = defaultdict(int)
        for k, w in enumerate(members):
            having[w[i]] |= 1 << k
        letters = set(having) | {x ^ f for x in having}
        cand.append([(s, having.get(s ^ f, 0)) for s in sorted(letters)])
    prefixes = math.prod(len(c) for c in cand[:-1])
    bits = max(2 * d, (prefixes - 1).bit_length())
    require_budget(bits, "completion needs log2 max(4^d, prefixes)")

    # Every position's candidates together hit every member, so no prefix
    # can be ruled out before the last position.  There the candidates hit
    # disjoint sets of members, so the members not hit yet are all hit by
    # one letter or by none: the complement of the lowest one's letter.
    found: list[Word] = []
    prefix: list[int] = []
    last = d - 1
    last_flip = flip[last]
    last_hit = dict(cand[last])

    def rec(i: int, mask: int):
        if i == last:
            need = full_hit & ~mask
            if not need:
                head = tuple(prefix)
                found.extend(head + (x,) for x, _ in cand[last])
            else:
                x = members[(need & -need).bit_length() - 1][last] ^ last_flip
                if last_hit[x] & need == need:
                    found.append(tuple(prefix) + (x,))
            return
        for letter, hit in cand[i]:
            prefix.append(letter)
            rec(i + 1, mask | hit)
            prefix.pop()

    rec(0, 0)

    missing = (1 << d) - m
    if len(found) < missing:
        raise Incomplete(f"found {len(found)} of {missing} missing words")
    if len(found) > missing:
        raise NotUnique(f"found {len(found)} candidates for {missing} slots")
    try:
        require_dichotomous(list(members) + found, flip)
    except NotDichotomous as exc:
        raise NotUnique("candidates do not extend the fragment to one genome") from exc
    return found
