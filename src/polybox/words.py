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

import itertools
import math
from collections import Counter, defaultdict
from operator import eq, getitem, xor
from typing import Collection, Optional, Sequence

from .errors import (
    Incomplete,
    NotDichotomous,
    NotUnique,
    budget_in_force,
    require_budget,
)

Word = tuple[int, ...]


def dichotomous(v: Sequence[int], w: Sequence[int], flip: Word) -> bool:
    """True iff some position holds complementary letters."""
    return any(map(eq, map(xor, v, flip), w))


def _hits(words: Sequence[Sequence[int]], flip: Word) -> list[dict[int, int]]:
    """hit[i][x]: the bitset of the words whose letter at position i is
    complementary to x, for every letter there and its complement."""
    hit = []
    for i, f in enumerate(flip):
        h: dict[int, int] = {}
        for k, w in enumerate(words):
            y = w[i] ^ f
            h[y] = h.get(y, 0) | 1 << k
        for y in list(h):
            h.setdefault(y ^ f, 0)
        hit.append(h)
    return hit


def _first_clash(words: Sequence[Sequence[int]], hit: list, shift: int = 0) -> None:
    """require_dichotomous given the words' _hits, with i and j shifted by shift."""
    everyone = (1 << len(words)) - 1
    for i, v in enumerate(words):
        cover = 0
        for x, h in zip(v, hit):
            cover |= h[x]
        gap = (everyone >> i + 1) & ~(cover >> i + 1)
        if gap:
            raise NotDichotomous(shift + i, shift + i + (gap & -gap).bit_length())


def require_dichotomous(words: Sequence[Sequence[int]], flip: Word) -> list:
    """Raise NotDichotomous(i, j) for the first pair i < j that is not.

    A word's _hits bitsets OR to the words dichotomous to it: O(n d) int ops.
    Returns the checked _hits tables, which _complete can reuse.
    """
    hit = _hits(words, flip)
    _first_clash(words, hit)
    return hit


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


def require_expansion(words: Sequence[Sequence[int]], stars: bool = False) -> None:
    """Refuse, before it starts, an expansion over the budget in force.

    A word of length d has 2^(its negative letters) terms, or 2^d with
    stars, so words of one length d have at most len(words) << d terms and
    exactly that many with stars.  Without stars the terms are counted word
    by word only when that bound is over the budget.
    """
    size = len(words) << len(words[0]) if words else 0
    if not stars and (size - 1).bit_length() > budget_in_force():
        positive = (1).__and__
        size = sum(1 << len(w) - sum(map(positive, w)) for w in words)
    require_budget((size - 1).bit_length(), "expansion needs log2 terms")


def expand(
    words: Sequence[Sequence[int]], flip: Word, stars: bool = False
) -> dict[Word, int]:
    """Summed signed expansion over starred positive letters.

    Each negative letter x at position i becomes the star flip[i] minus the
    positive letter x ^ flip[i], so a word expands to 2^(its negative
    letters) terms; with stars, each positive letter x also becomes the
    star plus x, for 2^d terms.  Zero coefficients of the sum are dropped.

    With stars, the expansion is the words' summed indices (see index): a
    word's index is nonzero only on the 2^d starred positive words u
    holding at each position the star or its own pair's positive letter
    (-1 against a negative letter), so all nonzero indices cost
    O(|words| 2^d) instead of one scan of the words per class
    representative.
    """
    require_expansion(words, stars)
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


# A Mersenne prime: residues of expansions are compared mod P.
P = (1 << 61) - 1


def _glue(words: Sequence[Word], flip: Word) -> dict[Word, int]:
    """Counts of the words after gluing twins until no twin pair is left.

    Twins agree but at one position i, where they hold x and x ^ flip[i].
    Both modes expand them as the word holding the star flip[i] there, as
    the star is positive: s + (* - s) = *, and with stars (* + s) + (* - s)
    = * + *.  Glued words are probed again; r words cost O(r d^2).
    """
    count = Counter(words)
    todo = list(count)
    while todo:
        u = todo.pop()
        w = list(u)
        for i, f in enumerate(flip):
            if not count[u]:
                break
            w[i] = u[i] ^ f
            t = tuple(w)
            m = min(count[u], count.get(t, 0))
            if m:
                w[i] = f
                g = tuple(w)
                count[u] -= m
                count[t] -= m
                count[g] += m
                todo.append(g)
            w[i] = u[i]
    return {u: k for u, k in count.items() if k}


def same_expansion(
    v: Sequence[Word], w: Sequence[Word], flip: Word, stars: bool = False
) -> bool:
    """expand(v, flip, stars) == expand(w, flip, stars): same_expansions
    for the one mode."""
    return same_expansions(v, w, flip, (stars,))[0]


def same_expansions(
    v: Sequence[Word], w: Sequence[Word], flip: Word, modes: Sequence[bool]
) -> list[bool]:
    """expand(v, flip, stars) == expand(w, flip, stars) for each stars in
    modes, in order, decided on what differs.

    Expansion is linear in the words, so the words both sides hold cancel,
    counted with multiplicity.  Replacing each starred positive letter x at
    position i by the residue r_i(x) = hash((i, x)) mod P is linear too and
    multiplies across positions, so a remaining word evaluates, without
    being expanded, to the product of its letters' entries: r_i(x) for a
    positive letter (r_i(star) + r_i(x) with stars) and
    r_i(star) - r_i(x ^ star) for a negative one.  Different sums prove that
    the expansions differ; a match is glued (_glue) and only glued words the
    sides do not share are expanded, so the verdict is exact on every
    input.  Neither the cancellation nor the glue depends on stars, so each
    is made once for all modes.  Each mode runs both sides' budget checks,
    with expand's bits and message, just before its own residues and
    expansion: verdicts and errors are those of one call per mode.
    """
    verdicts = []
    rv = gv = None
    for stars in modes:
        require_expansion(v, stars)
        require_expansion(w, stars)
        if rv is None:
            count = Counter(v)
            count.subtract(w)
            rv = [u for u, k in count.items() for _ in range(k)]
            rw = [u for u, k in count.items() for _ in range(-k)]
        tables = []
        for i, (f, column) in enumerate(zip(flip, zip(*rv, *rw))):
            star = hash((i, f))
            plus = star if stars else 0
            tables.append({
                x: plus + hash((i, x)) if x & 1 else star - hash((i, x ^ f))
                for x in set(column)
            })
        if (
            sum(math.prod(map(getitem, tables, u)) for u in rv)
            - sum(math.prod(map(getitem, tables, u)) for u in rw)
        ) % P:
            verdicts.append(False)
            continue
        if gv is None:
            gv, gw = _glue(rv, flip), _glue(rw, flip)
        if gv == gw:
            verdicts.append(True)
            continue
        sv = [u for u, k in gv.items() for _ in range(k - gw.get(u, 0))]
        sw = [u for u, k in gw.items() for _ in range(k - gv.get(u, 0))]
        verdicts.append(expand(sv, flip, stars) == expand(sw, flip, stars))
    return verdicts


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

    Finds, in lexicographic order, every word whose letter at each position
    occurs there among the members or is the complement of one and which is
    dichotomous to every member.  The search branches on the lowest member
    no chosen letter is complementary to yet: some free position must take
    the complement of its letter, and each earlier branch's letter is banned
    at its position in the later ones, so every word is found once.  Raises
    Incomplete or NotUnique unless the words found are exactly the missing
    ones and pairwise dichotomous with the members; as each word found hits
    every member, that checks the members through the hit tables and the
    words found among themselves.
    """
    return _complete(members, flip, None)


def _complete(members: Sequence[Word], flip: Word, checked: Optional[list]) -> list[Word]:
    """complete, given the members' tables from require_dichotomous
    (checked) or None; checked members are not checked again."""
    d = len(flip)
    m = len(members)
    if m > 1 << d:
        raise ValueError("fragment larger than the expected genome")

    hit = _hits(members, flip) if checked is None else checked
    prefixes = math.prod(len(h) for h in hit[:-1])
    bits = max(2 * d, (prefixes - 1).bit_length())
    require_budget(bits, "completion needs log2 max(4^d, prefixes)")

    found: list[Word] = []
    complements = [tuple(map(xor, w, flip)) for w in members]

    def rec(unhit: int, allowed: list[Collection[int]]) -> None:
        if not unhit:
            found.extend(itertools.product(*allowed))
            return
        allowed = list(allowed)
        for j, y in enumerate(complements[(unhit & -unhit).bit_length() - 1]):
            rest = allowed[j]
            # y hits every member it can at j, so no deeper branch bans from (y,)
            if y in rest:
                allowed[j] = (y,)
                rec(unhit & ~hit[j][y], allowed)
                allowed[j] = rest - {y}

    rec((1 << m) - 1, list(map(frozenset, hit)))
    found.sort()

    missing = (1 << d) - m
    if len(found) < missing:
        raise Incomplete(f"found {len(found)} of {missing} missing words")
    if len(found) > missing:
        raise NotUnique(f"found {len(found)} candidates for {missing} slots")
    try:
        if checked is None:
            _first_clash(members, hit)
        _first_clash(found, _hits(found, flip), m)
    except NotDichotomous as exc:
        raise NotUnique("candidates do not extend the fragment to one genome") from exc
    return found
