"""Word algebra over a complemented alphabet.

Words of length d over an alphabet with a fixed-point-free complementation
abstract proper boxes: two words are dichotomous when some position holds
complementary letters, and a genome (pairwise dichotomous word set) stands
for every proper suit realizing it.  Identifying each negative letter s with
* - s' embeds genomes into the free module over starred positive monomials,
where equality of expansions, equality of all word indices, and mutual
covering with equal cardinality all decide the same equivalence.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

from . import words as kernel
from ._frozen import Frozen
from .errors import (
    CriteriaDisagree,
    GSumExceeds2d,
    InconsistentOrientation,
    NoWitness,
    SpaceMismatch,
    require_budget,
)

STAR = "*"

Word = tuple[str, ...]


class Alphabet(Frozen):
    """Ordered letter pairs (s, s'); the first member of each pair is positive."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        seen = set()
        for a, b in pairs:
            for s in (a, b):
                if not s or s == STAR:
                    raise ValueError(f"invalid letter {s!r}")
                if s in seen:
                    raise ValueError(f"duplicate letter {s!r}")
                seen.add(s)

    @cached_property
    def _code(self) -> dict[str, int]:
        """Kernel letters: pair k as 2k+3 (positive) and 2k+2 (negative)."""
        return {
            s: 2 * k + 3 - pol
            for k, pair in enumerate(self.pairs)
            for pol, s in enumerate(pair)
        }

    @cached_property
    def _letter(self) -> tuple[str, ...]:
        """Letters by kernel letter; the star is the kernel letter 1."""
        return ("", STAR) + tuple(s for a, b in self.pairs for s in (b, a))

    def __contains__(self, letter: str) -> bool:
        return letter in self._code

    def letters(self) -> tuple[str, ...]:
        return tuple(s for pair in self.pairs for s in pair)

    def complement(self, letter: str) -> str:
        return self._letter[self._code[letter] ^ 1]

    def sort_key(self, letter: str) -> tuple[int, int]:
        code = self._code[letter]
        return (code >> 1) - 1, 1 - (code & 1)

    def encode(self, word: Sequence[str]) -> tuple[int, ...]:
        """The word in kernel letters (see polybox.words); ValueError names
        the first letter outside the alphabet."""
        try:
            return tuple(map(self._code.__getitem__, word))
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} not in the alphabet") from None

    def decode(self, code: Sequence[int]) -> Word:
        """Inverse of encode; kernel letter 1 decodes to the star."""
        return tuple(self._letter[x] for x in code)


def _flip(d: int) -> tuple[int, ...]:
    return (1,) * d


def _encode_pair(alphabet: Alphabet, v: Word, w: Word):
    """v and w in kernel letters, then their flip; ValueError names the
    first letter outside the alphabet, else the two lengths."""
    a, b = alphabet.encode(v), alphabet.encode(w)
    if len(a) != len(b):
        raise ValueError(f"words of lengths {len(a)} and {len(b)}")
    return a, b, _flip(len(a))


def words_dichotomous(alphabet: Alphabet, v: Word, w: Word) -> bool:
    return kernel.dichotomous(*_encode_pair(alphabet, v, w))


def epsilon_between(alphabet: Alphabet, v: Word, w: Word) -> Optional[tuple[int, ...]]:
    """Complement pattern turning v into w, or None when w is outside v's class."""
    return kernel.epsilon(*_encode_pair(alphabet, v, w))


class GenomeSet(Frozen):
    """Pairwise dichotomous words of one length over one alphabet.

    `codes` holds the same words in kernel letters, computed once here.
    """

    alphabet: Alphabet
    d: int
    words: tuple[Word, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("word length must be at least 1")
        words = tuple(tuple(w) for w in self.words)
        object.__setattr__(self, "words", words)
        codes = []
        for w in words:
            if len(w) != self.d:
                raise ValueError(f"word {w} does not have length {self.d}")
            codes.append(self.alphabet.encode(w))
        object.__setattr__(self, "codes", tuple(codes))
        require_budget((self.d - 1).bit_length(), "word length needs log2 d")
        kernel.require_dichotomous(codes, _flip(self.d))

    def __len__(self) -> int:
        return len(self.words)

    def occurring_letters(self, position: int) -> list[str]:
        seen = sorted(
            {w[position] for w in self.words}, key=self.alphabet.sort_key
        )
        return seen


class WordCanonicalForm(Frozen):
    """Sparse integer combination of monomials over starred positive letters."""

    d: int
    coeffs: dict[Word, int]
    __hash__ = None  # coeffs is a dict

    def __post_init__(self):
        for key, value in self.coeffs.items():
            if value == 0:
                raise ValueError("zero coefficients must not be stored")
            if len(key) != self.d:
                raise ValueError(f"monomial {key} has wrong length")

    def sorted_items(self) -> list[tuple[Word, int]]:
        return sorted(self.coeffs.items())


def _word_form(alphabet: Alphabet, d: int, codes) -> WordCanonicalForm:
    coeffs = kernel.expand(codes, _flip(d))
    return WordCanonicalForm(d, {alphabet.decode(k): c for k, c in coeffs.items()})


def word_expand(alphabet: Alphabet, v: Sequence[str]) -> WordCanonicalForm:
    """Expand a word by replacing each negative letter s with * - s'."""
    code = alphabet.encode(v)
    return _word_form(alphabet, len(code), [code])


def genome_canonical(w: GenomeSet) -> WordCanonicalForm:
    return _word_form(w.alphabet, w.d, w.codes)


def word_index(w: GenomeSet, u: Sequence[str]) -> int:
    """Sum over members of the product of per-position (+1, -1, 0) scores.

    u ranges over words that may use the reserved star letter; a star
    position scores +1 against everything.
    """
    alphabet = w.alphabet
    u = tuple(u)
    if len(u) != w.d:
        raise ValueError("index word has wrong length")
    for s in u:
        if s != STAR and s not in alphabet:
            raise ValueError(f"letter {s!r} not in the alphabet")
    code = tuple(1 if s == STAR else alphabet._code[s] for s in u)
    return kernel.index(code, w.codes, _flip(w.d))


class CoverResult(NamedTuple):
    covered: bool
    gap: int
    g_sum: int

    def __bool__(self) -> bool:
        return self.covered


def covers(v: Sequence[str], w: GenomeSet) -> CoverResult:
    """Decide v <= W by the overlap sum: covered exactly when it reaches 2^d.

    The per-member overlap g doubles for every agreeing position, vanishes
    on a complementary one, and ignores unrelated letters; for a genuine
    genome the sum can never exceed 2^d.
    """
    code = w.alphabet.encode(v)
    if len(code) != w.d:
        raise ValueError("word has wrong length")
    return _overlap(code, w.codes)


def _overlap(code: tuple[int, ...], members: Sequence[tuple[int, ...]]) -> CoverResult:
    total = 0
    for member in members:
        g = 1
        for s, t in zip(code, member):
            if s == t:
                g *= 2
            elif s ^ t == 1:
                g = 0
                break
        total += g
    bound = 1 << len(code)
    if total > bound:
        raise GSumExceeds2d(f"overlap sum {total} exceeds {bound}")
    return CoverResult(total == bound, bound - total, total)


def _check_comparable(v: GenomeSet, w: GenomeSet):
    if v.alphabet != w.alphabet:
        raise SpaceMismatch("genomes use different alphabets")
    if v.d != w.d:
        raise SpaceMismatch("genomes have different word lengths")


def equivalent_by_canon(v: GenomeSet, w: GenomeSet) -> bool:
    _check_comparable(v, w)
    return kernel.same_expansions(v.codes, w.codes, _flip(v.d), (False,))[0]


def equivalent_by_index(v: GenomeSet, w: GenomeSet) -> bool:
    """Equal indices on every starred positive word over occurring letters.

    A genome's nonzero indices are its expansion with stars, compared by
    words.same_expansions: words both genomes hold cancel, one evaluation of
    each remainder mod a prime refutes most unequal pairs, a match is glued
    first, and only what gluing leaves unmatched has its indices summed.
    """
    _check_comparable(v, w)
    return kernel.same_expansions(v.codes, w.codes, _flip(v.d), (True,))[0]


def equivalent_by_cover(v: GenomeSet, w: GenomeSet) -> bool:
    """Equal sizes and each genome covering the other's words.

    A word the other genome holds is covered with overlap sum exactly 2^d
    (every other member is dichotomous to it), so only the words it lacks
    are checked, in genome order: the first to fail or raise is the same.
    Their sums skip the shared words too, as each is in the checked word's
    own genome, so dichotomous to it, and adds 0.
    """
    _check_comparable(v, w)
    if len(v) != len(w):
        return False
    held_v, held_w = set(v.codes), set(w.codes)
    only_v = [c for c in v.codes if c not in held_w]
    only_w = [c for c in w.codes if c not in held_v]
    return all(_overlap(c, only_w).covered for c in only_v) and all(
        _overlap(c, only_v).covered for c in only_w
    )


def genomes_equivalent(v: GenomeSet, w: GenomeSet) -> bool:
    """Equivalence by three routes, which must agree.

    (a) equal canonical expansions; (b) equal indices over the restricted
    starred words; (c) mutual covering with equal cardinality.  (a) and (b)
    share one cancellation and one glue (words.same_expansions); (c) shares
    nothing with them.
    """
    _check_comparable(v, w)
    by_canon, by_index = kernel.same_expansions(
        v.codes, w.codes, _flip(v.d), (False, True)
    )
    by_cover = equivalent_by_cover(v, w)
    if not (by_canon == by_index == by_cover):
        raise CriteriaDisagree(
            f"canon={by_canon} index={by_index} cover={by_cover}"
        )
    return by_canon


def _parity(code: Sequence[int]) -> int:
    """The parity of the word's count of positive letters.  Two words of
    one complement class differ at a pattern of this parity's change."""
    return sum(map((1).__and__, code)) & 1


def rigidity_witness(w: GenomeSet, v: Sequence[str]) -> Word:
    """A member u of w with |index(w, u)| < |class(u) meet w|.

    Exists whenever a word outside w is covered by w; failing to find one
    contradicts the uniqueness theorem, hence the dedicated error.  Only u's
    class adds to its index, each member +1 or -1 by its parity against u,
    so the first such u is the first member of the first class holding
    both parities.
    """
    v = tuple(v)
    if v in w.words:
        raise ValueError("the covered word must lie outside the genome")
    if not covers(v, w).covered:
        raise ValueError("witness search requires a covered word")
    for c in kernel.complement_classes(w.codes):
        if len({_parity(w.codes[k]) for k in c}) > 1:
            return w.words[c[0]]
    raise NoWitness("no member violates the index bound")


def induced_decomposition(
    w: GenomeSet, orientation: Mapping[Word, int]
) -> tuple[GenomeSet, GenomeSet]:
    """Split w by per-word signs that must be constant on parity classes.

    Words in one complement class carry the same sign exactly when their
    complement pattern has even weight, that is when sign * (-1)^parity is
    constant on the class; any assignment breaking that rule is rejected,
    naming the class's first member and the first member disagreeing with it.
    """
    signs = []
    for word in w.words:
        sign = orientation.get(word)
        if sign not in (1, -1):
            raise InconsistentOrientation(f"no sign for {word}")
        signs.append(sign)
    rule = [-s if _parity(c) else s for s, c in zip(signs, w.codes)]
    for c in kernel.complement_classes(w.codes):
        for k in c:
            if rule[k] != rule[c[0]]:
                raise InconsistentOrientation(
                    f"{w.words[c[0]]} and {w.words[k]} break the parity rule"
                )
    plus = tuple(x for x, s in zip(w.words, signs) if s == 1)
    minus = tuple(x for x, s in zip(w.words, signs) if s == -1)
    return (
        GenomeSet(w.alphabet, w.d, plus),
        GenomeSet(w.alphabet, w.d, minus),
    )


def reconstruct_minus(
    w_plus: GenomeSet, universe: Optional[Alphabet] = None
) -> GenomeSet:
    """Recover the minus half of a full genome from its plus half.

    Finds (`words.complete`) the words over the universe, restricted per
    position to letters occurring there in the fragment and their
    complements, that are dichotomous to every fragment member; for a
    genuine plus half of a 2^d-element genome these are exactly the missing
    words.  The restriction to occurring letters is a completeness
    assumption; it is exact for cube-tiling genomes.
    """
    d = w_plus.d
    alphabet = universe if universe is not None else w_plus.alphabet
    members = [alphabet.encode(word) for word in w_plus.words]
    found = kernel.complete(members, _flip(d))
    # x ^ 1 orders kernel letters as sort_key orders letters
    found.sort(key=lambda code: tuple(x ^ 1 for x in code))
    return GenomeSet(alphabet, d, tuple(alphabet.decode(code) for code in found))
