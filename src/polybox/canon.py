"""Canonical forms and the polybox equality they decide.

Every proper box projects onto the basis of boxes whose factors are either
full or proper subsets containing element 0: a factor already of that shape
stays itself, any other factor A becomes X - (X \\ A).  Distributing the
product writes the box as at most 2^d signed basis boxes, and two proper
suits describe the same polybox exactly when their summed expansions agree
coefficient by coefficient.  same_polybox decides this and the index
criterion in one words.same_expansions call, which never builds a whole
form: boxes both suits hold cancel, one evaluation of each remainder mod a
prime refutes most unequal pairs in |suit| * d time, a match is glued first,
and only what gluing leaves unmatched is expanded (2^d each).
"""

from __future__ import annotations

from . import words as kernel
from ._frozen import Frozen
from .boxes import Box, BoxSpace
from .errors import SpaceMismatch
from .suits import Suit

BasisKey = tuple[int, ...]


class CanonicalForm(Frozen):
    """Sparse integer combination of basis boxes, keyed by factor masks."""

    space: BoxSpace
    coeffs: dict[BasisKey, int]
    __hash__ = None  # coeffs is a dict

    def __post_init__(self):
        for key, value in self.coeffs.items():
            if value == 0:
                raise ValueError("zero coefficients must not be stored")
            # basis factors: the full set or proper subsets containing 0
            if len(key) != self.space.d or not all(
                m == full or 0 < m < full and m & 1
                for m, full in zip(key, self.space.full_masks)
            ):
                raise ValueError(f"{key} is not a basis box")

    def sorted_items(self) -> list[tuple[BasisKey, int]]:
        """Deterministic order: lexicographic by factor masks."""
        return sorted(self.coeffs.items())


def project_box(a: Box) -> CanonicalForm:
    """Expand one proper box over the basis; at most 2^d signed terms."""
    if not a.is_proper:
        raise ValueError("only proper boxes are projected")
    return CanonicalForm(a.space, kernel.expand([a.factors], a.space.full_masks))


def proper_words(s: Suit) -> list[BasisKey]:
    """The suit's words, its boxes' factor masks; refuses an improper box."""
    if not s.is_proper:
        raise ValueError("suit holds an improper box")
    return [a.factors for a in s.boxes]


def canonical_form(s: Suit) -> CanonicalForm:
    """Coefficient-wise sum of the member projections."""
    return CanonicalForm(s.space, kernel.expand(proper_words(s), s.space.full_masks))


def same_polybox(f: Suit, g: Suit, modes: tuple[bool, ...]) -> list[bool]:
    """Polybox equality by each criterion in modes, in order: False compares
    canonical forms, True indices (words.same_expansions).  Refuses other
    spaces, then an improper f, then an improper g, then f's and g's budget.
    """
    if f.space != g.space:
        raise SpaceMismatch("suits live in different spaces")
    fw = proper_words(f)
    return kernel.same_expansions(fw, proper_words(g), f.space.full_masks, modes)


def suits_equivalent(f: Suit, g: Suit) -> bool:
    """True iff the suits define the same polybox: equal canonical forms."""
    return same_polybox(f, g, (False,))[0]
