"""Box spaces and boxes with per-factor bit-mask subsets.

A box space is a product X = X_1 x ... x X_d of finite factors; elements of
factor i are canonically 0..n_i-1 and a subset of a factor is stored as an
int bit mask.  A box is a product of one nonempty subset per factor.  Two
boxes are dichotomous when some factor of one is the exact complement of the
same factor of the other; all higher layers are built on that predicate.
The factor masks of a box are its word in the kernel (polybox.words), with
each factor's full mask as the complement flip.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import ne
from typing import Iterable, Iterator, Optional, Sequence

from . import words as kernel
from ._frozen import Frozen
from .errors import SpaceMismatch, require_budget

# Subsets must fit one machine word; the enumeration algorithms are
# exponential in sum(dims) anyway, so this cap never binds in practice.
MAX_FACTOR = 62

EpsilonVector = Sequence[int]


def mask_of(members: Iterable[int], n: int) -> int:
    """Bit mask for a set of element indices inside a factor of size n."""
    mask = 0
    for m in members:
        if not 0 <= m < n:
            raise ValueError(f"element {m} out of range for factor of size {n}")
        mask |= 1 << m
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    """Sorted element indices encoded in a bit mask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class BoxSpace(Frozen):
    """Ambient d-box given by its factor cardinalities (each >= 2)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims:
            raise ValueError("a box space needs at least one factor")
        for n in dims:
            if n < 2:
                raise ValueError(f"factor cardinality {n} < 2")
            if n > MAX_FACTOR:
                raise ValueError(f"factor cardinality {n} exceeds {MAX_FACTOR}")
        object.__setattr__(self, "dims", dims)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def size_sum(self) -> int:
        """|X|_1 = |X_1| + ... + |X_d|, the exponent driving enumeration cost."""
        return sum(self.dims)

    @cached_property
    def full_masks(self) -> tuple[int, ...]:
        """Every factor's full mask: the complement flip of box words."""
        return tuple((1 << n) - 1 for n in self.dims)

    def points(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(n) for n in self.dims))


class Box(Frozen):
    """A nonempty product A_1 x ... x A_d, one nonempty subset mask per factor."""

    space: BoxSpace
    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) != self.space.d:
            raise ValueError("factor count does not match the space dimension")
        full = self.space.full_masks
        for i, mask in enumerate(factors):
            if mask <= 0 or mask > full[i]:
                raise ValueError(f"factor {i} mask {mask:#x} empty or out of range")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_sets(cls, space: BoxSpace, sets: Sequence[Iterable[int]]) -> "Box":
        if len(sets) != space.d:
            raise ValueError("factor count does not match the space dimension")
        return cls(space, tuple(mask_of(s, n) for s, n in zip(sets, space.dims)))

    @property
    def is_proper(self) -> bool:
        return all(map(ne, self.factors, self.space.full_masks))

    def support(self) -> tuple[int, ...]:
        """Coordinates where the box is a strict subset of the factor."""
        full = self.space.full_masks
        return tuple(i for i, m in enumerate(self.factors) if m != full[i])

    def size(self) -> int:
        c = 1
        for m in self.factors:
            c *= m.bit_count()
        return c

    def points(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(members_of(m) for m in self.factors))

    def __repr__(self) -> str:
        parts = ",".join("{%s}" % ",".join(map(str, members_of(m))) for m in self.factors)
        return f"Box[{parts}]"


def same_space(a: Box, b: Box) -> BoxSpace:
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space.dims} vs {b.space.dims}")
    return a.space


def is_dichotomous(a: Box, b: Box) -> bool:
    """True iff some factor of a is the exact complement of b's."""
    space = same_space(a, b)
    return kernel.dichotomous(a.factors, b.factors, space.full_masks)


def is_twin_pair(a: Box, b: Box) -> bool:
    """True iff a and b agree in all factors but one, complementary there."""
    space = same_space(a, b)
    return kernel.twin_at(a.factors, b.factors, space.full_masks) is not None


def complement_action(a: Box, eps: EpsilonVector) -> Optional[Box]:
    """The box a^eps with factor i complemented when eps[i] = 1.

    Returns None when a complemented factor is empty, which happens exactly
    when eps flips a full factor.  For proper boxes the result always exists.
    """
    if len(eps) != a.space.d:
        raise ValueError("epsilon length does not match the space dimension")
    factors = tuple(
        m ^ f if e else m for m, f, e in zip(a.factors, a.space.full_masks, eps)
    )
    return None if 0 in factors else Box(a.space, factors)


def epsilon_of(a: Box, b: Box) -> Optional[tuple[int, ...]]:
    """The eps with a^eps = b, or None when b is not in a's complement class."""
    space = same_space(a, b)
    return kernel.epsilon(a.factors, b.factors, space.full_masks)


def simple_suit(c: Box) -> list[Box]:
    """All nonempty boxes c^eps, without duplicates.

    Flipping a full factor empties it, so only eps supported on the proper
    coordinates of c contribute; the result has 2^|support(c)| members and is
    a suit whose union is the whole space.
    """
    support = c.support()
    require_budget(len(support), "simple suit needs |support|")
    out = []
    for bits in range(1 << len(support)):
        factors = list(c.factors)
        for j, i in enumerate(support):
            if bits >> j & 1:
                factors[i] ^= c.space.full_masks[i]
        out.append(Box(c.space, tuple(factors)))
    return out
