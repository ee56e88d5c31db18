"""The point oracle: polybox equality by literal point-set comparison.

It shares no decision route with the routes it checks, and `equiv
--method oracle|all` runs it as its own call.  The test suite's other
brute-force references live in tests/helpers.py.
"""

from __future__ import annotations

from .errors import SpaceMismatch, require_budget
from .suits import Suit, union_points


def points_equal(f: Suit, g: Suit) -> bool:
    """Ground truth for every polybox-equality criterion."""
    if f.space != g.space:
        raise SpaceMismatch("suits live in different spaces")
    for s in (f, g):
        require_budget(s.space.size_sum, "point enumeration needs |X|_1")
    return union_points(f).members == union_points(g).members
