"""Exception hierarchy shared across the library, and the one budget rule.

Each class's `code`, the machine-readable name the CLI reports, is its
class name.  Every exponential step states the log2 of its work and calls
require_budget before it starts.  run_with_budget is the one way to set the
budget in force, for the CLI and for library callers alike; no function
takes a budget of its own.
"""

from __future__ import annotations

import contextvars
from typing import Callable

DEFAULT_BUDGET = 24
_BUDGET = contextvars.ContextVar("polybox_budget", default=DEFAULT_BUDGET)


class PolyboxError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "PolyboxError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class SpaceMismatch(PolyboxError):
    """Operands live in different box spaces."""


class NotDichotomous(PolyboxError):
    """Two boxes (or words) have no complementary coordinate."""

    def __init__(self, i: int, j: int):
        super().__init__(f"members {i} and {j} are not dichotomous")
        self.i = i
        self.j = j


class NotProper(PolyboxError):
    """A box has a full factor where a proper one is required."""

    def __init__(self, index: int):
        super().__init__(f"box {index} is not proper")
        self.index = index


class NotAPartition(PolyboxError):
    """Given parts are not proper boxes partitioning the point set."""


class UnionsOverlap(PolyboxError):
    """Two suits whose unions must be disjoint share a point."""


class BudgetExceeded(PolyboxError):
    """Instance too large for the budget in force."""


def require_budget(bits: int, what: str) -> None:
    """Refuse a step of 2^bits work over the budget in force.

    `what` names the step and measure ("fingerprint enumeration needs
    |X|_1").  A count n >= 1 is (n - 1).bit_length() bits, its log2
    rounded up.
    """
    limit = _BUDGET.get()
    if bits > limit:
        raise BudgetExceeded(f"{what} = {bits} <= budget {limit}")


def budget_in_force() -> int:
    """The log2 budget that require_budget enforces here and now."""
    return _BUDGET.get()


def run_with_budget(budget: int, fn: Callable, *args):
    """fn(*args) with `budget` in force; the caller's budget is untouched."""
    context = contextvars.copy_context()
    context.run(_BUDGET.set, budget)
    return context.run(fn, *args)


class EvenFactor(PolyboxError):
    """An operation requiring odd factor cardinalities met an even one."""


class CriteriaDisagree(PolyboxError):
    """Independent decision routes returned different verdicts (a bug)."""


class NoWitness(PolyboxError):
    """No rigidity witness exists although the theorem guarantees one."""


class InconsistentOrientation(PolyboxError):
    """A sign assignment misses a word or breaks the parity rule."""


class NotUnique(PolyboxError):
    """A reconstruction admitted more than one completion."""


class Incomplete(PolyboxError):
    """A reconstruction found fewer members than required."""


class WrongCount(PolyboxError):
    """A tiling, half or point has the wrong number of cubes or coordinates."""


class CoordOutOfRange(PolyboxError):
    """A tiling coordinate lies outside [0, 2)."""


class NotTwoExtremal(PolyboxError):
    """A tiling or split that must be 2-extremal is not."""


class TheoremViolation(PolyboxError):
    """An identity that must hold failed at runtime (a bug, not bad input)."""


class GSumExceeds2d(TheoremViolation):
    """Overlap sum above 2^d, which no validated genome has (a bug)."""


class InputError(PolyboxError):
    """Malformed document or argument at the CLI boundary."""
