"""Exception hierarchy shared across the library.

Each class's `code`, the machine-readable name the CLI reports, is its
class name.
"""

from __future__ import annotations


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
    """Instance too large for the configured enumeration budget."""


class EvenFactor(PolyboxError):
    """An operation requiring odd factor cardinalities met an even one."""


class NoPartition(PolyboxError):
    """A point set has no partition into proper boxes."""


class CriteriaDisagree(PolyboxError):
    """Independent decision routes returned different verdicts (a bug)."""


class GSumExceeds2d(PolyboxError):
    """Overlap sum above 2^d; the word set was not a genome."""


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


class InputError(PolyboxError):
    """Malformed document or argument at the CLI boundary."""
