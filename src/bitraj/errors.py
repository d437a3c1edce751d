"""Exception hierarchy.

Every error raised by the library derives from :class:`BitrajError`.
Validation of composite inputs collects all violations before raising, so a
single :class:`ValidationError` may carry several of the condition-specific
exceptions below in ``violations``.
"""

from __future__ import annotations


class BitrajError(Exception):
    """Base class for all library errors."""


class ValidationError(BitrajError):
    """One or more invariants of a domain object are violated.

    ``violations`` holds the individual condition errors; the message lists
    them all.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = [str(v) for v in self.violations]
        super().__init__(
            "%d invariant violation(s):\n  " % len(lines) + "\n  ".join(lines)
        )

    def has(self, kind: type) -> bool:
        return any(isinstance(v, kind) for v in self.violations)


# -- model ---------------------------------------------------------------

class NonHermitian(BitrajError):
    pass


class NotAProjector(BitrajError):
    pass


class IncompletePVM(BitrajError):
    pass


class BadTrace(BitrajError):
    pass


class DimensionMismatch(BitrajError):
    pass


class EmptyGroup(BitrajError):
    pass


class UncoveredOutcome(BitrajError):
    pass


class NonFiniteTime(BitrajError):
    """A time is NaN or infinite."""


# -- propagate -----------------------------------------------------------

class OutOfHorizon(BitrajError):
    pass


class DegenerateInterval(BitrajError):
    pass


class UnknownOutcome(BitrajError):
    pass


class NonSquare(BitrajError):
    pass


# -- biprob --------------------------------------------------------------

class LengthMismatch(BitrajError):
    pass


class BadPosition(BitrajError):
    pass


class EnumerationTooLarge(BitrajError):
    pass


class DomainMismatch(BitrajError):
    pass


# -- verify --------------------------------------------------------------

class OverlappingEvents(BitrajError):
    pass


class NotNested(BitrajError):
    pass


# -- bounds --------------------------------------------------------------

class TooCoarse(BitrajError):
    """Requested refinement size is below the minimum admissible one.

    ``minimum`` reports the smallest size for which the snapped uniform mesh
    is a valid refinement of the base grid.
    """

    def __init__(self, message, minimum=None):
        super().__init__(message)
        self.minimum = minimum


# -- multiobs ------------------------------------------------------------

class SlotOutcomeMismatch(BitrajError):
    pass


class IndexOutOfRange(BitrajError):
    pass


# -- opensys -------------------------------------------------------------

class DimensionTooLarge(BitrajError):
    pass


# -- cli -----------------------------------------------------------------

class ParseError(BitrajError):
    pass
