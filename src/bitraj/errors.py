"""Exception hierarchy.

Every error raised by the library derives from :class:`BitrajError`.  Each
subclass names one fault of the input, not the module that finds it: the
same fault raises the same class wherever it is detected (a non-square
matrix is a :class:`DimensionMismatch` in the model and in the propagator
alike), and every class below is raised by some public call.  Validation of
composite inputs collects all violations before raising, so a single
:class:`ValidationError` may carry several of the fault classes below in
``violations``.
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


# -- operators -------------------------------------------------------------

class NonHermitian(BitrajError):
    """An operator that must be Hermitian (a generator, state or projector) is not."""


class NotAProjector(BitrajError):
    """A PVM element is not idempotent."""


class IncompletePVM(BitrajError):
    """PVM projectors overlap or do not sum to the identity."""


class BadTrace(BitrajError):
    """A state does not have unit trace or has a negative eigenvalue."""


class NotUnitary(BitrajError):
    """A propagator or a path anchor is not unitary."""


class DimensionMismatch(BitrajError):
    """Shapes or dimensions disagree, or a matrix is not square."""


class UncoveredOutcome(BitrajError):
    """A coarse-graining leaves an outcome without a group."""


# -- times and orderings ---------------------------------------------------

class NonFiniteTime(BitrajError):
    """A time is NaN or infinite."""


class OutOfHorizon(BitrajError):
    """A time lies outside the schedule horizon, or a grid time is not positive."""


class DegenerateInterval(BitrajError):
    """Times, durations, parameters or step counts that must increase do not."""


# -- outcomes, lengths and indices -------------------------------------------

class UnknownOutcome(BitrajError):
    """An outcome value is not admissible at its slot."""


class LengthMismatch(BitrajError):
    """Sequences that must have matching lengths do not."""


class IndexOutOfRange(BitrajError):
    """A slot position, basis index or path parameter lies outside its range."""


class DomainMismatch(BitrajError):
    """An argument is outside its domain: a method, count, tolerance or value."""


# -- sizes -------------------------------------------------------------------

class EnumerationTooLarge(BitrajError):
    """An array would exceed the working-memory budget.

    The message names the bytes asked for and the budget.
    """


# -- events and grids ----------------------------------------------------------

class OverlappingEvents(BitrajError):
    """Events that must be disjoint share an outcome tuple."""


class NotNested(BitrajError):
    """A grid or time that must contain another does not."""


class TooCoarse(BitrajError):
    """Requested refinement size is below the minimum admissible one.

    ``minimum`` reports the smallest size for which the snapped uniform mesh
    is a valid refinement of the base grid.
    """

    def __init__(self, message, minimum=None):
        super().__init__(message)
        self.minimum = minimum


# -- configuration files -------------------------------------------------------

class ParseError(BitrajError):
    """A configuration file or command-line value cannot be read."""
