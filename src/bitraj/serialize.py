"""The package's one reading of numbers: arguments, JSON values and text.

A real is any ``numbers.Real`` and a count any ``numbers.Integral``, numpy
scalars included, but never a bool (``np.bool_`` is no number at all).
:func:`as_real` and :func:`as_count` read the scalar arguments of every
public call and reject anything else with a DomainMismatch naming the
argument; finiteness and range are the caller's checks.  :func:`as_array`
reads array arguments alike: numbers only (a bool reads as 0 or 1), never
strings, None or other objects, and no ragged rows.  Config numbers go
through :func:`real_from_json`, which raises ParseError with the JSON path.
Complex numbers are read from ``[re, im]`` lists or plain reals; matrices
from nested lists of such entries.  Floats destined for text output are
rendered with 17 significant digits so that values round-trip exactly.
"""

from __future__ import annotations

import contextlib
import numbers

import numpy as np

from .errors import DimensionMismatch, DomainMismatch, ParseError, ValidationError


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def format_floats(values) -> list:
    """``format_float`` over Python floats, as one comprehension for whole columns."""
    return ["%.17g" % v for v in values]


def _is_real(obj) -> bool:
    return isinstance(obj, numbers.Real) and not isinstance(obj, bool)


def as_real(x, what: str) -> float:
    """The real argument ``what`` as a float; a float passes untouched."""
    if type(x) is float:
        return x
    if _is_real(x):
        try:
            return float(x)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValidationError([DomainMismatch(f"{what}: {x!r} is not a real number")])


def as_reals(values, what: str) -> tuple:
    """:func:`as_real` of every item of ``values``, as a tuple."""
    return tuple([v if type(v) is float else as_real(v, what) for v in values])


def as_count(x, what: str) -> int:
    """The integer argument ``what`` as an int; an int passes untouched."""
    if type(x) is int:
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise ValidationError([DomainMismatch(f"{what}: {x!r} is not an integer")])


def as_array(obj, what: str) -> np.ndarray:
    """The array argument ``what`` as complex, of any shape; a complex ndarray passes untouched."""
    if type(obj) is np.ndarray and obj.dtype == complex:
        return obj
    with contextlib.suppress(TypeError, ValueError):  # a ValueError: rows of unequal length
        a = np.asarray(obj)
        if a.dtype.kind in "biufc":  # strings, None and other objects are no numbers
            return a.astype(complex, copy=False)
    raise ValidationError([DomainMismatch(f"{what}: expected a matrix of numbers")])


def as_operator(obj, name: str) -> np.ndarray:
    """The matrix argument ``name``: :func:`as_array`, two-dimensional and with finite entries."""
    a = as_array(obj, name)
    if a.ndim != 2:
        raise ValidationError([DimensionMismatch(f"{name}: expected a matrix, got ndim={a.ndim}")])
    if not np.isfinite(a).all():
        raise ValidationError([DomainMismatch(f"{name}: entries must be finite")])
    return a


def real_from_json(obj, where: str = "value") -> float:
    """A real config number: int or float, never bool, string or null."""
    if _is_real(obj):
        try:
            return float(obj)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ParseError(f"{where}: expected a real number, got {obj!r}")


def pair_to_complex(obj, where: str = "value") -> complex:
    if _is_real(obj):
        return complex(real_from_json(obj, where))
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(_is_real(c) for c in obj):
        return complex(real_from_json(obj[0], where), real_from_json(obj[1], where))
    raise ParseError(f"{where}: expected a number or an [re, im] pair, got {obj!r}")


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    width = None
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ParseError(f"{where}: row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"{where}: row {i} has length {len(row)}, expected {width}"
            )
        parsed.append([pair_to_complex(c, f"{where}[{i}]") for c in row])
    return np.array(parsed, dtype=complex)


def vector_from_json(entries, where: str = "vector") -> np.ndarray:
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ParseError(f"{where}: expected a non-empty list")
    return np.array([pair_to_complex(c, where) for c in entries], dtype=complex)
