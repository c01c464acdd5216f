"""Arithmetic on one point as floats, or on a grid of points as arrays, bit for bit.

The closed forms and the arrival-angle derivatives are written once and
take either a float per quantity (one point) or a 1-D array holding one
entry per grid point.  numpy's + - * /, abs and sqrt round exactly as
Python's float operations do, so they act on whole arrays.  numpy's
transcendentals and array powers do not always match libm, so ``sin``,
``cos``, ``tan``, ``atan``, ``log`` and ``power`` call libm once per
element, as a float would; ``hypot`` is libm's for both.  numpy's complex
array product may fuse its multiplies and adds, so complex arithmetic that
must match a float's is written on (re, im) pairs of real parts.

A float raises where its arithmetic fails: a domain check, or a power that
overflows.  An array cannot raise for one of its points, so ``checked`` and
``power`` put NaN there instead.  NaN carries through every later operation
into that point's Fisher block, and the caller evaluates any point whose
block is not finite again alone, as floats, which raises the point's own
error.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np


def _each(fn):
    """fn for a float; for an array, fn at each element, one call apiece."""

    def at(x):
        if isinstance(x, np.ndarray):
            return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
        return fn(x)

    return at


sin, cos, tan, atan, log = map(_each, (math.sin, math.cos, math.tan, math.atan, math.log))


def sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def hypot(x, y):
    """|x + iy| through libm's hypot: ``np.hypot`` per element, ``abs(complex)`` for floats.

    ``math.hypot`` rounds otherwise.  A float whose magnitude overflows
    raises OverflowError, as ``abs`` does; an array element is inf.
    """
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.hypot(x, y)
    return abs(complex(x, y))


def _pow_or_nan(x: float, e) -> float:
    try:
        return x ** e
    except OverflowError:
        return math.nan


def power(x, e):
    """x ** e through libm's pow; NaN marks an array element whose power overflows.

    A float raises OverflowError there, as ``**`` does.
    """
    if not isinstance(x, np.ndarray):
        return x ** e
    items = x.ravel().tolist()
    try:
        out = np.fromiter(map(pow, items, repeat(e)), float, x.size)
    except OverflowError:
        out = np.fromiter(map(_pow_or_nan, items, repeat(e)), float, x.size)
    return out.reshape(x.shape)


def where(cond, a, b):
    """a where cond holds, else b: per element for arrays."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def some(cond) -> bool:
    """Whether cond holds for one point, or for any point of a grid."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else cond


def every(cond) -> bool:
    """Whether cond holds for one point, or for every point of a grid."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else cond


def fails(cond):
    """Where cond does not hold: not cond for one point, per element for a grid."""
    return ~cond if isinstance(cond, np.ndarray) else not cond


def checked(value, bad, error):
    """value, once bad is known not to hold.

    A float raises ``error()`` if bad holds.  An array gets NaN where it
    holds, which marks those points for evaluation alone.
    """
    if isinstance(value, np.ndarray):
        return np.where(bad, np.nan, value)
    if bad:
        raise error()
    return value
