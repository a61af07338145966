"""Scalar-or-array arguments of the evaluation functions.

Every evaluator takes either one point or a one-dimensional array of
points and runs the same array code for both.  ``points`` turns the
argument into a 1-D float array and remembers whether it was a scalar;
``unbatch`` hands a scalar caller back a Python float.
"""

from __future__ import annotations

import numpy as np


def points(x):
    """``(1-D float array, True if x was a scalar)``."""
    a = np.asarray(x, dtype=float)
    if a.ndim > 1:
        raise ValueError("expected a scalar or a one-dimensional array of points")
    return np.atleast_1d(a), a.ndim == 0


def pairs(x, y):
    """Two arguments as broadcast 1-D arrays, and True if both were scalars."""
    (a, a_scalar), (b, b_scalar) = points(x), points(y)
    a, b = np.broadcast_arrays(a, b)
    return a, b, a_scalar and b_scalar


def unbatch(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def first(mask: np.ndarray) -> int:
    """Index of the first True entry of a mask that has one."""
    return int(np.argmax(mask))
