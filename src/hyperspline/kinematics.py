"""Homogeneous deformation modes for incompressible isotropic materials.

Covers uniaxial tension (UT), equibiaxial tension (BT) and pure shear
(PS) under the incompressibility constraint.  For each mode the principal
stretch determines the isochoric invariants (I1, I2) of the left
Cauchy-Green tensor, and the measured nominal stress is a known linear
combination of the energy derivatives:

    P = alpha(lambda) * dW/dI1 + beta(lambda) * dW/dI2

with the hydrostatic pressure already eliminated through the traction-free
thickness direction.  The kinematic functions take one stretch or a 1-D
array of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._batch import first, points, unbatch
from .domain import poly_transform


class DeformationMode(Enum):
    UT = "UT"
    BT = "BT"
    PS = "PS"


@dataclass(frozen=True)
class Sample:
    """One measured point: mode, principal stretch, nominal stress."""

    mode: DeformationMode
    stretch: float
    stress: float


@dataclass(frozen=True)
class StressCoefficients:
    """Floats at one stretch, arrays at an array of stretches."""

    alpha: float
    beta: float


def _check_stretch(lam):
    lam, scalar = points(lam)
    bad = ~(lam > 0.0)
    if bad.any():
        raise ValueError(f"stretch must be positive, got {float(lam[first(bad)])!r}")
    return lam, scalar


def invariants(mode: DeformationMode, lam):
    """Isochoric invariants (I1, I2) for the given mode and stretch(es)."""
    lam, scalar = _check_stretch(lam)
    if mode is DeformationMode.UT:
        i1 = lam * lam + 2.0 / lam
        i2 = 1.0 / (lam * lam) + 2.0 * lam
    elif mode is DeformationMode.BT:
        i1 = 2.0 * lam * lam + lam ** -4
        i2 = 2.0 / (lam * lam) + lam ** 4
    elif mode is DeformationMode.PS:
        i1 = lam * lam + 1.0 + 1.0 / (lam * lam)
        i2 = i1.copy()
    else:  # pragma: no cover
        raise ValueError(f"unknown mode {mode!r}")
    return unbatch(i1, scalar), unbatch(i2, scalar)


def stress_coefficients(mode: DeformationMode, lam) -> StressCoefficients:
    """Coefficients (alpha, beta) of P = alpha * W_I1 + beta * W_I2."""
    lam, scalar = _check_stretch(lam)
    if mode is DeformationMode.UT:
        alpha = 2.0 * (lam - lam ** -2)
        beta = 2.0 * (1.0 - lam ** -3)
    elif mode is DeformationMode.BT:
        alpha = 2.0 * (lam - lam ** -5)
        beta = 2.0 * (lam ** 3 - lam ** -3)
    elif mode is DeformationMode.PS:
        alpha = 2.0 * (lam - lam ** -3)
        beta = alpha.copy()
    else:  # pragma: no cover
        raise ValueError(f"unknown mode {mode!r}")
    return StressCoefficients(alpha=unbatch(alpha, scalar), beta=unbatch(beta, scalar))


def mode_groups(modes) -> dict:
    """Indices of each mode in a sequence of modes, in order of first appearance."""
    modes = list(modes)
    groups = [(mode, np.array([k for k, m in enumerate(modes) if m is mode]))
              for mode in DeformationMode]  # identity tests: enum hashing is slow
    return dict(sorted(((m, idx) for m, idx in groups if idx.size), key=lambda g: g[1][0]))


def max_invariants(samples):
    """Largest I1, I2 and transformed I2 over a set of samples.

    Returns ``(i1_max, i2_max, i2t_max)`` where the last entry pushes
    ``i2_max`` through the polyconvex transform (monotone, so the maximum
    commutes with it).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty dataset")
    i1_max = 3.0
    i2_max = 3.0
    for mode, idx in mode_groups([s.mode for s in samples]).items():
        i1, i2 = invariants(mode, [samples[k].stretch for k in idx])
        i1_max = max(i1_max, float(i1.max()))
        i2_max = max(i2_max, float(i2.max()))
    i2t_max, _ = poly_transform(i2_max)
    return i1_max, i2_max, i2t_max
