"""Homogeneous deformation modes for incompressible isotropic materials.

Covers uniaxial tension (UT), equibiaxial tension (BT) and pure shear
(PS) under the incompressibility constraint.  For each mode the principal
stretch determines the isochoric invariants (I1, I2) of the left
Cauchy-Green tensor, and the measured nominal stress is a known linear
combination of the energy derivatives:

    P = alpha(lambda) * dW/dI1 + beta(lambda) * dW/dI2

with the hydrostatic pressure already eliminated through the traction-free
thickness direction.  The kinematic functions take one stretch or a 1-D
array of them, and one mode for every stretch or a list, tuple or array
holding each stretch's own mode, so that a dataset of mixed modes is one
batch.  Every stretch takes its own mode's formula, elementwise, so a
value does not depend on the batch it is computed in.  A ``Dataset``
holds a fit's samples as columns, grouped and through the formulas once.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _groups(mode, n: int) -> dict:
    """The points of each mode: all ``n`` for one mode, or by ``mode_groups``
    for a list, tuple or array holding each point's own mode."""
    if not isinstance(mode, (list, tuple, np.ndarray)):
        return {mode: slice(None)}
    if len(mode) != n:
        raise ValueError(f"expected one mode per stretch, got {len(mode)} modes for {n} stretches")
    return mode_groups(mode)


# Each mode's (I1, I2) and (alpha, beta) at an array of stretches x
_INVARIANTS = {
    DeformationMode.UT: lambda x: (x * x + 2.0 / x, 1.0 / (x * x) + 2.0 * x),
    DeformationMode.BT: lambda x: (2.0 * x * x + x ** -4, 2.0 / (x * x) + x ** 4),
    DeformationMode.PS: lambda x: (x * x + 1.0 + 1.0 / (x * x),) * 2,
}
_COEFFICIENTS = {
    DeformationMode.UT: lambda x: (2.0 * (x - x ** -2), 2.0 * (1.0 - x ** -3)),
    DeformationMode.BT: lambda x: (2.0 * (x - x ** -5), 2.0 * (x ** 3 - x ** -3)),
    DeformationMode.PS: lambda x: (2.0 * (x - x ** -3),) * 2,
}


def _by_mode(formulas: dict, groups: dict, lam: np.ndarray):
    """Two columns at checked stretches, each group by its mode's formulas."""
    a, b = np.empty((2, lam.size))
    for m, idx in groups.items():
        if not isinstance(m, DeformationMode):
            raise ValueError(f"unknown mode {m!r}")
        a[idx], b[idx] = formulas[m](lam[idx])
    return a, b


def invariants(mode, lam):
    """Isochoric invariants (I1, I2) at the stretch(es), for one mode or one
    mode per stretch."""
    lam, scalar = _check_stretch(lam)
    i1, i2 = _by_mode(_INVARIANTS, _groups(mode, lam.size), lam)
    return unbatch(i1, scalar), unbatch(i2, scalar)


def stress_coefficients(mode, lam) -> StressCoefficients:
    """Coefficients (alpha, beta) of P = alpha * W_I1 + beta * W_I2, for one
    mode or one mode per stretch."""
    lam, scalar = _check_stretch(lam)
    alpha, beta = _by_mode(_COEFFICIENTS, _groups(mode, lam.size), lam)
    return StressCoefficients(alpha=unbatch(alpha, scalar), beta=unbatch(beta, scalar))


def mode_groups(modes) -> dict:
    """Indices of each mode in a sequence of modes, in order of first
    appearance; an entry that is no ``DeformationMode`` raises."""
    modes = np.fromiter(modes, dtype=object)
    # object == compares by identity here: hashing the enum once per row is slow
    groups = [(mode, np.flatnonzero(modes == mode)) for mode in DeformationMode]
    if sum(idx.size for _, idx in groups) != modes.size:
        unknown = next(m for m in modes if not isinstance(m, DeformationMode))
        raise ValueError(f"unknown mode {unknown!r}")
    return dict(sorted(((m, idx) for m, idx in groups if idx.size), key=lambda g: g[1][0]))


class Dataset(Sequence):
    """Samples held as columns, for the whole-dataset stages of a fit.

    Holds each row's mode (``modes``), the ``stretch`` and ``stress``
    arrays, the mode ``groups`` of one ``mode_groups`` call and the rows'
    invariants ``i1``, ``i2`` and stress coefficients ``alpha``, ``beta``,
    each computed once, with the bits of ``invariants`` and
    ``stress_coefficients``.  It is a read-only sequence of ``Sample``s:
    ``len``, indexing and iteration work as on a list.  A non-mode entry,
    a non-positive stretch or no rows at all raise.
    """

    def __init__(self, modes, stretch, stress):
        self.modes = list(modes)
        if not self.modes:
            raise ValueError("empty dataset")
        self.groups = mode_groups(self.modes)
        self.stretch, _ = _check_stretch(stretch)
        self.stress = np.asarray(stress, dtype=float)
        if not len(self.modes) == self.stretch.size == self.stress.size:
            raise ValueError("expected one mode, stretch and stress per sample")
        self.i1, self.i2 = _by_mode(_INVARIANTS, self.groups, self.stretch)
        self.alpha, self.beta = _by_mode(_COEFFICIENTS, self.groups, self.stretch)

    @classmethod
    def of(cls, samples) -> Dataset:
        """A ``Dataset`` as it is, or one built from an iterable of samples."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        return cls([s.mode for s in samples], [s.stretch for s in samples],
                   [s.stress for s in samples])

    def __len__(self) -> int:
        return len(self.modes)

    def __getitem__(self, k) -> Sample:
        return Sample(self.modes[k], float(self.stretch[k]), float(self.stress[k]))

    def __iter__(self):
        return map(Sample, self.modes, self.stretch.tolist(), self.stress.tolist())


def max_invariants(samples):
    """Largest I1 and transformed I2 over a set of samples.

    Returns ``(i1_max, i2t_max)``: the largest I1 and the largest I2 pushed
    through the polyconvex transform (monotone, so the maximum commutes
    with it), each at least its undeformed value.
    """
    data = Dataset.of(samples)
    i2t_max, _ = poly_transform(max(3.0, float(data.i2.max())))
    return max(3.0, float(data.i1.max())), i2t_max
