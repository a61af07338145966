"""Admissible invariant domain of incompressible deformations and its map.

For an incompressible material the isochoric invariants (I1, I2) cannot
fill the whole quadrant: they are confined to a cusp-shaped region with
apex at (3, 3) whose lower and upper boundaries are traced by uniaxial
and equibiaxial deformation.  Both boundaries are roots in I2 of the
cubic

    C(I1, I2) = I2^3 - I1^2 I2^2 / 4 - 9 I1 I2 / 2 + I1^3 + 27/4 = 0,

which has exactly one spurious real root below 3 for every I1 > 3.

The map below sends this curved band to the unit square: the abscissa is
an affine rescaling of I1 and the ordinate measures the relative position
between the two boundaries, optionally after a monotone transform of I2
whose convexity is compatible with polyconvex energies.  A small width
floor ``delta`` keeps the map well defined at the apex, where the band
collapses to a point.

Every function here is elementwise: it takes one point or a 1-D array of
points (the trigonometric cubic is solved for all of them at once) and
returns Python floats for a scalar point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import first, pairs, points, unbatch

_SQRT3 = math.sqrt(3.0)
_SHIFT = 3.0 * _SQRT3  # value of I2^(3/2) at the undeformed state


@dataclass(frozen=True)
class DomainMapConfig:
    """Parameters of the admissible-domain map.

    ``u_min``/``u_max`` bound the I1 axis, ``delta`` is the width floor
    regularising the apex, and ``use_polyconvex`` toggles the monotone
    I2 -> I2^(3/2) - 3*sqrt(3) transform of the second invariant.
    """

    u_max: float
    u_min: float = 3.0
    delta: float = 1e-6
    use_polyconvex: bool = True

    def __post_init__(self):
        if not self.u_max > self.u_min:
            raise ValueError("u_max must exceed u_min")
        if self.u_min < 3.0 - 1e-9:
            raise ValueError("u_min must be at least 3")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class BoundaryEval:
    """Boundary roots of the admissibility cubic and their I1-derivatives
    (floats at one I1, arrays at an array of them)."""

    i2_lo: float
    i2_hi: float
    d_lo: float
    d_hi: float


@dataclass(frozen=True)
class MapJacobian:
    """Partial derivatives of the map (floats at one point, arrays at many)."""

    dxi_di1: float
    deta_di1: float
    deta_di2: float


def cubic_residual(i1, i2):
    """C(I1, I2); zero on the boundary, negative strictly inside."""
    i1, i2, scalar = pairs(i1, i2)
    return unbatch(i2 ** 3 - 0.25 * i1 * i1 * i2 * i2 - 4.5 * i1 * i2
                   + i1 ** 3 + 6.75, scalar)


def _shifted_cubic(i1: np.ndarray):
    """Coefficients of C(I1, 3 + y) = y^3 + q2 y^2 + q1 y + q0.

    The factored forms of q1 and q0 avoid the catastrophic cancellation
    the monomial expansion suffers near the apex, which is what lets one
    Newton step reach machine-precision roots there.
    """
    q2 = (36.0 - i1 * i1) / 4.0
    q1 = -1.5 * (i1 - 3.0) * (i1 + 6.0)
    q0 = (i1 - 3.0) ** 2 * (i1 + 3.75)
    return q2, q1, q0


def _cubic_val_d2(i1: np.ndarray, i2: np.ndarray):
    """C and dC/dI2 evaluated through the shifted, factored form."""
    q2, q1, q0 = _shifted_cubic(i1)
    y = i2 - 3.0
    val = ((y + q2) * y + q1) * y + q0
    d2 = (3.0 * y + 2.0 * q2) * y + q1
    return val, d2


def _cubic_d1(i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """dC/dI1 in the shifted form (equals -I1*I2^2/2 - 9*I2/2 + 3*I1^2)."""
    y = i2 - 3.0
    return (-0.5 * i1) * y * y - 1.5 * (2.0 * i1 + 3.0) * y + (i1 - 3.0) * (3.0 * i1 + 4.5)


def _slope(i1: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Implicit I1-derivative -(dC/dI1) / (dC/dI2) of a boundary root; 1 where
    dC/dI2 vanishes (the apex tangent)."""
    _, d2 = _cubic_val_d2(i1, root)
    flat = np.abs(d2) < 1e-30
    return np.where(flat, 1.0, -_cubic_d1(i1, root) / np.where(flat, 1.0, d2))


def boundary(i1) -> BoundaryEval:
    """Lower/upper admissible bounds on I2 at the given I1, with derivatives.

    Solves the monic cubic by the trigonometric three-real-root method,
    polishes each root with one Newton step, discards the spurious root
    below 3, and differentiates the remaining roots implicitly:
    I2' = -(dC/dI1) / (dC/dI2).  At the apex both bounds equal 3 and the
    common tangent slope is 1.  Takes one I1 or an array of them.
    """
    x, scalar = points(i1)
    small = x < 3.0 - 1e-9
    if small.any():
        raise ValueError(f"I1 must be at least 3, got {float(x[first(small)])!r}")
    lo, hi = np.full((2, x.size), 3.0)  # the apex values
    d_lo, d_hi = np.ones((2, x.size))
    inner = x > 3.0
    if inner.any():
        i1 = x[inner]
        a = -0.25 * i1 * i1
        b = -4.5 * i1
        c = i1 ** 3 + 6.75
        p = b - a * a / 3.0
        q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
        roots = m * np.cos(phi - 2.0 * math.pi * np.arange(3)[:, None] / 3.0) - a / 3.0
        val, d2 = _cubic_val_d2(i1, roots)
        steep = np.abs(d2) > 1e-30
        roots = np.where(steep, roots - val / np.where(steep, d2, 1.0), roots)
        kept = roots >= 3.0 - 1e-9
        none = ~kept.any(axis=0)  # round-off collapse immediately next to the apex
        r_lo = np.where(none, 3.0, np.where(kept, roots, np.inf).min(axis=0))
        r_hi = np.where(none, 3.0, np.where(kept, roots, -np.inf).max(axis=0))
        lo[inner], hi[inner] = r_lo, r_hi
        d_lo[inner], d_hi[inner] = _slope(i1, r_lo), _slope(i1, r_hi)
    return BoundaryEval(i2_lo=unbatch(lo, scalar), i2_hi=unbatch(hi, scalar),
                        d_lo=unbatch(d_lo, scalar), d_hi=unbatch(d_hi, scalar))


def poly_transform(i2):
    """Polyconvexity-compatible transform of I2 and its derivative.

    Returns ``(I2^(3/2) - 3*sqrt(3), 1.5*sqrt(I2))``; the shift zeroes the
    transform at the undeformed state.  Values within round-off below the
    floor I2 = 3 are clamped to it.
    """
    i2, scalar = points(i2)
    small = i2 < 3.0 - 1e-9
    if small.any():
        raise ValueError(f"I2 must be at least 3, got {float(i2[first(small)])!r}")
    i2 = np.maximum(i2, 3.0)
    s = np.sqrt(i2)
    return unbatch(i2 * s - _SHIFT, scalar), unbatch(1.5 * s, scalar)


def poly_transform_inverse(value):
    """Inverse of the polyconvex transform."""
    x, scalar = points(value)
    x = x + _SHIFT
    if (x < 0.0).any():
        raise ValueError("transformed value below the admissible range")
    c = np.cbrt(x)
    return unbatch(c * c, scalar)


def _transform(i2: np.ndarray, cfg: DomainMapConfig):
    if cfg.use_polyconvex:
        return poly_transform(i2)
    return i2, np.ones(i2.shape)


def _transform_inverse(value: np.ndarray, cfg: DomainMapConfig) -> np.ndarray:
    if cfg.use_polyconvex:
        return poly_transform_inverse(value)
    return value


def _check_i1(i1: np.ndarray, cfg: DomainMapConfig) -> np.ndarray:
    grace = 1e-9 * (1.0 + np.abs(i1))
    bad = (i1 < cfg.u_min - grace) | (i1 > cfg.u_max + grace)
    if bad.any():
        raise ValueError(f"I1 = {float(i1[first(bad)])!r} outside [{cfg.u_min}, {cfg.u_max}]")
    return np.clip(i1, cfg.u_min, cfg.u_max)


def _band(i1: np.ndarray, cfg: DomainMapConfig):
    """Transformed boundary values, their derivatives and effective width."""
    be = boundary(i1)
    t_lo, tp_lo = _transform(np.maximum(be.i2_lo, 3.0), cfg)
    t_hi, tp_hi = _transform(np.maximum(be.i2_hi, 3.0), cfg)
    d_lo = tp_lo * be.d_lo
    d_hi = tp_hi * be.d_hi
    gap = t_hi - t_lo
    dgap = d_hi - d_lo
    eff = np.hypot(gap, cfg.delta)
    deff = gap * dgap / np.where(eff > 0.0, eff, 1.0)
    return t_lo, d_lo, gap, dgap, eff, deff


def width(i1, cfg: DomainMapConfig):
    """Effective band width ``sqrt(gap^2 + delta^2)`` and its I1-derivative."""
    i1, scalar = points(i1)
    _, _, _, _, eff, deff = _band(_check_i1(i1, cfg), cfg)
    return unbatch(eff, scalar), unbatch(deff, scalar)


def _relative(t: np.ndarray, t_lo: np.ndarray, eff: np.ndarray) -> np.ndarray:
    """Position (t - t_lo) / eff across the band; 0 where the band is empty."""
    return np.where(eff > 0.0, (t - t_lo) / np.where(eff > 0.0, eff, 1.0), 0.0)


def map_forward(i1, i2, cfg: DomainMapConfig):
    """Map admissible points (I1, I2) to unit-square coordinates (xi, eta).

    Admissibility is checked with a relative tolerance of 1e-9 on the
    second invariant; within that tolerance eta is clamped to [0, 1],
    beyond it the point is rejected.
    """
    i1, i2, scalar = pairs(i1, i2)
    i1 = _check_i1(i1, cfg)
    t, tp = _transform(i2, cfg)
    t_lo, _, _, _, eff, _ = _band(i1, cfg)
    tol = 1e-9 * (1.0 + np.abs(i2)) * np.maximum(tp, 1.0)
    bad = (t < t_lo - tol) | (t > t_lo + eff + tol)
    if bad.any():
        k = first(bad)
        raise ValueError(f"point (I1, I2) = ({float(i1[k])!r}, {float(i2[k])!r}) "
                         "is not admissible")
    xi = (i1 - cfg.u_min) / (cfg.u_max - cfg.u_min)
    eta = _relative(t, t_lo, eff)
    return (unbatch(np.clip(xi, 0.0, 1.0), scalar),
            unbatch(np.clip(eta, 0.0, 1.0), scalar))


def map_inverse(xi, eta, cfg: DomainMapConfig):
    """Map unit-square coordinates back to invariants (I1, I2)."""
    xi, eta, scalar = pairs(xi, eta)
    for name, v in (("xi", xi), ("eta", eta)):
        bad = ~((v >= -1e-12) & (v <= 1.0 + 1e-12))
        if bad.any():
            raise ValueError(f"{name} = {float(v[first(bad)])!r} outside [0, 1]")
    xi = np.clip(xi, 0.0, 1.0)
    eta = np.clip(eta, 0.0, 1.0)
    i1 = cfg.u_min + xi * (cfg.u_max - cfg.u_min)
    t_lo, _, _, _, eff, _ = _band(i1, cfg)
    i2 = _transform_inverse(t_lo + eta * eff, cfg)
    return unbatch(i1, scalar), unbatch(np.maximum(i2, 3.0), scalar)


def map_jacobian(i1, i2, cfg: DomainMapConfig) -> MapJacobian:
    """Partial derivatives of (xi, eta) with respect to (I1, I2)."""
    i1, i2, scalar = pairs(i1, i2)
    i1 = _check_i1(i1, cfg)
    t, tp = _transform(i2, cfg)
    t_lo, d_lo, _, _, eff, deff = _band(i1, cfg)
    if (eff <= 0.0).any():
        raise ValueError("zero band width; use delta > 0 to evaluate at the apex")
    dxi = np.full(i1.shape, 1.0 / (cfg.u_max - cfg.u_min))
    deta_di2 = tp / eff
    deta_di1 = (-d_lo * eff - (t - t_lo) * deff) / (eff * eff)
    return MapJacobian(dxi_di1=unbatch(dxi, scalar), deta_di1=unbatch(deta_di1, scalar),
                       deta_di2=unbatch(deta_di2, scalar))


def chain_rule(w_xi, w_eta, jac: MapJacobian):
    """Convert unit-square energy gradients to invariant-space gradients."""
    w_xi, w_eta, scalar = pairs(w_xi, w_eta)
    w1 = w_xi * jac.dxi_di1 + w_eta * jac.deta_di1
    w2 = w_eta * jac.deta_di2
    return unbatch(w1, scalar), unbatch(w2, scalar)
