"""Admissible invariant domain of incompressible deformations and its map.

For an incompressible material the isochoric invariants (I1, I2) cannot
fill the whole quadrant: they are confined to a cusp-shaped region with
apex at (3, 3) whose lower and upper boundaries are traced by uniaxial
and equibiaxial deformation.  Both boundaries lie on the uniaxial curve
I1 = lam^2 + 2/lam, I2 = 2 lam + 1/lam^2, the lower one at stretches
lam > 1 and the upper one at lam < 1, so ``boundary`` solves for the
stretch at the given I1 and reads I2 and its slope off the curve.  Both
are also roots in I2 of the cubic

    C(I1, I2) = I2^3 - I1^2 I2^2 / 4 - 9 I1 I2 / 2 + I1^3 + 27/4 = 0.

The map below sends this curved band to the unit square: the abscissa is
an affine rescaling of I1 and the ordinate measures the relative position
between the two boundaries after the monotone transform
T(I2) = I2^(3/2) - 3 sqrt(3), whose convexity is compatible with
polyconvex energies.  A small width floor ``delta`` keeps the map well
defined at the apex, where the band collapses to a point.  One
admissibility rule, a roundoff tolerance on T(I2), gives every evaluation
its ``outside`` mask: points are projected onto the domain and flagged,
and callers that must not extrapolate raise from the mask through
``admitted``.  The spline coordinates of a point and the Jacobian there
share one band, so a mapped evaluation solves ``boundary`` once per point.

Every function here is elementwise: it takes one point or a 1-D array of
points and returns Python floats for a scalar point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._batch import first, pairs, points, unbatch

_SHIFT = 3.0 * math.sqrt(3.0)  # value of I2^(3/2) at the undeformed state
# Newton on a boundary stretch lam stops once a step is below this fraction
# of lam - 1 (the error left is then about its square) or below the
# resolution of lam itself; a loop that reaches the cap raises.
_NEWTON_RTOL = 1e-9
_NEWTON_CAP = 30
_EPS = np.finfo(float).eps
# A point may leave the band by _ADMIT_TOL (1 + I2) max(T', 1) in the
# transformed I2, 1024 roundoff units (about 2e-13 relative to I2), and
# still count as on it.  The invariants of real UT, BT and PS stretches from
# 0.05 to 20 land at most about 5 units outside; the rest is headroom for
# invariants computed by other arithmetic (an I2 off by 1e-13 relative, as
# at stretch 2, is about 365 units).  Near the apex the band is only
# ~4 (lam - 1)^3 wide in I2: at stretch 1.0001 half its width is about 2250
# units, so a looser tolerance would admit points off the band.
_ADMIT_TOL = 1024.0 * _EPS


@dataclass(frozen=True)
class DomainMapConfig:
    """Parameters of the admissible-domain map.

    ``u_min``/``u_max`` bound the I1 axis and ``delta`` is the width floor
    regularising the apex.  The second invariant always enters through the
    polyconvex transform I2 -> I2^(3/2) - 3*sqrt(3); ``use_polyconvex`` is
    a constant, not a setting, kept so a model file can record it.
    """

    u_max: float
    u_min: float = 3.0
    delta: float = 1e-6
    use_polyconvex: ClassVar[bool] = True

    def __post_init__(self):
        if not self.u_max > self.u_min:
            raise ValueError("u_max must exceed u_min")
        if self.u_min < 3.0 - 1e-9:
            raise ValueError("u_min must be at least 3")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class BoundaryEval:
    """Lower/upper admissible I2 at an I1 and their I1-derivatives
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


def _stretch(e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Root of g(lam) = (lam - 1)^2 (lam + 2) - e lam by Newton from a start
    with g > 0.

    g is convex on lam > 0, so from such a start the iterates move
    monotonically onto the root.  Each point stops on its own, so its
    result does not depend on the batch it is solved in.
    """
    lam = lam.copy()
    live = np.ones(lam.shape, dtype=bool)
    for _ in range(_NEWTON_CAP):
        x, ex = lam[live], e[live]
        s = x - 1.0
        step = (s * s * (x + 2.0) - ex * x) / (3.0 * s * (x + 1.0) - ex)
        lam[live] = x - step
        live[live] = np.abs(step) > np.maximum(_NEWTON_RTOL * np.abs(s), _EPS * x)
        if not live.any():
            return lam
    raise RuntimeError(f"boundary stretch failed to converge in {_NEWTON_CAP} iterations")


def boundary(i1) -> BoundaryEval:
    """Lower/upper admissible bounds on I2 at the given I1, with derivatives.

    Both bounds lie on the uniaxial curve I1 = lam^2 + 2/lam,
    I2 = 2 lam + 1/lam^2: the lower one at a stretch lam > 1, the upper
    (equibiaxial) one at lam < 1.  With e = I1 - 3 and s = lam - 1 the
    stretch solves (lam - 1)^2 (lam + 2) = e lam, and

        I2 - 3 = s^2 (2 lam + 1) / lam^2,    dI2/dI1 = 1 / lam.

    The lower stretch lies in (1 + sqrt(e/3), 1 + sqrt(e)) and the upper
    one in (max(1 - sqrt(e/3), 0), 1); Newton starts from the outer end of
    each bracket.  Near the apex lam - 1 is exact, so no term cancels
    there; at the apex both bounds equal 3 and the common slope is 1.
    Takes one I1 or an array of them.
    """
    x, scalar = points(i1)
    small = x < 3.0 - 1e-9
    if small.any():
        raise ValueError(f"I1 must be at least 3, got {float(x[first(small)])!r}")
    e = x - 3.0
    inner = e > 0.0
    lam_lo, lam_hi = np.ones((2, x.size))  # the apex
    if inner.any():
        e = e[inner]
        lam_lo[inner] = _stretch(e, 1.0 + np.sqrt(e))
        lam_hi[inner] = _stretch(e, np.maximum(1.0 - np.sqrt(e / 3.0), 0.0))
    i2_lo, i2_hi = ((lam - 1.0) ** 2 * (2.0 * lam + 1.0) / (lam * lam) + 3.0
                    for lam in (lam_lo, lam_hi))
    return BoundaryEval(i2_lo=unbatch(i2_lo, scalar), i2_hi=unbatch(i2_hi, scalar),
                        d_lo=unbatch(1.0 / lam_lo, scalar), d_hi=unbatch(1.0 / lam_hi, scalar))


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


def _off_axis(i1: np.ndarray, cfg: DomainMapConfig) -> np.ndarray:
    """Points whose I1 leaves [u_min, u_max] by more than round-off."""
    grace = 1e-9 * (1.0 + np.abs(i1))
    return (i1 < cfg.u_min - grace) | (i1 > cfg.u_max + grace)


def _band(i1: np.ndarray, cfg: DomainMapConfig):
    """Transformed boundary values, their derivatives and effective width."""
    be = boundary(i1)
    t_lo, tp_lo = poly_transform(be.i2_lo)
    t_hi, tp_hi = poly_transform(be.i2_hi)
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
    bad = _off_axis(i1, cfg)
    if bad.any():
        raise ValueError(f"I1 = {float(i1[first(bad)])!r} outside [{cfg.u_min}, {cfg.u_max}]")
    _, _, _, _, eff, deff = _band(np.clip(i1, cfg.u_min, cfg.u_max), cfg)
    return unbatch(eff, scalar), unbatch(deff, scalar)


def _locate(i1: np.ndarray, i2: np.ndarray, cfg: DomainMapConfig):
    """Unit-square coordinates ``(xi, eta)`` of invariant points, projected
    onto the square, the mask of points outside the admissible domain, and
    the band at the clipped I1, which the Jacobian there reuses.

    A point is outside when its I1 leaves the axis, or when its transformed
    I2 leaves the band by more than ``_ADMIT_TOL`` (1 + I2) max(T', 1).
    This one rule serves every evaluation of the map.
    """
    i1c = np.clip(i1, cfg.u_min, cfg.u_max)
    t, tp = poly_transform(i2)
    band = _band(i1c, cfg)
    t_lo, _, _, _, eff, _ = band
    tol = _ADMIT_TOL * (1.0 + np.abs(i2)) * np.maximum(tp, 1.0)
    outside = _off_axis(i1, cfg) | (t < t_lo - tol) | (t > t_lo + eff + tol)
    xi = (i1c - cfg.u_min) / (cfg.u_max - cfg.u_min)
    eta = np.where(eff > 0.0, (t - t_lo) / np.where(eff > 0.0, eff, 1.0), 0.0)
    return np.clip(xi, 0.0, 1.0), np.clip(eta, 0.0, 1.0), outside, band


def admitted(outside: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> None:
    """Raise for the first invariant point flagged ``outside``: the one
    check of every evaluation that must not extrapolate."""
    if outside.any():
        k = first(outside)
        raise ValueError(f"point (I1, I2) = ({float(i1[k])!r}, {float(i2[k])!r}) "
                         "is not admissible")


def map_forward(i1, i2, cfg: DomainMapConfig):
    """Map admissible points (I1, I2) to unit-square coordinates (xi, eta).

    A point outside the domain (I1 off the axis by more than round-off, or
    T(I2) off the band by more than ``_ADMIT_TOL``) raises; within the
    tolerance eta is clamped to [0, 1].
    """
    i1, i2, scalar = pairs(i1, i2)
    xi, eta, outside, _ = _locate(i1, i2, cfg)
    admitted(outside, i1, i2)
    return unbatch(xi, scalar), unbatch(eta, scalar)


def _inverse_i2(eta: np.ndarray, band) -> np.ndarray:
    """I2 at height eta in the band."""
    t_lo, _, _, _, eff, _ = band
    return np.maximum(poly_transform_inverse(t_lo + eta * eff), 3.0)


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
    return unbatch(i1, scalar), unbatch(_inverse_i2(eta, _band(i1, cfg)), scalar)


def _jacobian(i2: np.ndarray, band, cfg: DomainMapConfig) -> MapJacobian:
    """``map_jacobian`` on arrays, at an I1 on the axis whose band is given."""
    t, tp = poly_transform(i2)
    t_lo, d_lo, _, _, eff, deff = band
    if (eff <= 0.0).any():
        raise ValueError("zero band width; use delta > 0 to evaluate at the apex")
    dxi = np.full(i2.shape, 1.0 / (cfg.u_max - cfg.u_min))
    deta_di2 = tp / eff
    deta_di1 = (-d_lo * eff - (t - t_lo) * deff) / (eff * eff)
    return MapJacobian(dxi_di1=dxi, deta_di1=deta_di1, deta_di2=deta_di2)


def map_jacobian(i1, i2, cfg: DomainMapConfig) -> MapJacobian:
    """Partial derivatives of (xi, eta) with respect to (I1, I2) at
    admissible points; a point ``map_forward`` rejects raises the same."""
    i1, i2, scalar = pairs(i1, i2)
    _, _, jac, outside = _map_with_jacobian(i1, i2, cfg)
    admitted(outside, i1, i2)
    return MapJacobian(*(unbatch(v, scalar) for v in vars(jac).values()))


def _map_with_jacobian(i1: np.ndarray, i2: np.ndarray, cfg: DomainMapConfig):
    """``(xi, eta, Jacobian, outside)`` at arrays of invariant points, from
    one band per point.  ``_locate`` projects the points and the Jacobian
    is taken at each point's own I2 on the band at its clipped I1, so an
    admissible point gets the bits of ``map_forward``, and ``map_jacobian``
    is this call at admissible points.  An outside point takes the I2 at
    its clipped eta on that band."""
    xi, eta, outside, band = _locate(i1, i2, cfg)
    if outside.any():
        i2 = i2.copy()
        i2[outside] = _inverse_i2(eta[outside], tuple(b[outside] for b in band))
    return xi, eta, _jacobian(i2, band, cfg), outside
