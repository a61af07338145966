"""Cubic B-spline curves and tensor-product surfaces defined by interpolation.

Splines are parameterised by the values they interpolate at fixed sites
rather than by raw control coefficients.  Knot vectors are clamped and the
interior knots follow the site-averaging rule, so the Schoenberg-Whitney
condition holds and every collocation system is nonsingular.  Because
interpolation is linear, the value of the spline (and of any derivative)
at any point is a linear functional of the site values; the sensitivity
machinery at the bottom of this module exposes those functionals as dense
rows and matrices for use in calibration.

Basis evaluation follows the classic Cox-de Boor algorithms (A2.1, A2.2
and A2.3 of Piegl & Tiller, "The NURBS Book").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEGREE = 3


def _as_sites(sites) -> np.ndarray:
    s = np.asarray(sites, dtype=float)
    if s.ndim != 1:
        raise ValueError("sites must be a one-dimensional sequence")
    if s.size < DEGREE + 1:
        raise ValueError(f"need at least {DEGREE + 1} sites, got {s.size}")
    if not np.all(np.diff(s) > 0.0):
        raise ValueError("sites must be strictly increasing")
    if not np.all(np.isfinite(s)):
        raise ValueError("sites must be finite")
    return s


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot vector for splines of fixed degree 3."""

    knots: tuple
    degree: int = DEGREE

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.knots) - self.degree - 1

    @property
    def domain(self) -> tuple:
        return (self.knots[self.degree], self.knots[self.n])

    def array(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=float)


def make_knots(sites, degree: int = DEGREE) -> KnotVector:
    """Build a clamped knot vector for interpolation at the given sites.

    The first and last knots repeat ``degree + 1`` times; each interior
    knot is the average of ``degree`` consecutive interior sites.  For
    strictly increasing sites the resulting interior knots are strictly
    increasing and lie strictly inside the site range, which guarantees
    the Schoenberg-Whitney interlacing condition.
    """
    if degree != DEGREE:
        raise ValueError("only cubic (degree 3) knot vectors are supported")
    s = _as_sites(sites)
    m = s.size
    interior = [float(np.mean(s[i + 1 : i + 1 + degree])) for i in range(m - degree - 1)]
    knots = [float(s[0])] * (degree + 1) + interior + [float(s[-1])] * (degree + 1)
    return KnotVector(knots=tuple(knots), degree=degree)


def find_span(kv: KnotVector, x: float) -> int:
    """Index i with knots[i] <= x < knots[i+1]; the right end maps to the last span."""
    t = kv.knots
    p = kv.degree
    n = kv.n
    lo, hi = kv.domain
    grace = 1e-12 * (1.0 + abs(lo) + abs(hi))
    if x < lo - grace or x > hi + grace:
        raise ValueError(f"evaluation point {x!r} outside spline domain [{lo}, {hi}]")
    if x >= t[n]:
        return n - 1
    if x <= t[p]:
        return p
    low, high = p, n
    mid = (low + high) // 2
    while x < t[mid] or x >= t[mid + 1]:
        if x < t[mid]:
            high = mid
        else:
            low = mid
        mid = (low + high) // 2
    return mid


def _basis_and_derivatives(kv: KnotVector, x: float, nderiv: int):
    """Nonzero basis functions and derivatives at x (NURBS Book A2.3).

    Returns ``(span, ders)`` where ``ders[r, j]`` is the r-th derivative of
    basis function ``span - degree + j`` evaluated at x.
    """
    p = kv.degree
    t = kv.knots
    span = find_span(kv, x)
    x = min(max(x, kv.domain[0]), kv.domain[1])
    requested = nderiv
    nderiv = min(nderiv, p)

    ndu = np.zeros((p + 1, p + 1))
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nderiv + 1, p + 1))
    ders[0, :] = ndu[:, p]

    a = np.zeros((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nderiv + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    r = p
    for k in range(1, nderiv + 1):
        ders[k, :] *= r
        r *= p - k
    if requested > nderiv:
        ders = np.vstack([ders, np.zeros((requested - nderiv, p + 1))])
    return span, ders


def basis_at(kv: KnotVector, x: float, r: int = 0):
    """Span index and the ``degree + 1`` nonzero basis values at x.

    ``r`` selects the derivative order (0, 1 or 2).
    """
    if r < 0 or r > 2:
        raise ValueError("derivative order must be 0, 1 or 2")
    span, ders = _basis_and_derivatives(kv, x, r)
    return span, ders[r].copy()


def basis_row(kv: KnotVector, x: float, r: int = 0) -> np.ndarray:
    """Dense length-n row of basis (derivative) values at x."""
    span, vals = basis_at(kv, x, r)
    row = np.zeros(kv.n)
    row[span - kv.degree : span + 1] = vals
    return row


def collocation_matrix(kv: KnotVector, sites) -> np.ndarray:
    s = np.asarray(sites, dtype=float)
    B = np.zeros((s.size, kv.n))
    for k, x in enumerate(s):
        B[k] = basis_row(kv, x)
    return B


def derivative_operator(kv: KnotVector):
    """Matrix mapping spline coefficients to coefficients of the derivative.

    Uses the de Boor coefficient-difference recurrence: the derivative of a
    degree-p spline with coefficients c over knots t is the degree-(p-1)
    spline over t[1:-1] with coefficients p * (c[j+1] - c[j]) / (t[j+p+1] - t[j+1]).
    """
    p = kv.degree
    t = kv.knots
    n = kv.n
    if p < 1:
        raise ValueError("cannot differentiate a degree-0 spline")
    D = np.zeros((n - 1, n))
    for j in range(n - 1):
        dt = t[j + p + 1] - t[j + 1]
        D[j, j] = -p / dt
        D[j, j + 1] = p / dt
    return D, KnotVector(knots=kv.knots[1:-1], degree=p - 1)


def eval_coeffs(kv: KnotVector, coeffs: np.ndarray, x: float, r: int = 0) -> float:
    """Evaluate a spline (or derivative) given its raw coefficients."""
    span, vals = basis_at(kv, x, r)
    return float(vals @ np.asarray(coeffs, dtype=float)[span - kv.degree : span + 1])


class Curve:
    """Univariate cubic spline interpolating prescribed values at sites."""

    def __init__(self, kv: KnotVector, coeffs: np.ndarray, sites: np.ndarray):
        self.kv = kv
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.sites = np.asarray(sites, dtype=float)

    def __call__(self, x: float, r: int = 0) -> float:
        span, vals = basis_at(self.kv, x, r)
        return float(vals @ self.coeffs[span - self.kv.degree : span + 1])


def interpolate_curve(sites, values) -> Curve:
    """Cubic spline through ``(site_k, value_k)`` using averaged interior knots."""
    s = _as_sites(sites)
    v = np.asarray(values, dtype=float)
    if v.shape != s.shape:
        raise ValueError("values must match sites in length")
    kv = make_knots(s)
    B = collocation_matrix(kv, s)
    try:
        coeffs = np.linalg.solve(B, v)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by knot rule
        raise ValueError("singular collocation system; check site/knot pairing") from exc
    return Curve(kv, coeffs, s)


@dataclass
class InterpolationGrid:
    """Tensor grid of interpolation sites and values for a surface."""

    sites_u: np.ndarray
    sites_v: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.sites_u = _as_sites(self.sites_u)
        self.sites_v = _as_sites(self.sites_v)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.sites_u.size, self.sites_v.size):
            raise ValueError("values must have shape (len(sites_u), len(sites_v))")


class Surface:
    """Tensor-product cubic spline surface."""

    def __init__(self, ku: KnotVector, kw: KnotVector, coeffs: np.ndarray):
        self.ku = ku
        self.kw = kw
        self.coeffs = np.asarray(coeffs, dtype=float)

    def eval(self, x: float, y: float, rx: int = 0, ry: int = 0) -> float:
        su, bu = basis_at(self.ku, x, rx)
        sv, bv = basis_at(self.kw, y, ry)
        block = self.coeffs[su - self.ku.degree : su + 1, sv - self.kw.degree : sv + 1]
        return float(bu @ block @ bv)

    def eval_grid(self, xs, ys, rx: int = 0, ry: int = 0) -> np.ndarray:
        """Evaluate on the tensor grid xs x ys; returns shape (len(xs), len(ys))."""
        Ru = np.vstack([basis_row(self.ku, float(x), rx) for x in np.atleast_1d(xs)])
        Rv = np.vstack([basis_row(self.kw, float(y), ry) for y in np.atleast_1d(ys)])
        return Ru @ self.coeffs @ Rv.T


def interpolate_surface(grid: InterpolationGrid) -> Surface:
    """Tensor-product interpolation, solved axis by axis."""
    ku = make_knots(grid.sites_u)
    kw = make_knots(grid.sites_v)
    Bu = collocation_matrix(ku, grid.sites_u)
    Bv = collocation_matrix(kw, grid.sites_v)
    try:
        tmp = np.linalg.solve(Bu, grid.values)
        coeffs = np.linalg.solve(Bv, tmp.T).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ValueError("singular collocation system; check site/knot pairing") from exc
    return Surface(ku, kw, coeffs)


class DirectionOps:
    """Per-direction sensitivity operators for value-parameterised splines.

    ``binv`` maps interpolated site values to spline coefficients.  ``c1``
    and ``c2`` map site values directly to the coefficients of the first
    and second derivative splines; they are built from the de Boor
    coefficient-difference recurrence, not from point samples.
    """

    def __init__(self, sites: np.ndarray):
        self.sites = _as_sites(sites)
        self.kv = make_knots(self.sites)
        B = collocation_matrix(self.kv, self.sites)
        try:
            self.binv = np.linalg.solve(B, np.eye(self.kv.n))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ValueError("singular collocation system") from exc
        D1, self.kv1 = derivative_operator(self.kv)
        D2, self.kv2 = derivative_operator(self.kv1)
        self.c1 = D1 @ self.binv
        self.c2 = D2 @ D1 @ self.binv

    @property
    def n(self) -> int:
        return self.kv.n

    def value_row(self, x: float, r: int = 0) -> np.ndarray:
        """Row mapping site values to the r-th derivative of the spline at x."""
        return basis_row(self.kv, x, r) @ self.binv


@dataclass
class SensitivitySet:
    """Sensitivity operators for both directions of a value grid."""

    u: DirectionOps
    v: DirectionOps


def sensitivity_set(sites_u, sites_v) -> SensitivitySet:
    return SensitivitySet(u=DirectionOps(np.asarray(sites_u, dtype=float)),
                          v=DirectionOps(np.asarray(sites_v, dtype=float)))

