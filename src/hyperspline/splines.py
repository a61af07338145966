"""Cubic B-spline curves and tensor-product surfaces defined by interpolation.

Splines are parameterised by the values they interpolate at fixed sites
rather than by raw control coefficients.  Knot vectors are clamped and the
interior knots follow the site-averaging rule, so the Schoenberg-Whitney
condition holds and every collocation system is nonsingular.  Because
interpolation is linear, the value of the spline (and of any derivative)
at any point is a linear functional of the site values; the sensitivity
machinery at the bottom of this module exposes those functionals as rows
for use in calibration.

Evaluation is batched: every evaluator takes one point or a 1-D array of
points.  Basis values come as a span index per point plus an (N, 4)
block of the nonzero basis functions, computed by the Cox-de Boor
derivative algorithm (A2.3 of Piegl & Tiller, "The NURBS Book") run over
all points at once; a scalar point is a batch of one and gets Python
scalars back.  One A2.3 pass per axis gives every derivative order up to
the one asked for, so a surface gradient and a design row's value and
slope blocks take both orders from one pass per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import first, pairs, points, unbatch

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


def make_knots(sites) -> KnotVector:
    """Build a clamped cubic knot vector for interpolation at the given sites.

    The first and last knots repeat four times; each interior knot is the
    average of three consecutive interior sites.  For strictly increasing
    sites the resulting interior knots are strictly increasing and lie
    strictly inside the site range, which guarantees the Schoenberg-Whitney
    interlacing condition.
    """
    s = _as_sites(sites)
    m, p = s.size, DEGREE
    interior = [float(np.mean(s[i + 1 : i + 1 + p])) for i in range(m - p - 1)]
    knots = [float(s[0])] * (p + 1) + interior + [float(s[-1])] * (p + 1)
    return KnotVector(knots=tuple(knots))


def find_span(kv: KnotVector, x: float) -> int:
    """Index i with knots[i] <= x < knots[i+1]; the right end maps to the last span."""
    return int(_spans(kv, np.array([float(x)]))[0])


def _spans(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """``find_span`` over an array of points, with the same domain check."""
    p, n = kv.degree, kv.n
    lo, hi = kv.domain
    grace = 1e-12 * (1.0 + abs(lo) + abs(hi))
    bad = ~((x >= lo - grace) & (x <= hi + grace))
    if bad.any():
        raise ValueError(f"evaluation point {float(x[first(bad)])!r} outside spline "
                         f"domain [{lo}, {hi}]")
    return np.clip(np.searchsorted(kv.array(), x, side="right") - 1, p, n - 1)


def _basis_block(kv: KnotVector, x: np.ndarray, r: int):
    """A2.3 over an array of points: span indices and, for each order
    k = 0..r, the (N, degree + 1) block of k-th derivatives of basis
    functions ``span - degree + j``.

    One pass builds the triangular table ``ndu`` and reads every order off
    it.  Each point gets the arithmetic of the scalar algorithm, so its
    values do not depend on the batch it is in.
    """
    if r < 0 or r > 2:
        raise ValueError("derivative order must be 0, 1 or 2")
    p = kv.degree
    t = kv.array()
    span = _spans(kv, x)
    x = np.clip(x, *kv.domain)
    ndu = np.empty((p + 1, p + 1, x.size))
    left = np.empty((p + 1, x.size))
    right = np.empty((p + 1, x.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for q in range(j):
            ndu[j, q] = right[q + 1] + left[j - q]
            temp = ndu[q, j - 1] / ndu[j, q]
            ndu[q, j] = saved + right[q + 1] * temp
            saved = left[j - q] * temp
        ndu[j, j] = saved
    values = ndu[:, p].T.copy()
    if r == 0:
        return span, [values]

    ders = np.empty((r + 1, p + 1, x.size))
    a = np.zeros((2, p + 1, x.size))
    for q in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, r + 1):
            d = 0.0
            qk = q - k
            pk = p - k
            if q >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, qk]
                d = a[s2, 0] * ndu[qk, pk]
            j1 = 1 if qk >= -1 else -qk
            j2 = k - 1 if q - 1 <= pk else p - q
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, qk + j]
                d = d + a[s2, j] * ndu[qk + j, pk]
            if q <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, q]
                d = d + a[s2, k] * ndu[q, pk]
            s1, s2 = s2, s1
            ders[k, q] = d
    return span, [values] + [(ders[k] * math.perm(p, k)).T for k in range(1, r + 1)]


def basis_at(kv: KnotVector, x, r: int = 0):
    """Span index and the ``degree + 1`` nonzero basis values at x.

    ``r`` selects the derivative order (0, 1 or 2).  For an array of N
    points: the N span indices and an (N, degree + 1) block.
    """
    pts, scalar = points(x)
    span, blocks = _basis_block(kv, pts, r)
    return (int(span[0]), blocks[r][0]) if scalar else (span, blocks[r])


def _block_index(kv: KnotVector, span: np.ndarray) -> np.ndarray:
    """(N, degree + 1) indices of the basis functions nonzero on each span."""
    return span[:, None] - kv.degree + np.arange(kv.degree + 1)


def basis_row(kv: KnotVector, x, r: int = 0) -> np.ndarray:
    """Dense length-n row of basis (derivative) values at x; (N, n) for N points."""
    pts, scalar = points(x)
    span, vals = basis_at(kv, pts, r)
    rows = np.zeros((pts.size, kv.n))
    np.put_along_axis(rows, _block_index(kv, span), vals, axis=1)
    return rows[0] if scalar else rows


def collocation_matrix(kv: KnotVector, sites) -> np.ndarray:
    """Basis values at the sites, one row per site."""
    return basis_row(kv, np.atleast_1d(np.asarray(sites, dtype=float)), 0)


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


def eval_coeffs(kv: KnotVector, coeffs: np.ndarray, x, r: int = 0):
    """Evaluate a spline (or derivative) given its raw coefficients, at a
    point or an array of points."""
    pts, scalar = points(x)
    span, vals = basis_at(kv, pts, r)
    c = np.asarray(coeffs, dtype=float)[_block_index(kv, span)]
    return unbatch(np.sum(vals * c, axis=1), scalar)


class Curve:
    """Univariate cubic spline given by its B-spline coefficients."""

    def __init__(self, kv: KnotVector, coeffs: np.ndarray):
        self.kv = kv
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, x, r: int = 0):
        return eval_coeffs(self.kv, self.coeffs, x, r)


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
    return Curve(kv, coeffs)


class Surface:
    """Tensor-product cubic spline surface."""

    def __init__(self, ku: KnotVector, kw: KnotVector, coeffs: np.ndarray):
        self.ku = ku
        self.kw = kw
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _gather(self, su: np.ndarray, sv: np.ndarray) -> np.ndarray:
        """The (N, 4, 4) coefficients acting on each point's spans."""
        return self.coeffs[_block_index(self.ku, su)[:, :, None],
                           _block_index(self.kw, sv)[:, None, :]]

    def eval(self, x, y, rx: int = 0, ry: int = 0):
        """Value (or partial derivative) at (x, y), or at N point pairs."""
        xs, ys, scalar = pairs(x, y)
        su, bu = basis_at(self.ku, xs, rx)
        sv, bv = basis_at(self.kw, ys, ry)
        return unbatch(np.einsum("na,nab,nb->n", bu, self._gather(su, sv), bv), scalar)

    def gradient(self, x, y):
        """``(W_x, W_y)`` at (x, y), or at N point pairs: one basis pass
        and one coefficient gather per axis serve both partials, which equal
        ``eval(x, y, 1, 0)`` and ``eval(x, y, 0, 1)`` bit for bit."""
        xs, ys, scalar = pairs(x, y)
        su, (bu, du) = _basis_block(self.ku, xs, 1)
        sv, (bv, dv) = _basis_block(self.kw, ys, 1)
        block = self._gather(su, sv)
        return (unbatch(np.einsum("na,nab,nb->n", du, block, bv), scalar),
                unbatch(np.einsum("na,nab,nb->n", bu, block, dv), scalar))


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

    def to_sites(self, w: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """(N, n, ...) weights on the site values of (N, k, ...) weights w on
        the coefficients ``cols`` (N, k), or on every coefficient without
        them: the sum from zero of w[:, a] * binv[cols[:, a]] in a fixed
        order, so a row does not depend on its batch; binv's rows are
        broadcast, not gathered, without ``cols``."""
        rows = self.binv.reshape(self.binv.shape + (1,) * (w.ndim - 2))
        out = np.zeros((w.shape[0], self.binv.shape[1]) + w.shape[2:])
        term = np.empty_like(out)
        for a in range(w.shape[1]):
            out += np.multiply(rows[a] if cols is None else rows[cols[:, a]], w[:, a, None],
                               out=term)
        return out

    def _rows(self, x, orders: tuple) -> list:
        """Rows of each derivative order in ``orders`` at x, from one basis
        pass."""
        pts, scalar = points(x)
        span, blocks = _basis_block(self.kv, pts, max(orders))
        idx = _block_index(self.kv, span)
        rows = [self.to_sites(blocks[r], idx) for r in orders]
        return [row[0] if scalar else row for row in rows]

    def value_row(self, x, r: int = 0) -> np.ndarray:
        """Row mapping site values to the r-th derivative of the spline at x;
        (N, n) rows for N points."""
        return self._rows(x, (r,))[0]


@dataclass
class SensitivitySet:
    """Sensitivity operators for both directions of a value grid."""

    u: DirectionOps
    v: DirectionOps


def sensitivity_set(sites_u, sites_v) -> SensitivitySet:
    return SensitivitySet(u=DirectionOps(np.asarray(sites_u, dtype=float)),
                          v=DirectionOps(np.asarray(sites_v, dtype=float)))

