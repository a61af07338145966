"""Spline energy models and the linear design of the calibration problem.

Three model classes share one parameter convention: the unknowns are the
values the energy spline interpolates at fixed sites, stacked into a
single vector theta.

* ``SEPARABLE``      -- W = W1(I1) + W2(T(I2)) with two univariate splines.
* ``SURFACE``        -- a bivariate spline directly on normalised
                        (I1, T(I2)) axes.
* ``MAPPED_SURFACE`` -- a bivariate spline on the unit square obtained by
                        mapping the admissible invariant band.

``T`` is the polyconvex transform of the second invariant.  Because the
nominal stress of every homogeneous mode is linear in the energy
derivatives and those are linear in theta, each measured sample
contributes one linear equation; ``assemble_design`` builds the weighted
system whose least-squares misfit equals the mode-averaged mean squared
stress error.  ``assemble_design``, ``metrics`` and ``default_spec`` take
a ``Dataset`` or samples, and read its mode groups and kinematics.

Evaluation is batched: the evaluators take one stretch (or invariant pair)
or a 1-D array of them, and the stretch evaluators take one deformation
mode or one mode per stretch, so a whole dataset is one call.
Design rows come from one builder, ``_partials``: one A2.3 pass per axis
gives each point's rows of the spline partials W_x and W_y in B-spline
coefficient space (16 nonzero weights on a surface, 4 + 4 on the separable
split), which the chain rule and the stress coefficients combine.  One map,
``_to_sites``, applies K = binv_u (x) binv_v (binv_u and binv_v on the
diagonal for the separable split) to the per-sample rows (``assemble_design``,
``stress_row``, ``sensitivity_derivatives``) and to the n_params + 1 rows of
``reduced_design``, a triangle that keeps the band of the rows it reduces
span by span.  Predictions never build rows: they evaluate the
energy gradient in coefficient form, a span index and (N, 4) value and
slope blocks per axis against the coefficient grid
binv_u @ Theta @ binv_v^T.  Each point costs one A2.3 pass per axis and,
for the mapped kind, one band of the admissible domain.  A scalar argument
returns Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import splines
from ._batch import pairs, points, unbatch
from .domain import (DomainMapConfig, admitted, map_forward, poly_transform,
                     _map_with_jacobian)
from .domain import map_inverse, map_jacobian  # noqa: F401  (perfbench/tracing.py counts them here)
from .kinematics import (Dataset, DeformationMode, invariants, max_invariants,
                         stress_coefficients)


class ModelKind(Enum):
    SEPARABLE = "separable"
    SURFACE = "surface"
    MAPPED_SURFACE = "mapped"


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of a model: kind, discretisation and domain."""

    kind: ModelKind
    n1: int
    n2: int
    domain: DomainMapConfig
    i2_axis_max: float
    sites1: tuple
    sites2: tuple

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError("need at least 4 sites per axis")
        for name, sites, n in (("sites1", self.sites1, self.n1),
                               ("sites2", self.sites2, self.n2)):
            if len(sites) != n:
                raise ValueError(f"{name} must have length {n}")
            arr = np.asarray(sites, dtype=float)
            if not (arr[0] == 0.0 and arr[-1] == 1.0 and np.all(np.diff(arr) > 0)):
                raise ValueError(f"{name} must increase strictly from 0 to 1")
        if self.kind is not ModelKind.MAPPED_SURFACE and not self.i2_axis_max > 0.0:
            raise ValueError("i2_axis_max must be positive")

    @property
    def n_params(self) -> int:
        if self.kind is ModelKind.SEPARABLE:
            return self.n1 + self.n2
        return self.n1 * self.n2


def fixed_zero_indices(spec: ModelSpec) -> tuple:
    """Parameters pinned to zero to fix the energy of the undeformed state.

    The separable split additionally needs the constant shared between the
    two summands fixed, so both axes pin their first site; the surfaces
    pin the single site at the origin corner.
    """
    if spec.kind is ModelKind.SEPARABLE:
        return (0, spec.n1)
    return (0,)


@lru_cache(maxsize=64)
def _ops(sites1: tuple, sites2: tuple) -> splines.SensitivitySet:
    return splines.sensitivity_set(np.asarray(sites1), np.asarray(sites2))


def spec_ops(spec: ModelSpec) -> splines.SensitivitySet:
    return _ops(spec.sites1, spec.sites2)


def default_spec(kind: ModelKind, samples, n1: int = 20, n2: int = 5, *,
                 delta: float = 1e-6) -> ModelSpec:
    """Spec with uniform sites on axes sized to cover the dataset.

    Axis extents take the dataset maxima with a relative margin of 1e-6 so
    every sample ends up strictly inside the evaluable region.
    """
    i1_max, i2t_max = max_invariants(samples)
    if i1_max <= 3.0:
        raise ValueError("dataset spans no invariant range (all stretches are 1)")
    cfg = DomainMapConfig(u_max=i1_max * (1.0 + 1e-6), u_min=3.0, delta=delta)
    return ModelSpec(kind=kind, n1=n1, n2=n2, domain=cfg,
                     i2_axis_max=i2t_max * (1.0 + 1e-6),
                     sites1=tuple(np.linspace(0.0, 1.0, n1).tolist()),
                     sites2=tuple(np.linspace(0.0, 1.0, n2).tolist()))


def _beyond(x: np.ndarray, tol: float) -> np.ndarray:
    return (x < -tol) | (x > 1.0 + tol)


def _axes_coords(spec: ModelSpec, i1: np.ndarray, i2: np.ndarray):
    """Normalised (I1, T(I2)) axes of the separable and surface kinds,
    clipped to [0, 1]: ``(x1, x2, dx2/dI2, outside)``."""
    cfg = spec.domain
    x1 = (i1 - cfg.u_min) / (cfg.u_max - cfg.u_min)
    t, tp = poly_transform(i2)
    x2 = t / spec.i2_axis_max
    return (np.clip(x1, 0.0, 1.0), np.clip(x2, 0.0, 1.0), tp / spec.i2_axis_max,
            _beyond(x1, 1e-9) | _beyond(x2, 1e-9))


def _coordinates(spec: ModelSpec, i1: np.ndarray, i2: np.ndarray):
    """Spline coordinates of invariant points and the chain rule back to them.

    Returns ``(x, y, d1x, d1y, d2y, outside)``: at the spline coordinates
    (x, y) the energy gradient is dW/dI1 = d1x W_x + d1y W_y and dW/dI2 =
    d2y W_y.  Points outside the calibrated domain are projected onto it
    and marked in ``outside``.
    """
    cfg = spec.domain
    if spec.kind is ModelKind.MAPPED_SURFACE:
        xi, eta, jac, outside = _map_with_jacobian(i1, i2, cfg)
        return xi, eta, jac.dxi_di1, jac.deta_di1, jac.deta_di2, outside

    x1, x2, dx2, outside = _axes_coords(spec, i1, i2)
    d1x = np.full(i1.shape, 1.0 / (cfg.u_max - cfg.u_min))
    return x1, x2, d1x, np.zeros(i1.shape), dx2, outside


def _partials(spec: ModelSpec, i1: np.ndarray, i2: np.ndarray):
    """The one design-row builder.  At N points of the calibrated domain
    (a point outside raises) it returns the u-axis span of each point, the
    chain-rule factors (d1x, d1y, d2y) of ``_coordinates`` and the rows of
    the spline partials W_x and W_y in B-spline coefficient space: one
    A2.3 pass per axis, and per point the weights of a surface (u slope
    by v value, u value by v slope), 4 x n2 slots of which 16 are nonzero,
    or the 4 + 4 slopes of the separable split in 4 + n2 slots.  A row
    holds its point's band of columns, the 4 u coefficients of its span
    (by every v coefficient on a surface), then the separable split's v
    coefficients."""
    x, y, d1x, d1y, d2y, outside = _coordinates(spec, i1, i2)
    admitted(outside, i1, i2)
    ops = spec_ops(spec)
    su, (u0, u1) = splines._basis_block(ops.u.kv, x, 1)
    sv, (v0, v1) = splines._basis_block(ops.v.kv, y, 1)
    v = np.zeros((2, x.size, spec.n2))  # the v rows over every v coefficient
    v[:, np.arange(x.size)[:, None], splines._block_index(ops.v.kv, sv)] = v0, v1
    if spec.kind is ModelKind.SEPARABLE:
        px, py = np.zeros((2, x.size, u1.shape[1] + spec.n2))
        px[:, :u1.shape[1]], py[:, u1.shape[1]:] = u1, v[1]
    else:
        px = (u1[:, :, None] * v[0][:, None, :]).reshape(x.size, -1)
        py = (u0[:, :, None] * v[1][:, None, :]).reshape(x.size, -1)
    return su, px, py, d1x, d1y, d2y


def _to_sites(spec: ModelSpec, span: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Coefficient-space rows on their band and tail columns times K, as
    (N, n_params) rows on the site values.  ``DirectionOps.to_sites``
    applies K one factor at a time: binv_v on every v coefficient, then
    binv_u's rows on the band, or binv_u and binv_v each on its own axis
    for the separable split."""
    ops, width = spec_ops(spec), splines.DEGREE + 1
    cols = splines._block_index(ops.u.kv, span)
    if spec.kind is ModelKind.SEPARABLE:
        return np.hstack([ops.u.to_sites(rows[:, :width], cols),
                          ops.v.to_sites(rows[:, width:])])
    band = ops.v.to_sites(rows.reshape(-1, spec.n2)).reshape(span.size, width, spec.n2)
    return ops.u.to_sites(band, cols).reshape(span.size, spec.n_params)


def sensitivity_derivatives(spec: ModelSpec, i1, i2):
    """Gradients of (dW/dI1, dW/dI2) with respect to theta.

    Returns two length-``n_params`` vectors at one point, or two
    (N, n_params) arrays at N points.  A point outside the calibrated
    domain raises: design rows are never extrapolated.
    """
    i1, i2, scalar = pairs(i1, i2)
    span, px, py, d1x, d1y, d2y = _partials(spec, i1, i2)
    dw1 = _to_sites(spec, span, d1x[:, None] * px + d1y[:, None] * py)
    dw2 = _to_sites(spec, span, d2y[:, None] * py)
    return (dw1[0], dw2[0]) if scalar else (dw1, dw2)


def _stress_rows(spec: ModelSpec, alpha, beta, i1, i2) -> np.ndarray:
    """(N, n_params) design rows at N points of known kinematics, formed in
    place so that tall data holds no more than three (N, n_params) blocks."""
    live = (alpha != 0.0) | (beta != 0.0)  # stretch 1 has an exact zero row
    if not live.any():
        return np.zeros((alpha.size, spec.n_params))
    dw1, dw2 = sensitivity_derivatives(spec, i1[live], i2[live])
    dw1 *= alpha[live, None]
    dw1 += np.multiply(dw2, beta[live, None], out=dw2)
    del dw2
    rows = np.zeros((alpha.size, spec.n_params))
    rows[live] = dw1
    return rows


def stress_row(spec: ModelSpec, mode, lam) -> np.ndarray:
    """Row a with predicted stress a @ theta for one mode/stretch pair;
    (N, n_params) rows for N stretches, of one mode or one mode each."""
    lam, scalar = points(lam)
    sc = stress_coefficients(mode, lam)
    rows = _stress_rows(spec, sc.alpha, sc.beta, *invariants(mode, lam))
    return rows[0] if scalar else rows


def _weighted(spec: ModelSpec, samples, build):
    """build(data, w) of a ``Dataset`` or samples, w the row weights
    1/sqrt(N_mode); if it fails, the error names the first sample that
    cannot be assembled."""
    samples = samples if isinstance(samples, Dataset) else list(samples)  # read again on failure
    try:
        data = Dataset.of(samples)
        w = np.empty(len(data))
        for idx in data.groups.values():
            w[idx] = 1.0 / math.sqrt(idx.size)
        return build(data, w)
    except ValueError:
        # a non-mode entry fails the grouping, which names it; else name the sample
        if all(isinstance(s.mode, DeformationMode) for s in samples):
            for k, s in enumerate(samples):
                try:
                    stress_row(spec, s.mode, s.stretch)
                except ValueError as exc:
                    raise ValueError(f"sample {k} ({s.mode.value}, stretch {s.stretch})"
                                     f" cannot be assembled: {exc}") from exc
        raise


def assemble_design(spec: ModelSpec, samples):
    """Weighted design matrix and stress vector for a ``Dataset`` or samples.

    Each row is scaled by 1/sqrt(N_mode) so that the squared residual norm
    equals the sum over modes of the per-mode mean squared stress error.
    The rows are built in one batch; if it fails, the error names the first
    sample that cannot be assembled.
    """
    def build(data, w):
        A = _stress_rows(spec, data.alpha, data.beta, data.i1, data.i2)
        return w[:, None] * A, w * data.stress
    return _weighted(spec, samples, build)


def reduced_design(spec: ModelSpec, samples):
    """``assemble_design``'s [A | y] reduced to n_params + 1 rows [R | c]
    with ||R theta - c|| = ||A theta - y|| for every theta, up to roundoff.

    The weighted rows stay in coefficient space, where each touches one
    band of columns, and are reduced one u-axis span at a time (Lawson &
    Hanson, Solving Least Squares Problems, 1974, ch. 27): stable-sorted
    by span, each span's rows go under the rows of the triangle carried
    from the spans before that reach its band or the tail (y, and the
    separable split's v columns), and a Householder QR of that stack
    replaces them.  Row r of the triangle is zero outside the tail and the
    band of the last span that reaches its u coefficient r // stride, so
    ``_to_sites`` maps it as it maps a sample's row.  A stretch-1 sample
    has a zero row and carries only its stress, in the first span's stack.
    Errors are those of ``assemble_design``.
    """
    def build(data, w):
        n, degree = spec.n_params, splines.DEGREE
        # span s's band: columns (s - degree) * stride on; the tail ends theta
        stride, tail = (1, spec.n2) if spec.kind is ModelKind.SEPARABLE else (spec.n2, 0)
        live = (data.alpha != 0.0) | (data.beta != 0.0)
        span = np.full(len(data), degree)
        X = np.zeros((len(data), (degree + 1) * stride + tail + 1))  # band, tail, y
        X[:, -1] = w * data.stress
        if live.any():
            su, px, py, d1x, d1y, d2y = _partials(spec, data.i1[live], data.i2[live])
            a, b = (w * data.alpha)[live], (w * data.beta)[live]
            X[live, :-1] = (a * d1x)[:, None] * px + (a * d1y + b * d2y)[:, None] * py
            span[live] = su
        order = np.argsort(span, kind="stable")
        X, span = X[order], span[order]
        Rc = np.zeros((n + 1, n + 1))
        band, ends = np.arange((degree + 1) * stride), np.arange(n - tail, n + 1)
        cuts = np.flatnonzero(np.diff(span)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, span.size]):
            cols = np.concatenate([(span[lo] - degree) * stride + band, ends])
            block = np.ix_(cols, cols)
            Rc[block] = np.linalg.qr(np.vstack([Rc[block], X[lo:hi]]), mode="r")
        # the window of a tail row or c's row lies left of its diagonal: zeros
        r = np.arange(n + 1)
        start = np.minimum(r // stride, spec.n1 - degree - 1)
        rows = np.hstack([Rc[r[:, None], start[:, None] * stride + band], Rc[:, n - tail : n]])
        return _to_sites(spec, start + degree, rows), Rc[:, n]
    return _weighted(spec, samples, build)


@dataclass
class ModelState:
    """A spec together with calibrated parameter values."""

    spec: ModelSpec
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.spec.n_params,):
            raise ValueError(f"theta must have length {self.spec.n_params}")
        for idx in fixed_zero_indices(self.spec):
            if self.theta[idx] != 0.0:
                raise ValueError("pinned parameters must be exactly zero")


def _energy_splines(state: ModelState):
    """The calibrated energy in coefficient form: the curves (W1, W2) of the
    separable split, or the surface on the coefficient grid
    binv_u @ Theta @ binv_v^T."""
    spec = state.spec
    ops = spec_ops(spec)
    if spec.kind is ModelKind.SEPARABLE:
        return (splines.Curve(ops.u.kv, ops.u.binv @ state.theta[: spec.n1]),
                splines.Curve(ops.v.kv, ops.v.binv @ state.theta[spec.n1 :]))
    grid = ops.u.binv @ state.theta.reshape(spec.n1, spec.n2) @ ops.v.binv.T
    return splines.Surface(ops.u.kv, ops.v.kv, grid)


def _predict(state: ModelState, alpha, beta, i1, i2):
    """Stresses at points of known kinematics, with the invariants projected
    onto the calibrated domain, and the mask of projected points."""
    value = np.zeros(alpha.size)
    outside = np.zeros(alpha.size, dtype=bool)
    live = (alpha != 0.0) | (beta != 0.0)  # stretch 1 is exactly stress-free
    if live.any():
        x, y, d1x, d1y, d2y, outside[live] = _coordinates(state.spec, i1[live], i2[live])
        w = _energy_splines(state)
        if state.spec.kind is ModelKind.SEPARABLE:
            wx, wy = w[0](x, 1), w[1](y, 1)
        else:
            wx, wy = w.gradient(x, y)
        value[live] = alpha[live] * (d1x * wx + d1y * wy) + beta[live] * (d2y * wy)
    return value, outside


def predict_stress(state: ModelState, mode, lam):
    """Nominal stress at a stretch, or at an array of stretches of one mode
    or one mode each.  Raises where ``predict_stress_clamped`` would flag,
    naming the invariants of the first such stretch."""
    lam, scalar = points(lam)
    sc = stress_coefficients(mode, lam)
    i1, i2 = invariants(mode, lam)
    value, outside = _predict(state, sc.alpha, sc.beta, i1, i2)
    admitted(outside, i1, i2)
    return unbatch(value, scalar)


def predict_stress_clamped(state: ModelState, mode, lam):
    """Stress with out-of-domain invariants projected onto the domain.

    Returns ``(stress, extrapolated)``; the flag is True whenever the
    evaluation point had to be clamped.  For an array of stretches, of one
    mode or one mode each, both are arrays.
    """
    lam, scalar = points(lam)
    sc = stress_coefficients(mode, lam)
    value, outside = _predict(state, sc.alpha, sc.beta, *invariants(mode, lam))
    return (float(value[0]), bool(outside[0])) if scalar else (value, outside)


def energy(state: ModelState, i1, i2):
    """Strain-energy density at an admissible invariant pair (or pairs)."""
    i1, i2, scalar = pairs(i1, i2)
    spec = state.spec
    if spec.kind is ModelKind.MAPPED_SURFACE:
        x, y = map_forward(i1, i2, spec.domain)
    else:
        x, y, _, outside = _axes_coords(spec, i1, i2)
        admitted(outside, i1, i2)
    w = _energy_splines(state)
    if spec.kind is ModelKind.SEPARABLE:
        return unbatch(w[0](x) + w[1](y), scalar)
    return unbatch(w.eval(x, y), scalar)


@dataclass
class ActivationReport:
    """Column activation of a design matrix: how much data touches each theta."""

    norms: np.ndarray
    relative: np.ndarray
    log10_relative: np.ndarray


def activation(A: np.ndarray) -> ActivationReport:
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, axis=0)
    amax = norms.max() if norms.size else 0.0
    rel = norms / amax if amax > 0.0 else norms.copy()
    lg = np.full(rel.shape, -16.0)
    nz = rel > 0.0
    lg[nz] = np.maximum(np.log10(rel[nz]), -16.0)
    return ActivationReport(norms=norms, relative=rel, log10_relative=lg)


@dataclass
class FitMetrics:
    """Per-mode fit quality, the combined error figure and the model's
    prediction of each sample, in sample order."""

    mse: dict
    r2: dict
    mse_combined: float
    predictions: np.ndarray


def metrics(state: ModelState, samples) -> FitMetrics:
    """Per-mode mean squared error and coefficient of determination over a
    ``Dataset`` or samples, which must lie in the calibrated domain.

    Modes with fewer than two samples (or zero stress variance) report no
    R^2.  The combined figure is the Euclidean norm of the per-mode MSEs.
    """
    data = Dataset.of(samples)
    predictions, outside = _predict(state, data.alpha, data.beta, data.i1, data.i2)
    admitted(outside, data.i1, data.i2)
    mse = {}
    r2 = {}
    for mode, idx in data.groups.items():  # each mode's rows in sample order
        exp = data.stress[idx]
        resid = predictions[idx] - exp
        mse[mode] = float(np.mean(resid ** 2))
        if idx.size >= 2:
            ss_tot = float(np.sum((exp - exp.mean()) ** 2))
            if ss_tot > 0.0:
                r2[mode] = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    combined = math.sqrt(sum(v * v for v in mse.values()))
    return FitMetrics(mse=mse, r2=r2, mse_combined=combined, predictions=predictions)
