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
Design rows of the surfaces are row-wise outer products of the two axes'
value and slope rows.  Predictions never build rows: they evaluate the
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


def _partial_rows(spec: ModelSpec, x: np.ndarray, y: np.ndarray):
    """Rows mapping theta to the spline partials W_x and W_y at the points;
    surface rows are row-wise outer products of the two axes' value rows."""
    ops = spec_ops(spec)
    if spec.kind is ModelKind.SEPARABLE:
        zu, zv = np.zeros((x.size, spec.n1)), np.zeros((x.size, spec.n2))
        return (np.hstack([ops.u.value_row(x, 1), zv]),
                np.hstack([zu, ops.v.value_row(y, 1)]))

    def outer(a, b):
        return (a[:, :, None] * b[:, None, :]).reshape(x.size, -1)

    (u0, u1), (v0, v1) = ops.u.value_slope_rows(x), ops.v.value_slope_rows(y)
    return outer(u1, v0), outer(u0, v1)


def sensitivity_derivatives(spec: ModelSpec, i1, i2):
    """Gradients of (dW/dI1, dW/dI2) with respect to theta.

    Returns two length-``n_params`` vectors at one point, or two
    (N, n_params) arrays at N points.  A point outside the calibrated
    domain raises: design rows are never extrapolated.
    """
    i1, i2, scalar = pairs(i1, i2)
    x, y, d1x, d1y, d2y, outside = _coordinates(spec, i1, i2)
    admitted(outside, i1, i2)
    sx, sy = _partial_rows(spec, x, y)
    dw1 = d1x[:, None] * sx + d1y[:, None] * sy
    dw2 = d2y[:, None] * sy
    return (dw1[0], dw2[0]) if scalar else (dw1, dw2)


def _stress_rows(spec: ModelSpec, alpha, beta, i1, i2) -> np.ndarray:
    """(N, n_params) design rows at N points of known kinematics."""
    rows = np.zeros((alpha.size, spec.n_params))
    live = (alpha != 0.0) | (beta != 0.0)  # stretch 1 has an exact zero row
    if live.any():
        dw1, dw2 = sensitivity_derivatives(spec, i1[live], i2[live])
        rows[live] = alpha[live, None] * dw1 + beta[live, None] * dw2
    return rows


def stress_row(spec: ModelSpec, mode, lam) -> np.ndarray:
    """Row a with predicted stress a @ theta for one mode/stretch pair;
    (N, n_params) rows for N stretches, of one mode or one mode each."""
    lam, scalar = points(lam)
    sc = stress_coefficients(mode, lam)
    rows = _stress_rows(spec, sc.alpha, sc.beta, *invariants(mode, lam))
    return rows[0] if scalar else rows


def assemble_design(spec: ModelSpec, samples):
    """Weighted design matrix and stress vector for a ``Dataset`` or samples.

    Each row is scaled by 1/sqrt(N_mode) so that the squared residual norm
    equals the sum over modes of the per-mode mean squared stress error.
    The rows are built in one batch; if it fails, the error names the first
    sample that cannot be assembled.
    """
    samples = samples if isinstance(samples, Dataset) else list(samples)  # read again on failure
    try:
        data = Dataset.of(samples)
        A = _stress_rows(spec, data.alpha, data.beta, data.i1, data.i2)
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
    w = np.empty(len(data))
    for idx in data.groups.values():
        w[idx] = 1.0 / math.sqrt(idx.size)
    return w[:, None] * A, w * data.stress


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
