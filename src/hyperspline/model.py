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
stress error.

Evaluation is batched: the evaluators take one stretch (or invariant pair)
or a 1-D array of them, and callers pass one array per deformation mode.
Design rows of the surfaces are row-wise outer products of the two axes'
value rows.  Predictions never build rows: they evaluate the energy in
coefficient form, a span index and an (N, 4) basis block per axis against
the coefficient grid binv_u @ Theta @ binv_v^T.  A scalar argument returns
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import splines
from ._batch import first, pairs, points, unbatch
from .domain import (DomainMapConfig, map_forward, map_inverse,
                     map_jacobian, _locate, _transform)
from .kinematics import (DeformationMode, Sample, invariants, max_invariants,
                         mode_groups, stress_coefficients)


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
                 delta: float = 1e-6, use_polyconvex: bool = True) -> ModelSpec:
    """Spec with uniform sites on axes sized to cover the dataset.

    Axis extents take the dataset maxima with a relative margin of 1e-6 so
    every sample ends up strictly inside the evaluable region.
    """
    i1_max, i2_max, i2t_max = max_invariants(samples)
    if i1_max <= 3.0:
        raise ValueError("dataset spans no invariant range (all stretches are 1)")
    cfg = DomainMapConfig(u_max=i1_max * (1.0 + 1e-6), u_min=3.0,
                          delta=delta, use_polyconvex=use_polyconvex)
    axis2 = i2t_max if use_polyconvex else i2_max - 3.0
    return ModelSpec(kind=kind, n1=n1, n2=n2, domain=cfg,
                     i2_axis_max=axis2 * (1.0 + 1e-6),
                     sites1=tuple(np.linspace(0.0, 1.0, n1).tolist()),
                     sites2=tuple(np.linspace(0.0, 1.0, n2).tolist()))


def _beyond(x: np.ndarray, tol: float) -> np.ndarray:
    return (x < -tol) | (x > 1.0 + tol)


def _clip_unit(x: np.ndarray, clamp: bool, what: str) -> np.ndarray:
    bad = _beyond(x, 1e-9)
    if not clamp and bad.any():
        raise ValueError(f"{what} = {float(x[first(bad)])!r} outside the calibrated domain")
    return np.clip(x, 0.0, 1.0)


def _axes_coords(spec: ModelSpec, i1: np.ndarray, i2: np.ndarray, clamp: bool):
    """Normalised (I1, T(I2)) axes of the separable and surface kinds:
    ``(x1, x2, dx2/dI2, outside)``."""
    cfg = spec.domain
    x1 = (i1 - cfg.u_min) / (cfg.u_max - cfg.u_min)
    x1c = _clip_unit(x1, clamp, "normalised I1")
    t, tp = _transform(i2, cfg)
    t0, _ = _transform(np.array([3.0]), cfg)
    x2 = (t - t0) / spec.i2_axis_max
    x2c = _clip_unit(x2, clamp, "normalised transformed I2")
    return x1c, x2c, tp / spec.i2_axis_max, _beyond(x1, 1e-9) | _beyond(x2, 1e-9)


def _coordinates(spec: ModelSpec, i1: np.ndarray, i2: np.ndarray, clamp: bool):
    """Spline coordinates of invariant points and the chain rule back to them.

    Returns ``(x, y, d1x, d1y, d2y, outside)``: at the spline coordinates
    (x, y) the energy gradient is dW/dI1 = d1x W_x + d1y W_y and dW/dI2 =
    d2y W_y.  Out-of-range points raise, or with ``clamp=True`` are
    projected onto the domain and marked in ``outside``.
    """
    cfg = spec.domain
    if spec.kind is ModelKind.MAPPED_SURFACE:
        if clamp:
            xi, eta, outside = _locate(i1, i2, cfg)
            jac = map_jacobian(*map_inverse(xi, eta, cfg), cfg)
        else:
            xi, eta = map_forward(i1, i2, cfg)
            jac = map_jacobian(i1, i2, cfg)
            outside = np.zeros(i1.shape, dtype=bool)
        return xi, eta, jac.dxi_di1, jac.deta_di1, jac.deta_di2, outside

    x1, x2, dx2, outside = _axes_coords(spec, i1, i2, clamp)
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

    return (outer(ops.u.value_row(x, 1), ops.v.value_row(y, 0)),
            outer(ops.u.value_row(x, 0), ops.v.value_row(y, 1)))


def sensitivity_derivatives(spec: ModelSpec, i1, i2, *, clamp: bool = False):
    """Gradients of (dW/dI1, dW/dI2) with respect to theta.

    Returns two length-``n_params`` vectors at one point, or two
    (N, n_params) arrays at N points.  With ``clamp=True`` out-of-range
    coordinates are projected onto the domain instead of raising, as
    extrapolating predictions do.
    """
    i1, i2, scalar = pairs(i1, i2)
    x, y, d1x, d1y, d2y, _ = _coordinates(spec, i1, i2, clamp)
    sx, sy = _partial_rows(spec, x, y)
    dw1 = d1x[:, None] * sx + d1y[:, None] * sy
    dw2 = d2y[:, None] * sy
    return (dw1[0], dw2[0]) if scalar else (dw1, dw2)


def stress_row(spec: ModelSpec, mode: DeformationMode, lam, *,
               clamp: bool = False) -> np.ndarray:
    """Row a with predicted stress a @ theta for one mode/stretch pair;
    (N, n_params) rows for N stretches."""
    lam, scalar = points(lam)
    sc = stress_coefficients(mode, lam)
    rows = np.zeros((lam.size, spec.n_params))
    live = (sc.alpha != 0.0) | (sc.beta != 0.0)  # stretch 1 has an exact zero row
    if live.any():
        i1, i2 = invariants(mode, lam[live])
        dw1, dw2 = sensitivity_derivatives(spec, i1, i2, clamp=clamp)
        rows[live] = sc.alpha[live, None] * dw1 + sc.beta[live, None] * dw2
    return rows[0] if scalar else rows


def assemble_design(spec: ModelSpec, samples):
    """Weighted design matrix and stress vector for a list of samples.

    Each row is scaled by 1/sqrt(N_mode) so that the squared residual norm
    equals the sum over modes of the per-mode mean squared stress error.
    The rows of each mode are built in one batch; if a batch fails, the
    error names the first sample that cannot be assembled.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty dataset")
    A = np.zeros((len(samples), spec.n_params))
    y = np.zeros(len(samples))
    try:
        for mode, idx in mode_groups([s.mode for s in samples]).items():
            w = 1.0 / math.sqrt(idx.size)
            A[idx] = w * stress_row(spec, mode, [samples[k].stretch for k in idx])
            y[idx] = w * np.array([samples[k].stress for k in idx])
    except ValueError:
        for k, s in enumerate(samples):
            try:
                stress_row(spec, s.mode, s.stretch)
            except ValueError as exc:
                raise ValueError(f"sample {k} ({s.mode.value}, stretch {s.stretch})"
                                 f" cannot be assembled: {exc}") from exc
        raise
    return A, y


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
        return (splines.Curve(ops.u.kv, ops.u.binv @ state.theta[: spec.n1], ops.u.sites),
                splines.Curve(ops.v.kv, ops.v.binv @ state.theta[spec.n1 :], ops.v.sites))
    grid = ops.u.binv @ state.theta.reshape(spec.n1, spec.n2) @ ops.v.binv.T
    return splines.Surface(ops.u.kv, ops.v.kv, grid)


def _predict(state: ModelState, mode: DeformationMode, lam: np.ndarray, clamp: bool):
    """Stresses at an array of stretches and the mask of clamped points."""
    sc = stress_coefficients(mode, lam)
    value = np.zeros(lam.size)
    outside = np.zeros(lam.size, dtype=bool)
    live = (sc.alpha != 0.0) | (sc.beta != 0.0)  # stretch 1 is exactly stress-free
    if live.any():
        i1, i2 = invariants(mode, lam[live])
        x, y, d1x, d1y, d2y, outside[live] = _coordinates(state.spec, i1, i2, clamp)
        w = _energy_splines(state)
        if state.spec.kind is ModelKind.SEPARABLE:
            wx, wy = w[0](x, 1), w[1](y, 1)
        else:
            wx, wy = w.eval(x, y, 1, 0), w.eval(x, y, 0, 1)
        value[live] = sc.alpha[live] * (d1x * wx + d1y * wy) + sc.beta[live] * (d2y * wy)
    return value, outside


def predict_stress(state: ModelState, mode: DeformationMode, lam):
    """Nominal stress at a stretch, or at an array of stretches; raises for
    out-of-domain stretches."""
    lam, scalar = points(lam)
    return unbatch(_predict(state, mode, lam, clamp=False)[0], scalar)


def predict_stress_clamped(state: ModelState, mode: DeformationMode, lam):
    """Stress with out-of-domain invariants projected onto the domain.

    Returns ``(stress, extrapolated)``; the flag is True whenever the
    evaluation point had to be clamped.  For an array of stretches both
    are arrays.
    """
    lam, scalar = points(lam)
    value, outside = _predict(state, mode, lam, clamp=True)
    return (float(value[0]), bool(outside[0])) if scalar else (value, outside)


def energy(state: ModelState, i1, i2):
    """Strain-energy density at an admissible invariant pair (or pairs)."""
    i1, i2, scalar = pairs(i1, i2)
    spec = state.spec
    if spec.kind is ModelKind.MAPPED_SURFACE:
        x, y = map_forward(i1, i2, spec.domain)
    else:
        x, y, _, _ = _axes_coords(spec, i1, i2, clamp=False)
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
    """Per-mode mean squared error and coefficient of determination.

    Modes with fewer than two samples (or zero stress variance) report no
    R^2.  The combined figure is the Euclidean norm of the per-mode MSEs.
    """
    samples = list(samples)
    mse = {}
    r2 = {}
    predictions = np.zeros(len(samples))
    for mode, idx in mode_groups([s.mode for s in samples]).items():
        exp = np.array([samples[k].stress for k in idx])
        pred = predictions[idx] = predict_stress(state, mode, [samples[k].stretch for k in idx])
        resid = pred - exp
        mse[mode] = float(np.mean(resid ** 2))
        if idx.size >= 2:
            ss_tot = float(np.sum((exp - exp.mean()) ** 2))
            if ss_tot > 0.0:
                r2[mode] = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    combined = math.sqrt(sum(v * v for v in mse.values()))
    return FitMetrics(mse=mse, r2=r2, mse_combined=combined, predictions=predictions)
