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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import splines
from .domain import (DomainMapConfig, map_forward, map_inverse,
                     map_jacobian, _band, _transform)
from .kinematics import DeformationMode, Sample, max_invariants, stress_coefficients, invariants


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
                     sites1=tuple(np.linspace(0.0, 1.0, n1)),
                     sites2=tuple(np.linspace(0.0, 1.0, n2)))


def _axis2_coord(spec: ModelSpec, i2: float):
    """Normalised second-axis coordinate and its dI2-derivative."""
    t, tp = _transform(i2, spec.domain)
    t0, _ = _transform(3.0, spec.domain)
    x = (t - t0) / spec.i2_axis_max
    return x, tp / spec.i2_axis_max


def _clip_unit(x: float, clamp: bool, what: str) -> float:
    if clamp:
        return min(max(x, 0.0), 1.0)
    if x < -1e-9 or x > 1.0 + 1e-9:
        raise ValueError(f"{what} = {x!r} outside the calibrated domain")
    return min(max(x, 0.0), 1.0)


def sensitivity_derivatives(spec: ModelSpec, i1: float, i2: float, *,
                            clamp: bool = False):
    """Gradients of (dW/dI1, dW/dI2) with respect to theta at one point.

    Returns two length-``n_params`` vectors.  With ``clamp=True``
    out-of-range coordinates are projected onto the domain instead of
    raising, which is what extrapolating predictions use.
    """
    ops = spec_ops(spec)
    cfg = spec.domain
    L1 = cfg.u_max - cfg.u_min

    if spec.kind is ModelKind.MAPPED_SURFACE:
        if clamp:
            xi, eta = _loose_forward(spec, i1, i2)
            xi = min(max(xi, 0.0), 1.0)
            eta = min(max(eta, 0.0), 1.0)
            i1c, i2c = map_inverse(xi, eta, cfg)
            jac = map_jacobian(i1c, i2c, cfg)
        else:
            xi, eta = map_forward(i1, i2, cfg)
            jac = map_jacobian(i1, i2, cfg)
        s_xi = np.kron(ops.u.value_row(xi, 1), ops.v.value_row(eta, 0))
        s_eta = np.kron(ops.u.value_row(xi, 0), ops.v.value_row(eta, 1))
        dw1 = s_xi * jac.dxi_di1 + s_eta * jac.deta_di1
        dw2 = s_eta * jac.deta_di2
        return dw1, dw2

    x1 = _clip_unit((i1 - cfg.u_min) / L1, clamp, "normalised I1")
    x2_raw, dx2 = _axis2_coord(spec, i2)
    x2 = _clip_unit(x2_raw, clamp, "normalised transformed I2")

    if spec.kind is ModelKind.SEPARABLE:
        dw1 = np.concatenate([ops.u.value_row(x1, 1) / L1, np.zeros(spec.n2)])
        dw2 = np.concatenate([np.zeros(spec.n1), ops.v.value_row(x2, 1) * dx2])
        return dw1, dw2

    dw1 = np.kron(ops.u.value_row(x1, 1), ops.v.value_row(x2, 0)) / L1
    dw2 = np.kron(ops.u.value_row(x1, 0), ops.v.value_row(x2, 1)) * dx2
    return dw1, dw2


def _loose_forward(spec: ModelSpec, i1: float, i2: float):
    """Unit-square coordinates without admissibility rejection (for clamping)."""
    cfg = spec.domain
    i1c = min(max(float(i1), cfg.u_min), cfg.u_max)
    xi = (i1c - cfg.u_min) / (cfg.u_max - cfg.u_min)
    t, _ = _transform(max(float(i2), 3.0), cfg)
    t_lo, _, _, _, eff, _ = _band(i1c, cfg)
    eta = (t - t_lo) / eff if eff > 0.0 else 0.0
    return xi, eta


def stress_row(spec: ModelSpec, mode: DeformationMode, lam: float, *,
               clamp: bool = False) -> np.ndarray:
    """Row a with predicted stress a @ theta for one mode/stretch pair."""
    sc = stress_coefficients(mode, lam)
    if sc.alpha == 0.0 and sc.beta == 0.0:
        return np.zeros(spec.n_params)
    i1, i2 = invariants(mode, lam)
    dw1, dw2 = sensitivity_derivatives(spec, i1, i2, clamp=clamp)
    return sc.alpha * dw1 + sc.beta * dw2


def assemble_design(spec: ModelSpec, samples):
    """Weighted design matrix and stress vector for a list of samples.

    Each row is scaled by 1/sqrt(N_mode) so that the squared residual norm
    equals the sum over modes of the per-mode mean squared stress error.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty dataset")
    counts = {}
    for s in samples:
        counts[s.mode] = counts.get(s.mode, 0) + 1
    A = np.zeros((len(samples), spec.n_params))
    y = np.zeros(len(samples))
    for k, s in enumerate(samples):
        w = 1.0 / math.sqrt(counts[s.mode])
        try:
            A[k] = w * stress_row(spec, s.mode, s.stretch)
        except ValueError as exc:
            raise ValueError(f"sample {k} ({s.mode.value}, stretch {s.stretch})"
                             f" cannot be assembled: {exc}") from exc
        y[k] = w * s.stress
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


def predict_stress(state: ModelState, mode: DeformationMode, lam: float) -> float:
    """Nominal stress at one stretch; raises for out-of-domain stretches."""
    return float(stress_row(state.spec, mode, lam) @ state.theta)


def predict_stress_clamped(state: ModelState, mode: DeformationMode, lam: float):
    """Stress with out-of-domain invariants projected onto the domain.

    Returns ``(stress, extrapolated)``; the flag is True whenever the
    evaluation point had to be clamped.
    """
    spec = state.spec
    sc = stress_coefficients(mode, lam)
    if sc.alpha == 0.0 and sc.beta == 0.0:
        return 0.0, False
    i1, i2 = invariants(mode, lam)
    tol = 1e-9
    if spec.kind is ModelKind.MAPPED_SURFACE:
        xi, eta = _loose_forward(spec, i1, i2)
        outside = (i1 > spec.domain.u_max * (1 + tol) or i1 < spec.domain.u_min - tol
                   or eta < -tol or eta > 1.0 + tol or xi < -tol or xi > 1.0 + tol)
    else:
        x1 = (i1 - spec.domain.u_min) / (spec.domain.u_max - spec.domain.u_min)
        x2, _ = _axis2_coord(spec, i2)
        outside = not (-tol <= x1 <= 1.0 + tol and -tol <= x2 <= 1.0 + tol)
    value = float(stress_row(spec, mode, lam, clamp=True) @ state.theta)
    return value, bool(outside)


def energy(state: ModelState, i1: float, i2: float) -> float:
    """Strain-energy density at an admissible invariant pair."""
    spec = state.spec
    ops = spec_ops(spec)
    cfg = spec.domain
    if spec.kind is ModelKind.MAPPED_SURFACE:
        xi, eta = map_forward(i1, i2, cfg)
        row = np.kron(ops.u.value_row(xi, 0), ops.v.value_row(eta, 0))
        return float(row @ state.theta)
    x1 = _clip_unit((i1 - cfg.u_min) / (cfg.u_max - cfg.u_min), False, "normalised I1")
    x2_raw, _ = _axis2_coord(spec, i2)
    x2 = _clip_unit(x2_raw, False, "normalised transformed I2")
    if spec.kind is ModelKind.SEPARABLE:
        w1 = float(ops.u.value_row(x1, 0) @ state.theta[: spec.n1])
        w2 = float(ops.v.value_row(x2, 0) @ state.theta[spec.n1 :])
        return w1 + w2
    row = np.kron(ops.u.value_row(x1, 0), ops.v.value_row(x2, 0))
    return float(row @ state.theta)


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
    """Per-mode fit quality and the combined error figure."""

    mse: dict
    r2: dict
    mse_combined: float


def metrics(state: ModelState, samples) -> FitMetrics:
    """Per-mode mean squared error and coefficient of determination.

    Modes with fewer than two samples (or zero stress variance) report no
    R^2.  The combined figure is the Euclidean norm of the per-mode MSEs.
    """
    groups = {}
    for s in samples:
        groups.setdefault(s.mode, []).append(s)
    mse = {}
    r2 = {}
    for mode, group in groups.items():
        exp = np.array([s.stress for s in group])
        pred = np.array([predict_stress(state, mode, s.stretch) for s in group])
        resid = pred - exp
        mse[mode] = float(np.mean(resid ** 2))
        if len(group) >= 2:
            ss_tot = float(np.sum((exp - exp.mean()) ** 2))
            if ss_tot > 0.0:
                r2[mode] = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    combined = math.sqrt(sum(v * v for v in mse.values()))
    return FitMetrics(mse=mse, r2=r2, mse_combined=combined)
