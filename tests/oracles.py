"""Test oracles the package itself does not need: the boundary cubic of the
admissible domain, tensor-product surface interpolation with dense grid
evaluation, the curvature penalty as one row per quadrature node, and the
optimum of a small calibration QP by enumeration of its active sets."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hyperspline import CalibrationProblem, ModelKind, operators, splines
from hyperspline._batch import pairs, unbatch
from hyperspline.model import spec_ops


def cubic_residual(i1, i2):
    """C(I1, I2) = I2^3 - I1^2 I2^2 / 4 - 9 I1 I2 / 2 + I1^3 + 27/4; zero on
    the boundary of the admissible domain, negative strictly inside."""
    i1, i2, scalar = pairs(i1, i2)
    return unbatch(i2 ** 3 - 0.25 * i1 * i1 * i2 * i2 - 4.5 * i1 * i2
                   + i1 ** 3 + 6.75, scalar)


@dataclass
class InterpolationGrid:
    """Tensor grid of interpolation sites and values for a surface."""

    sites_u: np.ndarray
    sites_v: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.sites_u = splines._as_sites(self.sites_u)
        self.sites_v = splines._as_sites(self.sites_v)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.sites_u.size, self.sites_v.size):
            raise ValueError("values must have shape (len(sites_u), len(sites_v))")


def interpolate_surface(grid: InterpolationGrid) -> splines.Surface:
    """Tensor-product interpolation, solved axis by axis."""
    ku = splines.make_knots(grid.sites_u)
    kw = splines.make_knots(grid.sites_v)
    Bu = splines.collocation_matrix(ku, grid.sites_u)
    Bv = splines.collocation_matrix(kw, grid.sites_v)
    coeffs = np.linalg.solve(Bv, np.linalg.solve(Bu, grid.values).T).T
    return splines.Surface(ku, kw, coeffs)


def eval_grid(surf: splines.Surface, xs, ys, rx: int = 0, ry: int = 0) -> np.ndarray:
    """``surf`` on the tensor grid xs x ys, shape (len(xs), len(ys)), from
    dense basis rows."""
    Ru = splines.basis_row(surf.ku, np.atleast_1d(xs), rx)
    Rv = splines.basis_row(surf.kw, np.atleast_1d(ys), ry)
    return Ru @ surf.coeffs @ Rv.T


def quadrature_penalty_rows(spec) -> np.ndarray:
    """The curvature seminorm's quadrature rows at ``operators.QUAD_ORDER``:
    one sqrt(w)-weighted second-derivative row per node of each axis for
    the separable split; for surfaces, per node pair (i, j), the W_xixi row
    then the W_etaeta row, kron(a_i, b_j) of value rows of orders 0 and 2
    taken one at a time."""
    ops = spec_ops(spec)
    xu, wu = operators._gauss_points(ops.u.kv)
    xv, wv = operators._gauss_points(ops.v.kv)
    if spec.kind is ModelKind.SEPARABLE:
        rows = np.zeros((xu.size + xv.size, spec.n_params))
        rows[: xu.size, : spec.n1] = np.sqrt(wu)[:, None] * ops.u.value_row(xu, 2)
        rows[xu.size :, spec.n1 :] = np.sqrt(wv)[:, None] * ops.v.value_row(xv, 2)
        return rows
    s = np.sqrt(wu[:, None] * wv[None, :])[:, :, None, None]
    ru0, ru2 = ops.u.value_row(xu, 0), ops.u.value_row(xu, 2)
    rv0, rv2 = ops.v.value_row(xv, 0), ops.v.value_row(xv, 2)
    w_xixi = s * (ru2[:, None, :, None] * rv0[None, :, None, :])
    w_etaeta = s * (ru0[:, None, :, None] * rv2[None, :, None, :])
    return np.stack([w_xixi, w_etaeta], axis=2).reshape(-1, spec.n_params)


def random_qp(rng: np.random.Generator) -> CalibrationProblem:
    """A random problem small enough to enumerate: n in [2, 6] parameters,
    m in [n, 10] rows, k in [1, 8] inequality rows and a weight of 0, 1e-3
    or 1 on the identity penalty."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(n, 11))
    k = int(rng.integers(1, 9))
    A = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    G = rng.normal(size=(k, n))
    lam = float(rng.choice([0.0, 1e-3, 1.0]))
    pen = np.eye(n) if lam > 0 else None
    return CalibrationProblem(A=A, y=y, A_pen=pen, lambda_pen=lam, A_ineq=G)


def enumerated_objective(problem: CalibrationProblem) -> float:
    """The least objective over every subset of inequality rows held as
    equalities, among the least-squares points on them that are feasible."""
    A, y, G, lam = problem.A, problem.y, problem.A_ineq, problem.lambda_pen
    m, n = A.shape
    k = G.shape[0]
    M = A if problem.A_pen is None else np.vstack([A, math.sqrt(lam) * problem.A_pen])
    d = np.concatenate([y, np.zeros(M.shape[0] - m)])
    best = np.inf
    for r in range(k + 1):
        for subset in itertools.combinations(range(k), r):
            if subset:
                _, s, Vt = np.linalg.svd(G[list(subset)])
                rank = int(np.sum(s > 1e-12 * s[0]))
                Z = Vt[rank:].T
            else:
                Z = np.eye(n)
            if Z.shape[1] == 0:
                cand = np.zeros(n)
            else:
                z, *_ = np.linalg.lstsq(M @ Z, d, rcond=None)
                cand = Z @ z
            if np.max(G @ cand) <= 1e-9:
                best = min(best, float(np.sum((M @ cand - d) ** 2)))
    return best
