"""Smoothing and shape-constraint operators for spline energy models.

The curvature penalty integrates the squared non-mixed second derivatives
of the energy over its parameter square (or over each axis for the
separable split) with per-span Gauss-Legendre quadrature, expressed as
rows of a least-squares block: ``||A_pen @ theta||^2`` equals the
integral exactly because the integrand is piecewise polynomial of degree
at most 6 per axis.  The mixed second derivative is deliberately not
penalised, so additively separable and bilinear surfaces are free.

The inequality operator collects the B-spline coefficients of the first
and second derivative splines along each axis.  Nonnegative coefficients
are sufficient (not necessary) for monotonicity and convexity of the
spline itself, which keeps the constraints linear in theta.

No two inequality rows are parallel and none is zero.  Each axis factor
is a row of B^-1 (the inverse collocation matrix), of D1 B^-1 or of
D2 D1 B^-1, where D1 and D2 are de Boor's coefficient-difference
operators (``splines.derivative_operator``); with B^-1 factored out these
rows have one, two and three consecutive nonzeros, so no two of them are
parallel.  A Kronecker row is parallel to another only if both of its
factors are, and a separable row is zero on the other axis's parameters.
The rows are therefore not deduplicated.  Where nearly coincident sites
make two rows nearly parallel, the solver's dual loop skips a row that
depends on its working rows to within ``solver.INDEP_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ModelKind, ModelSpec, spec_ops


# Gauss-Legendre points per knot span: the integrand has degree <= 6 per
# axis, and 4-point Gauss is exact to degree 7.
QUAD_ORDER = 4


@dataclass
class PenaltyOperator:
    rows: np.ndarray


@dataclass
class InequalityOperator:
    """Rows G with the constraint G @ theta <= 0."""

    rows: np.ndarray


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False  # shared by every caller
    return rule


def _gauss_points(kv):
    """Gauss-Legendre nodes/weights over every nonempty knot span, span by span."""
    nodes, weights = _gauss_rule(QUAD_ORDER)
    t = kv.array()
    breaks = np.unique(t[kv.degree : kv.n + 1])
    a, b = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * nodes).ravel(), (half * weights).ravel()


def curvature_operator(spec: ModelSpec) -> PenaltyOperator:
    """Least-squares rows of the curvature seminorm.

    For surfaces the seminorm is ``int (W_xixi^2 + W_etaeta^2)`` over the
    unit square; for the separable split it is the sum of the univariate
    ``int W''^2`` along each normalised axis.
    """
    ops = spec_ops(spec)
    xu, wu = _gauss_points(ops.u.kv)
    xv, wv = _gauss_points(ops.v.kv)

    if spec.kind is ModelKind.SEPARABLE:
        rows = np.zeros((xu.size + xv.size, spec.n_params))
        rows[: xu.size, : spec.n1] = np.sqrt(wu)[:, None] * ops.u.value_row(xu, 2)
        rows[xu.size :, spec.n1 :] = np.sqrt(wv)[:, None] * ops.v.value_row(xv, 2)
        return PenaltyOperator(rows=rows)

    s = np.sqrt(wu[:, None] * wv[None, :])

    def outer(a, b):
        """Rows s_ij * kron(a_i, b_j) for every pair of quadrature nodes."""
        return s[:, :, None, None] * (a[:, None, :, None] * b[None, :, None, :])

    # value and second-derivative rows of each axis from one basis pass
    ru0, ru2 = ops.u._rows(xu, (0, 2))
    rv0, rv2 = ops.v._rows(xv, (0, 2))
    # node pair (i, j) contributes its W_xixi row, then its W_etaeta row
    rows = np.stack([outer(ru2, rv0), outer(ru0, rv2)], axis=2)
    return PenaltyOperator(rows=rows.reshape(-1, spec.n_params))


def inequality_operator(spec: ModelSpec, *, monotone_1: bool = True,
                        monotone_2: bool = True, convex_1: bool = True,
                        convex_2: bool = True) -> InequalityOperator:
    """Monotonicity/convexity constraints as ``G @ theta <= 0``.

    Nonnegativity of derivative-spline coefficients is imposed along each
    requested axis; for surfaces each coefficient line across the other
    axis is constrained.  The blocks come in the order monotone 1,
    monotone 2, convex 1, convex 2, and each row is scaled to unit norm.
    """
    ops = spec_ops(spec)
    u, v = ops.u, ops.v
    if spec.kind is ModelKind.SEPARABLE:
        table = (np.hstack([-u.c1, np.zeros((u.c1.shape[0], spec.n2))]),
                 np.hstack([np.zeros((v.c1.shape[0], spec.n1)), -v.c1]),
                 np.hstack([-u.c2, np.zeros((u.c2.shape[0], spec.n2))]),
                 np.hstack([np.zeros((v.c2.shape[0], spec.n1)), -v.c2]))
    else:
        table = (-np.kron(u.c1, v.binv), -np.kron(u.binv, v.c1),
                 -np.kron(u.c2, v.binv), -np.kron(u.binv, v.c2))
    flags = (monotone_1, monotone_2, convex_1, convex_2)
    rows = np.vstack([np.zeros((0, spec.n_params))]
                     + [block for block, on in zip(table, flags) if on])
    # each norm is the row's own dot product, as np.linalg.norm of the row
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
    return InequalityOperator(rows=rows / norms[:, None])
