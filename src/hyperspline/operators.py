"""Smoothing and shape-constraint operators for spline energy models.

The curvature penalty integrates the squared non-mixed second derivatives
of the energy over its parameter square (or over each axis for the
separable split), expressed as rows of a least-squares block:
``||A_pen @ theta||^2`` equals the integral exactly.  Per-span
Gauss-Legendre quadrature integrates each axis exactly, as the integrand
is piecewise polynomial of degree at most 6 per axis, and the quadrature
rows of an axis enter only through the triangular factor R of their Gram
matrix.  For surfaces the Gram matrix of the quadrature rows is a sum of
two Kronecker products of 1-D Gram matrices (the array structure of
Currie, Durban & Eilers, J. R. Stat. Soc. B 68, 2006), so the penalty is
the 2 n1 n2 rows [R_u'' (x) R_v; R_u (x) R_v''], with R_u'' the factor of
the sqrt(w)-weighted second-derivative rows along u, and so on; for the
separable split it is the n1 + n2 rows of the block diagonal of R_u'' and
R_v''.  The mixed second derivative is deliberately not penalised, so
additively separable and bilinear surfaces are free.

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


def _gram_factor(w, rows):
    """Triangular R with R^T R = rows^T diag(w) rows, the quadrature sum."""
    return np.linalg.qr(np.sqrt(w)[:, None] * rows, mode="r")


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
        ru2 = _gram_factor(wu, ops.u.value_row(xu, 2))
        rv2 = _gram_factor(wv, ops.v.value_row(xv, 2))
        rows = np.zeros((ru2.shape[0] + rv2.shape[0], spec.n_params))
        rows[: ru2.shape[0], : spec.n1] = ru2
        rows[ru2.shape[0] :, spec.n1 :] = rv2
        return PenaltyOperator(rows=rows)

    # value and second-derivative rows of each axis from one basis pass
    ru0, ru2 = (_gram_factor(wu, r) for r in ops.u._rows(xu, (0, 2)))
    rv0, rv2 = (_gram_factor(wv, r) for r in ops.v._rows(xv, (0, 2)))
    # the W_xixi rows, then the W_etaeta rows
    return PenaltyOperator(rows=np.vstack([np.kron(ru2, rv0), np.kron(ru0, rv2)]))


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
