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


def _dedup_unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale rows to unit norm, drop zero rows and exact duplicates.

    Rows are duplicates when their bytes agree after rounding to 12
    decimals; the first of each is kept and the order is preserved.  Each
    norm is the row's own dot product, as ``np.linalg.norm`` of the row.
    """
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
    nonzero = norms != 0.0
    units = rows[nonzero] / norms[nonzero, None]
    keys = np.ascontiguousarray(np.round(units, 12))
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return units[np.sort(first)]


def inequality_operator(spec: ModelSpec, *, monotone_1: bool = True,
                        monotone_2: bool = True, convex_1: bool = True,
                        convex_2: bool = True) -> InequalityOperator:
    """Monotonicity/convexity constraints as ``G @ theta <= 0``.

    Nonnegativity of derivative-spline coefficients is imposed along each
    requested axis; for surfaces each coefficient line across the other
    axis is constrained.  Rows are unit-normalised and deduplicated.
    """
    ops = spec_ops(spec)
    blocks = []
    if spec.kind is ModelKind.SEPARABLE:
        def pad(block, axis):
            full = np.zeros((block.shape[0], spec.n_params))
            if axis == 0:
                full[:, : spec.n1] = block
            else:
                full[:, spec.n1 :] = block
            return full

        if monotone_1:
            blocks.append(pad(-ops.u.c1, 0))
        if monotone_2:
            blocks.append(pad(-ops.v.c1, 1))
        if convex_1:
            blocks.append(pad(-ops.u.c2, 0))
        if convex_2:
            blocks.append(pad(-ops.v.c2, 1))
    else:
        if monotone_1:
            blocks.append(-np.kron(ops.u.c1, ops.v.binv))
        if monotone_2:
            blocks.append(-np.kron(ops.u.binv, ops.v.c1))
        if convex_1:
            blocks.append(-np.kron(ops.u.c2, ops.v.binv))
        if convex_2:
            blocks.append(-np.kron(ops.u.binv, ops.v.c2))

    if not blocks:
        rows = np.zeros((0, spec.n_params))
    else:
        rows = _dedup_unit_rows(np.vstack(blocks))
    return InequalityOperator(rows=rows)
