"""Curvature penalty and shape-constraint operators."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from hyperspline import (
    CalibrationProblem,
    DeformationMode,
    ModelKind,
    Sample,
    assemble_design,
    collocation_matrix,
    curvature_operator,
    default_spec,
    eval_coeffs,
    fixed_zero_indices,
    inequality_operator,
    sensitivity_set,
    solve,
)
from hyperspline import operators
from hyperspline.model import spec_ops
from oracles import quadrature_penalty_rows

UT, BT, PS = DeformationMode.UT, DeformationMode.BT, DeformationMode.PS


def _spec(kind, n1=20, n2=5):
    samples = [Sample(m, lam, 0.0) for m in (UT, BT, PS)
               for lam in (1.0, 1.5, 2.0, 2.5, 3.0)]
    return default_spec(kind, samples, n1, n2)


def _grid_theta(spec, fn):
    s1 = np.array(spec.sites1)
    s2 = np.array(spec.sites2)
    return fn(s1[:, None], s2[None, :]).ravel()


def test_penalty_integrates_quadratic_exactly():
    """Site values xi^2 have W_xixi = 2, so the seminorm integral is 4."""
    spec = _spec(ModelKind.SURFACE)
    pen = curvature_operator(spec)
    theta = _grid_theta(spec, lambda x, y: x ** 2 + 0.0 * y)
    assert float(np.sum((pen.rows @ theta) ** 2)) == pytest.approx(4.0, abs=1e-8)


def test_penalty_ignores_bilinear_surfaces():
    # the mixed derivative is deliberately unpenalised
    spec = _spec(ModelKind.SURFACE)
    pen = curvature_operator(spec)
    theta = _grid_theta(spec, lambda x, y: 1.0 + 2.0 * x - 0.7 * y + 3.1 * x * y)
    assert float(np.sum((pen.rows @ theta) ** 2)) <= 1e-9


def test_penalty_separable_axis_blocks():
    spec = _spec(ModelKind.SEPARABLE)
    pen = curvature_operator(spec)
    s1 = np.array(spec.sites1)
    s2 = np.array(spec.sites2)
    # quadratic along axis 1 only: integral 4; linear along axis 2: nothing
    theta = np.concatenate([s1 ** 2, 0.3 * s2])
    assert float(np.sum((pen.rows @ theta) ** 2)) == pytest.approx(4.0, abs=1e-8)
    # quadratic on both axes: the two univariate integrals add up
    theta2 = np.concatenate([s1 ** 2, s2 ** 2])
    assert float(np.sum((pen.rows @ theta2) ** 2)) == pytest.approx(8.0, abs=1e-8)


def _assert_gram_matches_the_quadrature_rows(spec):
    """The factored rows' Gram matrix is the quadrature rows' Gram matrix,
    to 1e-12 relative in the Frobenius norm."""
    rows, ref = curvature_operator(spec).rows, quadrature_penalty_rows(spec)
    gram, ref_gram = rows.T @ rows, ref.T @ ref
    assert np.linalg.norm(gram - ref_gram) <= 1e-12 * np.linalg.norm(ref_gram)


def test_penalty_gauss_order_is_already_exact(monkeypatch):
    """The integrand is piecewise polynomial; doubling the rule changes
    nothing.  The factor has 2 n1 n2 rows at either rule, with the Gram
    matrix of that rule's quadrature rows."""
    spec = _spec(ModelKind.SURFACE, n1=8, n2=6)
    rng = np.random.default_rng(61)
    theta = rng.normal(size=spec.n_params)
    rows4 = curvature_operator(spec).rows
    _assert_gram_matches_the_quadrature_rows(spec)
    monkeypatch.setattr(operators, "QUAD_ORDER", 2 * operators.QUAD_ORDER)
    rows8 = curvature_operator(spec).rows
    _assert_gram_matches_the_quadrature_rows(spec)
    assert rows4.shape == rows8.shape == (2 * spec.n1 * spec.n2, spec.n_params)
    p4 = float(np.sum((rows4 @ theta) ** 2))
    p8 = float(np.sum((rows8 @ theta) ** 2))
    assert p8 == pytest.approx(p4, rel=1e-10)


@pytest.mark.parametrize("kind", [ModelKind.SURFACE, ModelKind.MAPPED_SURFACE,
                                  ModelKind.SEPARABLE])
def test_penalty_rows_match_separate_value_rows(kind, monkeypatch):
    """The factored rows (one basis pass per axis) have the Gram matrix of
    the quadrature rows built from the value rows of orders 0 and 2 taken
    one at a time, at the default rule and at twice its nodes: 2 n1 n2
    rows for a surface, n1 + n2 for the separable split."""
    spec = _spec(kind)
    n_rows = spec.n1 + spec.n2 if kind is ModelKind.SEPARABLE else 2 * spec.n1 * spec.n2
    for order in (4, 8):
        monkeypatch.setattr(operators, "QUAD_ORDER", order)
        _assert_gram_matches_the_quadrature_rows(spec)
        assert curvature_operator(spec).rows.shape == (n_rows, spec.n_params)


def test_penalty_gram_matrix_is_psd():
    spec = _spec(ModelKind.SURFACE, n1=6, n2=5)
    rows = curvature_operator(spec).rows
    eigs = np.linalg.eigvalsh(rows.T @ rows)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_inequality_accepts_convex_increasing_energy():
    spec = _spec(ModelKind.SURFACE)
    ineq = inequality_operator(spec)
    theta = _grid_theta(spec, lambda x, y: x ** 2 + y ** 2)
    assert float(np.max(ineq.rows @ theta)) <= 1e-12


def test_inequality_flags_a_decreasing_step():
    spec = _spec(ModelKind.SURFACE)
    ineq = inequality_operator(spec)
    profile = np.array(spec.sites1).copy()
    profile[10], profile[11] = profile[11], profile[10]  # one local decrease
    theta = np.repeat(profile, spec.n2)
    assert float(np.max(ineq.rows @ theta)) > 1e-3


FLAGS = ("monotone_1", "monotone_2", "convex_1", "convex_2")


def _block_sizes(spec):
    """Row counts of the monotone 1, monotone 2, convex 1 and convex 2 blocks."""
    ops = spec_ops(spec)
    m1, m2 = ops.u.c1.shape[0], ops.v.c1.shape[0]
    c1, c2 = ops.u.c2.shape[0], ops.v.c2.shape[0]
    if spec.kind is ModelKind.SEPARABLE:
        return [m1, m2, c1, c2]
    return [m1 * spec.n2, spec.n1 * m2, c1 * spec.n2, spec.n1 * c2]


def test_inequality_rows_are_unit_norm_and_deduplicated():
    """Every kind, uniform and non-uniform sites, every flag combination:
    unit rows, no two alike to 12 decimals, and the chosen blocks of the
    all-on operator, in order, bit for bit."""
    non_uniform = dict(sites1=(0.0, 0.05, 0.2, 0.45, 0.5, 0.8, 1.0),
                       sites2=(0.0, 0.1, 0.15, 0.6, 1.0))
    for kind, sites in itertools.product(ModelKind, ({}, non_uniform)):
        spec = replace(_spec(kind, n1=7, n2=5), **sites)
        full, sizes = inequality_operator(spec).rows, _block_sizes(spec)
        assert full.shape[0] == sum(sizes)
        blocks = np.split(full, np.cumsum(sizes)[:-1])
        for flags in itertools.product((True, False), repeat=4):
            rows = inequality_operator(spec, **dict(zip(FLAGS, flags))).rows
            np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)
            keys = {np.round(r, 12).tobytes() for r in rows}
            assert len(keys) == rows.shape[0]
            chosen = [b for b, on in zip(blocks, flags) if on]
            expected = np.vstack([np.zeros((0, spec.n_params))] + chosen)
            assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()


def _loop_dedup_unit_rows(rows):
    """Reference: scale rows to unit norm, drop zero rows and rows whose
    12-decimal rounding repeats an earlier row's, keeping the first."""
    out, seen = [], set()
    for row in rows:
        nrm = np.linalg.norm(row)
        if nrm == 0.0:
            continue
        unit = row / nrm
        key = np.round(unit, 12).tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(unit)
    return np.vstack(out) if out else np.zeros((0, rows.shape[1]))


def test_nearly_coincident_sites_need_no_deduplication(treloar):
    """Two sites 1e-13 apart make distinct rows round alike, and the
    reference drops them; the solver reaches the same optimum on the full
    rows, and the optimum on the reference's rows satisfies every row."""
    spec = replace(default_spec(ModelKind.SURFACE, treloar, 6, 4),
                   sites1=(0.0, 0.25, 0.25 + 1e-13, 0.5, 0.75, 1.0))
    A, y = assemble_design(spec, treloar)
    rows = inequality_operator(spec).rows
    ref = _loop_dedup_unit_rows(rows)
    assert ref.shape[0] < rows.shape[0]
    sols = []
    for G in (rows, ref):
        problem = CalibrationProblem(A=A, y=y, A_pen=curvature_operator(spec).rows,
                                     lambda_pen=1e-4, A_ineq=G,
                                     fixed_zero=fixed_zero_indices(spec))
        with pytest.warns(UserWarning, match="micro-ridge"):  # the site pair's rank loss
            sols.append(solve(problem))
    full, deduped = sols
    assert full.objective == pytest.approx(deduped.objective, rel=1e-9)
    theta = deduped.theta
    assert float(np.max(rows @ theta)) <= 1e-9 * (1.0 + np.max(np.abs(theta)))


def test_inequality_toggles_change_row_counts():
    spec = _spec(ModelKind.SEPARABLE, n1=8, n2=6)
    full = inequality_operator(spec).rows.shape[0]
    no_cvx2 = inequality_operator(spec, convex_2=False).rows.shape[0]
    none = inequality_operator(spec, monotone_1=False, monotone_2=False,
                               convex_1=False, convex_2=False).rows
    assert no_cvx2 < full
    assert none.shape == (0, spec.n_params)


def test_inequality_constraints_are_sufficient_for_shape():
    """Feasible coefficients really do give monotone convex sections."""
    spec = _spec(ModelKind.SURFACE, n1=8, n2=6)
    ineq = inequality_operator(spec)
    # f(x) = x^2 and g(y) = y^2 have nonnegative site values, increasing and
    # convex; sums and products of such profiles stay feasible.
    theta = _grid_theta(spec, lambda x, y: x ** 2 + y ** 2 + 0.3 * x ** 2 * y ** 2)
    assert float(np.max(ineq.rows @ theta)) <= 1e-10
    ops = sensitivity_set(np.array(spec.sites1), np.array(spec.sites2))
    theta_grid = theta.reshape(spec.n1, spec.n2)
    xs = np.linspace(0.0, 1.0, 60)
    for y in (0.0, 0.37, 1.0):
        vy = ops.v.value_row(y)
        section = theta_grid @ vy  # site values of the section at this y
        c1 = ops.u.c1 @ section
        for x in xs:
            assert eval_coeffs(ops.u.kv1, c1, x) >= -1e-9


def test_inequality_coefficient_test_is_conservative():
    """A slightly negative derivative coefficient can hide a monotone spline.

    The coefficient rows are sufficient, not necessary: this construction
    drives one first-derivative coefficient to -0.01 while the derivative
    itself stays above 0.1 everywhere.
    """
    sites = np.linspace(0.0, 1.0, 8)
    ops = sensitivity_set(sites, sites).u
    t = ops.kv.array()
    d = np.array([1.0, 1.0, -0.01, 1.0, 1.0, 1.0, 1.0])
    c = np.zeros(8)
    for j in range(7):
        c[j + 1] = c[j] + d[j] * (t[j + 4] - t[j + 1]) / 3.0
    theta = collocation_matrix(ops.kv, sites) @ c  # site values of the spline
    coeff_min = float(np.min(ops.c1 @ theta))
    assert coeff_min == pytest.approx(-0.01, abs=1e-9)
    deriv_min = min(eval_coeffs(ops.kv, c, x, 1) for x in np.linspace(0.0, 1.0, 400))
    assert deriv_min > 0.1
