"""Curvature penalty and shape-constraint operators."""

import numpy as np
import pytest

from hyperspline import (
    DeformationMode,
    ModelKind,
    Sample,
    collocation_matrix,
    curvature_operator,
    default_spec,
    eval_coeffs,
    inequality_operator,
    sensitivity_set,
)
from hyperspline import operators
from hyperspline.model import spec_ops
from hyperspline.operators import _dedup_unit_rows

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


def test_penalty_gauss_order_is_already_exact(monkeypatch):
    """The integrand is piecewise polynomial; doubling the rule changes nothing."""
    spec = _spec(ModelKind.SURFACE, n1=8, n2=6)
    rng = np.random.default_rng(61)
    theta = rng.normal(size=spec.n_params)
    rows4 = curvature_operator(spec).rows
    monkeypatch.setattr(operators, "QUAD_ORDER", 2 * operators.QUAD_ORDER)
    rows8 = curvature_operator(spec).rows
    assert rows8.shape[0] == 4 * rows4.shape[0]  # twice the nodes on each axis
    p4 = float(np.sum((rows4 @ theta) ** 2))
    p8 = float(np.sum((rows8 @ theta) ** 2))
    assert p8 == pytest.approx(p4, rel=1e-10)


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


def test_inequality_rows_are_unit_norm_and_deduplicated():
    spec = _spec(ModelKind.SURFACE, n1=7, n2=5)
    rows = inequality_operator(spec).rows
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    keys = {np.round(r, 12).tobytes() for r in rows}
    assert len(keys) == rows.shape[0]


def _loop_dedup_unit_rows(rows):
    """Reference: the row-by-row deduplication the vectorised one replaced."""
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


def test_dedup_matches_the_row_loop():
    """Same rows, bytes and order as the loop: zero rows, scaled and exact
    copies, copies within the rounding, signed zeros and the real operators."""
    rng = np.random.default_rng(137)
    signed = np.array([[0.0, 1.0], [-1e-20, 1.0], [0.0, 2.0]])  # keys (0, 1), (-0, 1), (0, 1)
    assert _dedup_unit_rows(signed).shape == (2, 2)
    cases = [np.zeros((0, 4)), np.zeros((3, 4)), signed]
    for _ in range(200):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        rows = rng.normal(size=(m, n)) * rng.integers(0, 2, size=(m, n))
        picks = rng.integers(0, m, size=m // 2)
        rows[rng.integers(0, m, size=picks.size)] = rows[picks] * rng.choice(
            [1.0, 3.0, 1.0 + 1e-15, 1.0 + 1e-9], size=(picks.size, 1))
        rows[rng.random(m) < 0.1] = 0.0
        rows[rng.random(m) < 0.1, 0] = -1e-20  # rounds to -0.0, not 0.0
        cases.append(rows)
    ops = spec_ops(_spec(ModelKind.MAPPED_SURFACE))
    cases.append(np.vstack([-np.kron(ops.u.c2, ops.v.binv), -np.kron(ops.u.binv, ops.v.c2),
                            -np.kron(ops.u.c2, ops.v.binv)]))
    for rows in cases:
        out, ref = _dedup_unit_rows(rows), _loop_dedup_unit_rows(rows)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


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
