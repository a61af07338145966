"""Cubic B-spline basics: knots, basis, interpolation, sensitivities."""

import numpy as np
import pytest

from hyperspline import (
    Curve,
    basis_at,
    basis_row,
    collocation_matrix,
    derivative_operator,
    eval_coeffs,
    interpolate_curve,
    make_knots,
    sensitivity_set,
)
from oracles import InterpolationGrid, eval_grid, interpolate_surface


def test_make_knots_minimal_sites():
    # Four sites give a pure Bezier segment: no interior knots at all.
    kv = make_knots([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert kv.n == 4
    assert kv.array().tolist() == [0.0] * 4 + [1.0] * 4


def test_make_knots_interior_averaging():
    # Five sites leave one interior knot: the mean of the middle three.
    kv = make_knots([0.0, 0.25, 0.5, 0.75, 1.0])
    assert kv.n == 5
    inner = kv.array()[4:-4]
    assert inner.shape == (1,)
    assert inner[0] == pytest.approx(0.5, abs=1e-15)


def test_make_knots_rejects_bad_sites():
    with pytest.raises(ValueError):
        make_knots([0.0, 0.5, 1.0])  # too few
    with pytest.raises(ValueError):
        make_knots([0.0, 0.5, 0.5, 1.0])  # not strictly increasing
    with pytest.raises(ValueError):
        make_knots([0.0, 0.3, 0.6, np.inf])


def test_basis_is_bernstein_on_single_span():
    """With no interior knots the cubic basis reduces to Bernstein polynomials."""
    kv = make_knots([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    x = 0.5
    _, vals = basis_at(kv, x)
    bern = [(1 - x) ** 3, 3 * x * (1 - x) ** 2, 3 * x ** 2 * (1 - x), x ** 3]
    np.testing.assert_allclose(vals, bern, atol=1e-15)


def test_basis_clamped_ends():
    kv = make_knots(np.linspace(0.0, 2.0, 7))
    row0 = basis_row(kv, 0.0)
    rowN = basis_row(kv, 2.0)
    assert row0[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(row0[1:] == 0.0)
    assert rowN[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(rowN[:-1] == 0.0)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(4, 15)
        sites = np.sort(rng.uniform(0.0, 5.0, m))
        while np.any(np.diff(sites) < 1e-3):
            sites = np.sort(rng.uniform(0.0, 5.0, m))
        kv = make_knots(sites)
        for x in rng.uniform(sites[0], sites[-1], 30):
            assert abs(basis_row(kv, x).sum() - 1.0) <= 1e-12
            # derivative rows of a partition of unity sum to zero
            assert abs(basis_row(kv, x, 1).sum()) <= 1e-10


def test_basis_at_outside_domain():
    kv = make_knots(np.linspace(0.0, 1.0, 5))
    for x in (1.5, -0.2, np.array([0.5, 1.5])):
        with pytest.raises(ValueError, match="outside spline domain"):
            basis_at(kv, x)


def test_interpolation_exactness():
    rng = np.random.default_rng(11)
    for _ in range(15):
        m = rng.integers(4, 12)
        sites = np.cumsum(rng.uniform(0.1, 1.0, m))
        values = rng.normal(size=m)
        curve = interpolate_curve(sites, values)
        got = np.array([curve(x) for x in sites])
        np.testing.assert_allclose(got, values, atol=1e-10 * max(1.0, np.abs(values).max()))


def test_affine_reproduction():
    """Splines contain polynomials up to their degree; check degree <= 3 exactly."""
    sites = np.linspace(0.0, 2.0, 9)
    xs = np.linspace(0.0, 2.0, 57)
    for poly in (np.poly1d([2.0, -1.0]), np.poly1d([1.0, 0.0, -3.0]),
                 np.poly1d([0.5, -1.0, 2.0, 0.25])):
        curve = interpolate_curve(sites, poly(sites))
        for x in xs:
            assert curve(x) == pytest.approx(poly(x), abs=1e-10)
            assert curve(x, 1) == pytest.approx(poly.deriv()(x), abs=1e-9)


def test_interpolation_is_linear_in_values():
    sites = np.linspace(0.0, 1.0, 7)
    rng = np.random.default_rng(3)
    v1 = rng.normal(size=7)
    v2 = rng.normal(size=7)
    c_sum = interpolate_curve(sites, 2.0 * v1 - 0.5 * v2)
    c1 = interpolate_curve(sites, v1)
    c2 = interpolate_curve(sites, v2)
    for x in rng.uniform(0.0, 1.0, 25):
        assert c_sum(x) == pytest.approx(2.0 * c1(x) - 0.5 * c2(x), abs=1e-12)


def test_derivatives_match_finite_differences():
    sites = np.linspace(0.0, 1.0, 10)
    rng = np.random.default_rng(5)
    curve = interpolate_curve(sites, rng.normal(size=10))
    h = 1e-6
    for x in rng.uniform(0.05, 0.95, 40):
        fd1 = (curve(x + h) - curve(x - h)) / (2 * h)
        fd2 = (curve(x + h) - 2 * curve(x) + curve(x - h)) / h ** 2
        assert curve(x, 1) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert curve(x, 2) == pytest.approx(fd2, rel=1e-4, abs=1e-3)


def test_derivative_operator_against_evaluation():
    """De Boor difference coefficients reproduce pointwise derivatives."""
    sites = np.linspace(0.0, 3.0, 8)
    rng = np.random.default_rng(17)
    values = rng.normal(size=8)
    curve = interpolate_curve(sites, values)
    D1, kv1 = derivative_operator(curve.kv)
    d1 = D1 @ curve.coeffs
    D2, kv2 = derivative_operator(kv1)
    d2 = D2 @ d1
    for x in np.linspace(0.0, 3.0, 41):
        assert eval_coeffs(kv1, d1, x) == pytest.approx(curve(x, 1), abs=1e-10)
        assert eval_coeffs(kv2, d2, x) == pytest.approx(curve(x, 2), abs=1e-9)


def test_collocation_matrix_banded_and_nonsingular():
    sites = np.linspace(0.0, 1.0, 12)
    kv = make_knots(sites)
    B = collocation_matrix(kv, sites)
    assert B.shape == (12, 12)
    assert np.linalg.cond(B) < 1e3
    np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)


def test_surface_interpolation_and_mixed_derivative():
    su = np.linspace(0.0, 1.0, 6)
    sv = np.linspace(0.0, 2.0, 5)
    rng = np.random.default_rng(23)
    vals = rng.normal(size=(6, 5))
    surf = interpolate_surface(InterpolationGrid(su, sv, vals))
    # exact at the grid sites
    got = eval_grid(surf, su, sv)
    np.testing.assert_allclose(got, vals, atol=1e-10)
    # mixed partial vs finite differences
    h = 1e-5
    for x, y in [(0.3, 0.7), (0.81, 1.44), (0.05, 1.9)]:
        fd = (surf.eval(x + h, y + h) - surf.eval(x + h, y - h)
              - surf.eval(x - h, y + h) + surf.eval(x - h, y - h)) / (4 * h * h)
        assert surf.eval(x, y, 1, 1) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_surface_bilinear_reproduction():
    su = np.linspace(0.0, 1.0, 7)
    sv = np.linspace(0.0, 1.0, 6)
    f = lambda x, y: 2.0 + 0.5 * x - 1.5 * y + 3.0 * x * y
    vals = f(su[:, None], sv[None, :])
    surf = interpolate_surface(InterpolationGrid(su, sv, vals))
    rng = np.random.default_rng(2)
    for x, y in rng.uniform(0.0, 1.0, size=(30, 2)):
        assert surf.eval(x, y) == pytest.approx(f(x, y), abs=1e-12)
        assert surf.eval(x, y, 1, 0) == pytest.approx(0.5 + 3.0 * y, abs=1e-10)
        assert surf.eval(x, y, 2, 0) == pytest.approx(0.0, abs=1e-9)


def test_sensitivity_rows_are_unit_responses():
    """Row p of the value map is the spline through e_p site values."""
    sites_u = np.linspace(0.0, 1.0, 6)
    sites_v = np.linspace(0.0, 1.0, 5)
    ops = sensitivity_set(sites_u, sites_v).u
    for p in range(6):
        unit = np.zeros(6)
        unit[p] = 1.0
        curve = interpolate_curve(sites_u, unit)
        for x in (0.0, 0.13, 0.5, 0.77, 1.0):
            assert ops.value_row(x) @ unit == pytest.approx(curve(x), abs=1e-12)
            assert ops.value_row(x, 1) @ unit == pytest.approx(curve(x, 1), abs=1e-10)
    # interpolation property in matrix form: value rows at sites = identity
    I = np.vstack([ops.value_row(x) for x in sites_u])
    np.testing.assert_allclose(I, np.eye(6), atol=1e-12)


def test_sensitivity_derivative_coefficient_maps():
    sites = np.linspace(0.0, 1.0, 8)
    ops = sensitivity_set(sites, sites).u
    theta = np.sin(np.linspace(0.0, 2.0, 8))
    c1 = ops.c1 @ theta
    c2 = ops.c2 @ theta
    curve = interpolate_curve(sites, theta)
    _, kv1 = derivative_operator(ops.kv)
    _, kv2 = derivative_operator(kv1)
    for x in np.linspace(0.0, 1.0, 33):
        assert eval_coeffs(kv1, c1, x) == pytest.approx(curve(x, 1), abs=1e-10)
        assert eval_coeffs(kv2, c2, x) == pytest.approx(curve(x, 2), abs=1e-9)


def test_constant_values_have_zero_derivative_coefficients():
    ops = sensitivity_set(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 4)).u
    np.testing.assert_allclose(ops.c1 @ np.full(9, 3.7), 0.0, atol=1e-12)
    np.testing.assert_allclose(ops.c2 @ np.full(9, 3.7), 0.0, atol=1e-11)


def test_monotone_site_values_give_nonnegative_first_coefficients():
    # Increasing convex data: both derivative coefficient vectors stay >= 0.
    sites = np.linspace(0.0, 1.0, 10)
    ops = sensitivity_set(sites, sites).u
    theta = sites ** 2
    assert np.min(ops.c1 @ theta) >= -1e-12
    assert np.min(ops.c2 @ theta) >= -1e-12


def test_eval_outside_domain_raises():
    curve = interpolate_curve(np.linspace(0.0, 1.0, 5), np.zeros(5))
    with pytest.raises(ValueError):
        curve(1.2)
