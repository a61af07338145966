"""Batched evaluation: array calls against the per-point reference code.

The references are the scalar Cox-de Boor pass (NURBS Book A2.3,
``_basis_and_derivatives`` below), dense value rows and ``np.kron``
evaluated one stretch at a time, and ``scipy.interpolate.BSpline``.
"""

import bisect
import json
from pathlib import Path

import numpy as np
import pytest

import hyperspline as hs
from hyperspline import domain, splines
from hyperspline.cli import load_model, main, model_to_dict
from hyperspline.model import (_coordinates, _energy_splines, _partials, _to_sites, spec_ops,
                              stress_row)
from oracles import InterpolationGrid, cubic_residual, interpolate_surface

UT, BT, PS = hs.DeformationMode.UT, hs.DeformationMode.BT, hs.DeformationMode.PS
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
KIND_FILES = ("separable", "surface", "mapped")


def _knot_vectors():
    rng = np.random.default_rng(5)
    out = [splines.make_knots(np.linspace(0.0, 1.0, m)) for m in (4, 5, 20)]
    for m in (6, 11):
        sites = np.sort(rng.uniform(-1.0, 4.0, m))
        while np.any(np.diff(sites) < 1e-2):
            sites = np.sort(rng.uniform(-1.0, 4.0, m))
        out.append(splines.make_knots(sites))
    return out


def _points(kv, rng):
    lo, hi = kv.domain
    return np.concatenate([rng.uniform(lo, hi, 200), np.unique(kv.array()), [lo, hi]])


def _basis_and_derivatives(kv: splines.KnotVector, x: float, nderiv: int):
    """Nonzero basis functions and derivatives at x (NURBS Book A2.3).

    Returns ``(span, ders)`` where ``ders[r, j]`` is the r-th derivative of
    basis function ``span - degree + j`` evaluated at x.
    """
    p = kv.degree
    t = kv.knots
    # A2.1: knots[span] <= x < knots[span + 1], the right end in the last span
    span = min(max(bisect.bisect_right(t, x) - 1, p), kv.n - 1)
    x = min(max(x, kv.domain[0]), kv.domain[1])
    requested = nderiv
    nderiv = min(nderiv, p)

    ndu = np.zeros((p + 1, p + 1))
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nderiv + 1, p + 1))
    ders[0, :] = ndu[:, p]

    a = np.zeros((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nderiv + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    r = p
    for k in range(1, nderiv + 1):
        ders[k, :] *= r
        r *= p - k
    if requested > nderiv:
        ders = np.vstack([ders, np.zeros((requested - nderiv, p + 1))])
    return span, ders


def _scalar_row(kv, x, r):
    span, ders = _basis_and_derivatives(kv, float(x), r)
    row = np.zeros(kv.n)
    row[span - kv.degree : span + 1] = ders[r]
    return span, row


@pytest.mark.parametrize("r", [0, 1, 2])
def test_batched_basis_matches_scalar_cox_de_boor(r):
    rng = np.random.default_rng(11 + r)
    for kv in _knot_vectors():
        x = _points(kv, rng)
        spans, block = splines.basis_at(kv, x, r)
        rows = splines.basis_row(kv, x, r)
        assert block.shape == (x.size, kv.degree + 1) and rows.shape == (x.size, kv.n)
        for k, xk in enumerate(x):
            span, ref = _scalar_row(kv, xk, r)
            assert spans[k] == span
            # the same arithmetic point by point: equal to the last bit
            np.testing.assert_array_equal(rows[k], ref)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_batched_basis_matches_scipy(r):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(23 + r)
    for kv in _knot_vectors():
        x = _points(kv, rng)
        t = kv.array()
        if r == 0:
            ref = interpolate.BSpline.design_matrix(x, t, kv.degree).toarray()
        else:
            ref = interpolate.BSpline(t, np.eye(kv.n), kv.degree)(x, nu=r)
        scale = max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(splines.basis_row(kv, x, r), ref, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_batched_value_rows_match_scalar_rows(r):
    rng = np.random.default_rng(31 + r)
    for sites in (np.linspace(0.0, 1.0, 20), np.linspace(0.0, 1.0, 5)):
        ops = splines.DirectionOps(sites)
        x = _points(ops.kv, rng)
        rows = ops.value_row(x, r)
        ref = np.array([_scalar_row(ops.kv, xk, r)[1] @ ops.binv for xk in x])
        np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        # a row does not depend on the batch it is computed in
        for k in (0, 7, x.size - 1):
            np.testing.assert_array_equal(ops.value_row(float(x[k]), r), rows[k])


def test_paired_rows_equal_the_per_order_rows(treloar):
    """The design-row builder takes each axis's value and slope blocks from
    one A2.3 pass and maps its coefficient-space rows of W_x and W_y to the
    site values.  Those rows equal the per-order value rows: bit for bit on
    the separable split (u slope row, v slope row), and their row-wise
    outer products (u slope by v value, u value by v slope) on the
    surfaces, up to roundoff."""
    live = (treloar.alpha != 0.0) | (treloar.beta != 0.0)
    i1, i2 = treloar.i1[live], treloar.i2[live]
    for name in KIND_FILES:
        spec = load_model(FIXTURES / f"{name}.json")[0].spec
        ops = spec_ops(spec)
        x, y = _coordinates(spec, i1, i2)[:2]
        span, px, py = _partials(spec, i1, i2)[:3]
        wx, wy = _to_sites(spec, span, px), _to_sites(spec, span, py)
        u0, u1 = ops.u.value_row(x, 0), ops.u.value_row(x, 1)
        v0, v1 = ops.v.value_row(y, 0), ops.v.value_row(y, 1)
        if spec.kind is hs.ModelKind.SEPARABLE:
            np.testing.assert_array_equal(wx, np.hstack([u1, np.zeros_like(v1)]))
            np.testing.assert_array_equal(wy, np.hstack([np.zeros_like(u1), v1]))
            continue
        for got, a, b in ((wx, u1, v0), (wy, u0, v1)):
            want = (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("kind", ("surface", "mapped"))
def test_surface_gradient_equals_the_per_order_partials(kind):
    state, _ = load_model(FIXTURES / f"{kind}.json")
    surface = _energy_splines(state)
    rng = np.random.default_rng(41)
    x = np.concatenate([rng.uniform(0.0, 1.0, 300), np.unique(surface.ku.array()), [0.0, 1.0]])
    y = np.concatenate([rng.uniform(0.0, 1.0, x.size - 4), [0.0, 1.0, 0.0, 1.0]])
    wx, wy = surface.gradient(x, y)
    np.testing.assert_array_equal(wx, surface.eval(x, y, 1, 0))
    np.testing.assert_array_equal(wy, surface.eval(x, y, 0, 1))
    assert surface.gradient(float(x[5]), float(y[5])) == (wx[5], wy[5])


def _mapped_grid(spec):
    """Invariants of every mode at 1 + 1e-4 k near the apex and on to 1.25x
    the largest Treloar stretch, which passes u_max."""
    lam = np.concatenate([1.0 + 1e-4 * np.arange(1, 1001), np.linspace(1.1, 1.25 * 7.61, 2000)])
    i1, i2 = zip(*(hs.invariants(mode, lam) for mode in (UT, BT, PS)))
    i1, i2 = np.concatenate(i1), np.concatenate(i2)
    assert (i1 > spec.domain.u_max).any()
    return i1, i2


def test_mapped_coordinates_solve_one_band_per_point_with_the_same_bits():
    """``_coordinates`` of the mapped kind against the compositions it
    replaces: ``map_forward`` plus ``map_jacobian`` at every admissible
    point, and ``_locate`` then ``map_jacobian`` at the clipped I1 and the
    I2 of the clipped eta on the band there at every outside point."""
    state, _ = load_model(FIXTURES / "mapped.json")
    spec, cfg = state.spec, state.spec.domain
    i1, i2 = _mapped_grid(spec)

    xi, eta, outside, band = domain._locate(i1, i2, cfg)
    got = _coordinates(spec, i1, i2)
    np.testing.assert_array_equal(got[-1], outside)
    assert outside.sum() > 10 and (~outside).sum() > 10
    i1c = np.clip(i1, cfg.u_min, cfg.u_max)[outside]
    t_lo, _, _, _, eff, _ = (b[outside] for b in band)
    i2p = np.maximum(hs.poly_transform_inverse(t_lo + eta[outside] * eff), 3.0)
    jac = hs.map_jacobian(i1c, i2p, cfg)
    expected = (xi[outside], eta[outside], jac.dxi_di1, jac.deta_di1, jac.deta_di2)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a[outside], b)

    i1, i2 = i1[~outside], i2[~outside]
    xi, eta = hs.map_forward(i1, i2, cfg)
    jac = hs.map_jacobian(i1, i2, cfg)
    for a, b in zip(got, (xi, eta, jac.dxi_di1, jac.deta_di1, jac.deta_di2)):
        np.testing.assert_array_equal(a[~outside], b)
    # map_jacobian runs the same call, so hold it to the band at the
    # clipped I1 and the Jacobian at the point's own I2, composed apart
    ref = domain._jacobian(i2, domain._band(np.clip(i1, cfg.u_min, cfg.u_max), cfg), cfg)
    for a, b in zip(vars(jac).values(), vars(ref).values()):
        np.testing.assert_array_equal(a, b)


def _scalar_reference(state, mode, lam):
    """Per-point reference of ``predict_stress_clamped``: one stretch at a
    time, scalar A2.3 value rows combined with ``np.kron``."""
    spec = state.spec
    cfg = spec.domain
    ops = spec_ops(spec)
    sc = hs.stress_coefficients(mode, lam)
    if sc.alpha == 0.0 and sc.beta == 0.0:
        return 0.0, False

    def row(direction, x, r):
        return _scalar_row(direction.kv, x, r)[1] @ direction.binv

    i1, i2 = hs.invariants(mode, lam)
    tol = 1e-9
    if spec.kind is hs.ModelKind.MAPPED_SURFACE:
        # outside: I1 off the axis by more than a relative 1e-9, or the
        # transformed I2 off the band by more than the roundoff tolerance
        i1c = min(max(i1, cfg.u_min), cfg.u_max)
        xi = (i1c - cfg.u_min) / (cfg.u_max - cfg.u_min)
        t_lo, _ = hs.poly_transform(hs.boundary(i1c).i2_lo)
        eff, _ = hs.width(i1c, cfg)
        t, tp = hs.poly_transform(i2)
        tol_t = domain._ADMIT_TOL * (1.0 + abs(i2)) * max(tp, 1.0)
        grace = tol * (1.0 + abs(i1))
        outside = (not cfg.u_min - grace <= i1 <= cfg.u_max + grace
                   or not t_lo - tol_t <= t <= t_lo + eff + tol_t)
        eta = (t - t_lo) / eff
        xi, eta = min(max(xi, 0.0), 1.0), min(max(eta, 0.0), 1.0)
        if outside:
            # projected: the I2 at the clipped eta on the band at the clipped I1
            t_eta = t_lo + eta * eff
            i2 = max(hs.poly_transform_inverse(t_eta), 3.0)
        jac = hs.map_jacobian(i1c, i2, cfg)
        s_xi = np.kron(row(ops.u, xi, 1), row(ops.v, eta, 0))
        s_eta = np.kron(row(ops.u, xi, 0), row(ops.v, eta, 1))
        dw1 = s_xi * jac.dxi_di1 + s_eta * jac.deta_di1
        dw2 = s_eta * jac.deta_di2
    else:
        L1 = cfg.u_max - cfg.u_min
        x1 = (i1 - cfg.u_min) / L1
        t, tp = hs.poly_transform(i2)
        x2 = (t - hs.poly_transform(3.0)[0]) / spec.i2_axis_max
        dx2 = tp / spec.i2_axis_max
        outside = not (-tol <= x1 <= 1.0 + tol and -tol <= x2 <= 1.0 + tol)
        x1, x2 = min(max(x1, 0.0), 1.0), min(max(x2, 0.0), 1.0)
        if spec.kind is hs.ModelKind.SEPARABLE:
            dw1 = np.concatenate([row(ops.u, x1, 1) / L1, np.zeros(spec.n2)])
            dw2 = np.concatenate([np.zeros(spec.n1), row(ops.v, x2, 1) * dx2])
        else:
            dw1 = np.kron(row(ops.u, x1, 1), row(ops.v, x2, 0)) / L1
            dw2 = np.kron(row(ops.u, x1, 0), row(ops.v, x2, 1)) * dx2
    return float((sc.alpha * dw1 + sc.beta * dw2) @ state.theta), outside


@pytest.mark.parametrize("kind", KIND_FILES)
def test_batched_prediction_matches_the_scalar_path(kind):
    """A 1e-4 stretch grid over [1, 1.1] (the near-apex band where the map
    is least well conditioned), then 200 stretches up to 1.25x the largest
    Treloar stretch of the mode, so part of each grid extrapolates."""
    state, _ = load_model(FIXTURES / f"{kind}.json")
    largest = {UT: 7.61, BT: 4.45, PS: 4.96}
    for mode in (UT, BT, PS):
        lam = np.concatenate([1.0 + 1e-4 * np.arange(1001),
                              np.linspace(1.1, 1.25 * largest[mode], 201)[1:]])
        value, flag = hs.predict_stress_clamped(state, mode, lam)
        ref = [_scalar_reference(state, mode, float(x)) for x in lam]
        ref_value = np.array([v for v, _ in ref])
        ref_flag = np.array([f for _, f in ref])
        assert value[0] == 0.0  # stretch 1 is exactly stress-free
        # every real stretch is admissible, and [1, 1.1] lies inside each
        # model's axes, so none of the near-apex grid is extrapolated
        assert not flag[:1001].any()
        np.testing.assert_array_equal(flag, ref_flag)
        scale = np.abs(ref_value).max()
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("kind", KIND_FILES)
def test_clamped_and_unclamped_predictions_agree_at_every_admissible_point(kind):
    """The near-apex grid 1 + 1e-4 k up to 1.1 and a few stretches past the
    mode's largest Treloar stretch: every point that is not flagged takes
    the bits of ``predict_stress``; some points past the data are flagged."""
    state, _ = load_model(FIXTURES / f"{kind}.json")
    past = {UT: (7.7, 8.5, 10.0), BT: (4.5, 5.0, 6.0), PS: (5.0, 5.5, 6.5)}
    flagged = 0
    for mode in (UT, BT, PS):
        lam = np.concatenate([1.0 + 1e-4 * np.arange(1001), past[mode]])
        value, flag = hs.predict_stress_clamped(state, mode, lam)
        assert not flag[:1001].any()
        flagged += flag.sum()
        np.testing.assert_array_equal(value[~flag], hs.predict_stress(state, mode, lam[~flag]))
    assert flagged > 0


@pytest.mark.parametrize("kind", KIND_FILES)
def test_batch_and_single_calls_agree(kind):
    state, _ = load_model(FIXTURES / f"{kind}.json")
    lam = np.array([1.0, 1.02, 1.5, 2.5, 4.0, 9.0])
    for mode in (UT, BT, PS):
        value, flag = hs.predict_stress_clamped(state, mode, lam)
        rows = stress_row(state.spec, mode, lam[~flag])  # design rows never extrapolate
        for k, x in enumerate(lam.tolist()):
            one, one_flag = hs.predict_stress_clamped(state, mode, x)
            assert (one, one_flag) == (value[k], flag[k])
            # one mask: predict_stress and the design rows raise exactly
            # where the clamped prediction is flagged
            if flag[k]:
                for call in (hs.predict_stress, lambda s, m, x: stress_row(s.spec, m, x)):
                    with pytest.raises(ValueError, match=r"^point \(I1, I2\) = .* not admissible$"):
                        call(state, mode, x)
            else:
                assert hs.predict_stress(state, mode, x) == value[k]
        for k, x in enumerate(lam[~flag].tolist()):
            np.testing.assert_array_equal(stress_row(state.spec, mode, x), rows[k])

    # one mode per stretch: UT, BT and PS interleaved, every mode at every
    # stretch, stretch 1 and 9.0 (past each fixture's data) included
    modes = np.array([UT, BT, PS] * lam.size, dtype=object)
    mixed = np.repeat(lam, 3)
    value, flag = hs.predict_stress_clamped(state, modes, mixed)
    rows = stress_row(state.spec, modes[~flag], mixed[~flag])
    with pytest.raises(ValueError):  # past the data a design row raises
        stress_row(state.spec, modes[flag], mixed[flag])
    with pytest.raises(ValueError, match="is not admissible"):  # and so does predict_stress
        hs.predict_stress(state, modes[flag], mixed[flag])
    i1, i2 = hs.invariants(modes, mixed)
    sc = hs.stress_coefficients(modes, mixed)
    assert flag.any() and not flag.all()
    inside = hs.predict_stress(state, modes[~flag], mixed[~flag])
    for j, mode in enumerate((UT, BT, PS)):
        at = slice(j, None, 3)
        ref_value, ref_flag = hs.predict_stress_clamped(state, mode, lam)
        ref_sc = hs.stress_coefficients(mode, lam)
        np.testing.assert_array_equal(value[at], ref_value)
        np.testing.assert_array_equal(flag[at], ref_flag)
        np.testing.assert_array_equal(rows[modes[~flag] == mode],
                                      stress_row(state.spec, mode, lam[~ref_flag]))
        for got, want in zip((i1[at], i2[at], sc.alpha[at], sc.beta[at]),
                             (*hs.invariants(mode, lam), ref_sc.alpha, ref_sc.beta)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(inside[modes[~flag] == mode],
                                      hs.predict_stress(state, mode, lam[~ref_flag]))


def test_dataset_batches_equal_the_per_mode_references(treloar):
    """``assemble_design`` and ``metrics`` evaluate the Treloar dataset in
    one batch; each row and prediction has the bits of the per-mode call.
    The rows come from one builder: ``stress_row`` is, bit for bit,
    alpha dW/dI1 + beta dW/dI2 of ``sensitivity_derivatives``, and the
    exact zero row at stretch 1."""
    stretch = np.array([s.stretch for s in treloar])
    stress = np.array([s.stress for s in treloar])
    for name in KIND_FILES:
        state, _ = load_model(FIXTURES / f"{name}.json")
        A, y = hs.assemble_design(state.spec, treloar)
        fit = hs.metrics(state, treloar)
        for mode in (UT, BT, PS):
            idx = np.array([k for k, s in enumerate(treloar) if s.mode is mode])
            w = 1.0 / np.sqrt(idx.size)
            rows = stress_row(state.spec, mode, stretch[idx])
            np.testing.assert_array_equal(A[idx], w * rows)
            sc = hs.stress_coefficients(mode, stretch[idx])
            live = stretch[idx] != 1.0
            assert not np.any(rows[~live])
            dw1, dw2 = hs.sensitivity_derivatives(
                state.spec, *hs.invariants(mode, stretch[idx][live]))
            np.testing.assert_array_equal(
                rows[live], sc.alpha[live, None] * dw1 + sc.beta[live, None] * dw2)
            np.testing.assert_array_equal(y[idx], w * stress[idx])
            pred = hs.predict_stress(state, mode, stretch[idx])
            np.testing.assert_array_equal(fit.predictions[idx], pred)
            assert fit.mse[mode] == float(np.mean((pred - stress[idx]) ** 2))


def test_a_mode_list_names_its_fault():
    with pytest.raises(ValueError, match=r"^unknown mode 'UT'$"):
        hs.invariants([UT, "UT"], [1.5, 2.0])
    with pytest.raises(ValueError, match=r"^unknown mode 'UT'$"):  # a name is no mode
        hs.invariants("UT", 2.0)
    with pytest.raises(ValueError, match=r"^expected one mode per stretch, got 2 modes for 3"):
        hs.stress_coefficients([UT, BT], [1.5, 2.0, 2.5])


def _assert_floats(*values):
    for v in values:
        assert type(v) is float, (v, type(v))


def test_scalar_calls_return_python_floats():
    cfg = hs.DomainMapConfig(u_max=20.0)
    _assert_floats(*hs.invariants(BT, 1.7))
    sc = hs.stress_coefficients(PS, np.float64(1.7))
    _assert_floats(sc.alpha, sc.beta)
    be = hs.boundary(5.0)
    _assert_floats(be.i2_lo, be.i2_hi, be.d_lo, be.d_hi)
    _assert_floats(*hs.boundary(3.0).__dict__.values())
    _assert_floats(cubic_residual(5.0, 4.0), *hs.poly_transform(4.0),
                   hs.poly_transform_inverse(2.0), *hs.width(5.0, cfg))
    xi, eta = hs.map_forward(5.0, 4.5, cfg)
    _assert_floats(xi, eta, *hs.map_inverse(xi, eta, cfg))
    jac = hs.map_jacobian(5.0, 4.5, cfg)
    _assert_floats(jac.dxi_di1, jac.deta_di1, jac.deta_di2)

    kv = splines.make_knots(np.linspace(0.0, 1.0, 6))
    span, vals = splines.basis_at(kv, 0.3, 1)
    assert type(span) is int and vals.shape == (4,)
    assert splines.basis_row(kv, 0.3).shape == (kv.n,)
    _assert_floats(splines.eval_coeffs(kv, np.arange(6.0), 0.3))
    curve = hs.interpolate_curve(np.linspace(0.0, 1.0, 6), np.arange(6.0))
    _assert_floats(curve(0.3), curve(0.3, 2))
    grid = InterpolationGrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4), np.ones((5, 4)))
    _assert_floats(interpolate_surface(grid).eval(0.3, 0.6, 1, 0))
    assert splines.DirectionOps(np.linspace(0.0, 1.0, 6)).value_row(0.3).shape == (6,)

    for name in KIND_FILES:
        state, _ = load_model(FIXTURES / f"{name}.json")
        _assert_floats(hs.predict_stress(state, UT, 2.0), hs.energy(state, 5.0, 4.5))
        value, flag = hs.predict_stress_clamped(state, UT, 2.0)
        _assert_floats(value)
        assert type(flag) is bool
        assert stress_row(state.spec, BT, 1.5).shape == (state.spec.n_params,)
        dw1, dw2 = hs.sensitivity_derivatives(state.spec, 5.0, 4.5)
        assert dw1.shape == dw2.shape == (state.spec.n_params,)


def test_array_calls_return_arrays():
    lam = np.array([1.0, 1.5, 2.0])
    i1, i2 = hs.invariants(UT, lam)
    assert i1.shape == i2.shape == (3,)
    assert hs.boundary(i1).i2_hi.shape == (3,)
    state, _ = load_model(FIXTURES / "mapped.json")
    value, flag = hs.predict_stress_clamped(state, UT, list(lam))
    assert value.shape == (3,) and flag.dtype == bool
    assert hs.energy(state, i1, i2).shape == (3,)
    with pytest.raises(ValueError):
        hs.invariants(UT, np.ones((2, 2)))


def test_scalar_errors_are_unchanged():
    cfg = hs.DomainMapConfig(u_max=20.0)
    kv = splines.make_knots(np.linspace(0.0, 1.0, 5))
    cases = [
        (lambda: hs.invariants(UT, -1.0), "stretch must be positive, got -1.0"),
        (lambda: hs.boundary(2.5), "I1 must be at least 3, got 2.5"),
        (lambda: hs.poly_transform(2.5), "I2 must be at least 3, got 2.5"),
        (lambda: hs.map_forward(25.0, 30.0, cfg),
         "point (I1, I2) = (25.0, 30.0) is not admissible"),
        (lambda: hs.map_forward(5.0, 3.0, cfg), "point (I1, I2) = (5.0, 3.0) is not admissible"),
        (lambda: hs.map_jacobian(25.0, 30.0, cfg),
         "point (I1, I2) = (25.0, 30.0) is not admissible"),
        (lambda: hs.map_jacobian(5.0, 3.0, cfg), "point (I1, I2) = (5.0, 3.0) is not admissible"),
        (lambda: hs.map_inverse(0.5, 1.5, cfg), "eta = 1.5 outside [0, 1]"),
        (lambda: splines.basis_row(kv, 1.5), "evaluation point 1.5 outside spline domain"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).startswith(message), str(err.value)
    # an array names its first offending entry
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        hs.invariants(UT, [1.0, -2.0, -3.0])


def test_assemble_design_names_the_first_failing_sample():
    samples = [hs.Sample(mode, float(lam), 0.0)
               for mode in (UT, BT, PS) for lam in np.linspace(1.0, 3.0, 6)]
    spec = hs.default_spec(hs.ModelKind.SURFACE, samples, 8, 4)
    # the batch fails; sample 3 (BT) is the first that cannot be assembled
    bad = [hs.Sample(UT, 2.0, 1.0), hs.Sample(UT, 1.5, 1.0), hs.Sample(BT, 1.5, 1.0),
           hs.Sample(BT, 9.0, 1.0), hs.Sample(UT, 9.0, 1.0)]
    with pytest.raises(ValueError, match=r"^sample 3 \(BT, stretch 9\.0\) cannot be assembled: "
                                         r"point \(I1, I2\) = \(.*\) is not admissible$"):
        hs.assemble_design(spec, bad)


def test_assemble_design_names_a_sample_of_nonpositive_stretch():
    samples = [hs.Sample(mode, float(lam), 0.0)
               for mode in (UT, BT, PS) for lam in np.linspace(1.0, 3.0, 6)]
    spec = hs.default_spec(hs.ModelKind.SURFACE, samples, 8, 4)
    with pytest.raises(ValueError, match=r"^sample 1 \(UT, stretch -1\.0\) cannot be assembled: "
                                         r"stretch must be positive, got -1\.0$"):
        hs.assemble_design(spec, [hs.Sample(UT, 2.0, 1.0), hs.Sample(UT, -1.0, 1.0)])
    # an entry that is no mode is named by the mode grouping, before any stretch
    with pytest.raises(ValueError, match=r"^unknown mode 'UT'$"):
        hs.assemble_design(spec, [hs.Sample(UT, -1.0, 1.0), hs.Sample("UT", 2.0, 1.0)])
    with pytest.raises(ValueError, match=r"^empty dataset$"):
        hs.assemble_design(spec, [])
    with pytest.raises(ValueError, match=r"^empty dataset$"):
        hs.max_invariants([])


def test_predict_reports_the_line_of_a_failing_row(tmp_path, capsys):
    # a mapped model without the apex width floor cannot be evaluated where
    # I1 rounds to exactly 3: stretch 1 + 1e-9 gives a zero band width
    samples = [hs.Sample(mode, float(lam), 0.0)
               for mode in (UT, BT, PS) for lam in np.linspace(1.0, 3.0, 6)]
    spec = hs.default_spec(hs.ModelKind.MAPPED_SURFACE, samples, 6, 4, delta=0.0)
    theta = np.linspace(0.0, 1.0, spec.n_params)
    state = hs.ModelState(spec=spec, theta=theta)
    doc = model_to_dict(state, 0.0, hs.metrics(state, samples), {})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    at = tmp_path / "at.csv"
    at.write_text("mode,stretch\nUT,2.0\n# comment\nBT,1.5\nUT,1.000000001\nPS,1.2\n")
    args = ["predict", "--model", str(model), "--at", str(at), "--output", str(tmp_path / "p")]
    assert main(args) == 3
    assert f"{at}:5: zero band width" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
    at.write_text("mode,stretch\nUT,2.0\n\nUT,abc\n")
    assert main(args) == 2
    assert f"{at}:4: bad mode or stretch" in capsys.readouterr().err
