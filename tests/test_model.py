"""Model layer: specs, sensitivities, design assembly, prediction, metrics."""

import csv
import importlib.util
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyperspline import (
    DeformationMode,
    DomainMapConfig,
    ModelKind,
    ModelSpec,
    ModelState,
    Sample,
    activation,
    assemble_design,
    default_spec,
    energy,
    fixed_zero_indices,
    invariants,
    map_inverse,
    metrics,
    poly_transform,
    predict_stress,
    predict_stress_clamped,
    sensitivity_derivatives,
    stress_coefficients,
)
from hyperspline.cli import RunConfig, load_model, run_calibration
from hyperspline.model import _energy_splines, _partials, reduced_design
from hyperspline.operators import curvature_operator, inequality_operator
from hyperspline.solver import CalibrationProblem, _blocks, solve

UT, BT, PS = DeformationMode.UT, DeformationMode.BT, DeformationMode.PS
KINDS = (ModelKind.SEPARABLE, ModelKind.SURFACE, ModelKind.MAPPED_SURFACE)
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def _synthetic_samples(lam_max=3.0, n=12):
    out = []
    for mode in (UT, BT, PS):
        for lam in np.linspace(1.0, lam_max, n):
            out.append(Sample(mode, float(lam), 0.0))
    return out


def test_default_spec_parameter_counts():
    samples = _synthetic_samples()
    for kind, expected in ((ModelKind.SEPARABLE, 25),
                           (ModelKind.SURFACE, 100),
                           (ModelKind.MAPPED_SURFACE, 100)):
        spec = default_spec(kind, samples, 20, 5)
        assert spec.n_params == expected


def test_default_spec_axes_cover_the_data(treloar):
    spec = default_spec(ModelKind.SURFACE, treloar, 20, 5)
    assert 55.0 < spec.domain.u_max < 62.0
    assert 5000.0 < spec.i2_axis_max < 8600.0
    # margin: the extreme sample must land strictly inside
    from hyperspline import max_invariants
    i1_max, i2t_max = max_invariants(treloar)
    assert spec.domain.u_max > i1_max
    assert spec.i2_axis_max > i2t_max


def test_default_spec_rejects_degenerate_data():
    with pytest.raises(ValueError):
        default_spec(ModelKind.SEPARABLE, [Sample(UT, 1.0, 0.0)])


def test_spec_validation():
    cfg = DomainMapConfig(u_max=10.0)
    good = dict(kind=ModelKind.SURFACE, n1=4, n2=4, domain=cfg, i2_axis_max=5.0,
                sites1=(0.0, 0.3, 0.6, 1.0), sites2=(0.0, 0.4, 0.7, 1.0))
    ModelSpec(**good)
    with pytest.raises(ValueError):
        ModelSpec(**{**good, "n1": 3, "sites1": (0.0, 0.5, 1.0)})
    with pytest.raises(ValueError):
        ModelSpec(**{**good, "sites1": (0.0, 0.6, 0.3, 1.0)})
    with pytest.raises(ValueError):
        ModelSpec(**{**good, "i2_axis_max": -1.0})


def test_pinned_parameters():
    samples = _synthetic_samples()
    sep = default_spec(ModelKind.SEPARABLE, samples, 6, 5)
    assert fixed_zero_indices(sep) == (0, 6)
    surf = default_spec(ModelKind.SURFACE, samples, 6, 5)
    assert fixed_zero_indices(surf) == (0,)


@pytest.mark.parametrize("kind", KINDS)
def test_sensitivity_derivatives_match_energy_differences(kind):
    """dW/dI1 and dW/dI2 rows agree with central differences of the energy."""
    samples = _synthetic_samples()
    spec = default_spec(kind, samples, 8, 6)
    rng = np.random.default_rng(13)
    theta = rng.normal(size=spec.n_params)
    for idx in fixed_zero_indices(spec):
        theta[idx] = 0.0
    state = ModelState(spec=spec, theta=theta)
    cfg = spec.domain
    h = 1e-6
    for xi, eta in [(0.3, 0.4), (0.7, 0.2), (0.5, 0.9)]:
        i1, i2 = map_inverse(xi, eta, DomainMapConfig(
            u_max=cfg.u_max, u_min=cfg.u_min, delta=cfg.delta))
        dw1, dw2 = sensitivity_derivatives(spec, i1, i2)
        fd1 = (energy(state, i1 + h, i2) - energy(state, i1 - h, i2)) / (2 * h)
        fd2 = (energy(state, i1, i2 + h) - energy(state, i1, i2 - h)) / (2 * h)
        assert dw1 @ theta == pytest.approx(fd1, rel=2e-5, abs=1e-7)
        assert dw2 @ theta == pytest.approx(fd2, rel=2e-5, abs=1e-7)


def test_sensitivity_constant_energy_has_zero_gradient():
    # theta all ones is a constant surface; both gradients must vanish
    samples = _synthetic_samples()
    for kind in (ModelKind.SURFACE, ModelKind.MAPPED_SURFACE):
        spec = default_spec(kind, samples, 6, 5)
        ones = np.ones(spec.n_params)
        dw1, dw2 = sensitivity_derivatives(spec, 4.1, 4.5)
        assert dw1 @ ones == pytest.approx(0.0, abs=1e-10)
        assert dw2 @ ones == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_design_row_vanishes_at_unit_stretch(kind):
    samples = [Sample(UT, 1.0, 0.0), Sample(UT, 1.5, 10.0), Sample(BT, 1.4, 12.0),
               Sample(PS, 1.6, 9.0)]
    spec = default_spec(kind, samples, 5, 4)
    A, y = assemble_design(spec, samples)
    assert np.all(A[0] == 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_design_linearity_oracle(kind):
    """A @ theta equals direct per-sample prediction, for random theta."""
    samples = [Sample(m, lam, 1.0) for m in (UT, BT, PS)
               for lam in (1.2, 1.7, 2.3, 2.9)]
    spec = default_spec(kind, samples, 7, 5)
    A, _ = assemble_design(spec, samples)
    counts = {m: 4 for m in (UT, BT, PS)}
    rng = np.random.default_rng(37)
    for _ in range(5):
        theta = rng.normal(size=spec.n_params)
        for idx in fixed_zero_indices(spec):
            theta[idx] = 0.0
        state = ModelState(spec=spec, theta=theta)
        direct = np.array([predict_stress(state, s.mode, s.stretch) / math.sqrt(counts[s.mode])
                           for s in samples])
        scale = max(1.0, np.abs(direct).max())
        assert np.max(np.abs(A @ theta - direct)) <= 1e-10 * scale


def test_design_weights_normalise_mode_counts():
    # a mode with 4x the samples gets rows scaled by 1/2 relative weight
    samples = [Sample(UT, 1.5, 5.0)] * 4 + [Sample(BT, 1.5, 5.0)]
    spec = default_spec(ModelKind.SEPARABLE, samples, 5, 4)
    A, y = assemble_design(spec, samples)
    assert y[0] == pytest.approx(5.0 / 2.0)
    assert y[4] == pytest.approx(5.0)


def _dense_seed_1(treloar) -> list:
    """The benchmark's dense-fit data of seed 1, 400 rows per mode from
    stretch 1, generated by ``perfbench/inputs.py`` (only read)."""
    where = FIXTURES.parent / "inputs.py"
    loader = importlib.util.spec_from_file_location("perfbench_inputs", where)
    inputs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(inputs)
    text = inputs.dense_csv(1, inputs.mode_maxima(treloar))
    return [Sample(DeformationMode(r["mode"]), float(r["stretch"]), float(r["stress"]))
            for r in csv.DictReader(io.StringIO(text))]


def _live_spans(spec, samples):
    """The samples off stretch 1 and the u-axis span of each."""
    live = [s for s in samples if s.stretch != 1.0]
    return live, _partials(spec, *invariants([s.mode for s in live], [s.stretch for s in live]))[0]


def _edge_cases(kind, dense) -> list:
    """Dense data with the edges of the span-by-span reduction: no sample
    on one u-axis span, stretch-1 rows of nonzero stress (zero rows whose
    stress stays in the residual) and a mode with one sample."""
    live, spans = _live_spans(default_spec(kind, dense), dense)
    gap = int(np.median(np.unique(spans)))
    kept = [s for s, span in zip(live, spans) if span != gap and s.mode is not PS]
    one_ps = [s for s in live if s.mode is PS][200]
    return kept + [one_ps, Sample(UT, 1.0, 7.5), Sample(BT, 1.0, -3.0), Sample(UT, 1.0, 2.0)]


@pytest.mark.parametrize("case", ("dense", "edges", "4 x 4", "5 x 4", "last span empty"))
@pytest.mark.parametrize("kind", KINDS)
def test_reduced_design_matches_the_per_sample_rows(kind, case, treloar):
    """``reduced_design`` keeps ||A theta - y||^2 of ``assemble_design`` to
    1e-12 relative at random theta, and the two problems solve to the same
    active set and theta (1e-10 of max |theta|).  The triangle's last rows
    read windows clipped to the last span's band: on the smallest grids
    (n1 = 4, 5), where most rows' windows clip, and on data whose last
    u-axis span holds no sample."""
    samples = _dense_seed_1(treloar)
    if case == "edges":
        samples = _edge_cases(kind, samples)
        spans = _live_spans(default_spec(kind, samples), samples)[1]
        assert np.setdiff1d(np.arange(3, spans.max()), spans).size == 1  # one empty span
        assert sum(s.mode is PS for s in samples) == 1
    spec = default_spec(kind, samples, *{"4 x 4": (4, 4), "5 x 4": (5, 4)}.get(case, (20, 5)))
    if case == "last span empty":  # the spec still spans the samples dropped
        live, spans = _live_spans(spec, samples)
        assert spans.max() == spec.n1 - 1
        samples = ([s for s in samples if s.stretch == 1.0]
                   + [s for s, span in zip(live, spans) if span < spec.n1 - 1])
    A, y = assemble_design(spec, samples)
    R, c = reduced_design(spec, samples)
    assert R.shape == (spec.n_params + 1, spec.n_params) and c.shape == (spec.n_params + 1,)
    rng = np.random.default_rng(71)
    scale = np.abs(y).max() / np.abs(A).max()
    for k in range(30):
        theta = rng.normal(size=spec.n_params) * scale * 10.0 ** (k % 5 - 2)
        full = float(np.sum((A @ theta - y) ** 2))
        assert abs(float(np.sum((R @ theta - c) ** 2)) - full) <= 1e-12 * full
    common = dict(A_pen=curvature_operator(spec).rows, lambda_pen=1e-4,
                  A_ineq=inequality_operator(spec).rows, fixed_zero=fixed_zero_indices(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither stack needs the micro-ridge
        per_sample = solve(CalibrationProblem(A=A, y=y, **common))
        reduced = solve(CalibrationProblem(A=R, y=c, **common))
    assert reduced.active_set == per_sample.active_set
    theta = per_sample.theta
    assert np.max(np.abs(reduced.theta - theta)) <= 1e-10 * np.max(np.abs(theta))


@pytest.mark.parametrize("kind", KINDS)
def test_a_tall_fit_is_reduced_once(kind, treloar):
    """A fit of tall data hands the solver the n_params + 1 rows of
    ``reduced_design``, which ``_blocks`` takes as they are, on the free
    columns; a problem on ``assemble_design``'s per-sample rows is still
    reduced there."""
    samples = _dense_seed_1(treloar)
    cfg = RunConfig(kind=kind.value, data="unread.csv", lambda_pen=1e-4)
    result = run_calibration(cfg, samples)
    problem, n = result.problem, result.problem.n_params
    free, A, y, _, _ = _blocks(problem)
    assert A.shape == (n + 1, free.size) and y.shape == (n + 1,)
    assert A.tobytes() == problem.A[:, free].tobytes() and y.tobytes() == problem.y.tobytes()
    per_sample = CalibrationProblem(*assemble_design(result.state.spec, samples),
                                    fixed_zero=problem.fixed_zero)
    assert per_sample.A.shape[0] == len(samples) == 1200
    assert _blocks(per_sample)[1].shape[0] <= n + 1


def test_a_mapped_fit_at_zero_band_width_never_maps_stretch_1(treloar):
    """Stretch-1 rows are exact zero rows and are never mapped, so a mapped
    fit at delta = 0, where the band closes at the apex, runs on data that
    holds them, per-sample rows (Treloar) and reduced ones (dense) alike."""
    for samples in (treloar, _dense_seed_1(treloar)):
        assert any(s.stretch == 1.0 for s in samples)
        cfg = RunConfig(kind="mapped", data="unread.csv", delta=0.0, lambda_pen=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_calibration(cfg, samples)
        assert np.all(np.isfinite(result.state.theta)) and result.fit.mse_combined > 0.0


def test_assemble_design_empty_dataset():
    spec = default_spec(ModelKind.SEPARABLE, _synthetic_samples(), 5, 4)
    with pytest.raises(ValueError):
        assemble_design(spec, [])


def test_neo_hookean_encoded_exactly():
    """Site values of (mu/2)(I1 - 3) reproduce P_UT(2) = 700 for mu = 400."""
    mu = 400.0
    samples = _synthetic_samples(lam_max=3.0)
    spec = default_spec(ModelKind.SEPARABLE, samples, 20, 5)
    L1 = spec.domain.u_max - spec.domain.u_min
    theta = np.zeros(spec.n_params)
    # axis 1 sites hold W(I1) = (mu/2)(I1 - 3); axis 2 contributes nothing
    theta[: spec.n1] = 0.5 * mu * (np.array(spec.sites1) * L1 + spec.domain.u_min - 3.0)
    state = ModelState(spec=spec, theta=theta)
    assert predict_stress(state, UT, 2.0) == pytest.approx(700.0, rel=1e-10)
    assert predict_stress(state, UT, 1.0) == 0.0
    i1, i2 = invariants(BT, 1.7)
    sc = stress_coefficients(BT, 1.7)
    assert predict_stress(state, BT, 1.7) == pytest.approx(
        sc.alpha * 0.5 * mu, rel=1e-9)


def test_energy_zero_at_undeformed_state(treloar, treloar_fit):
    for kind in KINDS:
        state = treloar_fit(kind).state
        assert energy(state, 3.0, 3.0) == pytest.approx(0.0, abs=1e-9)
        assert predict_stress(state, UT, 1.0) == 0.0


def test_energy_interpolates_surface_site_values():
    samples = _synthetic_samples()
    spec = default_spec(ModelKind.SURFACE, samples, 6, 5)
    rng = np.random.default_rng(43)
    theta = rng.uniform(0.0, 2.0, spec.n_params)
    theta[0] = 0.0
    state = ModelState(spec=spec, theta=theta)
    cfg = spec.domain
    for i, s1 in enumerate(spec.sites1):
        i1 = cfg.u_min + s1 * (cfg.u_max - cfg.u_min)
        for j, s2 in enumerate(spec.sites2):
            # invert the transformed-axis coordinate to a physical I2
            t = s2 * spec.i2_axis_max
            i2 = (t + 3.0 * math.sqrt(3.0)) ** (2.0 / 3.0)
            assert energy(state, i1, i2) == pytest.approx(
                theta[i * spec.n2 + j], rel=1e-9, abs=1e-9)


def test_separable_embeds_into_the_surface_kind():
    """An outer-sum of axis profiles is the same energy in surface form."""
    samples = _synthetic_samples()
    sep = default_spec(ModelKind.SEPARABLE, samples, 7, 5)
    surf = default_spec(ModelKind.SURFACE, samples, 7, 5)
    rng = np.random.default_rng(51)
    w1 = rng.uniform(0.0, 3.0, 7)
    w2 = rng.uniform(0.0, 3.0, 5)
    w1[0] = 0.0
    w2[0] = 0.0
    theta_sep = np.concatenate([w1, w2])
    theta_surf = np.add.outer(w1, w2).ravel()
    s_sep = ModelState(spec=sep, theta=theta_sep)
    s_surf = ModelState(spec=surf, theta=theta_surf)
    for mode in (UT, BT, PS):
        for lam in (1.1, 1.6, 2.2, 2.9):
            a = predict_stress(s_sep, mode, lam)
            b = predict_stress(s_surf, mode, lam)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


def test_prediction_clamps_and_flags_extrapolation(treloar_fit):
    state = treloar_fit(ModelKind.MAPPED_SURFACE).state
    inside, flag_in = predict_stress_clamped(state, UT, 2.0)
    assert not flag_in
    assert inside == predict_stress(state, UT, 2.0)
    outside, flag_out = predict_stress_clamped(state, UT, 9.5)
    assert flag_out
    assert np.isfinite(outside)
    with pytest.raises(ValueError):
        predict_stress(state, UT, 9.5)
    # the undeformed state never extrapolates
    assert predict_stress_clamped(state, PS, 1.0) == (0.0, False)


def test_model_state_validation():
    samples = _synthetic_samples()
    spec = default_spec(ModelKind.SEPARABLE, samples, 5, 4)
    with pytest.raises(ValueError):
        ModelState(spec=spec, theta=np.zeros(3))
    theta = np.zeros(spec.n_params)
    theta[0] = 0.5  # pinned entry must stay zero
    with pytest.raises(ValueError):
        ModelState(spec=spec, theta=theta)


def test_activation_reference_values():
    report = activation(np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]))
    np.testing.assert_allclose(report.norms, [3.0, 4.0])
    np.testing.assert_allclose(report.relative, [0.75, 1.0])
    assert report.log10_relative[0] == pytest.approx(math.log10(0.75))
    # a zero column floors at -16
    report2 = activation(np.array([[1.0, 0.0]]))
    assert report2.log10_relative[1] == -16.0


def test_activation_scale_invariance():
    rng = np.random.default_rng(59)
    A = rng.normal(size=(10, 4))
    a = activation(A)
    b = activation(1e6 * A)
    np.testing.assert_allclose(a.relative, b.relative, rtol=1e-12)
    np.testing.assert_allclose(a.log10_relative, b.log10_relative, atol=1e-12)


def test_metrics_combined_norm():
    """Per-mode MSEs of 3, 4 and 0 combine to 5."""
    samples = _synthetic_samples(lam_max=2.0, n=4)
    spec = default_spec(ModelKind.SEPARABLE, samples, 5, 4)
    state = ModelState(spec=spec, theta=np.zeros(spec.n_params))
    data = ([Sample(UT, 1.2, math.sqrt(3.0))] * 2
            + [Sample(BT, 1.2, 2.0)] * 2 + [Sample(PS, 1.2, 0.0)])
    fit = metrics(state, data)
    assert fit.mse[UT] == pytest.approx(3.0, rel=1e-12)
    assert fit.mse[BT] == pytest.approx(4.0, rel=1e-12)
    assert fit.mse[PS] == pytest.approx(0.0, abs=1e-15)
    assert fit.mse_combined == pytest.approx(5.0, rel=1e-12)


def test_metrics_r2_rules():
    samples = _synthetic_samples(lam_max=2.0, n=4)
    spec = default_spec(ModelKind.SEPARABLE, samples, 5, 4)
    state = ModelState(spec=spec, theta=np.zeros(spec.n_params))
    # single sample: MSE reported, R^2 absent
    fit = metrics(state, [Sample(UT, 1.3, 7.0)])
    assert UT in fit.mse and UT not in fit.r2
    # two identical stresses: zero variance, R^2 absent again
    fit = metrics(state, [Sample(UT, 1.2, 5.0), Sample(UT, 1.4, 5.0)])
    assert UT not in fit.r2
    # varying data against the zero model: R^2 <= 0
    fit = metrics(state, [Sample(UT, 1.2, 1.0), Sample(UT, 1.4, 3.0)])
    assert fit.r2[UT] <= 0.0


def test_metrics_perfect_fit(treloar_fit):
    """Scoring a model against its own predictions gives R^2 = 1, MSE = 0."""
    state = treloar_fit(ModelKind.SEPARABLE).state
    fake = [Sample(UT, lam, predict_stress(state, UT, lam))
            for lam in (1.2, 1.9, 3.1, 5.0)]
    fit = metrics(state, fake)
    assert fit.mse[UT] == pytest.approx(0.0, abs=1e-18)
    assert fit.r2[UT] == pytest.approx(1.0, abs=1e-12)


def _mp_mapped_stress(state, mode, lam, mp):
    """Stress of a mapped model with the invariants, the map and its
    Jacobian in 50-digit arithmetic; the spline gradient is the model's own,
    at the rounded (xi, eta)."""
    cfg = state.spec.domain
    assert cfg.use_polyconvex
    x = mp.mpf(lam)
    if mode is UT:
        i1, i2 = x * x + 2 / x, 1 / (x * x) + 2 * x
        alpha, beta = 2 * (x - x ** -2), 2 * (1 - x ** -3)
    elif mode is BT:
        i1, i2 = 2 * x * x + x ** -4, 2 / (x * x) + x ** 4
        alpha, beta = 2 * (x - x ** -5), 2 * (x ** 3 - x ** -3)
    else:
        i1 = i2 = x * x + 1 + 1 / (x * x)
        alpha = beta = 2 * (x - x ** -3)

    def stretch(start):  # boundary stretch: (s - 1)^2 (s + 2) = (I1 - 3) s
        return mp.findroot(lambda s: (s - 1) ** 2 * (s + 2) - (i1 - 3) * s, start)

    lo, hi = stretch(1 + mp.sqrt(i1 - 3)), stretch(1 - mp.sqrt((i1 - 3) / 3))
    curve = lambda s: 2 * s + 1 / (s * s)  # noqa: E731  (I2 on the uniaxial curve)
    T = lambda v: v ** mp.mpf(1.5) - 3 * mp.sqrt(3)  # noqa: E731
    Tp = lambda v: mp.mpf(1.5) * mp.sqrt(v)  # noqa: E731
    t_lo, t_hi = T(curve(lo)), T(curve(hi))
    d_lo, d_hi = Tp(curve(lo)) / lo, Tp(curve(hi)) / hi
    gap = t_hi - t_lo
    eff = mp.sqrt(gap * gap + mp.mpf(cfg.delta) ** 2)
    deff = gap * (d_hi - d_lo) / eff
    xi = (i1 - cfg.u_min) / (mp.mpf(cfg.u_max) - cfg.u_min)
    eta = (T(i2) - t_lo) / eff
    deta_di1 = (-d_lo * eff - (T(i2) - t_lo) * deff) / (eff * eff)
    wx, wy = _energy_splines(state).gradient(float(xi), float(eta))
    dw1 = wx / (mp.mpf(cfg.u_max) - cfg.u_min) + deta_di1 * wy
    dw2 = Tp(i2) / eff * wy
    return alpha * dw1 + beta * dw2


@pytest.mark.parametrize("mode, lam", [(BT, 1.0099), (BT, 1.00925), (BT, 1.003),
                                       (PS, 1.005), (UT, 1.01)])
def test_mapped_near_apex_stress_matches_a_50_digit_map(mode, lam):
    """Near the apex, where the band is thinnest, both prediction paths
    keep nine digits of the stress the fitted spline defines."""
    mp = pytest.importorskip("mpmath").mp
    state, _ = load_model(FIXTURES / "mapped.json")
    with mp.workdps(50):
        ref = _mp_mapped_stress(state, mode, lam, mp)
        for got in (predict_stress(state, mode, lam),
                    predict_stress_clamped(state, mode, lam)[0]):
            assert abs((got - ref) / ref) <= 1e-9
