import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from see_lab.coefficients import (
    benchmark_model,
    build_model,
    diag_affine_noise,
    linear_decay_drift,
    zero_form,
)
from see_lab.coupling import DistanceParams, d_distance
from see_lab.dynamics import StepperConfig
from see_lab.ergodicity import (
    EstimateSeries,
    MonteCarloPlan,
    batch_means_se,
    bounded_test_functions,
    contraction_check,
    coupled_distance_series,
    d_small_check,
    exp_integrability_estimate,
    feller_modulus_estimate,
    fit_exponential_rate,
    fourth_moment_estimate,
    invariance_residual,
    lyapunov_check,
    occupation_sampler,
    wasserstein_upper,
    weighted_contraction_estimate,
)
from see_lab.errors import ValidationError
from see_lab.spectral import quadratic_basis


def _quiet(fn, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kw)


def _linear_model(m=4, n=2, s_level=0.0, rate=0.0, c1=0.0):
    basis = quadratic_basis(m)
    return build_model(
        basis=basis,
        drift=linear_decay_drift(rate),
        bilinear=zero_form(),
        noise=diag_affine_noise(np.full(m, s_level), c_min=s_level),
        lipschitz_c1=c1,
        coupling_n=n,
    )


def _plan(n_paths=16, grid=(0.05, 0.1, 0.2), seed=101):
    return MonteCarloPlan(n_paths=n_paths, t_grid=np.asarray(grid), base_seed=seed,
                          cfg=StepperConfig(dt=1e-3))


def _e(m, i, val=1.0):
    v = np.zeros(m)
    v[i] = val
    return v


# weighted contraction ---------------------------------------------------


def test_weighted_contraction_identical_starts():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.4)
    series, bound, verdict = weighted_contraction_estimate(model, x, x, _plan())
    assert np.all(series.mean == 0.0)
    assert verdict.passed


def test_weighted_contraction_zero_time_exact():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.5)
    y = _e(model.dim, 0, -0.5)
    plan = MonteCarloPlan(4, np.array([0.0, 0.1]), 7, StepperConfig(dt=1e-3))
    series, bound, verdict = weighted_contraction_estimate(model, x, y, plan)
    assert series.mean[0] == 1.0  # |x-y|^2 with weight 1
    assert series.stderr[0] == 0.0
    assert verdict.passed


def test_weighted_contraction_noise_free_closed_form():
    # noise-free linear model: per-mode closed-form recursion for the gap
    # and an explicit weight from the deterministic X trajectory
    m, n = 4, 2
    model = _linear_model(m=m, n=n)
    dt = 1e-3
    lam = model.basis.eigenvalues
    x = _e(m, 0, 0.5)
    y = _e(m, 0, -0.5)
    plan = MonteCarloPlan(2, np.array([0.1, 0.2]), 11, StepperConfig(dt=dt))
    series, bound, verdict = _quiet(weighted_contraction_estimate, model, x, y, plan)

    # oracle: iterate the deterministic recursions
    xs = x.copy()
    gap = (x - y).copy()
    factor_gap = (1.0 - 0.5 * dt * lam[n] * (np.arange(m) < n)) / (1.0 + dt * lam)
    factor_x = 1.0 / (1.0 + dt * lam)
    vsq_prev = float((lam * xs * xs).sum())
    trapz = 0.0
    expected = {}
    for k in range(200):
        xs = xs * factor_x
        gap = gap * factor_gap
        vsq = float((lam * xs * xs).sum())
        trapz += 0.5 * dt * (vsq_prev + vsq)
        vsq_prev = vsq
        if k + 1 in (100, 200):
            expected[(k + 1) * dt] = np.exp(-4.0 * trapz) * float((gap * gap).sum())
    assert series.mean[0] == pytest.approx(expected[0.1], rel=1e-12)
    assert series.mean[1] == pytest.approx(expected[0.2], rel=1e-12)


def test_weighted_contraction_benchmark_slope():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.5)
    y = _e(model.dim, 0, -0.5)
    plan = MonteCarloPlan(200, np.arange(1, 6) * 0.1, 404, StepperConfig(dt=1e-3))
    series, bound, verdict = weighted_contraction_estimate(model, x, y, plan)
    assert verdict.passed
    fit = fit_exponential_rate(series)
    lam_next = model.basis.eigenvalues[model.coupling_n]
    target = 4.0 * model.lipschitz_c1 - 0.75 * lam_next
    assert -fit.rate <= target + 0.2 * abs(target)
    assert fit.r_squared >= 0.9


# fourth moment ----------------------------------------------------------


def test_fourth_moment_identical_starts():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.4)
    series, ratio, verdict = fourth_moment_estimate(model, x, x, _plan())
    assert np.all(series.mean == 0.0)


def test_fourth_moment_quartic_scaling():
    # halving |x-y| (same x, so the weight path is unchanged) scales the
    # series by 1/16 exactly in the linear model
    model = _linear_model(s_level=0.01)
    plan = _plan(n_paths=8)
    x = _e(4, 0, 0.4)
    y1, y2 = _e(4, 0, -0.4), _e(4, 0, 0.0)
    s1, _, _ = _quiet(fourth_moment_estimate, model, x, y1, plan)
    s2, _, _ = _quiet(fourth_moment_estimate, model, x, y2, plan)
    assert np.allclose(s1.mean, 16.0 * s2.mean, rtol=1e-9)


def test_fourth_moment_noise_free_closed_form():
    m, n = 4, 2
    model = _linear_model(m=m, n=n)
    dt = 1e-3
    lam = model.basis.eigenvalues
    x, y = _e(m, 0, 0.3), _e(m, 0, -0.3)
    plan = MonteCarloPlan(2, np.array([0.1]), 13, StepperConfig(dt=dt))
    series, ratio, verdict = _quiet(fourth_moment_estimate, model, x, y, plan)
    xs = x.copy()
    gap = (x - y).copy()
    factor_gap = (1.0 - 0.5 * dt * lam[n] * (np.arange(m) < n)) / (1.0 + dt * lam)
    factor_x = 1.0 / (1.0 + dt * lam)
    vsq_prev = float((lam * xs * xs).sum())
    trapz = 0.0
    for k in range(100):
        xs = xs * factor_x
        gap = gap * factor_gap
        vsq = float((lam * xs * xs).sum())
        trapz += 0.5 * dt * (vsq_prev + vsq)
        vsq_prev = vsq
    oracle = np.exp(-8.0 * trapz) * float((gap * gap).sum()) ** 2
    assert series.mean[0] == pytest.approx(oracle, rel=1e-12)
    assert verdict.passed


# exponential integrability ----------------------------------------------


def test_exp_integrability_zero_model():
    model = _linear_model()
    plan = _plan(n_paths=4)
    series, bound, verdict = exp_integrability_estimate(model, np.zeros(4), 0.3, plan)
    assert np.all(series.mean == 1.0)  # X stays at 0
    assert verdict.passed


def test_exp_integrability_small_delta_limit():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.5)
    plan = _plan(n_paths=8)
    series, bound, verdict = exp_integrability_estimate(model, x, 1e-6, plan)
    assert np.all(np.abs(series.mean - 1.0) < 1e-3)
    assert np.all(bound >= 1.0)
    assert verdict.passed


def test_exp_integrability_benchmark_below_bound():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.5)
    plan = MonteCarloPlan(200, np.array([0.25, 0.5, 1.0]), 15, StepperConfig(dt=1e-3))
    series, bound, verdict = exp_integrability_estimate(model, x, 0.25, plan)
    assert verdict.passed
    assert np.all(series.mean <= bound)


def test_exp_integrability_rejects_bad_delta():
    with pytest.raises(ValidationError):
        exp_integrability_estimate(benchmark_model(), np.zeros(16), 1.5, _plan())


# lyapunov ---------------------------------------------------------------


def test_lyapunov_noise_free_decay():
    # zero coefficients: E|X(t)|^2 = e^{-2 lambda_1 t}|x|^2 satisfies the
    # drift inequality with K = 0
    model = _linear_model()
    x = _e(4, 0, 1.0)
    series, verdict, consts = _quiet(lyapunov_check, model, x, _plan(n_paths=2))
    assert consts["K"] == 0.0
    assert verdict.passed


def test_lyapunov_zero_start_zero_model():
    model = _linear_model()
    series, verdict, _ = _quiet(lyapunov_check, model, np.zeros(4), _plan(n_paths=2))
    assert np.all(series.mean == 0.0)
    assert verdict.passed


def test_lyapunov_benchmark():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.9)
    plan = MonteCarloPlan(300, np.array([0.25, 0.5, 1.0]), 17, StepperConfig(dt=1e-3))
    series, verdict, consts = lyapunov_check(model, x, plan)
    assert verdict.passed
    assert consts["gamma"] == model.basis.eigenvalues[0]
    expected_k = 2.0 * (model.f0_vstar**2 + model.sigma0_hs**2 + 2 * model.lipschitz_c1)
    assert consts["K"] == pytest.approx(expected_k, rel=1e-12)


# feller modulus ---------------------------------------------------------


def test_feller_zero_gap():
    # same start: zero modulus at every scale, degenerate pass
    model = benchmark_model()
    v = _e(model.dim, 0, 0.3)
    ratios, verdict = feller_modulus_estimate(model, v, v, _plan(n_paths=4))
    assert all(r == 0.0 for r in ratios)
    assert verdict.passed


def test_feller_quadratic_scaling():
    model = benchmark_model()
    v = _e(model.dim, 0, 0.2)
    vp = _e(model.dim, 0, 0.4)
    plan = MonteCarloPlan(64, np.array([0.1, 0.2]), 19, StepperConfig(dt=1e-3))
    ratios, verdict = feller_modulus_estimate(model, v, vp, plan)
    assert verdict.passed
    assert max(ratios) / min(ratios) <= 4.0


def test_feller_noise_free_exact_ratio():
    # noise-free uncorrected pair: sup_s h(s)|X-X'|^2 / |v-v'|^2 is the same
    # for every scale (linear dynamics), so ratios are equal
    model = _linear_model()
    v = _e(4, 0, 0.2)
    vp = _e(4, 0, 0.5)
    ratios, verdict = _quiet(feller_modulus_estimate, model, v, vp, _plan(n_paths=2))
    assert verdict.passed
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)
    assert ratios[0] <= 1.0 + 1e-12  # decaying gap, weight <= 1: sup at s=0


# wasserstein upper ------------------------------------------------------


def test_wasserstein_upper_zero_at_diagonal():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.4)
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    mean, se = wasserstein_upper(model, x, x, 0.1, _plan(n_paths=4), p)
    assert mean == 0.0


def test_wasserstein_upper_t_zero_exact():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.5)
    y = _e(model.dim, 0, -0.5)
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    mean, se = wasserstein_upper(model, x, y, 0.0, _plan(n_paths=4), p)
    assert mean == d_distance(x, y, p)
    assert se == 0.0


def test_wasserstein_upper_noise_free_formula():
    m, n = 4, 2
    model = _linear_model(m=m, n=n)
    dt = 1e-3
    lam = model.basis.eigenvalues
    x, y = _e(m, 0, 0.4), _e(m, 0, -0.4)
    p = DistanceParams(n_tilde=1.0, delta=0.5)
    mean, _ = _quiet(wasserstein_upper, model, x, y, 0.1, _plan(n_paths=2), p)
    factor = (1.0 - 0.5 * dt * lam[n] * (np.arange(m) < n)) / (1.0 + dt * lam)
    gap = (x - y).copy()
    for _ in range(100):
        gap = gap * factor
    oracle = min(float(np.sqrt((gap * gap).sum())) ** p.exponent, 1.0)
    assert mean == pytest.approx(oracle, rel=1e-12)


# contraction and d-smallness --------------------------------------------


def test_contraction_check_benchmark():
    model = benchmark_model()
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    plan = MonteCarloPlan(32, np.array([0.25, 0.5, 1.0, 2.0]), 23, StepperConfig(dt=1e-3))
    verdict, t0, alpha = contraction_check(model, plan, p, n_pairs=6)
    assert verdict.passed
    assert t0 == 0.25
    assert alpha <= 2.0 / 3.0


def test_contraction_check_noise_free_analytic_t0():
    # deterministic contraction: the gap modes decay between
    # rate_min = lambda_1 + lambda_{N+1}/2 and rate_max = lambda_M, so the
    # selected t0 falls in the analytic bracket for log(3/2) decay of d
    m, n = 4, 2
    model = _linear_model(m=m, n=n)
    p = DistanceParams(n_tilde=1.0, delta=0.5)
    lam = model.basis.eigenvalues
    rate_min = (lam[0] + 0.5 * lam[n]) * p.exponent
    rate_max = max(lam[-1], lam[0] + 0.5 * lam[n]) * p.exponent
    t_lo, t_hi = np.log(1.5) / rate_max, np.log(1.5) / rate_min
    grid = np.array([0.01, 0.02, 0.05, 0.1, 0.12, 0.15, 0.2])
    plan = MonteCarloPlan(2, grid, 29, StepperConfig(dt=1e-3))
    verdict, t0, alpha = _quiet(contraction_check, model, plan, p, n_pairs=4)
    assert verdict.passed
    first_feasible = grid[np.searchsorted(grid, t_lo)]
    last_needed = grid[min(np.searchsorted(grid, t_hi), grid.size - 1)]
    assert first_feasible <= t0 <= last_needed


@pytest.mark.parametrize("grid,t0", [((0.1, 0.2, 0.3), 0.1), ((0.001, 0.002, 0.003), None)])
def test_contraction_check_stops_at_t0(monkeypatch, grid, t0):
    # stepping stops at the first grid time that contracts; with no such time
    # the whole grid runs.  `steps` gets the pair-steps P * n_steps of each call
    import see_lab.ergodicity as erg

    steps = []
    inner = erg.run_paths

    def counted(model, cfg, x0, n_steps, *args, **kwargs):
        steps.append(x0.shape[0] * n_steps)
        return inner(model, cfg, x0, n_steps, *args, **kwargs)

    monkeypatch.setattr(erg, "run_paths", counted)
    model = benchmark_model()
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    n_pairs, n_paths = 5, 4
    plan = MonteCarloPlan(n_paths, np.array(grid), 23, StepperConfig(dt=1e-3))
    verdict, found, _ = contraction_check(model, plan, p, n_pairs=n_pairs)
    assert found == t0 and verdict.passed == (t0 is not None)
    last = round((t0 if t0 is not None else grid[-1]) / 1e-3)
    assert sum(steps) == n_pairs * n_paths * last
    assert len(steps) == (1 if t0 == grid[0] else len(grid))


def test_d_small_degenerate_level_set():
    model = benchmark_model()
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    plan = MonteCarloPlan(4, np.array([0.1]), 31, StepperConfig(dt=1e-3))
    verdict, eps = d_small_check(model, plan, p, m_level=0.0, t=0.1, n_pairs=4)
    assert eps == 1.0 and verdict.passed


def test_d_small_no_evolution_fails():
    model = benchmark_model()
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    plan = MonteCarloPlan(4, np.array([0.1]), 33, StepperConfig(dt=1e-3))
    verdict, eps = d_small_check(model, plan, p, m_level=1.0, t=0.0, n_pairs=8)
    assert not verdict.passed  # distinct points at t=0 keep d close to its start


def test_d_small_long_horizon_strong_contraction():
    model = benchmark_model()
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    plan = MonteCarloPlan(32, np.array([2.0]), 35, StepperConfig(dt=1e-3))
    verdict, eps = d_small_check(model, plan, p, m_level=1.0, t=2.0, n_pairs=4)
    assert verdict.passed
    assert eps >= 0.9


# occupation measures ----------------------------------------------------


def test_occupation_deterministic_decay_concentrates():
    model = _linear_model()
    cfg = StepperConfig(dt=1e-3)
    occ = occupation_sampler(model, _e(4, 0, 1.0), t_burn=5.0, t_avg=1.0, thin=100,
                             cfg=cfg, seed=1)
    assert np.all(np.abs(occ.states) <= np.exp(-model.basis.eigenvalues[0] * 5.0) * 1.01)
    assert occ.vsq_time_average <= occ.vsq_bound + 1e-12 or occ.vsq_bound == 0.0


def test_occupation_ou_second_moment_vs_fine_reference():
    # 1-mode additive-noise model against an independent fine-step linear
    # recursion (scipy.signal.lfilter), 3 joint-stderr agreement
    s_amp = 0.05
    basis = quadratic_basis(1)
    model = build_model(
        basis=basis, drift=linear_decay_drift(0.0), bilinear=zero_form(),
        noise=diag_affine_noise(np.array([s_amp]), c_min=s_amp / 2),
        lipschitz_c1=0.1, coupling_n=0,
    )
    cfg = StepperConfig(dt=1e-3)
    occ = occupation_sampler(model, np.zeros(1), t_burn=5.0, t_avg=100.0, thin=500,
                             cfg=cfg, seed=99)
    dt_ref = cfg.dt / 8.0
    rng = np.random.default_rng(123456)
    n = int(105.0 / dt_ref)
    xi = rng.standard_normal(n) * np.sqrt(dt_ref) * s_amp
    a = 1.0 / (1.0 + dt_ref)
    xs = lfilter([a], [1.0, -a], xi)
    samples = xs[int(5.0 / dt_ref):: 4000] ** 2
    ref = float(samples.mean())
    ref_se = float(batch_means_se(samples)[0])
    joint = np.hypot(float(occ.se_second[0]), ref_se)
    assert abs(float(occ.second_moments[0]) - ref) <= 3.0 * joint
    # both near the stationary value s^2 / (2 lambda)
    assert abs(ref - s_amp**2 / 2.0) <= 3.0 * ref_se + 1e-4


def test_occupation_two_seeds_agree():
    model = benchmark_model()
    cfg = StepperConfig(dt=1e-3)
    kw = dict(t_burn=2.0, t_avg=40.0, thin=200, cfg=cfg)
    occ_a = occupation_sampler(model, np.zeros(model.dim), seed=11, **kw)
    occ_b = occupation_sampler(model, np.zeros(model.dim), seed=22, **kw)
    joint = np.hypot(occ_a.se_second, occ_b.se_second)
    assert np.all(np.abs(occ_a.second_moments - occ_b.second_moments) <= 3.0 * joint + 1e-12)


def test_occupation_weights_sum_to_one():
    model = _linear_model()
    occ = occupation_sampler(model, np.zeros(4), 0.1, 1.0, 50, StepperConfig(dt=1e-3), 3)
    assert occ.weights.sum() == pytest.approx(1.0, rel=1e-12)


# invariance -------------------------------------------------------------


def test_invariance_fixed_point_zero():
    # deterministic decay to 0 with f(0) = 0: occupation at delta_0, all
    # residuals vanish identically
    model = _linear_model()
    occ = occupation_sampler(model, np.zeros(4), 1.0, 1.0, 100, StepperConfig(dt=1e-3), 5)
    assert np.all(occ.states == 0.0)
    verdict, rows = invariance_residual(model, occ, 0.1, 5, _plan(n_paths=2))
    assert verdict.passed
    assert all(resid == 0.0 for _, resid, _, _ in rows)


def test_invariance_constant_function_zero_residual():
    fns = bounded_test_functions(4, 3)
    # the builder has no constant, but a constant observable is exactly
    # invariant: phi(X(t)) - phi(x) = 0 pathwise
    model = benchmark_model()
    occ = occupation_sampler(model, np.zeros(model.dim), 1.0, 10.0, 200,
                             StepperConfig(dt=1e-3), 7)
    const = np.ones(occ.states.shape[0])
    assert np.all(const - const == 0.0)
    verdict, rows = invariance_residual(model, occ, 0.25, 10, _plan(n_paths=2))
    assert len(rows) == 10


def test_invariance_ou_residuals():
    model = benchmark_model()
    occ = occupation_sampler(model, np.zeros(model.dim), 2.0, 60.0, 200,
                             StepperConfig(dt=1e-3), 9)
    verdict, rows = invariance_residual(model, occ, 0.25, 10, _plan(n_paths=2, seed=77))
    assert verdict.passed
    for _, resid, se, ok in rows:
        assert ok and resid <= 3.0 * se + 1e-12


# rate fitting -----------------------------------------------------------


def test_fit_exact_exponential():
    t = np.linspace(0.0, 2.0, 9)
    series = EstimateSeries(t, np.exp(-2.0 * t), np.zeros(9), np.full(9, 10))
    fit = fit_exponential_rate(series)
    assert fit.rate == pytest.approx(2.0, rel=1e-12)
    assert fit.prefactor == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_noisy_exponential_within_5pct():
    rng = np.random.default_rng(55)
    t = np.linspace(0.1, 2.0, 20)
    mean = 3.0 * np.exp(-1.7 * t) * (1.0 + 0.01 * rng.standard_normal(20))
    series = EstimateSeries(t, mean, np.zeros(20), np.full(20, 100))
    fit = fit_exponential_rate(series)
    assert fit.rate == pytest.approx(1.7, rel=0.05)


def test_fit_constant_series():
    t = np.linspace(0.0, 1.0, 5)
    series = EstimateSeries(t, np.full(5, 2.5), np.zeros(5), np.full(5, 4))
    fit = fit_exponential_rate(series)
    assert fit.rate == pytest.approx(0.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(2.5, rel=1e-12)


def test_fit_scale_equivariance():
    t = np.linspace(0.0, 1.0, 6)
    mean = np.exp(-0.8 * t) * 1.3
    base = fit_exponential_rate(EstimateSeries(t, mean, np.zeros(6), np.full(6, 4)))
    scaled = fit_exponential_rate(EstimateSeries(t, 5.0 * mean, np.zeros(6), np.full(6, 4)))
    assert scaled.rate == pytest.approx(base.rate, rel=1e-12)
    assert scaled.prefactor == pytest.approx(5.0 * base.prefactor, rel=1e-12)


def test_fit_drops_nonpositive_and_requires_three():
    t = np.array([0.0, 0.5, 1.0, 1.5])
    mean = np.array([1.0, 0.5, -1.0, 0.25])
    with pytest.warns(UserWarning):
        fit = fit_exponential_rate(EstimateSeries(t, mean, np.zeros(4), np.full(4, 2)))
    assert fit.n_used == 3
    with pytest.raises(ValidationError):
        with pytest.warns(UserWarning):
            fit_exponential_rate(
                EstimateSeries(t[:2], mean[:2] * 0.0, np.zeros(2), np.full(2, 2))
            )


def test_coupled_distance_series_deterministic():
    model = benchmark_model()
    x = _e(model.dim, 0, 0.5)
    y = _e(model.dim, 0, -0.5)
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    a = coupled_distance_series(model, x, y, _plan(), p)
    b = coupled_distance_series(model, x, y, _plan(), p)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_plan_model_mismatch_rejected():
    model_a = benchmark_model()
    model_b = _linear_model()
    plan = MonteCarloPlan(4, np.array([0.01]), 3, StepperConfig(dt=1e-3),
                          model_id=model_a.model_id)
    x = _e(model_b.dim, 0, 0.1)
    with pytest.raises(ValidationError, match="plan was built for model"):
        _quiet(lyapunov_check, model_b, x, plan)


def test_plan_with_matching_model_id_runs():
    model = benchmark_model()
    plan = MonteCarloPlan(4, np.array([0.01]), 3, StepperConfig(dt=1e-3),
                          model_id=model.model_id)
    series, verdict, _ = lyapunov_check(model, _e(model.dim, 0, 0.1), plan)
    assert verdict.passed


# battery -------------------------------------------------------------------


def test_battery_steps_each_start_pair_once(monkeypatch):
    # 8 runs: one steered pair from (x, y) for four estimators,
    # exp-integrability, Lyapunov, Feller's stacked scales, contraction,
    # d-smallness, the occupation chain and the invariance restarts.  Only
    # calls with step0 == 0 start a run: contraction_check resumes its run
    # once per further grid segment
    import see_lab.ergodicity as erg

    calls = []
    inner = erg.run_paths

    def counted(model, cfg, x0, n_steps, seed, path_indices, recorders=(), y0=None,
                correction=True, **kwargs):
        if kwargs.get("step0", 0) == 0:  # a run from a start state
            calls.append((x0.copy(), None if y0 is None else np.array(y0), correction))
        return inner(model, cfg, x0, n_steps, seed, path_indices, recorders, y0, correction,
                     **kwargs)

    monkeypatch.setattr(erg, "run_paths", counted)
    model = benchmark_model()
    plan = MonteCarloPlan(4, np.array([0.02, 0.04, 0.06]), 7, StepperConfig(dt=1e-2))
    x, y = _e(model.dim, 0, 0.5), _e(model.dim, 0, -0.5)
    _quiet(erg.run_ergodicity_battery, model, plan, x=x, y=y, occupation=True)
    assert len(calls) == 8
    steered = [
        c for c in calls
        if c[1] is not None and c[2] and np.all(c[0] == x) and np.all(c[1] == y)
    ]
    assert len(steered) == 1


def test_battery_shift_cost_nan_without_pseudo_inverse(tmp_path):
    # c_min = 0: σ has no pseudo-inverse on the coupled modes, so β and its
    # cost are undefined and the summary says nan rather than 0.0
    from see_lab.ergodicity import run_ergodicity_battery, save_battery_outputs

    m = 8
    model = build_model(
        basis=quadratic_basis(m, 4.0),
        drift=linear_decay_drift(0.3),
        bilinear=zero_form(),
        noise=diag_affine_noise(np.full(m, 0.05), c_min=0.0),
        lipschitz_c1=0.5,
        coupling_n=3,
    )
    assert model.noise.pseudo_inverse_floor(model.coupling_n) is None
    report, series = _quiet(run_ergodicity_battery, model, _plan(n_paths=4), occupation=False)
    assert np.isnan(report.shift_cost_mean)
    save_battery_outputs(tmp_path, report, series)
    summary = (tmp_path / "summary.txt").read_text()
    assert "girsanov shift cost (mean int ||beta||^2 dt) = nan\n" in summary
    assert "battery_version = 2\n" in summary
