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
    run_ergodicity_battery,
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


def test_exp_integrability_verdict_and_csv_share_one_rule(tmp_path):
    # verdict and CSV pass column both test mean <= bound + 2se, and the
    # margin is min(bound + 2se - mean) in the statistic's own units.  At
    # t = 0.05 the samples give mean = 1.5 b and 2se = 0.548 b (b < mean <=
    # b + 2se, where the rules used to disagree); at t = 0.1 mean > b + 2se
    import see_lab.ergodicity as erg
    from see_lab.ergodicity import write_series_csv

    model = benchmark_model()
    plan = _plan(n_paths=4, grid=(0.05, 0.1))
    delta = 0.25
    b = erg.exp_integrability_bound(model, delta, plan.t_grid)
    z = np.stack([b[0] * np.array([0.9, 1.2, 1.8, 2.1]),
                  b[1] * np.array([1.9, 2.0, 2.1, 2.0])], axis=1)
    vals = {"vint": np.log(z)[None] / (4.0 * delta)}
    series, bound, verdict = erg._exp_integrability(model, delta, plan, vals)
    slack = bound + 2.0 * series.stderr - series.mean
    assert series.mean[0] > bound[0] and slack[0] >= 0.0 and slack[1] < 0.0
    write_series_csv(tmp_path / "exp.csv", series, bound)
    rows = (tmp_path / "exp.csv").read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["true", "false"]
    assert not verdict.passed
    assert verdict.margin == float(slack.min())
    assert verdict.detail.startswith("E[exp(4d*int ||X||^2)] <= bound + 2se")


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


@pytest.mark.parametrize("n_chains", [1, 3])
@pytest.mark.parametrize("name", ["benchmark", "boundary_active", "nse_kappa2"])
def test_occupation_chain_equals_one_chain_run(name, n_chains):
    # chain r of an R-chain run is path index r of a one-path run, bit for
    # bit, and the chains' snapshots are stacked chain-major
    from see_lab.coefficients import boundary_active_model
    from see_lab.dynamics import simulate_path
    from see_lab.nse import build_nse_model

    if name == "nse_kappa2":
        model = build_nse_model(kappa=2, gamma=0.25, sigma0=0.2).spec
    else:
        model = benchmark_model() if name == "benchmark" else boundary_active_model()
    x = _e(model.dim, 0, 1.0 if name == "boundary_active" else 0.6)
    cfg = StepperConfig(dt=1e-3)
    burn, thin, n_snaps = 30, 20, 6
    occ = occupation_sampler(model, x, t_burn=0.03, t_avg=0.1, thin=thin, cfg=cfg, seed=41,
                             n_chains=n_chains)
    assert occ.n_chains == n_chains
    assert occ.states.shape == (n_chains * n_snaps, model.dim)
    lam = model.basis.eigenvalues
    vsq_avg = []
    for r in range(n_chains):
        path = simulate_path(model, x, 0.13, cfg, seed=41, path_index=r)
        chain = occ.states[r * n_snaps:(r + 1) * n_snaps]
        assert np.array_equal(chain, path.states[burn::thin])
        vsq = (lam * path.states[burn:] * path.states[burn:]).sum(axis=1)
        vsq_avg.append(0.5 * cfg.dt * (vsq[:-1] + vsq[1:]).sum() / 0.1)
    assert occ.vsq_time_average == pytest.approx(np.mean(vsq_avg), rel=1e-12)


def test_occupation_between_chain_se():
    # one batch per chain: the spread of the R chain means over sqrt(R)
    model = benchmark_model()
    occ = occupation_sampler(model, np.zeros(model.dim), 0.05, 0.2, 20,
                             StepperConfig(dt=1e-3), 8, n_chains=5)
    chains = occ.states.reshape(5, -1, model.dim)
    for se, vals in ((occ.se_mean, chains), (occ.se_second, chains * chains)):
        means = vals.mean(axis=1)
        assert np.allclose(se, means.std(axis=0, ddof=1) / np.sqrt(5), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n_chains", [0, -1, 2.5])
def test_occupation_rejects_bad_chain_count(n_chains):
    model = _linear_model()
    with pytest.raises(ValidationError, match="n_chains"):
        occupation_sampler(model, np.zeros(4), 0.1, 0.1, 10, StepperConfig(dt=1e-3), 3,
                           n_chains=n_chains)


def test_occupation_rejects_empty_averaging_window():
    with pytest.raises(ValidationError, match="t_avg"):
        occupation_sampler(_linear_model(), np.zeros(4), 0.1, 0.0, 10,
                           StepperConfig(dt=1e-3), 3)


def test_split_rhat_near_one_on_ou():
    # 1-mode OU at λ = 4: X² relaxes in 1/8, far below the snapshot spacing
    # of 0.1, so 8 chains of T = 10 after burn-in agree
    s_amp = 0.05
    model = build_model(
        basis=quadratic_basis(1, 4.0), drift=linear_decay_drift(0.0), bilinear=zero_form(),
        noise=diag_affine_noise(np.array([s_amp]), c_min=s_amp / 2),
        lipschitz_c1=0.1, coupling_n=0,
    )
    occ = occupation_sampler(model, np.zeros(1), 1.0, 10.0, 100, StepperConfig(dt=1e-3), 5,
                             n_chains=8)
    assert 0.9 <= occ.rhat[0] <= 1.1


def test_split_rhat_flags_unburnt_slow_decay():
    # λ₁ = 0.1 and no burn-in: X_1² still decays from 0.81 over each chain,
    # so the chains' first and last halves disagree
    m = 4
    model = build_model(
        basis=quadratic_basis(m, 0.1), drift=linear_decay_drift(0.0), bilinear=zero_form(),
        noise=diag_affine_noise(np.full(m, 0.05), c_min=0.05), lipschitz_c1=0.0, coupling_n=2,
    )
    occ = occupation_sampler(model, _e(m, 0, 0.9), 0.0, 2.0, 100, StepperConfig(dt=1e-3), 3,
                             n_chains=4)
    assert occ.rhat[0] > 1.1


def test_split_rhat_nan_on_constant_chains():
    occ = occupation_sampler(_linear_model(), np.zeros(4), 0.1, 1.0, 100,
                             StepperConfig(dt=1e-3), 5, n_chains=3)
    assert np.all(occ.states == 0.0)
    assert np.all(np.isnan(occ.rhat))
    # halves of one draw have no within-half variance
    occ = occupation_sampler(benchmark_model(), np.zeros(16), 0.0, 0.02, 10,
                             StepperConfig(dt=1e-3), 5, n_chains=3)
    assert occ.states.shape == (9, 16)
    assert np.all(np.isnan(occ.rhat))


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


def test_invariance_between_chain_se(monkeypatch):
    # with R > 1 chains the paired differences φ(T_Δ X) − φ(X) get one
    # batch per chain
    import see_lab.ergodicity as erg

    model = benchmark_model()
    occ = occupation_sampler(model, np.zeros(model.dim), 0.2, 0.4, 100,
                             StepperConfig(dt=1e-3), 9, n_chains=6)
    finals = []
    inner = erg.run_paths

    def kept(*args, **kwargs):
        out = inner(*args, **kwargs)
        finals.append(out[0])
        return out

    monkeypatch.setattr(erg, "run_paths", kept)
    verdict, rows = invariance_residual(model, occ, 0.05, 4, _plan(n_paths=2))
    for (name, resid, se, ok), (_, fn) in zip(rows, bounded_test_functions(model.dim, 4)):
        diff = fn(finals[0]) - fn(occ.states)
        chain_means = diff.reshape(6, -1).mean(axis=1)
        assert se == pytest.approx(chain_means.std(ddof=1) / np.sqrt(6), rel=1e-12)
        assert resid == pytest.approx(abs(diff.mean()), rel=1e-12)
        assert ok == (resid <= 3.0 * se + 1e-12)


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


_BAD_START_CALLS = {
    "weighted_contraction_x": lambda m, p, ok, bad: weighted_contraction_estimate(m, bad, ok, p),
    "weighted_contraction_y": lambda m, p, ok, bad: weighted_contraction_estimate(m, ok, bad, p),
    "fourth_moment_x": lambda m, p, ok, bad: fourth_moment_estimate(m, bad, ok, p),
    "fourth_moment_y": lambda m, p, ok, bad: fourth_moment_estimate(m, ok, bad, p),
    "feller_modulus_x": lambda m, p, ok, bad: feller_modulus_estimate(m, bad, ok, p),
    "feller_modulus_y": lambda m, p, ok, bad: feller_modulus_estimate(m, ok, bad, p),
    "coupled_distance_x": lambda m, p, ok, bad: coupled_distance_series(
        m, bad, ok, p, DistanceParams(1.0, 0.5)),
    "coupled_distance_y": lambda m, p, ok, bad: coupled_distance_series(
        m, ok, bad, p, DistanceParams(1.0, 0.5)),
    "wasserstein_upper_x": lambda m, p, ok, bad: wasserstein_upper(
        m, bad, ok, 0.01, p, DistanceParams(1.0, 0.5)),
    "wasserstein_upper_y": lambda m, p, ok, bad: wasserstein_upper(
        m, ok, bad, 0.01, p, DistanceParams(1.0, 0.5)),
    "exp_integrability": lambda m, p, ok, bad: exp_integrability_estimate(m, bad, 0.01, p),
    "lyapunov": lambda m, p, ok, bad: lyapunov_check(m, bad, p),
    "battery_x": lambda m, p, ok, bad: run_ergodicity_battery(m, p, x=bad, occupation=False),
    "battery_y": lambda m, p, ok, bad: run_ergodicity_battery(m, p, y=bad, occupation=False),
}


def _start_label(name):
    # the error names a Y start (and Feller's v', the start of a Y system) y0
    return "y0" if name.endswith("_y") else "x0"


@pytest.mark.parametrize("name", sorted(_BAD_START_CALLS))
def test_estimators_reject_starts_outside_the_ball(name):
    # the start rule of simulate_path, |x|_H <= 1 + TOL_BALL, holds for every
    # X start and Y start; lyapunov_check's bound grows with |x|² and used to
    # pass from 3e_1
    model = benchmark_model()
    plan = _plan(n_paths=4, grid=(0.01,))
    with pytest.raises(ValidationError, match=f"{_start_label(name)} lies outside the closed unit ball"):
        _quiet(_BAD_START_CALLS[name], model, plan, _e(model.dim, 0, 0.5),
               _e(model.dim, 0, 3.0))


@pytest.mark.parametrize("name", sorted(_BAD_START_CALLS))
def test_estimators_reject_starts_of_the_wrong_length(name):
    # every start row is checked before the pair estimators broadcast x
    # against y, so a short start is a ValidationError, not numpy's
    # shape-mismatch ValueError
    model = benchmark_model()
    plan = _plan(n_paths=4, grid=(0.01,))
    with pytest.raises(ValidationError, match=f"{_start_label(name)} length .* model dim"):
        _quiet(_BAD_START_CALLS[name], model, plan, _e(model.dim, 0, 0.5),
               np.zeros(model.dim - 1))


# battery -------------------------------------------------------------------


def test_battery_steps_each_start_pair_once(monkeypatch):
    # 6 runs: one run from x with four Y systems (the steered y and Feller's
    # three synchronous scales) for six estimators, Lyapunov, contraction,
    # d-smallness, the occupation chains and the invariance restarts.  Only
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
    assert len(calls) == 6
    from_x = [c for c in calls if c[1] is not None and np.all(c[0] == x)]
    assert len(from_x) == 1
    _, y0, correction = from_x[0]
    assert y0.shape == (4, plan.n_paths, model.dim)
    starts = [y] + [x + s * (y - x) for s in (1.0, 0.1, 0.01)]
    assert all(np.all(rows == start) for rows, start in zip(y0, starts))
    assert tuple(correction) == (True, False, False, False)


def test_battery_exp_integrability_reads_the_run_from_x():
    # the battery's exp-integrability series is exp(4δ ∫‖X‖²_V) of the X rows
    # of its run from x, bit for bit: X stepped alone under the same tag
    import see_lab.ergodicity as erg
    from see_lab.coupling import select_delta

    model = benchmark_model()
    plan = _plan(n_paths=8)
    _, series = _quiet(erg.run_ergodicity_battery, model, plan, occupation=False)
    vsq = erg._SqNormIntegral(model.basis.eigenvalues)
    vals = erg._run_captured(model, plan, _e(model.dim, 0, 0.5), "steered_pair",
                             {"vint": lambda rt: vsq.trapz}, integrals=[vsq])
    delta = select_delta(model)[0]
    alone = erg._series_from_values(plan.t_grid, np.exp(4.0 * delta * vals["vint"][0]))
    got, bound = series["exp_integrability"]
    assert np.array_equal(got.mean, alone.mean)
    assert np.array_equal(got.stderr, alone.stderr)
    assert np.array_equal(bound, erg.exp_integrability_bound(model, delta, plan.t_grid))


@pytest.mark.parametrize("contracts", [True, False])
def test_battery_d_small_at_contraction_time(monkeypatch, contracts):
    # d-smallness is checked at the t0 that contraction found (both must hold
    # at one time), and at the last grid time when contraction fails
    import see_lab.ergodicity as erg
    from see_lab.coupling import select_delta

    model = benchmark_model()
    plan = MonteCarloPlan(4, np.array([0.02, 0.04, 0.06]), 7, StepperConfig(dt=1e-2))
    dist = DistanceParams(n_tilde=1.0, delta=select_delta(model)[0])
    _, t0, alpha = erg.contraction_check(model, plan, dist)
    assert t0 is not None and t0 < plan.t_grid[-1]
    if not contracts:
        failed = erg.Verdict(name="contraction", passed=False, margin=-0.1, detail="forced")
        monkeypatch.setattr(erg, "contraction_check", lambda *a, **k: (failed, None, alpha))
        t0 = float(plan.t_grid[-1])
    report, _ = _quiet(erg.run_ergodicity_battery, model, plan, occupation=False)
    (battery,) = [v for v in report.verdicts if v.name == "d_small"]
    alone, _ = erg.d_small_check(model, plan, dist, m_level=1.0, t=t0)
    assert (battery.name, battery.passed, battery.margin, battery.detail) == (
        alone.name, alone.passed, alone.margin, alone.detail)


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
    assert "battery_version = 6\n" in summary


def test_battery_summary_reports_occupation_chains(tmp_path):
    from see_lab.ergodicity import run_ergodicity_battery, save_battery_outputs

    plan = MonteCarloPlan(4, np.array([0.01, 0.02, 0.03]), 5, StepperConfig(dt=1e-3))
    report, series = _quiet(run_ergodicity_battery, benchmark_model(), plan)
    save_battery_outputs(tmp_path, report, series)
    lines = [ln for ln in (tmp_path / "summary.txt").read_text().splitlines()
             if ln.startswith("occupation:")]
    assert len(lines) == 1
    assert lines[0].startswith("occupation: n_chains=20, snapshots=120, max split-R-hat=")
    float(lines[0].rsplit("=", 1)[1])
