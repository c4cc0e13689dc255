import numpy as np
import pytest

from see_lab.coefficients import (
    NoiseMap,
    affine_drift,
    benchmark_model,
    boundary_active_model,
    build_model,
    default_model,
    diag_affine_noise,
    linear_decay_drift,
    zero_form,
)
from see_lab.dynamics import (
    StepperConfig,
    discrete_obstacle_inequality,
    dump_path_csv,
    penalization_convergence_study,
    project_ball,
    simulate_path,
    step_penalized,
    step_projected,
)
from see_lab.errors import DivergedError, ValidationError
from see_lab.spectral import h_norm, h_norm_arr, quadratic_basis


def _noise_free_model(m=4, rate=0.0, scale=None):
    basis = quadratic_basis(m)
    drift = linear_decay_drift(rate) if scale is None else affine_drift(np.zeros(m), scale)
    c1 = min(max(abs(rate), abs(scale or 0.0)), 1e15) ** 2 + 1.0
    return build_model(
        basis=basis,
        drift=drift,
        bilinear=zero_form(),
        noise=diag_affine_noise(np.zeros(m), c_min=0.0),
        lipschitz_c1=c1,
        coupling_n=2,
    )


def _penalty_root(z, dtn):
    """Bisection oracle for the implicit radial equation x = z - dtn (x - Pi(x))."""
    if z <= 1.0:
        return z
    lo, hi = 1.0, z
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = mid + dtn * (mid - 1.0) - z  # increasing in mid for mid > 1
        if g > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# project_ball ----------------------------------------------------------


def test_project_ball_interior_unchanged():
    b = quadratic_basis(3)
    v = b.vector([0.3, 0.4, 0.0])
    assert project_ball(v) is v


def test_project_ball_zero():
    b = quadratic_basis(3)
    assert np.array_equal(project_ball(b.vector(np.zeros(3))).coeffs, np.zeros(3))


def test_project_ball_radial():
    b = quadratic_basis(3)
    out = project_ball(b.vector([2.0, 0.0, 0.0]))
    assert np.array_equal(out.coeffs, [1.0, 0.0, 0.0])


def test_project_ball_never_leaves_ball():
    # a plain division by |y|_H can round to a norm just above 1
    rng = np.random.default_rng(0)
    for m in (3, 8, 16, 48):
        b = quadratic_basis(m)
        ys = rng.standard_normal((5000, m))
        ys *= rng.uniform(1.0, 50.0, (5000, 1)) / h_norm_arr(ys)[:, None]
        ys = ys[h_norm_arr(ys) > 1.0]
        norms = np.array([h_norm(project_ball(b.vector(y))) for y in ys])
        assert np.all(norms <= 1.0), (m, int((norms > 1.0).sum()))


# single steps ----------------------------------------------------------


def test_step_projected_linear_closed_form():
    # f=B=sigma=0, X=e1, lambda_1=1: X' = e1/(1+dt), dL = 0
    model = _noise_free_model()
    cfg = StepperConfig(dt=1e-3)
    e1 = model.basis.vector([1.0, 0, 0, 0])
    new, dl = step_projected(model, e1, cfg, np.zeros(4))
    assert new.coeffs[0] == pytest.approx(1.0 / (1.0 + 1e-3), rel=1e-15)
    assert np.array_equal(dl.coeffs, np.zeros(4))


def test_step_projected_reflection_geometry():
    # big outward kick: |X~| > 1, so |X'| = 1 and dL antiparallel to X'
    model = _noise_free_model(scale=300.0)
    cfg = StepperConfig(dt=1e-3)
    x = model.basis.vector([0.99, 0.0, 0.0, 0.0])
    new, dl = step_projected(model, x, cfg, np.zeros(4))
    assert h_norm(new) <= 1.0
    assert h_norm(new) == pytest.approx(1.0, abs=1e-14)
    cos = float(dl.coeffs @ (-new.coeffs)) / (h_norm(dl) * h_norm(new))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_step_projected_interior_no_ledger():
    model = _noise_free_model()
    cfg = StepperConfig(dt=1e-3)
    new, dl = step_projected(model, model.basis.vector([0.2, 0.1, 0, 0]), cfg, np.zeros(4))
    assert np.array_equal(dl.coeffs, np.zeros(4))


def test_step_penalized_radial_root():
    # implicit radial equation solved against the bisection oracle
    model = _noise_free_model(scale=1001.0)  # pushes e1 from 1.0 to ~2.0 pre-penalty
    dt = 1e-3
    cfg = StepperConfig(dt=dt, scheme="penalized", penalty_n=1000.0)
    x = model.basis.vector([1.0, 0.0, 0.0, 0.0])
    z = (1.0 + dt * 1001.0) / (1.0 + dt * 1.0)  # pre-penalty radius for this model
    new = step_penalized(model, x, cfg, np.zeros(4))
    assert new.coeffs[0] == pytest.approx(_penalty_root(z, dt * 1000.0), rel=1e-12)


def test_step_penalized_oracle_case():
    # |z| = 2, dt n = 1 -> |x| = 1.5
    assert _penalty_root(2.0, 1.0) == pytest.approx(1.5, rel=1e-12)


def test_step_penalized_inactive_inside():
    model = _noise_free_model()
    cfg = StepperConfig(dt=1e-3, scheme="penalized", penalty_n=100.0)
    x = model.basis.vector([0.3, 0, 0, 0])
    new = step_penalized(model, x, cfg, np.zeros(4))
    assert new.coeffs[0] == pytest.approx(0.3 / 1.001, rel=1e-15)


def test_step_penalized_stiff_limit_matches_projection():
    # dt*n -> infinity: |x| -> 1 for |z| > 1
    model = _noise_free_model(scale=300.0)
    x = model.basis.vector([0.99, 0, 0, 0])
    cfg_proj = StepperConfig(dt=1e-3)
    proj, _ = step_projected(model, x, cfg_proj, np.zeros(4))
    cfg_pen = StepperConfig(dt=1e-3, scheme="penalized", penalty_n=1e12)
    pen = step_penalized(model, x, cfg_pen, np.zeros(4))
    assert np.allclose(pen.coeffs, proj.coeffs, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_single_step_is_kernel_step(scheme):
    # step_projected / step_penalized with the stream's first noise row equal
    # a one-step run_paths bit for bit, for every built-in model kind
    from see_lab.dynamics import TrajectoryRecorder, run_paths
    from see_lab.rng import gaussian_block

    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    for name, model, x0 in _builtin_cases():
        m = model.dim
        for i, radius in ((0, 0.9), (5, 0.999), (17, 0.3)):
            x = radius * x0
            noise = gaussian_block(41, i, 0, 1, m, cfg.dt)[0]
            traj = TrajectoryRecorder()
            ref, _ = run_paths(model, cfg, x[None, :], 1, 41, [i], recorders=[traj])
            state = model.basis.vector(x)
            if scheme == "projected":
                new, dl = step_projected(model, state, cfg, noise)
                assert np.array_equal(dl.coeffs, traj.increments[0, 0]), name
            else:
                new = step_penalized(model, state, cfg, noise)
            assert np.array_equal(new.coeffs, ref[0]), (name, i)


# the norm the ball step returns -----------------------------------------


def _ball_rows(seed, n, m, lo, hi):
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal((n, m))
    return ys * (rng.uniform(lo, hi, (n, 1)) / h_norm_arr(ys)[:, None])


def _assert_ball_norms(x_tilde, cfg):
    from see_lab.dynamics import _apply_ball

    x_new, rho, r, rn = _apply_ball(x_tilde, cfg)
    assert np.array_equal(x_new, x_tilde * rho[:, None])
    assert r.tobytes() == h_norm_arr(x_tilde).tobytes()
    assert rn.tobytes() == h_norm_arr(x_new).tobytes()
    return x_new, rho, r, rn


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_apply_ball_norm_interior(scheme):
    x_tilde = _ball_rows(1, 500, 16, 0.0, 1.0)
    x_new, rho, r, rn = _assert_ball_norms(x_tilde, StepperConfig(scheme=scheme))
    assert x_new is x_tilde and rn is r and np.all(rho == 1.0)


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_apply_ball_norm_outside(scheme):
    # interior and outside rows mixed; the projected rows include some that
    # the plain rescale leaves above 1 and the ulp nudge moves
    for m in (3, 16, 48):
        x_tilde = np.concatenate([_ball_rows(m, 2000, m, 1.0, 50.0),
                                  _ball_rows(m + 1, 500, m, 0.0, 1.0)])
        _, rho, r, rn = _assert_ball_norms(x_tilde, StepperConfig(scheme=scheme))
        assert np.all(rn[r <= 1.0] == r[r <= 1.0])
        if scheme == "projected":
            assert np.all(rn <= 1.0)
            assert np.any(rho[r > 1.0] != 1.0 / r[r > 1.0]), m


def test_apply_ball_norm_after_nudges_run_out(monkeypatch):
    # read the norms of the four nudged states as just above 1, so that the
    # nudge loop runs out and the returned norm must be computed afresh
    from see_lab import dynamics

    calls = []

    def inflated(c):
        n = h_norm_arr(c)
        calls.append(None)
        if 2 <= len(calls) <= 5:
            n = np.where(n > 0.99, np.maximum(n, 1.0 + 2.0**-40), n)
        return n

    monkeypatch.setattr(dynamics, "h_norm_arr", inflated)
    x_tilde = np.concatenate([_ball_rows(5, 20, 16, 1.0, 50.0), _ball_rows(6, 5, 16, 0.0, 0.9)])
    _, rho, r, rn = _assert_ball_norms(x_tilde, StepperConfig())
    assert len(calls) == 6
    assert np.all(rn[r > 1.0] < 1.0) and np.all(rn[r <= 1.0] == r[r <= 1.0])


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_ball_recorder_equals_recomputed_max(scheme):
    from see_lab.dynamics import BallRecorder, TrajectoryRecorder, run_paths

    model = boundary_active_model()
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    xs = np.zeros((4, model.dim))
    xs[:, 0] = [1.0, 0.9, 0.5, 0.0]
    ys = -xs
    recs = {sys: (BallRecorder(sys), TrajectoryRecorder(sys)) for sys in ("x", "y")}
    run_paths(model, cfg, xs, 150, 3, [0, 1, 2, 3], [r for pair in recs.values() for r in pair],
              y0=ys)
    for sys, (ball, traj) in recs.items():
        ref = h_norm_arr(traj.states).max(axis=1)
        assert ball.max_h.tobytes() == ref.tobytes(), sys
        assert np.any(ball.max_h >= 1.0 - 1e-12), sys  # the constraint was active


# full paths ------------------------------------------------------------


def test_simulate_path_linear_semigroup():
    model = _noise_free_model(m=4)
    cfg = StepperConfig(dt=1e-3)
    x0 = np.array([1.0, 0, 0, 0])
    path = simulate_path(model, x0, 0.5, cfg, seed=1)
    k = np.arange(501)
    exact = (1.0 + 1e-3) ** (-k.astype(float))
    assert np.allclose(path.states[:, 0], exact, rtol=1e-12)
    # continuous-time decay with the scheme's first-order defect
    assert abs(path.states[-1, 0] - np.exp(-0.5)) <= 5e-4
    assert path.ledger.total_variation == 0.0


def test_simulate_path_outward_drift_pins_to_sphere():
    model = _noise_free_model(scale=5.0)
    cfg = StepperConfig(dt=1e-3)
    path = simulate_path(model, np.array([1.0, 0, 0, 0]), 0.2, cfg, seed=2)
    norms = h_norm_arr(path.states)
    assert np.all(norms <= 1.0)
    assert np.all(norms[1:] >= 1.0 - 1e-13)  # reflection fires every step
    assert np.all(h_norm_arr(path.ledger.increments) > 0.0)


def test_simulate_path_t_zero():
    model = _noise_free_model()
    path = simulate_path(model, np.zeros(4), 0.0, StepperConfig(dt=1e-3), seed=3)
    assert path.states.shape == (1, 4)
    assert path.ledger.increments.shape == (0, 4)
    assert path.ledger.total_variation == 0.0


def test_simulate_path_rejects_outside_start():
    model = _noise_free_model()
    with pytest.raises(ValidationError):
        simulate_path(model, np.array([2.0, 0, 0, 0]), 0.1, StepperConfig(), seed=0)


def _builtin_cases():
    """(name, model, x0) for every built-in model kind, each started at a
    random point of |x|_H = 0.9 so every mode of the drift and of the
    bilinear term acts from the first step.  NSE comes at κ = 2 and κ = 3:
    a batch-shape-dependent summation order shows in coupled rows from
    κ = 3 on."""
    from see_lab.nse import build_nse_model

    rng = np.random.default_rng(3)
    cases = []
    for name, model in (
        ("default", default_model(m=8, n=3)),
        ("benchmark", benchmark_model(m=8)),
        ("boundary_active", boundary_active_model(m=8)),
        ("nse_kappa2", build_nse_model(kappa=2, gamma=0.25, sigma0=1.0).spec),
        ("nse_kappa3", build_nse_model(kappa=3, gamma=0.25, sigma0=1.0).spec),
    ):
        x0 = rng.standard_normal(model.dim)
        cases.append((name, model, 0.9 * x0 / h_norm_arr(x0)))
    return cases


def test_simulate_path_batch_row_equals_single():
    # a path is bit-identical whether simulated alone or inside a batch, for
    # every built-in model kind and both ball-constraint schemes
    from see_lab.dynamics import TrajectoryRecorder, run_paths

    for name, model, x0 in _builtin_cases():
        for scheme in ("projected", "penalized"):
            cfg = StepperConfig(dt=1e-3, scheme=scheme)
            batch = TrajectoryRecorder()
            rows = np.repeat(x0[None, :], 5, axis=0)
            run_paths(model, cfg, rows, 200, 77, np.arange(5), recorders=[batch])
            for idx in (0, 3, 4):
                single = simulate_path(model, x0, 0.2, cfg, seed=77, path_index=idx)
                assert np.array_equal(single.states, batch.states[idx]), (name, scheme)
                assert np.array_equal(
                    single.ledger.increments, batch.increments[idx]
                ), (name, scheme)


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_coupled_rows_independent_of_batch(scheme):
    # 7 coupled pairs stepped alone equal the same rows of a 64-pair batch
    from see_lab.dynamics import TrajectoryRecorder, run_paths

    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    rng = np.random.default_rng(11)
    picks = np.array([0, 5, 13, 31, 32, 47, 63])
    for name, model, x0 in _builtin_cases():
        xs = np.repeat(x0[None, :], 64, axis=0)
        ys = rng.standard_normal((64, model.dim))
        ys *= rng.uniform(0.0, 1.0, (64, 1)) / h_norm_arr(ys)[:, None]
        runs = []
        for sel in (np.arange(64), picks):
            recs = [TrajectoryRecorder("x"), TrajectoryRecorder("y")]
            run_paths(model, cfg, xs[sel], 200, 5, sel, recorders=recs, y0=ys[sel])
            runs.append(recs)
        (big_x, big_y), (small_x, small_y) = runs
        for small, big in ((small_x, big_x), (small_y, big_y)):
            assert np.array_equal(small.states, big.states[picks]), name
            assert np.array_equal(small.increments, big.increments[picks]), name


def _run_segments(model, cfg, xs, ys, bounds, correction):
    """run_paths over the segments [bounds[i], bounds[i+1]), each resumed
    from the states the last one returned; returns the stacked X (and Y)
    trajectories and local-time increments of the whole run."""
    from see_lab.dynamics import TrajectoryRecorder, run_paths

    idx = np.array([2, 7, 8, 40])
    states, incs = [], []
    x, y = xs, ys
    for a, b in zip(bounds[:-1], bounds[1:]):
        recs = [TrajectoryRecorder("x")] + ([TrajectoryRecorder("y")] if ys is not None else [])
        x, y = run_paths(model, cfg, x, b - a, 5, idx, recorders=recs, y0=y,
                         correction=correction, step0=a)
        states.append(np.concatenate([r.states[:, 1:] for r in recs]))
        incs.append(np.concatenate([r.increments for r in recs]))
    return np.concatenate(states, axis=1), np.concatenate(incs, axis=1)


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
@pytest.mark.parametrize("chunk_target", [None, 7 * 4 * 12])
def test_resumed_segments_equal_one_run(monkeypatch, scheme, chunk_target):
    # run(0 -> 23) then run(23 -> 60, step0=23) equals run(0 -> 60) bit for
    # bit: single runs and coupled pairs with and without the steering
    # correction, every built-in model kind.  Step 23 falls inside a noise
    # chunk of the one run: its only chunk by default, and one of 3 to 10
    # steps (23 is prime) with the small chunk target
    import see_lab.dynamics as dyn

    if chunk_target is not None:
        monkeypatch.setattr(dyn, "_NOISE_CHUNK_TARGET", chunk_target)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    rng = np.random.default_rng(17)
    for name, model, x0 in _builtin_cases():
        xs = np.repeat(x0[None, :], 4, axis=0)
        ys = rng.standard_normal((4, model.dim))
        ys *= rng.uniform(0.2, 1.0, (4, 1)) / h_norm_arr(ys)[:, None]
        for y0, correction in ((None, True), (ys, True), (ys, False)):
            one = _run_segments(model, cfg, xs, y0, [0, 60], correction)
            split = _run_segments(model, cfg, xs, y0, [0, 23, 60], correction)
            assert np.array_equal(one[0], split[0]), (name, y0 is None, correction)
            assert np.array_equal(one[1], split[1]), (name, y0 is None, correction)


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
@pytest.mark.parametrize("chunk_target", [None, 7 * 4 * 12])
def test_y_systems_equal_pair_runs(monkeypatch, scheme, chunk_target):
    # Y system j of a J-system run equals the pair run of (x, y_j) bit for
    # bit, with the same seed, path indices, step0 and correction flag: every
    # built-in model kind, mixed flags, a resumed segment (step0 = 23), and
    # with the small chunk target a chunk boundary inside the run
    import see_lab.dynamics as dyn
    from see_lab.dynamics import TrajectoryRecorder, run_paths

    if chunk_target is not None:
        monkeypatch.setattr(dyn, "_NOISE_CHUNK_TARGET", chunk_target)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    rng = np.random.default_rng(23)
    idx = np.array([2, 7, 8, 40])
    flags = (True, False, True, False)
    for name, model, x0 in _builtin_cases():
        xs = np.repeat(x0[None, :], 4, axis=0)
        ys = rng.standard_normal((4, 4, model.dim))
        ys *= rng.uniform(0.2, 1.0, (4, 4, 1)) / h_norm_arr(ys)[..., None]
        recs = [TrajectoryRecorder("x")] + [TrajectoryRecorder(j) for j in range(4)]
        x_end, y_end = run_paths(model, cfg, xs, 37, 5, idx, recorders=recs, y0=ys,
                                 correction=flags, step0=23)
        assert y_end.shape == ys.shape
        for j, flag in enumerate(flags):
            pair = [TrajectoryRecorder("x"), TrajectoryRecorder("y")]
            px, py = run_paths(model, cfg, xs, 37, 5, idx, recorders=pair, y0=ys[j],
                               correction=flag, step0=23)
            assert np.array_equal(px, x_end) and np.array_equal(py, y_end[j]), (name, j)
            for one, many in zip(pair, (recs[0], recs[1 + j])):
                assert np.array_equal(one.states, many.states), (name, j)
                assert np.array_equal(one.increments, many.increments), (name, j)


def test_divergence_on_later_y_system_reports_its_path():
    from see_lab.dynamics import run_paths

    model = _overflow_model()
    xs = np.zeros((3, 8))
    ys = np.zeros((3, 3, 8))
    ys[2, 1, 0] = 1.0  # only row 1 of Y system 2 blows up
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(dt=1e-3), xs, 5, 5, [10, 20, 30], y0=ys,
                  correction=(True, False, False), step0=40)
    e = err.value
    assert (e.path_index, e.step, e.model_id) == (20, 41, model.model_id)
    assert e.h_norm == np.inf


@pytest.mark.parametrize("y0_shape,correction", [
    ((4, 4), True),  # P rows that do not match x0's 3
    ((3, 5), True),  # M columns that do not match the model's 4
    ((2, 4, 4), True),
    ((3,), True),
    ((1, 2, 3, 4), True),
    ((2, 3, 4), (True, False, True)),  # 3 flags for 2 Y systems
    ((3, 4), (True, False)),  # 2 flags for the one Y of a pair
])
def test_run_paths_rejects_bad_y0_or_correction(y0_shape, correction):
    from see_lab.dynamics import run_paths

    model = _noise_free_model()
    with pytest.raises(ValidationError):
        run_paths(model, StepperConfig(), np.zeros((3, 4)), 2, 1, [0, 1, 2],
                  y0=np.zeros(y0_shape), correction=correction)


def test_resumed_run_reports_absolute_divergence_step():
    from see_lab.dynamics import run_paths

    model = _overflow_model()
    xs = np.zeros((2, 8))
    xs[1, 0] = 1.0  # overflows in the first step it takes
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(dt=1e-3), xs, 5, 5, [10, 20], step0=40)
    e = err.value
    assert (e.path_index, e.step) == (20, 41)
    assert e.t == pytest.approx(0.041, abs=1e-15)
    with pytest.raises(ValidationError):
        run_paths(model, StepperConfig(dt=1e-3), xs, 5, 5, [10, 20], step0=-1)


def test_zero_noise_decay_bound():
    # |X(t)| <= |x0| e^{-lambda_1 t} (1 + 5 dt lambda_M) for the linear model
    model = _noise_free_model(m=6)
    cfg = StepperConfig(dt=1e-3)
    x0 = np.full(6, 0.3)
    x0 /= h_norm_arr(x0) * 2.0
    path = simulate_path(model, x0, 1.0, cfg, seed=4)
    lam1 = model.basis.eigenvalues[0]
    lam_m = model.basis.eigenvalues[-1]
    bound = float(h_norm_arr(x0)) * np.exp(-lam1 * path.times) * (1 + 5 * cfg.dt * lam_m)
    assert np.all(h_norm_arr(path.states) <= bound + 1e-15)


def test_divergence_aborts_with_diagnostic():
    model = _noise_free_model(scale=1e200)
    with pytest.raises(DivergedError) as err:
        simulate_path(model, np.array([0.5, 0, 0, 0]), 0.01, StepperConfig(dt=1e-3), seed=5)
    assert err.value.path_index == 0


def test_divergence_reports_norm_and_model_id():
    # boundary_active's components with the outward drift scaled until the
    # pre-constraint state overflows in the first step
    base = boundary_active_model(m=8)
    model = build_model(
        basis=base.basis,
        drift=affine_drift(np.zeros(8), 1e300),
        bilinear=base.bilinear,
        noise=base.noise,
        lipschitz_c1=base.lipschitz_c1,
        coupling_n=base.coupling_n,
    )
    x0 = np.zeros(8)
    x0[0] = 1.0
    with pytest.raises(DivergedError) as err:
        simulate_path(model, x0, 0.01, StepperConfig(dt=1e-3), seed=5, path_index=4)
    e = err.value
    assert (e.path_index, e.step, e.model_id) == (4, 1, model.model_id)
    assert e.model_id != base.model_id
    assert e.h_norm == np.inf
    assert f"model_id={model.model_id}" in str(e) and "|X~|_H=inf" in str(e)


def _overflow_model():
    # boundary_active's components with the drift scaled so that a state with
    # |x|_H = 1 overflows in the first step, while x = 0 stays at rest
    base = boundary_active_model(m=8)
    return build_model(
        basis=base.basis,
        drift=affine_drift(np.zeros(8), 1e300),
        bilinear=base.bilinear,
        noise=base.noise,
        lipschitz_c1=base.lipschitz_c1,
        coupling_n=base.coupling_n,
    )


def test_divergence_on_y_row_reports_its_path():
    from see_lab.dynamics import run_paths

    model = _overflow_model()
    xs = np.zeros((3, 8))
    ys = np.zeros((3, 8))
    ys[1, 0] = 1.0  # only the Y row of the second pair blows up
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(dt=1e-3), xs, 5, 5, [10, 20, 30], y0=ys)
    e = err.value
    assert (e.path_index, e.step, e.model_id) == (20, 1, model.model_id)
    assert e.h_norm == np.inf


def test_divergence_reports_x_rows_before_y_rows():
    from see_lab.dynamics import run_paths

    model = _overflow_model()
    xs = np.zeros((3, 8))
    ys = np.zeros((3, 8))
    xs[2, 0] = 1.0  # X row of the last pair
    ys[0, 0] = 1.0  # Y row of the first pair, in the same step
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(dt=1e-3), xs, 5, 5, [10, 20, 30], y0=ys)
    assert (err.value.path_index, err.value.step) == (30, 1)


def _nan_noise_model(p, bad_call):
    # boundary_active's σ through the custom hook, NaN in Y row 1 of the
    # run's diagonal on its bad_call-th evaluation (0 is the start state)
    base = boundary_active_model(m=8)
    calls = []

    def diag_fn(u):
        d = base.noise.diag_batch(u)
        if u.shape[0] == 2 * p:
            if len(calls) == bad_call:
                d[p + 1] = np.nan
            calls.append(None)
        return d

    return build_model(
        basis=base.basis,
        drift=base.drift,
        bilinear=base.bilinear,
        noise=NoiseMap(kind="custom", diag_fn=diag_fn),
        lipschitz_c1=base.lipschitz_c1,
        coupling_n=base.coupling_n,
    )


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_divergence_from_nan_noise_diagonal(scheme):
    from see_lab.dynamics import run_paths

    model = _nan_noise_model(3, 3)
    xs = np.zeros((3, 8))
    xs[:, 0] = 0.5
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(dt=1e-3, scheme=scheme), xs, 10, 7, [10, 20, 30],
                  y0=xs.copy(), step0=100)
    e = err.value
    # σ(X_103) of Y row 1 is NaN, so its step to X_104 is the first bad one
    assert (e.path_index, e.step, e.model_id) == (20, 104, model.model_id)
    assert np.isnan(e.h_norm)


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
def test_divergence_from_finite_state_with_overflowing_norm(scheme):
    from see_lab.dynamics import run_paths

    model = _noise_free_model(scale=1e200)
    xs = np.zeros((3, 4))
    xs[1, 0] = 0.5  # X̃ has entries near 5e196: finite, but |X̃|²_H overflows
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(dt=1e-3, scheme=scheme), xs, 5, 5, [4, 5, 6], step0=9)
    e = err.value
    assert (e.path_index, e.step, e.model_id) == (5, 10, model.model_id)
    assert e.h_norm == np.inf


# obstacle inequality ---------------------------------------------------


def test_obstacle_zero_ledger():
    model = _noise_free_model()
    path = simulate_path(model, np.array([0.5, 0, 0, 0]), 0.2, StepperConfig(), seed=6)
    rep = discrete_obstacle_inequality(path, trials=50, seed=0)
    assert rep.passed and rep.min_sum == 0.0 and rep.total_variation == 0.0


def test_obstacle_random_phi_boundary_active():
    model = boundary_active_model(m=8)
    x0 = np.zeros(8)
    x0[0] = 1.0
    path = simulate_path(model, x0, 0.5, StepperConfig(), seed=7)
    assert path.ledger.total_variation > 0.0
    rep = discrete_obstacle_inequality(path, trials=200, seed=1)
    assert rep.passed
    assert rep.min_sum >= -1e-10 * rep.total_variation


def test_obstacle_phi_zero_means_contact_work_nonpositive():
    # phi = 0 gives -sum (X_{k+1}, dL_k) >= 0, i.e. the contact work is <= 0
    model = boundary_active_model(m=8)
    x0 = np.zeros(8)
    x0[0] = 1.0
    path = simulate_path(model, x0, 0.3, StepperConfig(), seed=8)
    contact_work = float((path.states[1:] * path.ledger.increments).sum())
    assert contact_work <= 1e-10 * path.ledger.total_variation


def test_obstacle_adversarial_phi_at_contact():
    # phi(t) = X_{k+1} at contact steps makes each term vanish
    model = boundary_active_model(m=8)
    x0 = np.zeros(8)
    x0[0] = 1.0
    path = simulate_path(model, x0, 0.3, StepperConfig(), seed=9)
    inc = path.ledger.increments
    terms = ((path.states[1:] - path.states[1:]) * inc).sum(axis=1)
    assert np.abs(terms).max() == 0.0
    # and phi = X_{k+1}/|X_{k+1}| stays in the ball with sum ~ 0
    contact = h_norm_arr(inc) > 0
    phi = path.states[1:][contact]
    phi = phi / np.maximum(h_norm_arr(phi), 1e-300)[:, None]
    s = float(((phi - path.states[1:][contact]) * inc[contact]).sum())
    assert abs(s) <= 1e-10 * max(path.ledger.total_variation, 1e-300)


# penalization convergence ----------------------------------------------


def test_penalization_interior_only_no_gap():
    model = _noise_free_model(rate=0.5)
    rows = penalization_convergence_study(model, np.zeros(4), 0.2, 1e-3, [10, 100], seed=10)
    assert all(gap == 0.0 for _, gap in rows)


def test_penalization_gaps_decrease_on_boundary_case():
    model = boundary_active_model(m=8)
    x0 = np.zeros(8)
    x0[0] = 0.9
    rows = penalization_convergence_study(
        model, x0, 0.5, 1e-3, [10, 100, 1000, 10000], seed=11
    )
    gaps = [g for _, g in rows]
    assert all(gaps[i + 1] < gaps[i] for i in range(3))


def test_penalization_same_n_identical():
    model = boundary_active_model(m=8)
    x0 = np.zeros(8)
    x0[0] = 0.9
    a = penalization_convergence_study(model, x0, 0.2, 1e-3, [100], seed=12)
    b = penalization_convergence_study(model, x0, 0.2, 1e-3, [100], seed=12)
    assert a == b


def test_penalized_excess_shrinks_with_n():
    model = boundary_active_model(m=8)
    x0 = np.zeros(8)
    x0[0] = 1.0
    excesses = []
    for n in (1e2, 1e3, 1e4):
        cfg = StepperConfig(dt=1e-3, scheme="penalized", penalty_n=n)
        path = simulate_path(model, x0, 0.3, cfg, seed=13)
        excesses.append(float(h_norm_arr(path.states).max()) - 1.0)
    assert excesses[0] > excesses[1] > excesses[2] >= 0.0


# csv dump --------------------------------------------------------------


def test_dump_path_csv_format(tmp_path):
    model = default_model(m=4, n=2)
    path = simulate_path(model, np.zeros(4), 0.01, StepperConfig(dt=1e-3), seed=14)
    fname = dump_path_csv(path, tmp_path)
    lines = open(fname).read().splitlines()
    assert lines[0] == "t,mode_1,mode_2,mode_3,mode_4,dl_norm"
    assert len(lines) == 12  # header + 11 states
    assert fname.endswith("path_14_0.csv")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[-1]) == 0.0


# the interior step -----------------------------------------------------


def _slope_model(base):
    # base with σ depending on the state: g(r) = 1 + r/2, never clipped
    return build_model(
        basis=base.basis, drift=base.drift, bilinear=base.bilinear,
        noise=diag_affine_noise(base.noise.s, c_min=base.noise.c_min, g_slope=0.5,
                                g_lo=0.5, g_hi=2.0),
        lipschitz_c1=base.lipschitz_c1 + 1.0, coupling_n=base.coupling_n,
    )


def test_constant_diag_only_for_state_independent_noise():
    s = np.array([0.3, 0.2, 0.1])
    u = np.random.default_rng(0).standard_normal((5, 3))
    for kw in ({}, {"g_base": 0.7, "g_lo": 0.5, "g_hi": 2.0}, {"g_slope": 3.0, "g_lo": 0.8,
                                                               "g_hi": 0.8}):
        noise = diag_affine_noise(s, c_min=0.1, **kw)
        const = noise.constant_diag()
        assert noise.diag_batch(u).tobytes() == np.tile(const, (5, 1)).tobytes()
    assert diag_affine_noise(s, c_min=0.1, g_slope=0.5, g_lo=0.5, g_hi=2.0).constant_diag() \
        is None
    assert NoiseMap(kind="custom", diag_fn=lambda u: np.ones_like(u)).constant_diag() is None


@pytest.mark.parametrize("n_y", [0, 1, 4])
def test_empty_batch_runs(n_y):
    from see_lab.dynamics import BallRecorder, run_paths

    model = benchmark_model()
    x0 = np.zeros((0, model.dim))
    y0 = None  # a single run; one Y is (P, M), J of them (J, P, M)
    if n_y == 1:
        y0 = x0.copy()
    elif n_y > 1:
        y0 = np.zeros((n_y, 0, model.dim))
    ball = BallRecorder()
    xf, yf = run_paths(model, StepperConfig(), x0, 5, 1, [], recorders=[ball], y0=y0)
    assert xf.shape == (0, model.dim) and ball.max_h.shape == (0,)
    assert yf is None if n_y == 0 else yf.shape == y0.shape


class _Writer:
    """A recorder that writes to one RunContext field on its first step."""

    def __init__(self, field):
        self.field = field

    def begin(self, rt):
        pass

    def on_step(self, rt):
        getattr(rt, self.field)[0] = 1.0


@pytest.mark.parametrize("field", ["dl_scale", "diag"])
@pytest.mark.parametrize("name", ["benchmark", "boundary_active"])
def test_recorder_cannot_write_shared_fields(name, field):
    # dl_scale on every step and a constant σ's diagonal are read-only, so a
    # recorder that writes to them fails at once instead of bending the run
    from see_lab.dynamics import run_paths

    model = benchmark_model() if name == "benchmark" else boundary_active_model()
    x0 = np.zeros((4, model.dim))
    x0[:, 0] = 0.5 if name == "benchmark" else 1.0
    with pytest.raises(ValueError, match="read-only"):
        run_paths(model, StepperConfig(), x0, 3, 1, range(4), recorders=[_Writer(field)])


@pytest.mark.parametrize("scheme", ["projected", "penalized"])
@pytest.mark.parametrize("coupled", [False, True])
def test_nan_row_on_an_interior_step_diverges(scheme, coupled):
    # every other row stays well inside the ball, so the NaN row alone fails
    # the interior test; the error names its path and the absolute step
    from see_lab.dynamics import run_paths

    model = benchmark_model()
    xs = np.zeros((3, model.dim))
    xs[:, 0] = 0.3
    ys = xs.copy() if coupled else None
    (ys if coupled else xs)[1, 2] = np.nan
    with pytest.raises(DivergedError) as err:
        run_paths(model, StepperConfig(scheme=scheme), xs, 10, 3, [7, 8, 9], y0=ys, step0=40)
    e = err.value
    assert (e.path_index, e.step, e.model_id) == (8, 41, model.model_id)
    assert np.isnan(e.h_norm)


def _count_calls(monkeypatch):
    from see_lab import dynamics

    calls = {"diag_batch": 0, "check_finite": 0}
    diag_batch, check_finite = NoiseMap.diag_batch, dynamics._check_finite

    def counted_diag(*args, **kwargs):
        calls["diag_batch"] += 1
        return diag_batch(*args, **kwargs)

    def counted_check(*args, **kwargs):
        calls["check_finite"] += 1
        return check_finite(*args, **kwargs)

    monkeypatch.setattr(NoiseMap, "diag_batch", counted_diag)
    monkeypatch.setattr(dynamics, "_check_finite", counted_check)
    return calls


class _ContactSteps:
    def begin(self, rt):
        self.steps = 0

    def on_step(self, rt):
        self.steps += bool((rt.dl_scale < 0.0).any())


@pytest.mark.parametrize("coupled", [False, True])
def test_interior_step_work_by_call_count(monkeypatch, coupled):
    # no timing: an interior run with constant σ never evaluates σ or the
    # divergence check; σ that depends on the state is evaluated once per
    # step and at the start; the check runs on each step with a contact
    from see_lab.dynamics import run_paths

    calls = _count_calls(monkeypatch)
    cfg, n_steps = StepperConfig(), 50

    def run(model, start):
        x0 = np.zeros((6, model.dim))
        x0[:, 0] = start
        y0 = -x0 if coupled else None
        contacts = _ContactSteps()
        calls.update(diag_batch=0, check_finite=0)
        run_paths(model, cfg, x0, n_steps, 2, range(6), recorders=[contacts], y0=y0)
        return contacts.steps

    assert run(benchmark_model(), 0.5) == 0
    assert calls == {"diag_batch": 0, "check_finite": 0}
    assert run(_slope_model(benchmark_model()), 0.5) == 0
    assert calls == {"diag_batch": n_steps + 1, "check_finite": 0}
    contact_steps = run(boundary_active_model(), 0.95)  # reaches the sphere mid-run
    assert 0 < contact_steps < n_steps
    assert calls == {"diag_batch": 0, "check_finite": contact_steps}
