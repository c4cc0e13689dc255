"""Golden SHA-256 digests of the noise stream, of one trajectory per
built-in model kind, of steered coupled runs, of the standalone estimators,
of a small estimator battery, and of the `see-lab simulate` and `see-lab
couple` output trees; and the run_paths calls of the sampled-pair checks,
which the benchmark's split of the battery into single and coupled runs
counts.

A change that keeps results bit-identical leaves every digest here as it is.
A change that moves any bit of a pinned output must update its digest and
say in CHANGES.md why the output moved.
"""

import hashlib
import warnings

import numpy as np
import pytest

from see_lab.coefficients import benchmark_model, boundary_active_model, default_model
from see_lab.dynamics import StepperConfig, simulate_path
from see_lab.nse import build_nse_model
from see_lab.rng import gaussian_block

GAUSSIAN_BLOCK_SHA256 = "18c855453aff76b74fae8dbb3888d2700a0fca098656e2595a62c659bc927d51"

TRAJECTORY_SHA256 = {
    "default": "791aef68be4c851408aaed65c5692d1c37351f7345c7ee9b5b37b88f29ce76eb",
    "benchmark": "afffe09fa50c1d9ed28389f3c53e67b10a058adf316956151956dc30837166a6",
    "boundary_active": "149bca8261e1a3580be95b07af5bc1188c33341507f75d04b9fde3b150f0fc21",
    "nse_kappa2": "5ba72b913395929a63bc96517cb2dc921c735c4ada44ecff805cd3c977545c01",
}


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _spread_start(m: int, radius: float) -> np.ndarray:
    # every mode active, so each coefficient of the drift and of B(X, X) shows
    v = 1.0 / np.arange(1, m + 1, dtype=float)
    return radius * v / np.sqrt((v * v).sum())


def _golden_case(name):
    if name == "default":
        model = default_model()
    elif name == "benchmark":
        model = benchmark_model()
    elif name == "boundary_active":
        model = boundary_active_model()
    else:
        model = build_nse_model(kappa=2, gamma=0.25, sigma0=0.2).spec
    if name == "boundary_active":
        # start on the sphere, where the outward drift keeps the reflection busy
        x0 = np.zeros(model.dim)
        x0[0] = 1.0
        return model, x0
    return model, _spread_start(model.dim, 0.8)


def test_gaussian_block_stream_digest():
    blocks = [
        gaussian_block(seed, path, step, 64, 16, 1e-3)
        for seed, path, step in ((0, 0, 0), (2024, 7, 1000), (2**40 + 3, 123456, 5))
    ]
    assert _sha256(*blocks) == GAUSSIAN_BLOCK_SHA256


# computed when gaussian_block still packed k < 4*ceil(k/4) draws into a
# contiguous array; the strided views it returns now hold the same bytes
GAUSSIAN_BLOCK_STRIDED_SHA256 = "98013b62c6cf8789e196602fbecf532a6597a2cde52cf47b647543b612e724bb"


def test_gaussian_block_strided_stream_digest():
    # k % 4 != 0, and a 3-path chunk of two conversion passes
    blocks = [
        gaussian_block(seed, path, step, n_steps, k, 1e-3)
        for seed, path, step, n_steps, k in (
            (0, 0, 0, 64, 1), (2024, 7, 1000, 64, 3), (2**40 + 3, 123456, 5, 64, 5),
            (11, np.array([0, 5, 2**40]), 2**62 - 3, 2000, 13),
        )
    ]
    assert not blocks[-1].flags.c_contiguous
    assert _sha256(*blocks) == GAUSSIAN_BLOCK_STRIDED_SHA256


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_trajectory_digest(name):
    model, x0 = _golden_case(name)
    path = simulate_path(model, x0, 0.2, StepperConfig(dt=1e-3), seed=77, path_index=3)
    assert path.states.shape == (201, model.dim)
    digest = _sha256(path.states, path.ledger.increments)
    assert digest == TRAJECTORY_SHA256[name]


COUPLED_SHA256 = {
    ("benchmark", True):
        "d7fdb337c1c6c799919ba53391f5fac3274f655593dc0321dca24b5dd4328320",
    ("benchmark", False):
        "2d4a01da336f32817a5b92803206580ce4c7db8248e7d4bd587eecebc2139729",
    ("nse_kappa2", True):
        "f0be7e19da386b5e0e367977d795cc05bc7ee7aefd0eca8f8f51ac2f1b5885d0",
    ("nse_kappa2", False):
        "436045bee5a9cb0cb77c3fa64f58b1b8eabac73d1ab0dad56166215a74236068",
}

# every CSV cell is repr(float(v)): the `t` column of the couple CSVs read
# np.float64(0.001) on numpy 2 and now reads 0.001; no other byte moved
CLI_TREE_SHA256 = "6f54feaf4d47bb1dfbdf3760934e8f2e096feb22259fb8f448a2fb0de2c39436"


@pytest.mark.parametrize("name,correction", sorted(COUPLED_SHA256))
def test_coupled_run_digest(name, correction):
    # three steered pairs from different Y starts: both trajectories, both
    # local-time ledgers and the running Girsanov cost ∫‖β‖² at every step
    from see_lab.coupling import ShiftRecorder
    from see_lab.dynamics import TrajectoryRecorder, run_paths

    model, x0 = _golden_case(name)
    m = model.dim
    xs = np.repeat(x0[None, :], 3, axis=0)
    ys = np.stack([-x0, 0.5 * x0[::-1], _spread_start(m, 0.99)[::-1]])
    tx, ty = TrajectoryRecorder("x"), TrajectoryRecorder("y")
    shift = ShiftRecorder()
    run_paths(
        model, StepperConfig(dt=1e-3), xs, 200, 77, [3, 4, 9],
        recorders=[tx, ty, shift], y0=ys, correction=correction,
    )
    digest = _sha256(tx.states, tx.increments, ty.states, ty.increments, shift.cum)
    assert digest == COUPLED_SHA256[(name, correction)]


def test_cli_output_tree_digest(tmp_path):
    # `see-lab simulate` and `see-lab couple` result files, and the manifests
    # without their wall-clock line
    from see_lab.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nkind = generic\n[basis]\nm = 16\n"
        "[stepper]\ndt = 1e-3\nt = 0.05\n[plan]\nn_paths = 3\n"
    )
    h = hashlib.sha256()
    for sub in ("simulate", "couple"):
        out = tmp_path / sub
        assert main([sub, "--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
        for name in sorted(p.name for p in out.iterdir()):
            data = (out / name).read_bytes()
            if name == "manifest.txt":
                data = b"".join(
                    ln for ln in data.splitlines(keepends=True)
                    if not ln.startswith(b"wall_clock")
                )
            h.update(f"{sub}/{name}\n".encode() + data)
    assert h.hexdigest() == CLI_TREE_SHA256


# battery_version 2: the steered pair from (x, y) runs once under the tag
# "steered_pair", and Feller's three scales are one run.
# battery_version 3: the occupation measure is 20 chains of T = 1 on the
# batch axis, with between-chain standard errors
# battery_version 4: the ∫‖X‖²_V time average leaves out the burn-in
# battery_version 5: d-smallness is checked at the contraction time t0
# battery_version 6: X is stepped once from x, with the steered Y and
# Feller's scales as Y systems of the "steered_pair" run; exp-integrability
# reads that run's ∫‖X‖²_V and tests mean ≤ bound + 2se
BATTERY_SHA256 = "bdb3bd90e74c1eaa59c3114be09a894577fafae53a7441840484f50fd4c1fe30"


def test_battery_digest():
    # every estimator of the battery, the occupation chain included: verdict
    # names, passes and margins, the series means and stderrs, the fitted
    # rate and the mean Girsanov shift cost
    from see_lab.ergodicity import MonteCarloPlan, run_ergodicity_battery

    plan = MonteCarloPlan(
        n_paths=4, t_grid=np.arange(1, 4) * 0.01, base_seed=5,
        cfg=StepperConfig(dt=1e-3),
    )
    report, series = run_ergodicity_battery(benchmark_model(), plan)
    h = hashlib.sha256()
    for v in report.verdicts:
        h.update(repr((v.name, v.passed, v.margin)).encode())
    h.update(repr((report.fitted_rate, report.shift_cost_mean)).encode())
    for name in sorted(series):
        s = series[name][0]
        h.update(name.encode() + _sha256(s.mean, s.stderr).encode())
    assert h.hexdigest() == BATTERY_SHA256


# exp_integrability's verdict tests mean ≤ bound + 2se, with its margin in
# the statistic's own units (the series and every other estimator held).
# Weighted contraction's margin now comes from _upper_slack, bound + 2se −
# mean; it moved by one ulp on 4 of the 6 cases, and nothing else moved
STANDALONE_ESTIMATOR_SHA256 = "435eb341b59e43db24060a62abeb57589e5997d4202f08dc0ed4444433fd006c"


def test_standalone_estimator_digest():
    # each standalone estimator under its own seed tag, on the three generic
    # built-in models and both ball schemes: series, bounds, verdicts and the
    # returned constants
    from see_lab.coupling import DistanceParams, select_delta
    from see_lab.ergodicity import (
        EstimateSeries,
        MonteCarloPlan,
        Verdict,
        contraction_check,
        coupled_distance_series,
        d_small_check,
        exp_integrability_estimate,
        fourth_moment_estimate,
        lyapunov_check,
        wasserstein_upper,
        weighted_contraction_estimate,
    )

    def put(*items):
        for it in items:
            if isinstance(it, EstimateSeries):
                h.update(_sha256(it.t, it.mean, it.stderr).encode())
            elif isinstance(it, Verdict):
                h.update(repr((it.name, it.passed, it.margin, it.detail)).encode())
            elif isinstance(it, np.ndarray):
                h.update(_sha256(it).encode())
            else:
                h.update(repr(it).encode())

    h = hashlib.sha256()
    for name in ("default", "benchmark", "boundary_active"):
        for scheme in ("projected", "penalized"):
            model, x = _golden_case(name)
            y = -0.6 * x[::-1]
            plan = MonteCarloPlan(
                n_paths=6, t_grid=np.arange(1, 4) * 0.01, base_seed=13,
                cfg=StepperConfig(dt=1e-3, scheme=scheme),
            )
            delta = select_delta(model)[0]
            dist = DistanceParams(n_tilde=1.0, delta=delta)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                put(name, scheme)
                put(*weighted_contraction_estimate(model, x, y, plan))
                put(*fourth_moment_estimate(model, x, y, plan))
                put(*exp_integrability_estimate(model, x, delta, plan))
                series, verdict, consts = lyapunov_check(model, x, plan)
                put(series, verdict, sorted(consts.items()))
                put(coupled_distance_series(model, x, y, plan, dist))
                put(wasserstein_upper(model, x, y, 0.02, plan, dist))
                put(*contraction_check(model, plan, dist, n_pairs=5))
                put(*d_small_check(model, plan, dist, m_level=1.0, t=0.03, n_pairs=4))
    assert h.hexdigest() == STANDALONE_ESTIMATOR_SHA256


# contraction_check where its search stops before the end of the grid: t0 is
# the first grid time (benchmark, both schemes), a later grid time (default),
# and no grid time at all (boundary_active), so the whole grid runs
CONTRACTION_STOP_SHA256 = "97079ac1636bda96aa5e2f357c4da72e36b88404fbde2e07da7dc5f7eb202ad3"

CONTRACTION_STOP_CASES = (
    ("benchmark", "projected", 0.1),
    ("benchmark", "penalized", 0.1),
    ("default", "projected", 0.01),
    ("boundary_active", "projected", 0.01),
)


def test_contraction_stop_digest():
    from see_lab.coupling import DistanceParams, select_delta
    from see_lab.ergodicity import MonteCarloPlan, contraction_check

    h = hashlib.sha256()
    for name, scheme, spacing in CONTRACTION_STOP_CASES:
        model, _ = _golden_case(name)
        plan = MonteCarloPlan(
            n_paths=20, t_grid=np.arange(1, 11) * spacing, base_seed=3,
            cfg=StepperConfig(dt=1e-3, scheme=scheme),
        )
        dist = DistanceParams(n_tilde=1.0, delta=select_delta(model)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict, t0, alpha = contraction_check(model, plan, dist)
        h.update(repr((name, scheme, verdict, t0, alpha)).encode())
    assert h.hexdigest() == CONTRACTION_STOP_SHA256


def _run_paths_calls(monkeypatch):
    """Log (n_steps, step0, coupled, n_recorders) of every run_paths call
    the ergodicity module makes, with no timing."""
    import see_lab.ergodicity as erg

    calls = []
    inner = erg.run_paths

    def counted(model, cfg, x0, n_steps, seed, path_indices, recorders=(), y0=None,
                correction=True, step0=0):
        calls.append((n_steps, step0, y0 is not None, len(recorders)))
        return inner(model, cfg, x0, n_steps, seed, path_indices, recorders, y0, correction,
                     step0)

    monkeypatch.setattr(erg, "run_paths", counted)
    return calls


def test_contraction_stop_cases_step_once_per_segment(monkeypatch):
    # the battery's split into single and coupled runs counts these calls:
    # contraction_check makes one coupled call per grid segment up to t0
    # (1 when it stops at the first grid time, k at the k-th, G when it
    # never stops), resumed where the last one ended
    from see_lab.coupling import DistanceParams, select_delta
    from see_lab.ergodicity import MonteCarloPlan, contraction_check

    calls, counts = _run_paths_calls(monkeypatch), []
    for name, scheme, spacing in CONTRACTION_STOP_CASES:
        model, _ = _golden_case(name)
        grid = np.arange(1, 11) * spacing
        plan = MonteCarloPlan(n_paths=20, t_grid=grid, base_seed=3,
                              cfg=StepperConfig(dt=1e-3, scheme=scheme))
        dist = DistanceParams(n_tilde=1.0, delta=select_delta(model)[0])
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, t0, _ = contraction_check(model, plan, dist)
        k = grid.size if t0 is None else int(np.flatnonzero(grid == t0)[0]) + 1
        steps = plan.grid_steps[:k]
        assert calls == [(int(b - a), int(a), True, 0)
                         for a, b in zip(np.concatenate([[0], steps[:-1]]), steps)]
        counts.append(len(calls))
    assert counts == [1, 1, 6, 10]


def test_d_small_check_steps_once(monkeypatch):
    # one coupled call to the check time, with no recorders
    from see_lab.coupling import DistanceParams
    from see_lab.ergodicity import MonteCarloPlan, d_small_check

    plan = MonteCarloPlan(n_paths=4, t_grid=np.array([0.01, 0.02]), base_seed=3,
                          cfg=StepperConfig(dt=1e-3))
    calls = _run_paths_calls(monkeypatch)
    d_small_check(benchmark_model(), plan, DistanceParams(1.0, 0.5), m_level=1.0, t=0.015)
    assert calls == [(15, 0, True, 0)]


# occupation_sampler's one-chain run (snapshots, both batch-means se arrays
# and the ∫‖X‖²_V time average after burn-in) and invariance_residual's rows
# restarted from its snapshots
OCCUPATION_SHA256 = "9351d1d6938b8dc7dd56edf73155065c55b60f7c2009a1f1eae62b48009fe8fb"


def test_occupation_digest():
    from see_lab.ergodicity import MonteCarloPlan, invariance_residual, occupation_sampler

    h = hashlib.sha256()
    cfg = StepperConfig(dt=1e-3)
    for name in ("benchmark", "boundary_active"):
        model, x = _golden_case(name)
        occ = occupation_sampler(model, x, t_burn=0.05, t_avg=0.4, thin=10, cfg=cfg, seed=29)
        h.update(_sha256(occ.states, occ.se_mean, occ.se_second).encode())
        h.update(repr(occ.vsq_time_average).encode())
        plan = MonteCarloPlan(n_paths=2, t_grid=np.array([0.01]), base_seed=29, cfg=cfg)
        verdict, rows = invariance_residual(model, occ, 0.02, 6, plan)
        h.update(repr((name, verdict, rows)).encode())
    assert h.hexdigest() == OCCUPATION_SHA256


# Paths the digests above do not reach: every built-in model has a constant
# σ.  Here σ depends on the state, through g(|X|_H) (never clipped: g runs
# from 1 to 1.5 in the ball) or through a custom hook, and one case runs the
# penalized scheme on the sphere.  Single runs step 200 steps from the golden
# starts; the coupled case steps X with one steered and one synchronous Y.
NOISE_PATH_SHA256 = {
    "slope_benchmark":
        "8261fc9b5c1e6481901df1b247c974f56f86d973ac5fc3df6256280981204b75",
    "slope_boundary_active":
        "e6c25cc077cfe6fbf72f75ba651701f3f55ebb678c33731d1f448f64b04cd85b",
    "custom_benchmark":
        "77dae3fd8d152b8c0d5913dbe7dd9ef6a548f9c03da8256561e128463954ee2a",
    "custom_boundary_active":
        "794696490e36313e9fd2dc56e0e94103f58ba7556617f9513165779bf8ef5908",
    "penalized_boundary_active":
        "3254e5befbd606c25eeb631a1faeab5b8989275b05057bab586172f0089441ff",
}
SLOPE_COUPLED_SHA256 = "278998cb0e553686b00b43771031891fa5273b2167051e22a31eca8a49dd71b2"


def _state_noise_model(base, kind):
    from see_lab.coefficients import NoiseMap, build_model, diag_affine_noise

    s = base.noise.s
    if kind == "slope":
        noise = diag_affine_noise(s, c_min=base.noise.c_min, g_base=1.0, g_slope=0.5,
                                  g_lo=0.5, g_hi=2.0)
    else:
        noise = NoiseMap(kind="custom",
                         diag_fn=lambda u: s * (1.0 + 2.0 * u[:, :1] * u[:, :1]) - 0.01 * u)
    return build_model(basis=base.basis, drift=base.drift, bilinear=base.bilinear, noise=noise,
                       lipschitz_c1=base.lipschitz_c1 + 1.0, coupling_n=base.coupling_n)


def _noise_path_case(name):
    kind, base_name = name.split("_", 1)
    model, x0 = _golden_case(base_name)
    if kind != "penalized":
        model = _state_noise_model(model, kind)
    scheme = "penalized" if kind == "penalized" else "projected"
    return model, x0, StepperConfig(dt=1e-3, scheme=scheme)


@pytest.mark.parametrize("name", sorted(NOISE_PATH_SHA256))
def test_noise_path_digest(name):
    model, x0, cfg = _noise_path_case(name)
    path = simulate_path(model, x0, 0.2, cfg, seed=77, path_index=3)
    assert NOISE_PATH_SHA256[name] == _sha256(path.states, path.ledger.increments)


def test_state_noise_coupled_digest():
    from see_lab.dynamics import TrajectoryRecorder, run_paths

    model, x0, cfg = _noise_path_case("slope_boundary_active")
    m = model.dim
    xs = np.repeat(x0[None, :], 3, axis=0)
    ys = np.stack([np.stack([-x0, 0.5 * x0[::-1], _spread_start(m, 0.99)[::-1]])] * 2)
    ys[1] *= 0.9
    recs = [TrajectoryRecorder(system) for system in ("x", 0, 1)]
    run_paths(model, cfg, xs, 200, 77, [3, 4, 9], recorders=recs, y0=ys,
              correction=(True, False))
    digest = _sha256(*(a for r in recs for a in (r.states, r.increments)))
    assert digest == SLOPE_COUPLED_SHA256
