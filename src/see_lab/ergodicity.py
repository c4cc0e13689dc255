"""Monte Carlo estimators and verdicts for the quantitative ergodicity bounds.

Each estimator drives a batch of (possibly coupled) paths through the
reflected stepper, reduces per-path functionals online, and compares the
sample mean against the corresponding explicit bound:

  weighted contraction   E[e^{-4∫‖X‖²} |X−Y|²] ≤ e^{(4C₁ − (3/4)λ_{N+1}) t} |x−y|²
  fourth moment          E[e^{-8∫‖X‖²} |X−Y|⁴] locally bounded in t
  exp integrability      E[e^{4δ∫‖X‖²}] ≤ e^{4δ + (8δ|f₀|² + (8δ+64δ²)(|σ₀|²+C₁)) t}
  Lyapunov               E|X(t)|² ≤ |x|² − λ₁∫E|X|² + Kt, K = 2(|f₀|²+|σ₀|²+2C₁)
  Feller modulus         E[sup_{s≤t} e^{-4∫‖X‖²}|X−X'|²] ∝ |v−v'|²
  coupled-pair distance  E d(X(t), Y(t)) as upper proxy for the coupling distance

Verdicts widen by 2 standard errors (≈95% CI) so that inequalities that hold
in expectation do not fail on sampling noise.  Every estimator is a
deterministic function of (plan.base_seed, model): sub-streams are derived
per estimator name, and aggregation is done on per-path arrays assembled in
path-index order.  Each fixed-start estimator runs its paths from one
start and reduces raw per-path values afterwards.  A run steps X once with
J Y systems on X's noise, so the battery steps X from x once, with the
steered Y and Feller's three scales as its Y systems, and feeds six
estimators from that run.  The sampled-pair checks (contraction and
d-smallness) share one runner: it steps all their start pairs as one
stacked run, one grid segment at a time, and yields mean + 2se of d for
every pair at each grid time.  Every upper-bound verdict is built by one
function from one rule, mean ≤ bound + 2se at every grid time.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import ModelSpec
from .coupling import DistanceParams, ShiftRecorder, d_distance_arr, select_delta
from .dynamics import (
    StepperConfig, _as_batch_x0, _write_csv, n_steps_for, run_paths, sample_ball,
    steps_for_times,
)
from .errors import ValidationError
from .rng import derive_seed
from .spectral import h_norm_arr, validate_h1

# Version of the battery's seed tags and run layout, printed in summary.txt;
# it moves whenever battery results move on purpose.  2: one steered run from
# (x, y) feeds four estimators, and Feller's scales are one stacked run.
# 3: the occupation measure is 20 chains of T = 1 on the batch axis, with
# between-chain standard errors.  4: the time average of ‖X‖²_V leaves out
# the burn-in.  5: d-smallness is checked at the contraction time t0.
# 6: X is stepped once from x, with the steered Y and Feller's scales as Y
# systems of one run; exp-integrability reads that run's ∫‖X‖²_V, and its
# verdict tests mean ≤ bound + 2se.
BATTERY_VERSION = 6

# ---------------------------------------------------------------------------
# plans, series, verdicts


@dataclass(frozen=True)
class MonteCarloPlan:
    n_paths: int
    t_grid: np.ndarray
    base_seed: int
    cfg: StepperConfig = field(default_factory=StepperConfig)
    model_id: str = ""  # when set, estimators reject mismatched models

    def __post_init__(self):
        grid = np.asarray(self.t_grid, dtype=float)
        if self.n_paths < 2:
            raise ValidationError("n_paths must be at least 2")
        if grid.size == 0:
            raise ValidationError("t_grid must be nonempty")
        if np.any(np.diff(grid) <= 0.0) or np.any(grid < 0.0):
            raise ValidationError("t_grid must be increasing and nonnegative")
        steps_for_times(grid, self.cfg.dt)  # raises if not dt-divisible
        object.__setattr__(self, "t_grid", grid)

    @property
    def grid_steps(self) -> np.ndarray:
        return steps_for_times(self.t_grid, self.cfg.dt)

    def check_model(self, model):
        if self.model_id and self.model_id != model.model_id:
            raise ValidationError(
                f"plan was built for model {self.model_id}, got {model.model_id}"
            )


@dataclass(frozen=True)
class EstimateSeries:
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_effective: np.ndarray


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    margin: float
    detail: str

    @property
    def line(self) -> str:
        """`[PASS] name: detail` or `[FAIL] name: detail`."""
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def h1_verdict(model: ModelSpec, variant: str = "generic") -> Verdict:
    """The spectral-gap hypothesis (H1) as a verdict: λ_{N+1} above the
    variant's threshold, with σ invertible on the coupled modes.  The
    generic variant is `h1_spectral_gap`, the NSE one `h1_nse_variant`."""
    return _h1_verdict(validate_h1(model, variant=variant))


def _h1_verdict(h1) -> Verdict:
    variant = h1.variant
    return Verdict(
        name="h1_spectral_gap" if variant == "generic" else f"h1_{variant}_variant",
        passed=h1.passed and h1.pinv_ok,
        margin=h1.lambda_next - h1.threshold,
        detail=(
            f"lambda_(N+1)={h1.lambda_next:g} > {variant} threshold {h1.threshold:g} "
            f"and noise invertible on coupled modes: {h1.pinv_ok}"
        ),
    )


def _series_from_values(t_grid, values) -> EstimateSeries:
    """values: (P, G) per-path samples -> mean/stderr series per grid time.

    An overflowed (infinite) sample poisons the mean to infinity on purpose;
    n_effective counts the finite samples."""
    n_eff = np.isfinite(values).sum(axis=0)
    mean = values.mean(axis=0)
    with np.errstate(invalid="ignore"):
        sd = values.std(axis=0, ddof=1)
    stderr = np.where(np.isfinite(sd), sd / np.sqrt(values.shape[0]), np.inf)
    return EstimateSeries(np.asarray(t_grid, float), mean, stderr, n_eff)


# ---------------------------------------------------------------------------
# batch capture machinery


class ValueCapture:
    """Record named per-path functionals at grid steps.

    channels: name -> fn(rt) -> (..., P), evaluated at each grid step (step
    0 included via begin); the values of a channel are (..., P, G).  sups:
    same, but the running max since t = 0 is what gets snapshotted at grid
    steps.  A channel that reads a running integral reads it from a
    recorder placed before this one in the run.
    """

    def __init__(self, grid_steps, channels, sups=None):
        self.cols = {int(s): i for i, s in enumerate(np.asarray(grid_steps))}
        self.n_grid = len(self.cols)
        self.channels = channels
        self.sups = sups or {}
        self.values = {}
        self._running = {}

    def begin(self, rt):
        for name, fn in self.sups.items():
            self._running[name] = fn(rt).copy()
        if 0 in self.cols:
            self._snapshot(rt, self.cols[0])

    def on_step(self, rt):
        for name, fn in self.sups.items():
            np.maximum(self._running[name], fn(rt), out=self._running[name])
        col = self.cols.get(rt.k + 1)
        if col is not None:
            self._snapshot(rt, col)

    def _snapshot(self, rt, col):
        for name, fn in self.channels.items():
            self._put(name, col, fn(rt))
        for name, running in self._running.items():
            self._put(name, col, running)

    def _put(self, name, col, val):
        if name not in self.values:  # the first grid step shows the shape
            self.values[name] = np.empty((*np.shape(val), self.n_grid))
        self.values[name][..., col] = val


def _check_starts(model, x, ys=()):
    """The X start x and every Y start in ys has length M and lies in the
    closed unit ball, as in simulate_path; a bad start raises
    ValidationError naming it x0 or y0."""
    for name, start in [("x0", x), *(("y0", y) for y in ys)]:
        _as_batch_x0(model, start, name)


def _run_captured(
    model,
    plan: MonteCarloPlan,
    start,
    seed_tag: str,
    channels,
    sups=None,
    y_starts=(),
    correction=True,
    integrals=(),
):
    """Run plan.n_paths paths from the start (M,) as one run_paths call and
    capture channel values.

    A coupled run adds J Y systems: Y system j begins at y_starts[j], (M,),
    and `correction` flags the steered systems.  `integrals` are the
    recorders the channels read; they run before the capture.  The start
    and every Y start must pass _check_starts.  Returns dict name ->
    (..., n_paths, G), the leading axes those of the channel's value.
    """
    plan.check_model(model)
    grid_steps = plan.grid_steps
    _check_starts(model, start, y_starts)
    x0 = np.repeat(np.asarray(start, dtype=float)[None], plan.n_paths, axis=0)
    y0 = None
    if y_starts:
        y0 = np.repeat(np.asarray(y_starts, dtype=float)[:, None], plan.n_paths, axis=1)
    cap = ValueCapture(grid_steps, channels, sups)
    run_paths(
        model, plan.cfg, x0, int(grid_steps.max()), derive_seed(plan.base_seed, seed_tag),
        np.arange(plan.n_paths), recorders=[*integrals, cap], y0=y0, correction=correction,
    )
    return cap.values


class _SqNormIntegral:
    """Σ_i w_i X_i² of the X rows at the current state (`now`) and its
    running trapezoidal integral over [0, t] (`trapz`): w = λ gives ‖X‖²_V,
    w = 1 gives |X|²_H."""

    def __init__(self, weights):
        self.weights = weights
        self.now = None
        self.trapz = None

    def begin(self, rt):
        self.now = self._sq(rt)
        self.trapz = np.zeros(rt.p)

    def on_step(self, rt):
        new = self._sq(rt)
        self.trapz += 0.5 * rt.dt * (self.now + new)
        self.now = new

    def _sq(self, rt):
        x = rt.rows(rt.state)
        return (self.weights * x * x).sum(axis=1)


def _pair_values(
    model, plan: MonteCarloPlan, x, ys, seed_tag, vint=False, sup=None,
    correction=True, shift=None,
):
    """Raw per-path values of plan.n_paths coupled paths from the start x,
    with J Y systems, all stepped as one run_paths call: Y system j starts
    at ys[j], and `correction` (one bool, or one per system) says which
    systems are steered.  At the grid times:

      g2    |X − Y_j|²_H of every Y system, (J, n_paths, G);
      vint  ∫₀ᵗ ‖X‖²_V, (n_paths, G), when asked for;
      sup   sup_{s≤t} e^{-4∫₀ˢ‖X‖²_V} |X − Y_j|²_H of the Y systems that the
            slice `sup` selects, when given; e^{-4∫‖X‖²_V} is computed once
            per step for all of them.

    x and each ys[j] are (M,).  A ShiftRecorder `shift` on Y system 0 rides
    along.  The estimators reduce these values.
    """
    vsq = _SqNormIntegral(model.basis.eigenvalues)

    def g2(rt, systems=slice(None)):
        gap = rt.rows(rt.state) - rt.y_systems(rt.state)[systems]
        return (gap * gap).sum(axis=-1)

    channels = {"g2": g2}
    if vint:
        channels["vint"] = lambda rt: vsq.trapz
    sups = None
    if sup is not None:
        sups = {"sup": lambda rt: np.exp(-4.0 * vsq.trapz) * g2(rt, sup)}
    integrals = ([vsq] if vint or sup is not None else []) + ([shift] if shift is not None else [])
    return _run_captured(model, plan, x, seed_tag, channels, sups, ys, correction, integrals)


def _weighted_gap(vals, coef: float, power: int):
    """e^{-coef ∫‖X‖²_V} |X − Y|^power_H of Y system 0, from _pair_values'
    g2 and vint."""
    return np.exp(-coef * vals["vint"]) * vals["g2"][0] ** (power / 2.0)


def _distance(vals, p: DistanceParams):
    """d(X, Y) of Y system 0, from _pair_values' g2."""
    return d_distance_arr(np.sqrt(vals["g2"][0]), p)


def _upper_slack(series: EstimateSeries, bound):
    """bound + 2se − mean at every grid time.  An estimate passes its upper
    bound where this is ≥ 0 (mean ≤ bound + 2se), and the least of it is
    the margin, in the statistic's own units.  _upper_verdict (the
    weighted-contraction, exp-integrability and Lyapunov verdicts) and the
    pass column of every series CSV use this one rule."""
    return np.asarray(bound) + 2.0 * series.stderr - series.mean


def _upper_verdict(name, series: EstimateSeries, bound, detail) -> Verdict:
    """Passes iff _upper_slack ≥ 0 at every grid time; its least value is
    the margin."""
    slack = _upper_slack(series, bound)
    return Verdict(name, bool(np.all(slack >= 0.0)), float(np.min(slack)), detail)


# ---------------------------------------------------------------------------
# estimators: each one runs under its own seed tag, then reduces


def weighted_contraction_estimate(model: ModelSpec, x, y, plan: MonteCarloPlan):
    """Sample E[exp(−4∫₀ᵗ‖X‖²) |X(t) − Y(t)|²] and compare with
    exp{(4C₁ − (3/4)λ_{N+1}) t} |x−y|² at every grid time."""
    h1 = validate_h1(model)
    if not h1.passed:
        warnings.warn("spectral-gap condition fails; contraction bound may be void")
    vals = _pair_values(model, plan, x, [y], "weighted_contraction", vint=True)
    return _weighted_contraction(model, x, y, plan, vals)


def _weighted_contraction(model, x, y, plan, vals):
    series = _series_from_values(plan.t_grid, _weighted_gap(vals, 4.0, 2))
    gap0 = float(h_norm_arr(np.asarray(x, float) - np.asarray(y, float)) ** 2)
    expo = 4.0 * model.lipschitz_c1 - 0.75 * float(
        model.basis.eigenvalues[model.coupling_n]
    )
    bound = np.exp(expo * series.t) * gap0
    verdict = _upper_verdict(
        "weighted_contraction", series, bound,
        f"E[exp(-4*int ||X||^2) |X-Y|^2] - 2se <= exp(({expo:.6g})t)|x-y|^2 at all grid t",
    )
    return series, bound, verdict


def fourth_moment_estimate(model: ModelSpec, x, y, plan: MonteCarloPlan):
    """Sample E[exp(−8∫‖X‖²)|X−Y|⁴]/|x−y|⁴ and check it stays locally
    bounded: max over the grid ≤ 10 × the first grid value."""
    vals = _pair_values(model, plan, x, [y], "fourth_moment", vint=True)
    return _fourth_moment(x, y, plan, vals)


def _fourth_moment(x, y, plan, vals):
    series = _series_from_values(plan.t_grid, _weighted_gap(vals, 8.0, 4))
    gap0_4 = float(h_norm_arr(np.asarray(x, float) - np.asarray(y, float)) ** 4)
    if gap0_4 == 0.0:
        ratio = np.zeros_like(series.mean)  # identical starts: zero series
    else:
        ratio = series.mean / gap0_4
    passed = bool(np.max(ratio) <= 10.0 * ratio[0] + 1e-300)
    verdict = Verdict(
        name="fourth_moment",
        passed=passed,
        margin=float(10.0 * ratio[0] - np.max(ratio)),
        detail="max_t E[exp(-8*int ||X||^2)|X-Y|^4]/|x-y|^4 <= 10x first grid value",
    )
    return series, ratio, verdict


def exp_integrability_bound(model: ModelSpec, delta: float, t: np.ndarray):
    rate = (
        8.0 * delta * model.f0_vstar**2
        + (8.0 * delta + 64.0 * delta**2) * model.sigma0_hs**2
        + (8.0 * delta + 64.0 * delta**2) * model.lipschitz_c1
    )
    return np.exp(4.0 * delta + rate * np.asarray(t))


def exp_integrability_estimate(model: ModelSpec, x, delta: float, plan: MonteCarloPlan):
    """Sample E[exp(4δ∫₀ᵗ‖X‖²)] against its explicit exponential bound:
    passes iff mean ≤ bound + 2se at every grid time."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    vsq = _SqNormIntegral(model.basis.eigenvalues)
    vals = _run_captured(
        model, plan, x, "exp_integrability", {"vint": lambda rt: vsq.trapz}, integrals=[vsq],
    )
    return _exp_integrability(model, delta, plan, vals)


def _exp_integrability(model, delta, plan, vals):
    series = _series_from_values(plan.t_grid, np.exp(4.0 * delta * vals["vint"]))
    bound = exp_integrability_bound(model, delta, series.t)
    if not np.all(np.isfinite(series.mean)):
        verdict = Verdict(
            name="exp_integrability",
            passed=False,
            margin=float("-inf"),
            detail="exponential estimate overflowed to infinity",
        )
        return series, bound, verdict
    verdict = _upper_verdict(
        "exp_integrability", series, bound,
        f"E[exp(4d*int ||X||^2)] <= bound + 2se, delta={delta:.4g}",
    )
    return series, bound, verdict


def lyapunov_constants(model: ModelSpec):
    k_const = 2.0 * (model.f0_vstar**2 + model.sigma0_hs**2 + 2.0 * model.lipschitz_c1)
    return float(model.basis.eigenvalues[0]), k_const


def lyapunov_check(model: ModelSpec, x, plan: MonteCarloPlan):
    """Check E|X(t)|² + λ₁ ∫₀ᵗ E|X|² ≤ |x|² + Kt within 5% slack + 2 se."""
    x = np.asarray(x, dtype=float)
    gamma_lyap, k_const = lyapunov_constants(model)
    hsq = _SqNormIntegral(1.0)

    def chan(rt):
        return hsq.now + gamma_lyap * hsq.trapz

    vals = _run_captured(model, plan, x, "lyapunov", {"lhs": chan}, integrals=[hsq])
    series = _series_from_values(plan.t_grid, vals["lhs"])
    x_sq = float((x * x).sum())
    rhs = x_sq + k_const * series.t
    verdict = _upper_verdict(
        "lyapunov", series, rhs * 1.05,
        f"E|X(t)|^2 + lambda_1*int E|X|^2 <= |x|^2 + K t (K={k_const:.6g}) "
        "with 5% slack + 2se",
    )
    return series, verdict, {"gamma": gamma_lyap, "K": k_const}


FELLER_SCALES = (1.0, 0.1, 0.01)


def _feller_starts(v, v_prime, scales):
    """The start v + s(v' − v) of every scale s."""
    v = np.asarray(v, dtype=float)
    gap = np.asarray(v_prime, dtype=float) - v
    return [v + s * gap for s in scales]


def feller_modulus_estimate(
    model: ModelSpec, v, v_prime, plan: MonteCarloPlan, scales=FELLER_SCALES
):
    """Synchronous-coupling modulus: mean of sup_{s≤t} e^{-4∫‖X‖²}|X−X'|²
    must scale like |v−v'|² (ratio stable within factor 4 across two decades
    of |v−v'|).  X runs once from v, and the X' of every scale is an
    uncorrected Y system on X's noise: the scales share their random numbers."""
    _check_starts(model, v, [v_prime])
    vals = _pair_values(
        model, plan, v, _feller_starts(v, v_prime, scales), "feller_modulus",
        sup=slice(None), correction=False,
    )
    return _feller_modulus(v, v_prime, plan, scales, vals["sup"])


def _feller_modulus(v, v_prime, plan, scales, sup_vals):
    """The ratios and verdict from sup_vals, (len(scales), n_paths, G)."""
    gap = np.asarray(v_prime, dtype=float) - np.asarray(v, dtype=float)
    t_max = float(plan.t_grid[-1])
    ratios = []
    for s, sup_last in zip(scales, sup_vals[:, :, -1]):
        gap_sq = float(h_norm_arr(s * gap) ** 2)
        ratios.append(float(sup_last.mean()) / gap_sq if gap_sq > 0.0 else 0.0)
    if max(ratios) == 0.0:
        spread = 1.0  # v = v': zero modulus at every scale
    else:
        spread = max(ratios) / max(min(ratios), 1e-300)
    verdict = Verdict(
        name="feller_modulus",
        passed=bool(spread <= 4.0),
        margin=float(4.0 - spread),
        detail=(
            f"sup-modulus/|v-v'|^2 ratios {ratios} at t={t_max:.4g} spread {spread:.3g} <= 4"
        ),
    )
    return ratios, verdict


def coupled_distance_series(
    model: ModelSpec, x, y, plan: MonteCarloPlan, p: DistanceParams, seed_tag=None
) -> EstimateSeries:
    """E d(X(t), Y(t)) over the steered coupling at every grid time."""
    vals = _pair_values(model, plan, x, [y], seed_tag or "coupled_distance")
    return _series_from_values(plan.t_grid, _distance(vals, p))


def wasserstein_upper(
    model: ModelSpec, x, y, t: float, plan: MonteCarloPlan, p: DistanceParams
):
    """Coupled-pair mean distance at time t: an upper proxy for the coupling
    distance between the two time-t laws (the steered pair is one coupling).
    Returns (mean, stderr)."""
    sub = replace(plan, t_grid=np.array([t]) if t > 0 else np.array([0.0]))
    series = coupled_distance_series(model, x, y, sub, p, seed_tag="wasserstein_upper")
    return float(series.mean[-1]), float(series.stderr[-1])


def _sample_pairs(rng, n_pairs, m, center_radius, gap_lo, gap_hi):
    xs = sample_ball(rng, n_pairs, m, radius=center_radius)
    dirs = rng.standard_normal((n_pairs, m))
    dirs /= np.maximum(h_norm_arr(dirs), 1e-300)[:, None]
    lens = gap_lo + (gap_hi - gap_lo) * rng.random(n_pairs)
    ys = xs + dirs * lens[:, None]
    return xs, ys


def _pair_upper_means(model, plan: MonteCarloPlan, xs, ys, seed_tag, p: DistanceParams):
    """mean + 2se of d(X(t), Y(t)) over the steered pairs from every start
    pair (xs[s], ys[s]), (S,) per grid time of plan, yielded in grid order.

    plan.n_paths paths of every pair are stepped as one stacked run, one
    grid segment at a time (run_paths resumed with step0), so a caller that
    stops reading stops the stepping there."""
    plan.check_model(model)
    seed = derive_seed(plan.base_seed, seed_tag)
    n_pairs = xs.shape[0]
    x, y = (np.repeat(a, plan.n_paths, axis=0) for a in (xs, ys))
    path_indices = np.arange(x.shape[0])  # path i of pair s is s * n_paths + i
    # g2 = |X − Y|²_H per pair, path and grid time; the reductions run over
    # the whole (S, n_paths, G) array, so each column sums in the same order
    # whether or not the later columns are filled yet
    g2 = np.zeros((n_pairs, plan.n_paths, plan.t_grid.size))
    done = 0
    for j, step in enumerate(plan.grid_steps):
        x, y = run_paths(model, plan.cfg, x, int(step) - done, seed, path_indices,
                         y0=y, step0=done)
        done = int(step)
        gap = x - y
        g2[:, :, j] = (gap * gap).sum(axis=1).reshape(n_pairs, plan.n_paths)
        d = d_distance_arr(np.sqrt(g2), p)
        se = d.std(axis=1, ddof=1) / np.sqrt(plan.n_paths)
        yield (d.mean(axis=1) + 2.0 * se)[:, j]


def contraction_check(
    model: ModelSpec,
    plan: MonteCarloPlan,
    p: DistanceParams,
    n_pairs: int = 20,
):
    """Find the smallest grid time t0 at which the coupled-pair distance
    ratio (mean + 2se)/d(x,y) is ≤ 2/3 for every sampled pair with d < 1.

    Stepping stops at t0: a path that would only diverge after t0 is never
    stepped there.

    Returns (verdict, t0 or None, alpha) where alpha is the worst ratio at t0.
    """
    grid = plan.t_grid[plan.t_grid > 0.0]
    if grid.size == 0:
        raise ValidationError("t0 search grid needs positive times")
    rng = np.random.default_rng(derive_seed(plan.base_seed, "contraction_pairs"))
    xs, ys = _sample_pairs(rng, n_pairs, model.dim, 0.3, 0.1, 0.6)
    d0 = d_distance_arr(h_norm_arr(xs - ys), p)
    if np.any(d0 >= 1.0) or np.any(d0 <= 0.0):
        raise ValidationError("sampled pairs must have 0 < d(x,y) < 1")

    sub = replace(plan, t_grid=grid)
    for t, upper in zip(grid, _pair_upper_means(model, sub, xs, ys, "contraction_check", p)):
        worst = float((upper / d0).max())
        if worst <= 2.0 / 3.0:
            verdict = Verdict(
                name="contraction",
                passed=True,
                margin=float(2.0 / 3.0 - worst),
                detail=f"(mean+2se)/d <= 2/3 for all {n_pairs} pairs at t0={t:.4g}",
            )
            return verdict, float(t), worst
    verdict = Verdict(
        name="contraction",
        passed=False,
        margin=float(2.0 / 3.0 - worst),
        detail=f"no grid t0 reached ratio 2/3; ratio at t={grid[-1]:.4g} is {worst:.4g}",
    )
    return verdict, None, worst


def d_small_check(
    model: ModelSpec,
    plan: MonteCarloPlan,
    p: DistanceParams,
    m_level: float,
    t: float,
    n_pairs: int = 10,
):
    """On {V ≤ M} ∩ ball (V = |·|²_H), estimate sup over sampled pairs of the
    coupled-pair mean distance at time t; report ε = 1 − sup (CI-widened).

    Passes iff ε ≥ 0.05."""
    rng = np.random.default_rng(derive_seed(plan.base_seed, "d_small_pairs"))
    m = model.dim
    radius = min(1.0, float(np.sqrt(max(m_level, 0.0))))
    xs = sample_ball(rng, n_pairs, m, radius=radius)
    ys = sample_ball(rng, n_pairs, m, radius=radius)
    sub = replace(plan, t_grid=np.array([t]))
    (upper,) = _pair_upper_means(model, sub, xs, ys, "d_small_check", p)
    eps = 1.0 - float(np.max(upper))
    verdict = Verdict(
        name="d_small",
        passed=bool(eps >= 0.05),
        margin=float(eps - 0.05),
        detail=f"sup over {n_pairs} pairs in {{V<={m_level:g}}} of E d(X(t),Y(t)) at t={t:g}",
    )
    return verdict, eps


# ---------------------------------------------------------------------------
# occupation measures and invariance


@dataclass(frozen=True)
class OccupationMeasure:
    states: np.ndarray  # (S, M) thinned snapshots, chain-major
    weights: np.ndarray  # (S,) equal, sums to 1
    mean_coeffs: np.ndarray  # (M,)
    second_moments: np.ndarray  # (M,) per-mode E[X_i²]
    se_mean: np.ndarray  # batch means (one chain) or between-chain standard errors
    se_second: np.ndarray
    vsq_time_average: float  # chain mean of (1/T_avg)∫ ‖X‖²_V ds after burn-in
    vsq_bound: float  # 2(|f₀|² + |σ₀|² + 2C₁)
    seed: int
    n_chains: int  # R; chain r holds states[r * S/R : (r + 1) * S/R]
    rhat: np.ndarray  # (M,) split-R̂ of X_i² over the chains' halves


class _SnapshotRecorder:
    """Thinned snapshots of every chain (batch row) after burn-in, and each
    chain's running ∫‖X‖²_V ds over the same window.  The integral is kept
    here, not in a second recorder, so the chains pay for one recorder call
    per step."""

    def __init__(self, burn_steps, thin, n_snaps, n_chains, m):
        self.burn = burn_steps
        self.thin = thin
        self.rows = np.empty((n_snaps, n_chains, m))
        self.count = 0

    def begin(self, rt):
        self._lam, self._half_dt = rt.model.basis.eigenvalues, 0.5 * rt.dt
        self.vsq_trapz = np.zeros(rt.p)
        if self.burn == 0:
            self._vsq = (self._lam * rt.state * rt.state).sum(axis=1)
            self.rows[self.count] = rt.state
            self.count += 1

    def on_step(self, rt):
        k1 = rt.k + 1
        if k1 < self.burn:
            return
        vsq = (self._lam * rt.state * rt.state).sum(axis=1)
        if k1 > self.burn:
            self.vsq_trapz += self._half_dt * (self._vsq + vsq)
        self._vsq = vsq
        if (k1 - self.burn) % self.thin == 0:
            if self.count < self.rows.shape[0]:
                self.rows[self.count] = rt.state
                self.count += 1


def batch_means_se(samples: np.ndarray, n_batches: int = 20) -> np.ndarray:
    """Standard error of the mean of an autocorrelated series via batch means.

    samples: (S,) or (S, M); returns per-column se."""
    s = np.atleast_2d(samples.T).T
    nb = max(2, min(n_batches, s.shape[0] // 2)) if s.shape[0] >= 4 else 2
    edges = np.linspace(0, s.shape[0], nb + 1).astype(int)
    means = np.stack([s[edges[i]: edges[i + 1]].mean(axis=0) for i in range(nb)])
    return means.std(axis=0, ddof=1) / np.sqrt(nb)


def _chain_blocks(samples: np.ndarray, n_chains: int) -> np.ndarray:
    """(S,) or (S, M) chain-major samples -> (R, S/R, M)."""
    s = np.atleast_2d(samples.T).T
    return s.reshape(n_chains, -1, s.shape[1])


def occupation_se(samples: np.ndarray, n_chains: int) -> np.ndarray:
    """Standard error of the pooled mean of chain-major samples: batch means
    over 20 batches for one chain; for R > 1 independent chains, one batch
    per chain, i.e. the spread of the R chain means."""
    if n_chains == 1:
        return batch_means_se(samples)
    means = _chain_blocks(samples, n_chains).mean(axis=1)
    return means.std(axis=0, ddof=1) / np.sqrt(n_chains)


def split_rhat(samples: np.ndarray, n_chains: int) -> np.ndarray:
    """Per-column split-R̂ (Gelman et al., BDA3 §11.4) of chain-major samples.

    Each chain is cut into a first and a last half (the middle draw of an
    odd-length chain is dropped), and R̂ = sqrt(((n−1)/n W + B/n) / W) over
    the 2R halves of length n, with W the mean within-half variance and B/n
    the variance of the half means.  NaN where that ratio is 0/0 (a
    constant column) and where a half has fewer than 2 draws; inf where
    only W is 0."""
    chains = _chain_blocks(samples, n_chains)
    n = chains.shape[1] // 2
    if n < 2:
        return np.full(chains.shape[2], np.nan)
    halves = np.concatenate([chains[:, :n], chains[:, chains.shape[1] - n:]])
    with np.errstate(divide="ignore", invalid="ignore"):
        w = halves.var(axis=1, ddof=1).mean(axis=0)
        b_over_n = halves.mean(axis=1).var(axis=0, ddof=1)
        return np.sqrt(((n - 1) / n * w + b_over_n) / w)


def occupation_sampler(
    model: ModelSpec,
    x,
    t_burn: float,
    t_avg: float,
    thin: int,
    cfg: StepperConfig,
    seed: int,
    n_chains: int = 1,
) -> OccupationMeasure:
    """Trajectory snapshots every `thin` steps on [T_burn, T_burn + T_avg],
    equal weights, plus the time average of ‖X‖²_V over the same window
    against its Lipschitz-constant bound.

    n_chains: R independent chains, all started at x, stepped as the rows of
    one run with path indices 0..R−1; each burns T_burn and then averages
    over its own T_avg.  Chain 0 is the one-chain run.  The pooled states
    are chain-major.  With R = 1 the standard errors are batch means over
    20 batches of the one series; with R > 1 they are between-chain (one
    batch per chain).  `rhat` is the split-R̂ of each X_i² over the chains'
    halves.
    """
    if int(n_chains) != n_chains or n_chains < 1:
        raise ValidationError("n_chains must be a positive integer")
    n_chains = int(n_chains)
    x0 = np.repeat(_as_batch_x0(model, np.asarray(x, dtype=float)), n_chains, axis=0)
    burn_steps = n_steps_for(t_burn, cfg.dt)
    avg_steps = n_steps_for(t_avg, cfg.dt)
    if avg_steps < 1:
        raise ValidationError("t_avg must be at least one step")
    n_snaps = avg_steps // thin + 1
    rec = _SnapshotRecorder(burn_steps, thin, n_snaps, n_chains, model.dim)
    run_paths(model, cfg, x0, burn_steps + avg_steps, seed, np.arange(n_chains),
              recorders=[rec])
    states = rec.rows[: rec.count].transpose(1, 0, 2).reshape(-1, model.dim)
    second = states * states
    _, k_const = lyapunov_constants(model)
    return OccupationMeasure(
        states=states,
        weights=np.full(states.shape[0], 1.0 / states.shape[0]),
        mean_coeffs=states.mean(axis=0),
        second_moments=second.mean(axis=0),
        se_mean=occupation_se(states, n_chains),
        se_second=occupation_se(second, n_chains),
        vsq_time_average=float((rec.vsq_trapz / (avg_steps * cfg.dt)).mean()),
        vsq_bound=k_const,
        seed=seed,
        n_chains=n_chains,
        rhat=split_rhat(second, n_chains),
    )


def bounded_test_functions(m: int, n_fns: int):
    """Deterministic bounded-Lipschitz observables: mode-wise sinusoids plus
    the truncated squared norm."""
    fns = []
    j = 0
    while len(fns) < n_fns - 1:
        mode = j % min(m, 4)
        freq = 1.0 + (j // min(m, 4))
        if j % 2 == 0:
            fns.append((f"sin_{freq:g}_u{mode + 1}",
                        lambda u, a=freq, i=mode: np.sin(a * u[..., i])))
        else:
            fns.append((f"cos_{freq:g}_u{mode + 1}",
                        lambda u, a=freq, i=mode: np.cos(a * u[..., i])))
        j += 1
    fns.append(("min_hsq_1", lambda u: np.minimum((u * u).sum(axis=-1), 1.0)))
    return fns


def invariance_residual(
    model: ModelSpec,
    occ: OccupationMeasure,
    test_horizon: float,
    n_test_fns: int,
    plan: MonteCarloPlan,
):
    """Restart paths from occupation samples, evolve the test horizon, and
    compare E_occ[T_Δφ] with E_occ[φ] for each test function.

    Passes iff every |residual| ≤ 3 × stderr of the paired differences:
    batch means for a one-chain occ, one batch per chain for R > 1."""
    starts = occ.states
    n_steps = n_steps_for(test_horizon, plan.cfg.dt)
    seed = derive_seed(plan.base_seed, "invariance_residual")
    finals, _ = run_paths(
        model, plan.cfg, starts.copy(), n_steps, seed, np.arange(starts.shape[0])
    )
    fns = bounded_test_functions(model.dim, n_test_fns)
    rows = []
    all_ok = True
    for name, fn in fns:
        diff = fn(finals) - fn(starts)
        resid = float(np.abs(diff.mean()))
        se = float(occupation_se(diff, occ.n_chains)[0])
        ok = resid <= 3.0 * se + 1e-12
        all_ok &= ok
        rows.append((name, resid, se, ok))
    verdict = Verdict(
        name="invariance_residual",
        passed=bool(all_ok),
        margin=float(min(3.0 * se + 1e-12 - r for _, r, se, _ in rows)),
        detail=f"|E_occ[T_dphi] - E_occ[phi]| <= 3se for {len(rows)} test functions",
    )
    return verdict, rows


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    rate: float  # r > 0 means decay e^{-rt}
    prefactor: float  # C
    r_squared: float
    rate_se: float
    log_prefactor_se: float
    n_used: int


def fit_exponential_rate(series: EstimateSeries) -> RateFit:
    """Least-squares fit of log(mean) = log C − r t.

    Nonpositive or nonfinite means are dropped with a warning; at least
    three usable points are required."""
    t = np.asarray(series.t, dtype=float)
    m = np.asarray(series.mean, dtype=float)
    usable = np.isfinite(m) & (m > 0.0)
    if usable.sum() < m.size:
        warnings.warn(f"dropping {int(m.size - usable.sum())} nonpositive mean entries")
    if usable.sum() < 3:
        raise ValidationError("need at least 3 positive mean values to fit a rate")
    t, ym = t[usable], np.log(m[usable])
    n = t.size
    a = np.vstack([t, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(a, ym, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ym - a @ coef
    ss_res = float((resid * resid).sum())
    ss_tot = float(((ym - ym.mean()) ** 2).sum())
    r_sq = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    s2 = ss_res / (n - 2)
    txx = float(((t - t.mean()) ** 2).sum())
    slope_se = float(np.sqrt(s2 / max(txx, 1e-300)))
    inter_se = float(np.sqrt(s2 * (1.0 / n + t.mean() ** 2 / max(txx, 1e-300))))
    return RateFit(
        rate=-slope,
        prefactor=float(np.exp(intercept)),
        r_squared=r_sq,
        rate_se=slope_se,
        log_prefactor_se=inter_se,
        n_used=n,
    )


# ---------------------------------------------------------------------------
# report assembly and persistence


@dataclass(frozen=True)
class ErgodicityReport:
    fitted_rate: float
    fitted_constant: float
    r_squared: float
    verdicts: list
    lyapunov_gamma: float
    lyapunov_k: float
    distance: DistanceParams
    delta_exponent: float
    shift_cost_mean: float
    notes: tuple = ()


def run_ergodicity_battery(
    model: ModelSpec,
    plan: MonteCarloPlan,
    dist: DistanceParams | None = None,
    x=None,
    y=None,
    occupation: bool = True,
) -> tuple[ErgodicityReport, dict]:
    """Full estimator battery; returns (report, series dict for persistence).

    The weak Harris theorem behind the coupling argument (Hairer, Mattingly
    & Scheutzow, PTRF 2011, Thm 4.8) needs d-contraction and d-smallness at
    one and the same time t0.  So `d_small_check` runs at the t0 that
    `contraction_check` found; smallness after a shorter time is the
    stronger statement.  When contraction fails there is no t0, and
    d-smallness is checked at the last grid time instead.
    """
    m = model.dim
    if x is None:
        x = np.zeros(m)
        x[0] = 0.5
    if y is None:
        y = np.zeros(m)
        y[0] = -0.5
    x, y = _as_batch_x0(model, x)[0], _as_batch_x0(model, y, "y0")[0]
    delta, expo = select_delta(model)
    if dist is None:
        dist = DistanceParams(n_tilde=1.0, delta=delta)

    h1 = validate_h1(model)
    verdicts = [_h1_verdict(h1)]
    series_out = {}

    # one run steps X from x with four Y systems on its noise: the steered y
    # (system 0) and Feller's synchronous scales.  It feeds the weighted
    # contraction, the fourth moment, exp-integrability, Feller, the coupled
    # distance and the shift cost (β needs σ's pseudo-inverse)
    shift = ShiftRecorder() if h1.pinv_ok else None
    steered = _pair_values(
        model, plan, x, [y, *_feller_starts(x, y, FELLER_SCALES)], "steered_pair",
        vint=True, sup=slice(1, None), correction=(True,) + (False,) * len(FELLER_SCALES),
        shift=shift,
    )

    wseries, wbound, v = _weighted_contraction(model, x, y, plan, steered)
    verdicts.append(v)
    series_out["weighted_contraction"] = (wseries, wbound)

    fseries, _, v = _fourth_moment(x, y, plan, steered)
    verdicts.append(v)
    series_out["fourth_moment"] = (fseries, None)

    eseries, ebound, v = _exp_integrability(model, delta, plan, steered)
    verdicts.append(v)
    series_out["exp_integrability"] = (eseries, ebound)

    lseries, v, lyap = lyapunov_check(model, x, plan)
    verdicts.append(v)
    series_out["lyapunov"] = (lseries, None)

    _, v = _feller_modulus(x, y, plan, FELLER_SCALES, steered["sup"])
    verdicts.append(v)

    v, t0, alpha = contraction_check(model, plan, dist)
    verdicts.append(v)

    t_small = t0 if t0 is not None else float(plan.t_grid[-1])
    v, eps = d_small_check(model, plan, dist, m_level=1.0, t=t_small)
    verdicts.append(v)

    occ_note = ()
    if occupation:
        # total averaging time 20, as 20 independent chains of T = 1
        occ = occupation_sampler(
            model, np.zeros(m), t_burn=1.0, t_avg=1.0, thin=200,
            cfg=plan.cfg, seed=derive_seed(plan.base_seed, "occupation"), n_chains=20,
        )
        occ_note = (  # fmax skips NaN modes; all NaN gives nan
            f"occupation: n_chains={occ.n_chains}, snapshots={occ.states.shape[0]}, "
            f"max split-R-hat={float(np.fmax.reduce(occ.rhat)):.6g}",
        )
        v, _ = invariance_residual(model, occ, 0.25, 10, plan)
        verdicts.append(v)
        verdicts.append(
            Verdict(
                name="vsq_time_average",
                passed=bool(occ.vsq_time_average <= occ.vsq_bound),
                margin=float(occ.vsq_bound - occ.vsq_time_average),
                detail="(1/T) int ||X||^2 <= 2(|f0|^2+|s0|^2+2C1)",
            )
        )

    dseries = _series_from_values(plan.t_grid, _distance(steered, dist))
    series_out["coupled_distance"] = (dseries, None)
    try:
        fit = fit_exponential_rate(dseries)
        verdicts.append(
            Verdict(
                name="rate_fit",
                passed=fit.rate > 0.0,
                margin=fit.rate,
                detail=f"fitted decay rate r={fit.rate:.6g} > 0 with r^2={fit.r_squared:.4g}",
            )
        )
    except ValidationError as exc:
        fit = RateFit(float("nan"), float("nan"), float("nan"),
                      float("nan"), float("nan"), 0)
        verdicts.append(
            Verdict(name="rate_fit", passed=False, margin=float("-inf"),
                    detail=f"rate fit unavailable: {exc}")
        )

    lam_next = float(model.basis.eigenvalues[model.coupling_n])
    c1 = model.lipschitz_c1
    notes = (
        f"contraction_bound_exponent = {4.0 * c1 - 0.75 * lam_next:.6g}",
        f"delta grid search: delta={delta:g}, combined exponent={expo:.6g}",
    ) + occ_note
    report = ErgodicityReport(
        fitted_rate=fit.rate,
        fitted_constant=fit.prefactor,
        r_squared=fit.r_squared,
        verdicts=verdicts,
        lyapunov_gamma=lyap["gamma"],
        lyapunov_k=lyap["K"],
        distance=dist,
        delta_exponent=expo,
        # the coupling-cost proxy reported instead of a total-variation
        # certificate; NaN when β is undefined
        shift_cost_mean=float(shift.cum[:, -1].mean()) if shift else float("nan"),
        notes=notes,
    )
    return report, series_out


def write_series_csv(path, series: EstimateSeries, bound=None) -> None:
    """One CSV per estimator: t,mean,stderr,bound,pass."""
    empty = [None] * series.t.size
    bounds, passes = (empty, empty) if bound is None else (bound, _upper_slack(series, bound) >= 0.0)
    _write_csv(path, "t,mean,stderr,bound,pass",
               zip(series.t, series.mean, series.stderr, bounds, passes))


def write_report_text(path, report: ErgodicityReport) -> None:
    lines = ["ergodicity report", "=" * 18, "", f"battery_version = {BATTERY_VERSION}"]
    lines.append(f"fitted_rate r = {report.fitted_rate!r}")
    lines.append(f"fitted_constant C = {report.fitted_constant!r}")
    lines.append(f"fit r_squared = {report.r_squared!r}")
    lines.append(f"distance: n_tilde={report.distance.n_tilde!r} delta={report.distance.delta!r}")
    lines.append(f"lyapunov: gamma={report.lyapunov_gamma!r} K={report.lyapunov_k!r}")
    lines.append(f"girsanov shift cost (mean int ||beta||^2 dt) = {report.shift_cost_mean!r}")
    lines.append("")
    for v in report.verdicts:
        lines.append(f"{v.line} (margin {v.margin:.6g})")
    lines.append("")
    for n in report.notes:
        lines.append(n)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_battery_outputs(directory, report: ErgodicityReport, series_out: dict):
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, (series, bound) in series_out.items():
        p = os.path.join(directory, f"{name}.csv")
        write_series_csv(p, series, bound)
        written.append(p)
    p = os.path.join(directory, "summary.txt")
    write_report_text(p, report)
    written.append(p)
    return written
