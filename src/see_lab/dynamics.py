"""Time stepping for the evolution equation reflected in the closed unit ball.

Scheme: semi-implicit Euler with the diagonal operator A implicit and
everything else explicit,

    (1 + dt λ_i) X̃_i = X_i + dt (f(X) + B(X,X) − γX)_i + (σ(X) ΔW)_i,

followed by the ball constraint:

  projected   X' = Π(X̃), local-time increment dL = X' − X̃;
  penalized   implicit radial solve of x = z − dt·n·(x − Π(x)), giving
              |x| = (|z| + dt·n)/(1 + dt·n) outside the ball.

Both constraints are realized as an exact scalar rescaling of X̃, so every
nonzero increment is an exact float multiple of the post-step state: the
inward-normal direction of the local time is structural, not approximate.

The engine steps a whole batch of paths at once.  All arithmetic is
row-local (one row per path, modes on the last axis), and the Brownian
increments come from counter-addressed streams keyed by (seed, path_index,
step), so a path's trajectory is bit-identical no matter how paths are
grouped into batches.  Coupled runs are one stacked batch through the same
step kernel: the rows of J Y systems follow the X rows, and every Y system
reuses X's increments.

Each row's H-norm is computed once per step.  The ball constraint already
needs r = |X̃|_H and, on the rows it rescales, the norm of the result, so it
returns |X_{k+1}|_H as well, bit for bit equal to h_norm_arr(X_{k+1}).  The
divergence check reads r, σ(X_{k+1}) reads the new norm, and so do the
recorders, through `RunContext.hnorm`.

Most steps rescale no row, and the kernel does only their work: one test
max r ≤ 1 decides that every row is inside the ball (a NaN fails it), and
then X̃ is the new state and r its norm, with no constraint and no
divergence check (every r is finite).  A state-independent σ
(`NoiseMap.constant_diag`) is formed once per run, not once per step, and
σ ΔW once per step for the rows of X, shared by every Y system.  Both
shortcuts do the same arithmetic as the general step, so results are bit
for bit the same.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import ModelSpec
from .errors import DivergedError, ValidationError
from .rng import gaussian_block, words_per_step
from .spectral import TOL_BALL, StateVector, _coeffs, h_norm_arr

# Noise is drawn one chunk of steps at a time, every path in one call; the
# chunk's word buffer holds at most this many floats (12.8 MB) unless a
# single step of the batch needs more.
_NOISE_CHUNK_TARGET = 1_600_000


@dataclass(frozen=True)
class StepperConfig:
    """dt, ball-constraint scheme, and the penalty stiffness n (penalized only)."""

    dt: float = 1e-3
    scheme: str = "projected"  # "projected" | "penalized"
    penalty_n: float = 1e4

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.scheme not in ("projected", "penalized"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "penalized" and self.penalty_n <= 0.0:
            raise ValidationError("penalty n must be positive")


@dataclass(frozen=True)
class LocalTimeLedger:
    """Per-step reflection increments dL_k (zero on interior steps)."""

    increments: np.ndarray  # (K, M)
    total_variation: float


@dataclass(frozen=True)
class PathSample:
    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, M)
    ledger: LocalTimeLedger
    noise_seed: int
    path_index: int
    model_id: str


def project_ball(y: StateVector) -> StateVector:
    """Π(y): identity inside the closed unit ball, radial rescale outside.

    The rescale is the projected scheme's, so |Π(y)|_H ≤ 1 holds exactly."""
    y_new, rho, _, _ = _apply_ball(y.coeffs[None, :], StepperConfig())
    return y if rho[0] == 1.0 else StateVector(y_new[0], y.basis)


# ---------------------------------------------------------------------------
# batch engine


class RunContext:
    """What the step kernel produced, shared with recorders.

    A run steps one stacked array of R rows: the P rows of X and, in a
    coupled run, the P rows of each of its J Y systems after them
    (R = (1 + J) P, system j in rows (1 + j) P to (2 + j) P).  `state`,
    `hnorm`, `tilde`, `dl_scale` and `diag` hold all R rows, and
    `rows(a, system)` selects the P rows of one system.  `hnorm` is
    |state|_H, the norm the step computed; recorders read it instead of
    recomputing it.  Recorders never write to a field: `dl_scale` is
    read-only on every step (one shared zero array on the steps that
    rescale no row), and so is `diag` when σ does not depend on the state
    (then one row broadcast to all R rows for the whole run).  Recorders
    are called once after every step, with `k` the index of the step just
    taken (states are at t_{k+1}); path functionals such as running
    integrals are the recorders' own.
    """

    def __init__(self, model, cfg, p, n_y, n_steps, path_indices, seed):
        self.model = model
        self.cfg = cfg
        self.dt = cfg.dt
        self.p = p
        self.n_y = n_y  # J, the number of Y systems (0 in a single run)
        self.n_steps = n_steps
        self.path_indices = path_indices
        self.seed = seed
        self.k = -1
        self.state = None  # (R, M) states at t_{k+1}
        self.hnorm = None  # (R,) |state|_H, equal to h_norm_arr(state)
        self.tilde = None  # (R, M) pre-constraint states X̃ of step k
        self.dl_scale = None  # (R,) rho - 1, dL = dl_scale * tilde
        self.diag = None  # (R, M) noise diagonal σ(state)

    def rows(self, a, system: str | int = "x"):
        """The P rows of one system of a per-row field: "x" for X, an integer
        j for Y system j, and "y" for Y system 0 (the Y of a pair)."""
        if system == "x":
            return a[: self.p]
        j = 0 if system == "y" else system
        return a[(1 + j) * self.p : (2 + j) * self.p]

    def y_systems(self, a):
        """All Y rows of a per-row field, as (J, P, ...)."""
        return a[self.p :].reshape(self.n_y, self.p, *a.shape[1:])

    def dl(self, system: str | int = "x") -> np.ndarray:
        """Local-time increments dL of step k, one row per path."""
        return self.rows(self.tilde, system) * self.rows(self.dl_scale, system)[:, None]


def _apply_ball(x_tilde, cfg, r=None):
    """Return (x_new, rho, r, rn) with x_new = rho[:,None] * x_tilde exactly,
    r = |x_tilde|_H and rn = |x_new|_H, equal to h_norm_arr(x_new) bit for bit.
    A caller that has r already passes it.

    rho is 1.0 on interior rows, where x_new is x_tilde and rn is r.
    Projected rows are nudged by at most a few ulp so that the recomputed
    H-norm of x_new never exceeds 1.0.
    """
    if r is None:
        r = h_norm_arr(x_tilde)
    outside = r > 1.0
    if not outside.any():
        return x_tilde, np.ones_like(r), r, r
    if cfg.scheme == "projected":
        rho = np.where(outside, 1.0 / np.maximum(r, 1e-300), 1.0)
        x_new = x_tilde * rho[:, None]
        for _ in range(4):
            rn = h_norm_arr(x_new)
            over = rn > 1.0
            if not over.any():
                return x_new, rho, r, rn
            rho = np.where(over, rho * (1.0 - 2.0**-50) / rn, rho)
            x_new = x_tilde * rho[:, None]
        return x_new, rho, r, h_norm_arr(x_new)
    # penalized: implicit radial solve
    dtn = cfg.dt * cfg.penalty_n
    factor = (r + dtn) / ((1.0 + dtn) * np.maximum(r, 1e-300))
    rho = np.where(outside, factor, 1.0)
    x_new = x_tilde * rho[:, None]
    return x_new, rho, r, h_norm_arr(x_new)


def _kernel(model, cfg, p, correction=()):
    """The step of a stacked (R, M) state, as step(s, diag, dw) -> (s_new,
    tilde, rho, r, rn): tilde is the semi-implicit Euler state, s_new =
    rho[:, None] * tilde the state after the ball constraint, r = |tilde|_H
    and rn = |s_new|_H.  When every row of tilde lies in the closed ball,
    s_new is tilde, rn is r and rho is None: no row was rescaled.

    diag is σ(s), unread when σ is constant (NoiseMap.constant_diag), and dw
    holds the Brownian increments of the P rows of X.  `correction` holds
    one flag per Y system (none in a single run), so R = (1 + J) P.  Row i
    of every Y system reuses the increments of X row i, and the flagged
    systems get the steering drift (λ_{N+1}/2) P_N (X − Y).
    """
    lam = model.basis.eigenvalues
    m = lam.size
    dt = cfg.dt
    inv1p = 1.0 / (1.0 + dt * lam)
    gamma = model.damping_gamma
    has_b = model.bilinear.kind != "zero"
    const = model.noise.constant_diag()
    n_cut = model.coupling_n
    n_sys = 1 + len(correction)
    corr = 0.5 * float(lam[n_cut]) if any(correction) else 0.0
    # the steered systems' indices in the (1 + J, P, M) view: a slice when
    # every Y system is steered, as in a pair
    steered = slice(1, None) if all(correction) else np.flatnonzero(correction) + 1

    def step(s, diag, dw):
        d = model.drift.eval_batch(s)  # a fresh array, updated in place
        if has_b:
            d += model.bilinear.bilinear_batch(s, s)
        if gamma != 0.0:
            d -= gamma * s
        d3 = d.reshape(n_sys, p, m)  # a view of d
        if corr != 0.0:
            s3 = s.reshape(n_sys, p, m)
            d3[steered, :, :n_cut] += corr * (s3[0, :, :n_cut] - s3[steered, :, :n_cut])
        # tilde = (s + dt * d + σ dw) * inv1p; a constant σ dw is formed once
        # for the P rows of X and added to every system's rows
        d *= dt
        d += s
        if const is not None:
            d3 += const * dw
        else:
            d3 += diag.reshape(n_sys, p, m) * dw
        d *= inv1p
        with np.errstate(over="ignore", invalid="ignore"):
            r = h_norm_arr(d)
            if not r.size or r.max() <= 1.0:  # a NaN fails the test
                return d, d, None, r, r
            s_new, rho, r, rn = _apply_ball(d, cfg, r)
        return s_new, d, rho, r, rn

    return step


def _check_finite(model, r, path_indices, step, dt):
    """Raise DivergedError for the first row whose pre-constraint norm
    r = |X̃|_H is nonfinite; X rows come first, then the Y systems in order.

    This covers nonfinite states too: a nonfinite X̃ has a nonfinite r, and
    a finite r makes the constrained state rho * X̃ (rho <= 1) finite."""
    bad_rows = ~np.isfinite(r)
    if bad_rows.any():
        bad = int(np.nonzero(bad_rows)[0][0])
        raise DivergedError(
            int(path_indices[bad % len(path_indices)]), step, step * dt,
            float(r[bad]), model.model_id,
        )


def run_paths(
    model: ModelSpec,
    cfg: StepperConfig,
    x0: np.ndarray,
    n_steps: int,
    seed: int,
    path_indices,
    recorders=(),
    y0: np.ndarray | None = None,
    correction=True,
    step0: int = 0,
):
    """Advance a batch of paths (optionally coupled) for n_steps.

    x0: (P, M) initial states, one row per entry of path_indices.
    y0: optional starts of J Y systems, (J, P, M), or (P, M) for the one Y
        of a pair.  X and every Y system are then stepped as one stacked
        ((1 + J) P, M) batch, X rows first and system j after system j − 1,
        in which row i of every Y system shares the Brownian increments of
        X row i.  Y system j equals the pair run from (x0, y0[j]) with the
        same seed, path indices and flag, bit for bit.
    correction: a bool for every Y system, or one bool per system.  A
        flagged system gets the extra drift (λ_{N+1}/2) P_N (X − Y); an
        unflagged one is the plain synchronous coupling.
    step0: the step counter at x0.  Local step k reads the noise of step
        step0 + k, and DivergedError reports absolute steps and times, so a
        run resumes from the states it returned: run(0 → a) followed by
        run(a → b, step0=a) equals run(0 → b) bit for bit.  Recorders see
        local step indices.

    Returns (x_final, y_final): y_final has y0's shape, and is None for
    single runs.
    """
    m = model.basis.dim
    p = x0.shape[0]
    path_indices = np.asarray(path_indices, dtype=np.int64)
    if x0.shape != (p, m) or path_indices.shape != (p,):
        raise ValidationError("x0 must be (P, M) matching path_indices length")
    ys = ()
    if y0 is not None:
        y0 = np.asarray(y0, dtype=float)
        if y0.shape == (p, m):
            ys = (y0,)
        elif y0.ndim == 3 and y0.shape[1:] == (p, m):
            ys = tuple(y0)
        else:
            raise ValidationError("y0 must be (P, M) or (J, P, M) matching x0")
    if np.ndim(correction) == 0:
        correction = (bool(correction),) * len(ys)
    elif len(correction) != len(ys):
        raise ValidationError(f"correction needs one flag per Y system ({len(ys)})")
    correction = tuple(bool(c) for c in correction)
    if step0 < 0:
        raise ValidationError("step0 must be nonnegative")
    dt = cfg.dt
    step = _kernel(model, cfg, p, correction)

    rt = RunContext(model, cfg, p, len(ys), n_steps, path_indices, seed)
    s = np.concatenate([x0, *ys], dtype=float) if ys else np.array(x0, dtype=float)
    hnorm = h_norm_arr(s)
    const = model.noise.constant_diag()
    diag = model.noise.diag_batch(s, hnorm) if const is None else np.broadcast_to(const, s.shape)
    no_contact = np.zeros(s.shape[0])  # dl_scale of a step that rescaled no row
    no_contact.flags.writeable = False
    rt.state, rt.hnorm, rt.diag = s, hnorm, diag
    for rec in recorders:
        rec.begin(rt)

    chunk = max(1, min(n_steps, _NOISE_CHUNK_TARGET // max(p * words_per_step(m), 1)))

    for k in range(n_steps):
        if k % chunk == 0:
            noise = dw = None  # release the previous chunk before filling the next
            noise = gaussian_block(seed, path_indices, step0 + k, min(chunk, n_steps - k), m, dt)
        dw = noise[:, k % chunk, :]

        s, tilde, rho, r, hnorm = step(s, diag, dw)
        if rho is None:  # every row interior, so every r finite
            rt.dl_scale = no_contact
        else:
            _check_finite(model, r, path_indices, step0 + k + 1, dt)
            rt.dl_scale = rho - 1.0
            rt.dl_scale.flags.writeable = False
        if const is None:
            diag = rt.diag = model.noise.diag_batch(s, hnorm)

        rt.k = k
        rt.state, rt.hnorm, rt.tilde = s, hnorm, tilde
        for rec in recorders:
            rec.on_step(rt)

    if y0 is None:
        return s, None
    return s[:p], s[p:].reshape(y0.shape)


# ---------------------------------------------------------------------------
# basic recorders


class TrajectoryRecorder:
    """Full state history plus local-time increments; for small batches.

    system: "x", or the Y system to record (an index j, or "y" for the Y of
    a pair), as in RunContext.rows."""

    def __init__(self, system: str | int = "x"):
        self.system = system
        self.states = None
        self.increments = None

    def begin(self, rt):
        m = rt.state.shape[1]
        self.states = np.empty((rt.p, rt.n_steps + 1, m))
        self.increments = np.zeros((rt.p, rt.n_steps, m))
        self.states[:, 0] = rt.rows(rt.state, self.system)
        self._labels = (rt.dt, rt.seed, rt.path_indices, rt.model.model_id)

    def on_step(self, rt):
        self.states[:, rt.k + 1] = rt.rows(rt.state, self.system)
        self.increments[:, rt.k] = rt.dl(self.system)

    def samples(self) -> list[PathSample]:
        """One PathSample per recorded path, in batch order."""
        dt, seed, path_indices, model_id = self._labels
        times = np.arange(self.states.shape[1]) * dt
        out = []
        for row, pi in enumerate(path_indices):
            inc = self.increments[row]
            ledger = LocalTimeLedger(inc, float(h_norm_arr(inc).sum()))
            out.append(PathSample(times, self.states[row], ledger, seed, int(pi), model_id))
        return out


class BallRecorder:
    """Running max of |X|_H over all recorded states, per path, of one
    system ("x", "y" or a Y system index, as in RunContext.rows)."""

    def __init__(self, system: str | int = "x"):
        self.system = system
        self.max_h = None

    def begin(self, rt):
        self.max_h = rt.rows(rt.hnorm, self.system).copy()

    def on_step(self, rt):
        np.maximum(self.max_h, rt.rows(rt.hnorm, self.system), out=self.max_h)


class ContactRecorder:
    """Geometry of nonzero local-time increments.

    Tracks, per path: number of contacts, worst sine of the angle between
    dL and −X_{k+1}, and the worst deviation of |X_{k+1}| from 1 at contact
    steps (meaningful for the projected scheme, where it must vanish).
    """

    def __init__(self):
        self.n_contacts = None
        self.max_sin = None
        self.max_norm_dev = None

    def begin(self, rt):
        self.n_contacts = np.zeros(rt.p, dtype=np.int64)
        self.max_sin = np.zeros(rt.p)
        self.max_norm_dev = np.zeros(rt.p)

    def on_step(self, rt):
        active = rt.rows(rt.dl_scale) < 0.0
        if not active.any():
            return
        dl = rt.dl()[active]
        xn = rt.rows(rt.state)[active]
        xn_norm = rt.rows(rt.hnorm)[active]
        u = xn / xn_norm[:, None]
        along = (dl * u).sum(axis=1)
        resid = dl - along[:, None] * u
        sin = h_norm_arr(resid) / np.maximum(h_norm_arr(dl), 1e-300)
        sin = np.where(along < 0.0, sin, 2.0)  # wrong hemisphere counts as failure
        idx = np.nonzero(active)[0]
        self.n_contacts[idx] += 1
        np.maximum.at(self.max_sin, idx, sin)
        np.maximum.at(self.max_norm_dev, idx, np.abs(xn_norm - 1.0))


class ObstacleRecorder:
    """Segment sums needed to evaluate Σ_k (φ(t_k) − X_{k+1}, dL_k) for any
    φ piecewise constant on a fixed segmentation of [0, T]."""

    def __init__(self, n_segments: int = 8):
        self.n_segments = n_segments
        self.seg_dl = None  # (P, S, M)
        self.x_dot_dl = None  # (P,)
        self.tv = None  # (P,)

    def begin(self, rt):
        m = rt.state.shape[1]
        self.seg_dl = np.zeros((rt.p, self.n_segments, m))
        self.x_dot_dl = np.zeros(rt.p)
        self.tv = np.zeros(rt.p)

    def on_step(self, rt):
        if not (rt.rows(rt.dl_scale) < 0.0).any():
            return
        dl = rt.dl()
        seg = min(self.n_segments - 1, rt.k * self.n_segments // max(rt.n_steps, 1))
        self.seg_dl[:, seg, :] += dl
        self.x_dot_dl += (rt.rows(rt.state) * dl).sum(axis=1)
        self.tv += np.abs(rt.rows(rt.dl_scale)) * h_norm_arr(rt.rows(rt.tilde))


# ---------------------------------------------------------------------------
# single-path surface


def _as_batch_x0(model, x0, name="x0") -> np.ndarray:
    """The start x0 as a (1, M) row; `name` labels it in the errors."""
    c = _coeffs(x0)
    if c.shape != (model.dim,):
        raise ValidationError(f"{name} length {c.shape} != model dim {model.dim}")
    if float(h_norm_arr(c)) > 1.0 + TOL_BALL:
        raise ValidationError(f"{name} lies outside the closed unit ball")
    return c[None, :].copy()


def n_steps_for(t_final: float, dt: float) -> int:
    if t_final < 0.0:
        raise ValidationError("T must be nonnegative")
    n = int(round(t_final / dt))
    if abs(n * dt - t_final) > 1e-9:
        raise ValidationError(f"dt={dt} does not divide T={t_final} within 1e-9")
    return n


def steps_for_times(t_grid, dt: float) -> np.ndarray:
    """Map grid times to step indices, requiring dt-divisibility within 1e-9."""
    t_grid = np.asarray(t_grid, dtype=float)
    steps = np.round(t_grid / dt).astype(np.int64)
    if np.any(np.abs(steps * dt - t_grid) > 1e-9):
        raise ValidationError("every grid time must be a multiple of dt (1e-9 abs)")
    return steps


def _step_with_noise(model: ModelSpec, state: StateVector, cfg: StepperConfig, noise):
    """One kernel step of one state with the given noise; returns (next, dL)."""
    x = _as_batch_x0(model, state)
    dw = np.broadcast_to(np.asarray(noise, dtype=float), x.shape)
    x_new, tilde, rho, _, _ = _kernel(model, cfg, 1)(x, model.noise.diag_batch(x), dw)
    dl = tilde[0] * (0.0 if rho is None else rho[0] - 1.0)
    return StateVector(x_new[0], model.basis), StateVector(dl, model.basis)


def step_projected(model: ModelSpec, state: StateVector, cfg: StepperConfig, noise):
    """One projected step; returns (next_state, dL)."""
    return _step_with_noise(model, state, replace(cfg, scheme="projected"), noise)


def step_penalized(model: ModelSpec, state: StateVector, cfg: StepperConfig, noise):
    """One penalized step (implicit radial penalty); returns the next state."""
    return _step_with_noise(model, state, replace(cfg, scheme="penalized"), noise)[0]


def simulate_paths(
    model: ModelSpec,
    x0,
    t_final: float,
    cfg: StepperConfig,
    seed: int,
    path_indices,
    recorders=(),
) -> list[PathSample]:
    """Full trajectories on [0, T] with their local-time ledgers, of the
    paths `path_indices` all started at x0, as one batch.

    Extra recorders ride along in the same run.
    """
    x0b = _as_batch_x0(model, x0)
    n_steps = n_steps_for(t_final, cfg.dt)
    path_indices = np.asarray(path_indices, dtype=np.int64)
    traj = TrajectoryRecorder()
    rows = np.repeat(x0b, path_indices.size, axis=0)
    run_paths(model, cfg, rows, n_steps, seed, path_indices, recorders=[traj, *recorders])
    return traj.samples()


def simulate_path(
    model: ModelSpec,
    x0,
    t_final: float,
    cfg: StepperConfig,
    seed: int,
    path_index: int = 0,
) -> PathSample:
    """Full trajectory on [0, T] with its local-time ledger.

    Deterministic given (model, x0, T, cfg, seed, path_index); equals row
    `path_index` of any batch containing it.
    """
    return simulate_paths(model, x0, t_final, cfg, seed, [path_index])[0]


# ---------------------------------------------------------------------------
# obstacle inequality and penalization studies


def sample_ball(rng: np.random.Generator, n: int, m: int, radius: float = 1.0):
    """n points uniform in the radius-r ball of R^m."""
    g = rng.standard_normal((n, m))
    g /= np.maximum(h_norm_arr(g), 1e-300)[:, None]
    r = radius * rng.random(n) ** (1.0 / m)
    return g * r[:, None]


@dataclass(frozen=True)
class ObstacleReport:
    min_sum: float
    total_variation: float
    n_trials: int
    passed: bool


def discrete_obstacle_inequality(
    path: PathSample, trials: int, seed: int, n_segments: int = 8
) -> ObstacleReport:
    """Check Σ_k (φ(t_k) − X(t_{k+1}), dL_k) ≥ −1e-10·TV(L) for random
    piecewise-constant ball-valued φ."""
    inc = path.ledger.increments
    n_steps, m = inc.shape
    n_segments = max(1, min(n_segments, max(n_steps, 1)))
    # the segment sums ObstacleRecorder accumulates, from the stored ledger
    seg_dl = np.zeros((1, n_segments, m))
    np.add.at(seg_dl[0], np.arange(n_steps) * n_segments // max(n_steps, 1), inc)
    x_dot_dl = np.array([(path.states[1:] * inc).sum()])
    tv = path.ledger.total_variation

    rng = np.random.default_rng(seed)
    phi = sample_ball(rng, trials * n_segments, m).reshape(trials, n_segments, m)
    sums = obstacle_sums_from_segments(seg_dl, x_dot_dl, phi)[0]
    min_sum = float(sums.min()) if trials else 0.0
    return ObstacleReport(
        min_sum=min_sum,
        total_variation=tv,
        n_trials=trials,
        passed=bool(min_sum >= -1e-10 * tv),
    )


def obstacle_sums_from_segments(seg_dl, x_dot_dl, phi):
    """Σ_k (φ(t_k) − X(t_{k+1}), dL_k) from segment sums, for every path and φ.

    seg_dl: (P, S, M), x_dot_dl: (P,), phi: (T, S, M) -> (P, T)."""
    return np.einsum("psm,tsm->pt", seg_dl, phi) - x_dot_dl[:, None]


def penalization_convergence_study(
    model: ModelSpec, x0, t_final: float, dt: float, n_list, seed: int
):
    """sup_k |X^{pen,n}(t_k) − X^{proj}(t_k)|_H per penalty level n, with
    shared noise.  Returns a list of (n, sup_gap) in the order given."""
    proj = simulate_path(model, x0, t_final, StepperConfig(dt=dt), seed)
    rows = []
    for n in n_list:
        cfg = StepperConfig(dt=dt, scheme="penalized", penalty_n=float(n))
        pen = simulate_path(model, x0, t_final, cfg, seed)
        gap = float(h_norm_arr(pen.states - proj.states).max())
        rows.append((float(n), gap))
    return rows


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return repr(float(v))


def _write_csv(path, header: str, rows) -> str:
    """The one CSV writer: the header, then a line per row.  A cell is
    repr(float(v)), empty for None and true/false for a bool.  Returns path."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join([repr(v) if type(v) is float else _cell(v) for v in row]) + "\n")
    return path


def dump_path_csv(path: PathSample, directory) -> str:
    """Write `path_<seed>_<index>.csv` with header t,mode_1,…,mode_M,dl_norm.

    Row k carries the state at t_k and the norm of the increment that
    produced it (0 for the initial row).
    """
    import os

    m = path.states.shape[1]
    dl_norm = np.concatenate([[0.0], h_norm_arr(path.ledger.increments)])
    header = "t," + ",".join(f"mode_{i + 1}" for i in range(m)) + ",dl_norm"
    return _write_csv(
        os.path.join(directory, f"path_{path.noise_seed}_{path.path_index}.csv"), header,
        np.column_stack([path.times, path.states, dl_norm]).tolist(),
    )
