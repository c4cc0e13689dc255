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
grouped into batches or workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import ModelSpec
from .errors import DivergedError, ValidationError
from .rng import gaussian_block
from .spectral import TOL_BALL, StateVector, h_norm_arr

_NOISE_CHUNK_TARGET = 8_000_000  # floats per pregenerated noise chunk


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
    """Π(y): identity inside the closed unit ball, radial rescale outside."""
    r = float(h_norm_arr(y.coeffs))
    if r <= 1.0:
        return y
    return StateVector(y.coeffs / r, y.basis)


# ---------------------------------------------------------------------------
# batch engine


class RunContext:
    """Mutable per-run state shared with recorders.

    Attributes suffixed _x belong to the first system; _y to the optional
    second (coupled) system.  Recorders are called once after every step,
    with `k` the index of the step just taken (states are at t_{k+1}).
    """

    def __init__(self, model, cfg, p, n_steps, path_indices, coupled):
        self.model = model
        self.cfg = cfg
        self.dt = cfg.dt
        self.p = p
        self.n_steps = n_steps
        self.path_indices = path_indices
        self.coupled = coupled
        self.k = -1
        self.t_next = 0.0
        self.x_prev = None
        self.x_new = None
        self.x_tilde = None
        self.dl_scale_x = None  # (P,) rho - 1, dL = dl_scale * x_tilde
        self.dl_hnorm_x = None
        self.vsq_trapz_x = np.zeros(p)  # ∫ ‖X‖²_V ds up to t_{k+1}
        self.hsq_trapz_x = np.zeros(p)  # ∫ |X|²_H ds
        self.hsq_x = None  # |X(t_{k+1})|²_H
        self.y_prev = None
        self.y_new = None
        self.y_tilde = None
        self.dl_scale_y = None
        self.dl_hnorm_y = None
        self.beta_sq = None  # ‖β(t_{k+1})‖²_{l²}
        self.beta_trapz = np.zeros(p) if coupled else None
        self.beta_diag = None  # noise diagonal at Y(t_{k+1}) on coupled modes

    def dl_x(self) -> np.ndarray:
        return self.x_tilde * self.dl_scale_x[:, None]

    def dl_y(self) -> np.ndarray:
        return self.y_tilde * self.dl_scale_y[:, None]

    def beta_vec(self) -> np.ndarray:
        """Girsanov shift at the current states (coupled runs only)."""
        n = self.model.coupling_n
        lam_next = self.model.basis.eigenvalues[n]
        out = np.zeros_like(self.x_new)
        out[:, :n] = (
            0.5 * lam_next * (self.x_new[:, :n] - self.y_new[:, :n]) / self.beta_diag
        )
        return out


def _apply_ball(x_tilde, cfg):
    """Return (x_new, rho, r) with x_new = rho[:,None] * x_tilde exactly.

    rho is 1.0 on interior rows.  Projected rows are nudged by at most a few
    ulp so that the recomputed H-norm of x_new never exceeds 1.0.
    """
    r = h_norm_arr(x_tilde)
    if cfg.scheme == "projected":
        outside = r > 1.0
        if not outside.any():
            return x_tilde, np.ones_like(r), r
        rho = np.where(outside, 1.0 / np.maximum(r, 1e-300), 1.0)
        x_new = x_tilde * rho[:, None]
        for _ in range(4):
            rn = h_norm_arr(x_new)
            over = rn > 1.0
            if not over.any():
                break
            rho = np.where(over, rho * (1.0 - 2.0**-50) / rn, rho)
            x_new = x_tilde * rho[:, None]
        return x_new, rho, r
    # penalized: implicit radial solve
    dtn = cfg.dt * cfg.penalty_n
    outside = r > 1.0
    if not outside.any():
        return x_tilde, np.ones_like(r), r
    factor = (r + dtn) / ((1.0 + dtn) * np.maximum(r, 1e-300))
    rho = np.where(outside, factor, 1.0)
    return x_tilde * rho[:, None], rho, r


def _check_finite(model, x_new, r, path_indices, step, dt):
    """Raise DivergedError for the first row with a nonfinite state or
    pre-constraint norm r = |X̃|_H."""
    bad_rows = ~(np.isfinite(x_new).all(axis=1) & np.isfinite(r))
    if bad_rows.any():
        bad = int(np.nonzero(bad_rows)[0][0])
        raise DivergedError(
            int(path_indices[bad]), step, step * dt, float(r[bad]), model.model_id
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
    correction: bool = True,
):
    """Advance a batch of paths (optionally coupled pairs) for n_steps.

    x0: (P, M) initial states, one row per entry of path_indices.
    y0: optional (P, M) second-system starts; both systems then share the
        Brownian increments.  With correction=True the second system gets
        the extra drift (λ_{N+1}/2) P_N (X − Y); correction=False gives the
        plain synchronous coupling.

    Returns (x_final, y_final) where y_final is None for single runs.
    """
    basis = model.basis
    m = basis.dim
    lam = basis.eigenvalues
    p = x0.shape[0]
    path_indices = np.asarray(path_indices, dtype=np.int64)
    if x0.shape != (p, m) or path_indices.shape != (p,):
        raise ValidationError("x0 must be (P, M) matching path_indices length")
    coupled = y0 is not None
    dt = cfg.dt
    inv1p = 1.0 / (1.0 + dt * lam)
    gamma = model.damping_gamma
    has_b = model.bilinear.kind != "zero"
    n_cut = model.coupling_n
    corr = 0.5 * float(lam[n_cut]) if (coupled and correction) else 0.0
    track_beta = coupled and model.noise.pseudo_inverse_floor(n_cut) is not None

    rt = RunContext(model, cfg, p, n_steps, path_indices, coupled)
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float) if coupled else None

    def explicit_drift(u):
        d = model.drift.eval_batch(u)
        if has_b:
            d = d + model.bilinear.bilinear_batch(u, u)
        if gamma != 0.0:
            d = d - gamma * u
        return d

    def beta_stats(xs, ys, diag_y):
        dlow = diag_y[:, :n_cut]
        bv = 0.5 * float(lam[n_cut]) * (xs[:, :n_cut] - ys[:, :n_cut]) / dlow
        return (bv * bv).sum(axis=1), dlow

    # state-dependent quantities at t_0
    diag_x = model.noise.diag_batch(x)
    vsq_prev = (lam * x * x).sum(axis=1)
    hsq_prev = (x * x).sum(axis=1)
    rt.x_new = x
    rt.hsq_x = hsq_prev
    if coupled:
        diag_y = model.noise.diag_batch(y)
        rt.y_new = y
        if track_beta:
            rt.beta_sq, rt.beta_diag = beta_stats(x, y, diag_y)
    for rec in recorders:
        rec.begin(rt)

    chunk = max(1, min(n_steps, _NOISE_CHUNK_TARGET // max(p * m, 1)))
    noise = None
    beta_sq_prev = rt.beta_sq

    for k in range(n_steps):
        if k % chunk == 0:
            rows = min(chunk, n_steps - k)
            noise = np.empty((p, rows, m))
            for row, pi in enumerate(path_indices):
                noise[row] = gaussian_block(seed, int(pi), k, rows, m, dt)
        dw = noise[:, k % chunk, :]

        x_tilde = (x + dt * explicit_drift(x) + diag_x * dw) * inv1p
        with np.errstate(over="ignore", invalid="ignore"):
            x_new, rho_x, r_x = _apply_ball(x_tilde, cfg)
        _check_finite(model, x_new, r_x, path_indices, k + 1, dt)

        if coupled:
            dy = explicit_drift(y)
            if corr != 0.0:
                dy[:, :n_cut] += corr * (x[:, :n_cut] - y[:, :n_cut])
            y_tilde = (y + dt * dy + diag_y * dw) * inv1p
            with np.errstate(over="ignore", invalid="ignore"):
                y_new, rho_y, r_y = _apply_ball(y_tilde, cfg)
            _check_finite(model, y_new, r_y, path_indices, k + 1, dt)

        # refresh state-dependent quantities and integrals at t_{k+1}
        diag_x = model.noise.diag_batch(x_new)
        vsq_new = (lam * x_new * x_new).sum(axis=1)
        hsq_new = (x_new * x_new).sum(axis=1)
        rt.vsq_trapz_x += 0.5 * dt * (vsq_prev + vsq_new)
        rt.hsq_trapz_x += 0.5 * dt * (hsq_prev + hsq_new)
        vsq_prev, hsq_prev = vsq_new, hsq_new

        rt.k = k
        rt.t_next = (k + 1) * dt
        rt.x_prev, rt.x_new, rt.x_tilde = x, x_new, x_tilde
        rt.dl_scale_x = rho_x - 1.0
        rt.dl_hnorm_x = np.abs(rt.dl_scale_x) * r_x
        rt.hsq_x = hsq_new
        if coupled:
            diag_y = model.noise.diag_batch(y_new)
            rt.y_prev, rt.y_new, rt.y_tilde = y, y_new, y_tilde
            rt.dl_scale_y = rho_y - 1.0
            rt.dl_hnorm_y = np.abs(rt.dl_scale_y) * r_y
            if track_beta:
                rt.beta_sq, rt.beta_diag = beta_stats(x_new, y_new, diag_y)
                rt.beta_trapz += 0.5 * dt * (beta_sq_prev + rt.beta_sq)
                beta_sq_prev = rt.beta_sq
            y = y_new
        x = x_new

        for rec in recorders:
            rec.on_step(rt)

    for rec in recorders:
        rec.finish(rt)
    return x, (y if coupled else None)


# ---------------------------------------------------------------------------
# basic recorders


class TrajectoryRecorder:
    """Full state history plus local-time increments; for small batches."""

    def __init__(self, system: str = "x"):
        self.system = system
        self.states = None
        self.increments = None

    def begin(self, rt):
        m = rt.x_new.shape[1]
        self.states = np.empty((rt.p, rt.n_steps + 1, m))
        self.increments = np.zeros((rt.p, rt.n_steps, m))
        self.states[:, 0] = rt.x_new if self.system == "x" else rt.y_new

    def on_step(self, rt):
        if self.system == "x":
            self.states[:, rt.k + 1] = rt.x_new
            self.increments[:, rt.k] = rt.dl_x()
        else:
            self.states[:, rt.k + 1] = rt.y_new
            self.increments[:, rt.k] = rt.dl_y()

    def finish(self, rt):
        pass


class BallRecorder:
    """Running max of |X|_H over all recorded states, per path."""

    def __init__(self, system: str = "x"):
        self.system = system
        self.max_h = None

    def begin(self, rt):
        state = rt.x_new if self.system == "x" else rt.y_new
        self.max_h = h_norm_arr(state)

    def on_step(self, rt):
        state = rt.x_new if self.system == "x" else rt.y_new
        np.maximum(self.max_h, h_norm_arr(state), out=self.max_h)

    def finish(self, rt):
        pass


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
        active = rt.dl_scale_x < 0.0
        if not active.any():
            return
        dl = rt.dl_x()[active]
        xn = rt.x_new[active]
        xn_norm = h_norm_arr(xn)
        u = xn / xn_norm[:, None]
        along = (dl * u).sum(axis=1)
        resid = dl - along[:, None] * u
        sin = h_norm_arr(resid) / np.maximum(h_norm_arr(dl), 1e-300)
        sin = np.where(along < 0.0, sin, 2.0)  # wrong hemisphere counts as failure
        idx = np.nonzero(active)[0]
        self.n_contacts[idx] += 1
        np.maximum.at(self.max_sin, idx, sin)
        np.maximum.at(self.max_norm_dev, idx, np.abs(xn_norm - 1.0))

    def finish(self, rt):
        pass


class ObstacleRecorder:
    """Segment sums needed to evaluate Σ_k (φ(t_k) − X_{k+1}, dL_k) for any
    φ piecewise constant on a fixed segmentation of [0, T]."""

    def __init__(self, n_segments: int = 8):
        self.n_segments = n_segments
        self.seg_dl = None  # (P, S, M)
        self.x_dot_dl = None  # (P,)
        self.tv = None  # (P,)

    def begin(self, rt):
        m = rt.x_new.shape[1]
        self.seg_dl = np.zeros((rt.p, self.n_segments, m))
        self.x_dot_dl = np.zeros(rt.p)
        self.tv = np.zeros(rt.p)

    def on_step(self, rt):
        if not (rt.dl_scale_x < 0.0).any():
            return
        dl = rt.dl_x()
        seg = min(self.n_segments - 1, rt.k * self.n_segments // max(rt.n_steps, 1))
        self.seg_dl[:, seg, :] += dl
        self.x_dot_dl += (rt.x_new * dl).sum(axis=1)
        self.tv += rt.dl_hnorm_x

    def finish(self, rt):
        pass


# ---------------------------------------------------------------------------
# single-path surface


def _as_batch_x0(model, x0) -> np.ndarray:
    c = x0.coeffs if isinstance(x0, StateVector) else np.asarray(x0, dtype=float)
    if c.shape != (model.dim,):
        raise ValidationError(f"x0 length {c.shape} != model dim {model.dim}")
    if float(h_norm_arr(c)) > 1.0 + TOL_BALL:
        raise ValidationError("x0 lies outside the closed unit ball")
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


def _single_step(model: ModelSpec, state: StateVector, cfg: StepperConfig, noise):
    x0 = _as_batch_x0(model, state)
    lam = model.basis.eigenvalues
    dt = cfg.dt
    u = x0[0]
    drift = model.drift.eval_batch(x0)[0]
    if model.bilinear.kind != "zero":
        drift = drift + model.bilinear.bilinear_batch(x0, x0)[0]
    drift = drift - model.damping_gamma * u
    xi = model.noise.diag_batch(x0)[0] * np.asarray(noise, dtype=float)
    x_tilde = (u + dt * drift + xi) / (1.0 + dt * lam)
    x_new, rho, _ = _apply_ball(x_tilde[None, :], cfg)
    dl = x_tilde * (rho[0] - 1.0)
    return StateVector(x_new[0], model.basis), StateVector(dl, model.basis)


def step_projected(model: ModelSpec, state: StateVector, cfg: StepperConfig, noise):
    """One projected step; returns (next_state, dL)."""
    if cfg.scheme != "projected":
        cfg = StepperConfig(dt=cfg.dt, scheme="projected")
    return _single_step(model, state, cfg, noise)


def step_penalized(model: ModelSpec, state: StateVector, cfg: StepperConfig, noise):
    """One penalized step (implicit radial penalty); returns the next state."""
    if cfg.scheme != "penalized":
        cfg = StepperConfig(dt=cfg.dt, scheme="penalized", penalty_n=cfg.penalty_n)
    new, _ = _single_step(model, state, cfg, noise)
    return new


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
    x0b = _as_batch_x0(model, x0)
    n_steps = n_steps_for(t_final, cfg.dt)
    traj = TrajectoryRecorder()
    run_paths(model, cfg, x0b, n_steps, seed, [path_index], recorders=[traj])
    inc = traj.increments[0]
    ledger = LocalTimeLedger(
        increments=inc, total_variation=float(h_norm_arr(inc).sum())
    )
    return PathSample(
        times=np.arange(n_steps + 1) * cfg.dt,
        states=traj.states[0],
        ledger=ledger,
        noise_seed=seed,
        path_index=path_index,
        model_id=model.model_id,
    )


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
    seg_of = (
        np.arange(n_steps) * n_segments // max(n_steps, 1)
        if n_steps
        else np.zeros(0, dtype=int)
    )
    seg_dl = np.zeros((n_segments, m))
    for s in range(n_segments):
        seg_dl[s] = inc[seg_of == s].sum(axis=0)
    x_dot_dl = float((path.states[1:] * inc).sum())
    tv = path.ledger.total_variation

    rng = np.random.default_rng(seed)
    phi = sample_ball(rng, trials * n_segments, m).reshape(trials, n_segments, m)
    sums = np.einsum("tsm,sm->t", phi, seg_dl) - x_dot_dl
    min_sum = float(sums.min()) if trials else 0.0
    return ObstacleReport(
        min_sum=min_sum,
        total_variation=tv,
        n_trials=trials,
        passed=bool(min_sum >= -1e-10 * tv),
    )


def obstacle_sums_from_segments(seg_dl, x_dot_dl, phi):
    """Same sums as above from batch-accumulated segment data.

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


def dump_path_csv(path: PathSample, directory) -> str:
    """Write `path_<seed>_<index>.csv` with header t,mode_1,…,mode_M,dl_norm.

    Row k carries the state at t_k and the norm of the increment that
    produced it (0 for the initial row).
    """
    import os

    m = path.states.shape[1]
    dl_norm = np.concatenate([[0.0], h_norm_arr(path.ledger.increments)])
    name = f"path_{path.noise_seed}_{path.path_index}.csv"
    full = os.path.join(directory, name)
    header = "t," + ",".join(f"mode_{i + 1}" for i in range(m)) + ",dl_norm"
    with open(full, "w") as fh:
        fh.write(header + "\n")
        for k in range(path.states.shape[0]):
            vals = [repr(float(path.times[k]))]
            vals += [repr(float(c)) for c in path.states[k]]
            vals.append(repr(float(dl_norm[k])))
            fh.write(",".join(vals) + "\n")
    return full
