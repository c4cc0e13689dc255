"""Two-trajectory coupling with shared noise and a low-mode drift steer.

The second trajectory Y gets the extra drift (λ_{N+1}/2) P_N (X − Y), which
in noise space corresponds to the shift

    β(t) = (λ_{N+1}/2) σ(Y)^{-1} P_N (X(t) − Y(t)),

well defined whenever the noise diagonal has a positive floor on the first
N modes.  The distance-like function used to quantify contraction is

    d(x, y) = Ñ |x − y|_H^{2δ/(1+δ)} ∧ 1,  δ ∈ (0, 1), Ñ > 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelSpec
from .dynamics import (
    PathSample,
    StepperConfig,
    TrajectoryRecorder,
    _as_batch_x0,
    n_steps_for,
    run_paths,
)
from .errors import ValidationError
from .spectral import _coeffs, h_norm_arr, validate_h1


@dataclass(frozen=True)
class DistanceParams:
    """Exponent parameter δ and scale Ñ of the distance-like function."""

    n_tilde: float = 1.0
    delta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if self.n_tilde <= 0.0:
            raise ValidationError("n_tilde must be positive")

    @property
    def exponent(self) -> float:
        return 2.0 * self.delta / (1.0 + self.delta)


def d_distance(x, y, p: DistanceParams) -> float:
    """Ñ |x − y|_H^{2δ/(1+δ)} capped at 1; symmetric, zero iff x = y."""
    return float(d_distance_arr(h_norm_arr(_coeffs(x) - _coeffs(y)), p))


def d_distance_arr(gap_h: np.ndarray, p: DistanceParams) -> np.ndarray:
    return np.minimum(p.n_tilde * np.asarray(gap_h) ** p.exponent, 1.0)


def _shift_rows(model: ModelSpec, x, y, diag_y) -> np.ndarray:
    """β on the N coupled modes of each row pair: (P, N) from (P, M) states
    and the noise diagonal σ(Y)."""
    n = model.coupling_n
    return 0.5 * float(model.basis.eigenvalues[n]) * (x[:, :n] - y[:, :n]) / diag_y[:, :n]


def _pinv_floor(model: ModelSpec) -> float:
    floor = model.noise.pseudo_inverse_floor(model.coupling_n)
    if floor is None:
        raise ValidationError("noise map has no pseudo-inverse on the coupled modes")
    return floor


def girsanov_shift(model: ModelSpec, x_state, y_state) -> np.ndarray:
    """Noise-space steering vector at a state pair.

    Supported on the first N components; component i is
    (λ_{N+1}/2)(x_i − y_i)/(s_i g(|y|_H)).  Requires a noise map with a
    positive diagonal floor on those modes.
    """
    _pinv_floor(model)
    cx, cy = _coeffs(x_state), _coeffs(y_state)
    if cx.shape != (model.dim,) or cy.shape != (model.dim,):
        raise ValidationError("state length != model dim")
    beta = _shift_rows(model, cx[None, :], cy[None, :], model.noise.diag_batch(cy[None, :]))
    return np.pad(beta[0], (0, model.dim - beta.shape[1]))


def shift_bound_constant(model: ModelSpec) -> float:
    """Explicit constant C with ‖β‖_{l²} ≤ C |x − y|_H for the diagonal noise."""
    return float(model.basis.eigenvalues[model.coupling_n]) / (2.0 * _pinv_floor(model))


def select_delta(model: ModelSpec, grid=None) -> tuple[float, float]:
    """Grid-search δ ∈ (0,1) minimizing the combined contraction exponent

        [8δ|f0|² + (8δ+64δ²)|σ0|² + (64δ²+12δ)C_1 − (3/4)δλ_{N+1}] / (1+δ),

    ties broken toward smaller δ.  Returns (δ, exponent)."""
    if grid is None:
        grid = np.round(np.arange(0.05, 0.951, 0.05), 2)
    lam_next = float(model.basis.eigenvalues[model.coupling_n])
    f0sq = model.f0_vstar**2
    s0sq = model.sigma0_hs**2
    c1 = model.lipschitz_c1
    best = None
    for d in grid:
        e = (
            8.0 * d * f0sq
            + (8.0 * d + 64.0 * d * d) * s0sq
            + (64.0 * d * d + 12.0 * d) * c1
            - 0.75 * d * lam_next
        ) / (1.0 + d)
        if best is None or e < best[1] - 1e-15:
            best = (float(d), float(e))
    return best


@dataclass(frozen=True)
class CoupledPath:
    """Synchronized pair driven by shared noise, with the steering record."""

    x_path: PathSample
    y_path: PathSample
    shift_record: np.ndarray  # (K+1, M) β at every grid point (NaN if no pinv)
    shift_cost_cum: np.ndarray  # (K+1,) trapezoidal ∫₀^{t_k} ‖β‖²_{l²} dt

    @property
    def shift_cost(self) -> float:
        return float(self.shift_cost_cum[-1])


class ShiftRecorder:
    """Girsanov shift β of every pair of a coupled run at every step, on the
    N coupled modes, and its cumulative cost ∫₀^{t_k} ‖β‖²_{l²} ds
    (trapezoidal) at every step.  The pair is X and Y system 0, which must
    be a steered one."""

    def __init__(self):
        self.record = None  # (P, K+1, N)
        self.cum = None  # (P, K+1)

    def begin(self, rt):
        _pinv_floor(rt.model)
        self.record = np.empty((rt.p, rt.n_steps + 1, rt.model.coupling_n))
        self._bsq = self._store(rt, 0)
        self.cum = np.zeros((rt.p, rt.n_steps + 1))

    def on_step(self, rt):
        k = rt.k
        bsq = self._store(rt, k + 1)
        self.cum[:, k + 1] = self.cum[:, k] + 0.5 * rt.dt * (self._bsq + bsq)
        self._bsq = bsq

    def _store(self, rt, col):
        x, y = rt.rows(rt.state, "x"), rt.rows(rt.state, "y")
        beta = _shift_rows(rt.model, x, y, rt.rows(rt.diag, "y"))
        self.record[:, col] = beta
        return (beta * beta).sum(axis=1)


def simulate_coupled_paths(
    model: ModelSpec,
    x,
    y,
    t_final: float,
    cfg: StepperConfig,
    seed: int,
    path_indices,
) -> list[CoupledPath]:
    """Integrate the pairs (X, Y) of `path_indices`, all started from (x, y),
    as one stacked batch: each pair shares its Gaussian increments, Y gets
    the P_N drift correction, and reflection applies to each system
    independently.  Warns (does not fail) if the spectral-gap condition
    does not hold for the model."""
    path_indices = np.asarray(path_indices, dtype=np.int64)
    p = path_indices.size
    x0 = np.repeat(_as_batch_x0(model, x), p, axis=0)
    y0 = np.repeat(_as_batch_x0(model, y, "y0"), p, axis=0)
    if not validate_h1(model).passed:
        warnings.warn("spectral-gap condition fails; coupling may not contract")
    n_steps = n_steps_for(t_final, cfg.dt)
    tx, ty, shift = TrajectoryRecorder("x"), TrajectoryRecorder("y"), ShiftRecorder()
    has_pinv = model.noise.pseudo_inverse_floor(model.coupling_n) is not None
    recorders = [tx, ty, shift] if has_pinv else [tx, ty]
    run_paths(model, cfg, x0, n_steps, seed, path_indices, recorders=recorders, y0=y0)
    if has_pinv:
        records = np.pad(shift.record, ((0, 0), (0, 0), (0, model.dim - model.coupling_n)))
        cums = shift.cum
    else:
        records = np.full((p, n_steps + 1, model.dim), np.nan)
        cums = np.full((p, n_steps + 1), np.nan)
        cums[:, 0] = 0.0  # nothing accrues before the first step
        warnings.warn("noise map has no pseudo-inverse; shift record unavailable")
    return [
        CoupledPath(xp, yp, rec, cum)
        for xp, yp, rec, cum in zip(tx.samples(), ty.samples(), records, cums)
    ]


def simulate_coupled(
    model: ModelSpec,
    x,
    y,
    t_final: float,
    cfg: StepperConfig,
    seed: int,
    path_index: int = 0,
) -> CoupledPath:
    """The pair `path_index` of simulate_coupled_paths: (X, Y) from (x, y)
    with shared Gaussian increments and the P_N drift correction in Y."""
    return simulate_coupled_paths(model, x, y, t_final, cfg, seed, [path_index])[0]


def dump_coupled_csv(cp: CoupledPath, p: DistanceParams, directory) -> str:
    """Write `coupled_<seed>_<index>.csv` with header t,|x-y|_H,d_N,shift_cost_cum."""
    import os

    times = cp.x_path.times
    gap = h_norm_arr(cp.x_path.states - cp.y_path.states)
    d_vals = d_distance_arr(gap, p)
    cum = cp.shift_cost_cum
    name = f"coupled_{cp.x_path.noise_seed}_{cp.x_path.path_index}.csv"
    full = os.path.join(directory, name)
    with open(full, "w") as fh:
        fh.write("t,|x-y|_H,d_N,shift_cost_cum\n")
        for k in range(times.size):
            fh.write(
                f"{times[k]!r},{float(gap[k])!r},{float(d_vals[k])!r},{float(cum[k])!r}\n"
            )
    return full
