"""Finite spectral truncation of the Gelfand triple V ⊂ H ⊂ V*.

The operator A is diagonal in an orthonormal eigenbasis with eigenvalues
0 < λ_1 ≤ … ≤ λ_M.  In coordinates a = (a_1, …, a_M):

    |a|_H  = sqrt(Σ a_i²)          (pivot space)
    ‖a‖_V  = sqrt(Σ λ_i a_i²)      (form domain of A)
    |a|_V* = sqrt(Σ a_i² / λ_i)    (dual norm of the diagonal triple)

P_N zeroes all coordinates above N.  The truncation level M is a config
parameter and must exceed the coupling level N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError

#: slack for closed-ball membership checks on double-precision trajectories
TOL_BALL = 1e-12


@dataclass(frozen=True)
class SpectralBasis:
    """Nondecreasing positive eigenvalue sequence of the diagonal operator A."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ValidationError("eigenvalues must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValidationError("eigenvalues must be finite")
        bad = np.nonzero(lam <= 0.0)[0]
        if bad.size:
            raise ValidationError(
                f"eigenvalue at index {bad[0]} is not positive: {float(lam[bad[0]])!r}"
            )
        dec = np.nonzero(np.diff(lam) < 0.0)[0]
        if dec.size:
            i = int(dec[0]) + 1
            raise ValidationError(
                f"eigenvalue at index {i} decreases: {float(lam[i])!r} < {float(lam[i - 1])!r}"
            )
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def vector(self, coeffs) -> "StateVector":
        return StateVector(np.asarray(coeffs, dtype=float), self)


def build_basis(eigenvalues) -> SpectralBasis:
    """Basis with the given positive nondecreasing eigenvalues; dim = len."""
    return SpectralBasis(np.asarray(eigenvalues, dtype=float))


def quadratic_basis(dim: int, scale: float = 1.0) -> SpectralBasis:
    """Laplacian-like spectrum λ_i = scale · i²."""
    i = np.arange(1, dim + 1, dtype=float)
    return SpectralBasis(scale * i * i)


@dataclass(frozen=True)
class StateVector:
    """Coordinates of a state in a given eigenbasis.  Immutable."""

    coeffs: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size != self.basis.dim:
            raise DimensionMismatch(
                f"coefficient length {c.size} != basis dim {self.basis.dim}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def _coeffs(v) -> np.ndarray:
    return v.coeffs if isinstance(v, StateVector) else np.asarray(v, dtype=float)


# Array-level kernels; operate on the last axis so they apply unchanged to
# (M,) vectors and (P, M) path batches.


def h_norm_arr(c: np.ndarray) -> np.ndarray:
    # the reduction .sum() makes, without its Python wrapper
    return np.sqrt(np.add.reduce(c * c, axis=-1))


def v_norm_arr(lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.sqrt((lam * c * c).sum(axis=-1))


def v_star_norm_arr(lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.sqrt((c * c / lam).sum(axis=-1))


def h_norm(v: StateVector) -> float:
    """|v|_H, the Euclidean norm of the coefficients."""
    return float(h_norm_arr(_coeffs(v)))


def v_norm(v: StateVector) -> float:
    """‖v‖ = |A^{1/2} v|_H."""
    return float(v_norm_arr(v.basis.eigenvalues, v.coeffs))


def v_star_norm(v: StateVector) -> float:
    """|v|_{V*} = |A^{-1/2} v|_H; satisfies |(u,w)| ≤ |u|_{V*} ‖w‖."""
    return float(v_star_norm_arr(v.basis.eigenvalues, v.coeffs))


def project_low_modes(v: StateVector, n: int) -> StateVector:
    """P_N v: keep coordinates 1..N, zero the rest.  Requires 0 ≤ N ≤ dim."""
    if not 0 <= n <= v.basis.dim:
        raise ValidationError(f"projection level {n} not in [0, {v.basis.dim}]")
    c = v.coeffs.copy()
    c[n:] = 0.0
    return StateVector(c, v.basis)


def poincare_gap_check(v: StateVector, n: int):
    """Check ‖v‖² ≥ λ_{N+1} |(I−P_N)v|²_H and return (holds, residual).

    The residual is ‖v‖² − λ_{N+1}|(I−P_N)v|²; equality is attained at
    v = e_{N+1}.  N = dim is rejected because λ_{N+1} is not stored.
    """
    basis = v.basis
    if not 0 <= n < basis.dim:
        raise ValidationError(
            f"poincare check needs 0 <= N < dim, got N={n}, dim={basis.dim}"
        )
    lam_next = float(basis.eigenvalues[n])
    vsq = float((basis.eigenvalues * v.coeffs * v.coeffs).sum())
    tail = float((v.coeffs[n:] * v.coeffs[n:]).sum())
    residual = vsq - lam_next * tail
    holds = residual >= -1e-12 * max(vsq, lam_next * tail)
    return holds, residual


@dataclass(frozen=True)
class H1Report:
    """Outcome of the spectral-gap condition on the coupling level N.

    `passed` reflects only the strict eigenvalue inequality
    λ_{N+1} > threshold; `pinv_ok` reports separately whether the noise map
    is invertible on modes 1..N with the declared floor.
    """

    threshold: float
    lambda_next: float
    passed: bool
    variant: str
    pinv_ok: bool = True


def h1_threshold_generic(
    f0_vstar: float, sigma0_hs: float, c1: float, f0_squared: bool = True
) -> float:
    """(32/3)|f(0)|²_{V*} + (32/3)|σ(0)|²_{HS} + 16 C_1.

    With f0_squared=False the first term uses |f(0)|_{V*} unsquared; the
    squared form is the default because it is the one every downstream
    bound consumes.
    """
    f0_term = f0_vstar**2 if f0_squared else f0_vstar
    return (32.0 / 3.0) * f0_term + (32.0 / 3.0) * sigma0_hs**2 + 16.0 * c1


def h1_threshold_nse(sigma0_hs: float, c1: float, gamma: float) -> float:
    """(32/3)|σ(0)|²_{HS} + 12 C_1 + 16 γ² (damped Navier-Stokes variant)."""
    return (32.0 / 3.0) * sigma0_hs**2 + 12.0 * c1 + 16.0 * gamma**2


def validate_h1(
    model, n: int | None = None, variant: str = "generic", f0_squared: bool = True
) -> H1Report:
    """Spectral-gap report for a model at coupling level N.

    The model supplies the declared constants (C_1, |f(0)|_{V*}, |σ(0)|_{HS},
    γ) and its noise map, whose `pseudo_inverse_floor` says whether σ is
    invertible on modes 1..N.
    """
    basis = model.basis
    if n is None:
        n = model.coupling_n
    if not 0 <= n < basis.dim:
        raise ValidationError(f"need 0 <= N < dim to read λ_(N+1); N={n}")
    lam_next = float(basis.eigenvalues[n])
    if variant == "generic":
        threshold = h1_threshold_generic(
            model.f0_vstar, model.sigma0_hs, model.lipschitz_c1, f0_squared
        )
    elif variant == "nse":
        threshold = h1_threshold_nse(
            model.sigma0_hs, model.lipschitz_c1, model.damping_gamma
        )
    else:
        raise ValidationError(f"unknown spectral-gap variant {variant!r}")

    pinv_ok = model.noise.pseudo_inverse_floor(n) is not None
    return H1Report(
        threshold=threshold,
        lambda_next=lam_next,
        passed=bool(lam_next > threshold),
        variant=variant,
        pinv_ok=pinv_ok,
    )
