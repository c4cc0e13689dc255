"""Coefficient triple (f, B, σ) of the reflected evolution equation.

f maps states to V*-valued drifts, B is a bilinear map V×V → V* with an
antisymmetric trilinear form b̄(u,v,w) = ⟨B(u,v),w⟩ = −b̄(u,w,v), and σ is a
diagonal noise map.  The declared constants (C_1, |f(0)|_{V*}, |σ(0)|_{HS})
drive the spectral-gap validation; `lipschitz_probe` and `check_form_bounds`
cross-check them statistically instead of trusting the declaration.

All evaluation kernels are written against (P, M) batches of states with the
mode axis last; single-vector operations wrap the batch kernels with P = 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .spectral import (
    SpectralBasis,
    StateVector,
    _coeffs,
    h_norm_arr,
    v_norm_arr,
    v_star_norm_arr,
)

# ---------------------------------------------------------------------------
# drift maps


@dataclass(frozen=True)
class DriftMap:
    """State-dependent drift f: H → V* in eigenbasis coordinates.

    kinds:
      linear_decay  f(u) = -rates ⊙ u
      affine        f(u) = shift + scale ⊙ u
      custom_table  exact lookup at the table's defining points, nearest
                    table point between them
    """

    kind: str
    rates: np.ndarray | float = 0.0
    shift: np.ndarray | float = 0.0
    scale: np.ndarray | float = 0.0
    table_in: np.ndarray | None = None
    table_out: np.ndarray | None = None

    def eval_batch(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "linear_decay":
            return -np.asarray(self.rates) * u
        if self.kind == "affine":
            return np.asarray(self.shift) + np.asarray(self.scale) * u
        if self.kind == "custom_table":
            d2 = ((u[:, None, :] - self.table_in[None, :, :]) ** 2).sum(axis=-1)
            return self.table_out[np.argmin(d2, axis=1)]
        raise ValidationError(f"unknown drift kind {self.kind!r}")


def linear_decay_drift(rates) -> DriftMap:
    return DriftMap(kind="linear_decay", rates=np.asarray(rates, dtype=float))


def affine_drift(shift, scale) -> DriftMap:
    return DriftMap(
        kind="affine",
        shift=np.asarray(shift, dtype=float),
        scale=np.asarray(scale, dtype=float),
    )


def table_drift(points) -> DriftMap:
    """Drift from explicit (input, output) coefficient pairs."""
    table_in = np.asarray([p[0] for p in points], dtype=float)
    table_out = np.asarray([p[1] for p in points], dtype=float)
    if table_in.shape != table_out.shape or table_in.ndim != 2:
        raise ValidationError("custom table needs matching (input, output) rows")
    return DriftMap(kind="custom_table", table_in=table_in, table_out=table_out)


# ---------------------------------------------------------------------------
# bilinear forms


@dataclass(frozen=True)
class BilinearForm:
    """Antisymmetric trilinear form b̄ and its Riesz map B.

    kinds:
      zero            b̄ ≡ 0
      skew_shear      b̄(u,v,w) = Σ c · u_i (v_j w_k − v_k w_j) over stored
                      entries (i, j, k, c) with j < k; antisymmetry in the
                      last two slots is exact by construction
      nse_convective  spectral convection tensor of the 2D periodic
                      divergence-free instance (assembled in see_lab.nse),
                      stored as sparse triples (ii, jj, kk, vals) with
                      B(u,v)_k = Σ vals · u_ii v_jj over the triples with kk = k

    B is contracted over a pair list (a, b, C): the distinct index pairs
    (a[p], b[p]) of the triples and an (M, n_pairs) CSR matrix C with
    B(u,v) = C (u_a ⊙ v_b).  Each row of C sums its nonzeros in stored order,
    so a row's result does not depend on the batch it sits in.  B(u,u), the
    only call the stepper makes, uses the folded list: (i, j) and (j, i) are
    merged into one i ≤ j pair, which about halves the work.
    """

    kind: str
    entries: tuple = ()  # skew_shear: ((i, j, k, c), ...)
    nse_idx: tuple | None = None  # nse_convective: (ii, jj, kk, vals) arrays
    nse_pairs: tuple | None = None  # (a, b, C) over the distinct (i, j) pairs
    nse_folded: tuple | None = None  # (a, b, C) over the i <= j pairs, for B(u,u)
    dim: int = 0

    def trilinear_batch(self, u, v, w) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(u.shape[0])
        if self.kind == "skew_shear":
            out = np.zeros(u.shape[0])
            for i, j, k, c in self.entries:
                out += c * u[:, i] * (v[:, j] * w[:, k] - v[:, k] * w[:, j])
            return out
        if self.kind == "nse_convective":
            ii, jj, kk, vals = self.nse_idx
            return (u[:, ii] * v[:, jj] * w[:, kk]) @ vals
        raise ValidationError(f"unknown bilinear kind {self.kind!r}")

    def bilinear_batch(self, u, v) -> np.ndarray:
        """Coefficients of B(u,v): ⟨B(u,v), w⟩ = b̄(u,v,w) for all w."""
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "skew_shear":
            out = np.zeros(u.shape)
            for i, j, k, c in self.entries:
                uv = c * u[:, i]
                out[:, k] += uv * v[:, j]
                out[:, j] -= uv * v[:, k]
            return out
        if self.kind == "nse_convective":
            if v is u:
                return _pair_contract(self.nse_folded, u, u)
            return _pair_contract(self.nse_pairs, u, v)
        raise ValidationError(f"unknown bilinear kind {self.kind!r}")


# _pair_contract takes at most this many rows at a time, so that its
# (n_pairs, rows) products stay in cache
_PAIR_BLOCK = 64


def _pair_contract(pairs, u, v) -> np.ndarray:
    """(P, M) rows of C (u_a ⊙ v_b) for the pair list (a, b, C), in blocks of
    at most _PAIR_BLOCK rows.  Each row sums its CSR terms in stored order,
    so the block size does not change a bit of the result."""
    a, b, mat = pairs
    out = np.empty((u.shape[0], mat.shape[0]))
    for lo in range(0, u.shape[0], _PAIR_BLOCK):
        rows = slice(lo, lo + _PAIR_BLOCK)
        ut = np.ascontiguousarray(u[rows].T)
        q = ut[a]  # (n_pairs, rows)
        q *= ut[b] if v is u else np.ascontiguousarray(v[rows].T)[b]
        out[rows] = (mat @ q).T
    return out


def zero_form() -> BilinearForm:
    return BilinearForm(kind="zero")


def skew_shear_form(entries, dim: int) -> BilinearForm:
    """Canonicalize (i, j, k, c) tensor entries: c_{ijk} = -c_{ikj}, j ≠ k.

    Entries given with j > k are folded into the canonical j < k slot with
    the sign flipped; j = k entries are rejected (they would break the
    antisymmetry that makes b̄(u,v,v) vanish).
    """
    canon: dict[tuple[int, int, int], float] = {}
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValidationError(f"tensor index ({i},{j},{k}) outside 0..{dim - 1}")
        if j == k:
            raise ValidationError(f"entry ({i},{j},{k}) has j == k")
        if j > k:
            i, j, k, c = i, k, j, -c
        key = (i, j, k)
        canon[key] = canon.get(key, 0.0) + float(c)
    ent = tuple((i, j, k, c) for (i, j, k), c in sorted(canon.items()) if c != 0.0)
    return BilinearForm(kind="skew_shear", entries=ent, dim=dim)


DEFAULT_SHEAR_ENTRIES = ((0, 1, 2, 0.2), (1, 2, 3, 0.1))


# ---------------------------------------------------------------------------
# noise maps


@dataclass(frozen=True)
class NoiseMap:
    """Diagonal noise map σ(u) dW_i = s_i g(|u|_H) dW_i e_i.

    g(r) = clip(g_base + g_slope·r, g_lo, g_hi) with 0 < g_lo ≤ g ≤ g_hi,
    so the map is bounded and Lipschitz with HS constant ‖s‖₂·|g_slope|.
    c_min is the declared floor of s_1..s_N used by the pseudo-inverse
    bound on the coupled modes.
    """

    kind: str
    s: np.ndarray | None = None
    g_base: float = 1.0
    g_slope: float = 0.0
    g_lo: float = 1.0
    g_hi: float = 1.0
    c_min: float = 0.0
    diag_fn: object = None  # custom hook: (P, M) states -> (P, M) diagonals
    pinv_floor: float | None = None  # custom hook's declared floor, if any

    def g(self, r):
        return np.clip(self.g_base + self.g_slope * np.asarray(r), self.g_lo, self.g_hi)

    def diag_batch(self, u: np.ndarray, norm: np.ndarray | None = None) -> np.ndarray:
        """σ(u) row by row.  `norm`, if given, must be h_norm_arr(u), for a
        caller that has it already; the custom hook ignores it."""
        if self.kind == "diag_affine":
            return self.s * self.g(h_norm_arr(u) if norm is None else norm)[..., None]
        if self.kind == "custom":
            return np.asarray(self.diag_fn(u), dtype=float)
        raise ValidationError(f"unknown noise kind {self.kind!r}")

    def constant_diag(self) -> np.ndarray | None:
        """The diagonal σ when it does not depend on the state, else None:
        s·g(0) when g is constant (g_slope = 0 or g_lo = g_hi), bit for bit
        each row of diag_batch; None for the custom hook."""
        if self.kind == "diag_affine" and (self.g_slope == 0.0 or self.g_lo == self.g_hi):
            return self.s * self.g(0.0)
        return None

    def hs_norm_batch(self, u: np.ndarray) -> np.ndarray:
        d = self.diag_batch(u)
        return np.sqrt((d * d).sum(axis=-1))

    def pseudo_inverse_floor(self, n: int) -> float | None:
        """Lower bound of the diagonal on modes 1..N, or None when there is
        no positive one.  With N = 0 there is nothing to invert: β is empty
        and the floor is inf."""
        if n == 0:
            return math.inf
        if self.kind == "diag_affine":
            if np.any(self.s[:n] < self.c_min):
                return None
            floor = self.c_min * self.g_lo
        else:
            floor = self.pinv_floor
        return floor if floor is not None and floor > 0.0 else None


def diag_affine_noise(
    s, c_min: float, g_base=1.0, g_slope=0.0, g_lo=1.0, g_hi=1.0
) -> NoiseMap:
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValidationError("noise amplitudes must be nonnegative")
    if not 0.0 < g_lo <= g_hi:
        raise ValidationError("need 0 < g_lo <= g_hi")
    return NoiseMap(
        kind="diag_affine",
        s=s,
        c_min=float(c_min),
        g_base=float(g_base),
        g_slope=float(g_slope),
        g_lo=float(g_lo),
        g_hi=float(g_hi),
    )


def inverse_mode_amplitudes(dim: int, sigma0: float) -> np.ndarray:
    """s_i ∝ 1/i scaled so that ‖s‖₂ = sigma0."""
    s = 1.0 / np.arange(1, dim + 1, dtype=float)
    return s * (sigma0 / np.sqrt((s * s).sum()))


# ---------------------------------------------------------------------------
# the assembled model


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model: basis + (f, B, σ) + declared constants + coupling level."""

    basis: SpectralBasis
    drift: DriftMap
    bilinear: BilinearForm
    noise: NoiseMap
    lipschitz_c1: float
    f0_vstar: float
    sigma0_hs: float
    damping_gamma: float
    coupling_n: int
    model_id: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.coupling_n + 1 <= self.basis.dim:
            raise ValidationError(
                f"coupling_n must be < basis dim: N={self.coupling_n}, M={self.basis.dim}"
            )
        for name in ("lipschitz_c1", "f0_vstar", "sigma0_hs", "damping_gamma"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.noise.kind == "diag_affine":
            if self.noise.s.size != self.basis.dim:
                raise DimensionMismatch("noise amplitude length != basis dim")
            low = self.noise.s[: self.coupling_n]
            if self.noise.c_min > 0.0 and np.any(low < self.noise.c_min):
                raise ValidationError(
                    "noise amplitudes on coupled modes fall below declared c_min"
                )
        if not self.model_id:
            object.__setattr__(self, "model_id", _model_id(self))

    @property
    def dim(self) -> int:
        return self.basis.dim


def _model_id(m: ModelSpec) -> str:
    h = hashlib.sha1()
    h.update(m.basis.eigenvalues.tobytes())
    h.update(repr((m.drift.kind, m.drift.rates, m.drift.shift, m.drift.scale)).encode())
    h.update(repr((m.bilinear.kind, m.bilinear.entries)).encode())
    if m.noise.kind == "diag_affine":
        h.update(m.noise.s.tobytes())
        h.update(
            repr((m.noise.g_base, m.noise.g_slope, m.noise.g_lo, m.noise.g_hi)).encode()
        )
    h.update(
        repr(
            (m.lipschitz_c1, m.f0_vstar, m.sigma0_hs, m.damping_gamma, m.coupling_n)
        ).encode()
    )
    return h.hexdigest()[:12]


def build_model(
    basis: SpectralBasis,
    drift: DriftMap,
    bilinear: BilinearForm,
    noise: NoiseMap,
    lipschitz_c1: float,
    coupling_n: int,
    damping_gamma: float = 0.0,
    f0_vstar: float | None = None,
    sigma0_hs: float | None = None,
) -> ModelSpec:
    """Assemble a ModelSpec, recording |f(0)|_{V*} and |σ(0)|_{HS} at build time
    unless explicitly declared."""
    zero = np.zeros((1, basis.dim))
    if f0_vstar is None:
        f0_vstar = float(v_star_norm_arr(basis.eigenvalues, drift.eval_batch(zero))[0])
    if sigma0_hs is None:
        sigma0_hs = float(noise.hs_norm_batch(zero)[0])
    return ModelSpec(
        basis=basis,
        drift=drift,
        bilinear=bilinear,
        noise=noise,
        lipschitz_c1=float(lipschitz_c1),
        f0_vstar=f0_vstar,
        sigma0_hs=sigma0_hs,
        damping_gamma=float(damping_gamma),
        coupling_n=int(coupling_n),
    )


# ---------------------------------------------------------------------------
# pointwise operations (spec surface; batch kernels above do the work)


def _check_dim(model: ModelSpec, *vs):
    for v in vs:
        c = _coeffs(v)
        if c.shape[-1] != model.dim:
            raise DimensionMismatch(
                f"vector length {c.shape[-1]} != model dim {model.dim}"
            )


def eval_drift(model: ModelSpec, u) -> StateVector:
    """Coefficient representation of f(u)."""
    _check_dim(model, u)
    out = model.drift.eval_batch(_coeffs(u)[None, :])[0]
    return StateVector(out, model.basis)


def trilinear_form(model: ModelSpec, u, v, w) -> float:
    """b̄(u, v, w) = ⟨B(u,v), w⟩."""
    _check_dim(model, u, v, w)
    return float(
        model.bilinear.trilinear_batch(_coeffs(u)[None], _coeffs(v)[None], _coeffs(w)[None])[0]
    )


def eval_bilinear(model: ModelSpec, u, v) -> StateVector:
    """Riesz representation B(u, v) of the trilinear form in the w slot."""
    _check_dim(model, u, v)
    out = model.bilinear.bilinear_batch(_coeffs(u)[None], _coeffs(v)[None])[0]
    return StateVector(out, model.basis)


class NoiseOperator:
    """σ(u) frozen at a state: diagonal linear map from noise space to H."""

    def __init__(self, diag: np.ndarray):
        self.diag = diag
        self.hs_norm = float(np.sqrt((diag * diag).sum()))

    def apply(self, w) -> np.ndarray:
        return self.diag * np.asarray(w, dtype=float)


def eval_noise(model: ModelSpec, u) -> NoiseOperator:
    _check_dim(model, u)
    return NoiseOperator(model.noise.diag_batch(_coeffs(u)[None])[0])


# ---------------------------------------------------------------------------
# statistical property checks


@dataclass(frozen=True)
class FormBoundsReport:
    max_ratio_trilinear: float
    max_ratio_bmap: float
    n_samples: int
    passed: bool


def check_form_bounds(model: ModelSpec, samples: int, seed: int) -> FormBoundsReport:
    """Empirical check of the form bounds

        |b̄(u,v,w)| ≤ 2 ‖u‖^{1/2} |u|^{1/2} ‖w‖^{1/2} |w|^{1/2} ‖v‖
        ‖B(u,u)‖_{V*} ≤ 2 ‖u‖ |u|_H

    over `samples` random triples plus all eigenvector triples on the
    low modes (the latter catch oversized tensors deterministically).
    """
    m = model.dim
    lam = model.basis.eigenvalues
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, m))
    v = rng.standard_normal((samples, m))
    w = rng.standard_normal((samples, m))

    n_axes = min(m, 6)
    eye = np.eye(m)[:n_axes]
    iu, iv, iw = np.meshgrid(*(np.arange(n_axes),) * 3, indexing="ij")
    u = np.vstack([u, eye[iu.ravel()]])
    v = np.vstack([v, eye[iv.ravel()]])
    w = np.vstack([w, eye[iw.ravel()]])

    b = model.bilinear.trilinear_batch(u, v, w)
    hn_u, hn_w = h_norm_arr(u), h_norm_arr(w)
    vn_u, vn_v, vn_w = v_norm_arr(lam, u), v_norm_arr(lam, v), v_norm_arr(lam, w)
    denom = 2.0 * np.sqrt(vn_u * hn_u) * np.sqrt(vn_w * hn_w) * vn_v
    ratio_tri = float(np.max(np.abs(b) / np.maximum(denom, 1e-300)))

    buu = model.bilinear.bilinear_batch(u, u)
    num = v_star_norm_arr(lam, buu)
    ratio_b = float(np.max(num / np.maximum(2.0 * vn_u * hn_u, 1e-300)))

    passed = ratio_tri <= 1.0 + 1e-9 and ratio_b <= 1.0 + 1e-9
    return FormBoundsReport(ratio_tri, ratio_b, int(u.shape[0]), passed)


@dataclass(frozen=True)
class AntisymmetryReport:
    max_antisymmetry_resid: float  # |b(u,v,w) + b(u,w,v)| / scale
    max_cancellation_resid: float  # |b(u,v,v)| / scale
    max_riesz_resid: float  # |<B(u,v),w> - b(u,v,w)| / scale
    n_samples: int
    passed: bool


def check_antisymmetry(
    model: ModelSpec, samples: int, seed: int, tol: float = 1e-12
) -> AntisymmetryReport:
    """Sampled check of b̄(u,v,w) = −b̄(u,w,v), b̄(u,v,v) = 0, and the Riesz
    consistency ⟨B(u,v),w⟩ = b̄(u,v,w), all relative to the form-bound scale."""
    m = model.dim
    lam = model.basis.eigenvalues
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, m))
    v = rng.standard_normal((samples, m))
    w = rng.standard_normal((samples, m))
    hn = lambda a: h_norm_arr(a)
    vn = lambda a: v_norm_arr(lam, a)
    scale_vw = 2.0 * np.sqrt(vn(u) * hn(u)) * np.sqrt(vn(w) * hn(w)) * vn(v) + 1e-300
    scale_vv = 2.0 * np.sqrt(vn(u) * hn(u)) * np.sqrt(vn(v) * hn(v)) * vn(v) + 1e-300

    b_uvw = model.bilinear.trilinear_batch(u, v, w)
    b_uwv = model.bilinear.trilinear_batch(u, w, v)
    b_uvv = model.bilinear.trilinear_batch(u, v, v)
    riesz = (model.bilinear.bilinear_batch(u, v) * w).sum(axis=-1)

    anti = float(np.max(np.abs(b_uvw + b_uwv) / scale_vw))
    canc = float(np.max(np.abs(b_uvv) / scale_vv))
    rz = float(np.max(np.abs(riesz - b_uvw) / scale_vw))
    passed = anti <= tol and canc <= tol and rz <= tol
    return AntisymmetryReport(anti, canc, rz, samples, passed)


@dataclass(frozen=True)
class LipschitzReport:
    estimate: float
    declared: float
    n_pairs: int
    passed: bool


def lipschitz_probe(model: ModelSpec, pairs: int, seed: int) -> LipschitzReport:
    """Max sampled ratio (|f(u)−f(v)|²_{V*} + |σ(u)−σ(v)|²_{HS}) / |u−v|²_H.

    Passes iff the estimate does not exceed the declared C_1 (up to 1e-9
    relative).
    """
    m = model.dim
    lam = model.basis.eigenvalues
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((pairs, m)) * 0.7
    v = rng.standard_normal((pairs, m)) * 0.7
    # colinear pairs approach the supremum of radial maps like g(|u|)
    quarter = max(pairs // 4, 1)
    v[:quarter] = u[:quarter] * (1.0 + 0.02 * rng.standard_normal((quarter, 1)))
    fu, fv = model.drift.eval_batch(u), model.drift.eval_batch(v)
    df = v_star_norm_arr(lam, fu - fv) ** 2
    dd = model.noise.diag_batch(u) - model.noise.diag_batch(v)
    ds = (dd * dd).sum(axis=-1)
    gap = h_norm_arr(u - v) ** 2
    ok = gap > 1e-20
    est = float(np.max((df[ok] + ds[ok]) / gap[ok]))
    return LipschitzReport(
        estimate=est,
        declared=model.lipschitz_c1,
        n_pairs=int(ok.sum()),
        passed=est <= model.lipschitz_c1 * (1.0 + 1e-9),
    )


# ---------------------------------------------------------------------------
# built-in models


def default_model(m: int = 16, n: int = 4) -> ModelSpec:
    """Small dissipative model: λ_i = i², mild linear decay, weak shear,
    additive low-amplitude noise.  Passes the spectral-gap condition."""
    from .spectral import quadratic_basis

    basis = quadratic_basis(m)
    s = inverse_mode_amplitudes(m, 0.05)
    return build_model(
        basis=basis,
        drift=linear_decay_drift(0.3),
        bilinear=skew_shear_form(DEFAULT_SHEAR_ENTRIES, m),
        noise=diag_affine_noise(s, c_min=float(s[min(n, m) - 1])),
        lipschitz_c1=0.5,
        coupling_n=n,
    )


def benchmark_model(m: int = 16) -> ModelSpec:
    """Strong-gap model used by the quantitative contraction experiments:
    λ_i = 4i², N = 3 (λ_{N+1} = 64), C_1 = 1, |f(0)| = 0, |σ(0)|_{HS} = 0.1."""
    from .spectral import quadratic_basis

    basis = quadratic_basis(m, scale=4.0)
    s = inverse_mode_amplitudes(m, 0.1)
    return build_model(
        basis=basis,
        drift=linear_decay_drift(0.3),
        bilinear=skew_shear_form(DEFAULT_SHEAR_ENTRIES, m),
        noise=diag_affine_noise(s, c_min=float(s[2])),
        lipschitz_c1=1.0,
        coupling_n=3,
    )


def boundary_active_model(m: int = 16) -> ModelSpec:
    """Outward affine drift pushing mass onto the unit sphere; used by the
    reflection and penalization stress tests."""
    from .spectral import quadratic_basis

    basis = quadratic_basis(m)
    s = inverse_mode_amplitudes(m, 0.05)
    return build_model(
        basis=basis,
        drift=affine_drift(np.zeros(m), 2.0),
        bilinear=zero_form(),
        noise=diag_affine_noise(s, c_min=float(s[3])),
        lipschitz_c1=4.0,
        coupling_n=4,
    )
