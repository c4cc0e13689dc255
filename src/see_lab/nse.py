"""2D damped Navier-Stokes instance on the periodic box [0, 2π]².

State space: real divergence-free mean-zero velocity fields spanned by

    ψ_k^c(ξ) = (k⊥/|k|) cos(k·ξ) / (√2 π),   ψ_k^s(ξ) = (k⊥/|k|) sin(k·ξ) / (√2 π)

for integer wave vectors 0 ≠ k with |k| ≤ κ, one representative per {k, −k}.
Each field is an L²-normalized eigenfunction of A = −Δ with eigenvalue |k|²
and is divergence-free exactly (k⊥·k = 0 in integer arithmetic).

The convection form b(u,v,z) = ∫ (u·∇)v · z dξ is assembled as a sparse
interaction tensor from the analytic integrals of trig triple products
(resonant wave-vector triples only); no FFT is involved, so evaluations are
exact up to rounding at desk-scale κ.

B(u,v) is evaluated as a sparse contraction of fixed order: the products
u_a v_b over a list of index pairs, then one CSR matrix of shape
(M, n_pairs) that sums each output coefficient's terms in stored order.
The result of a row is therefore bit-identical for any batch split.  B(u,u)
uses a folded list, where the (i, j) and (j, i) terms share one i ≤ j pair
(896 pairs instead of 2224 triples at κ = 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    BilinearForm,
    ModelSpec,
    affine_drift,
    build_model,
    check_form_bounds,
    diag_affine_noise,
    inverse_mode_amplitudes,
)
from .ergodicity import Verdict
from .errors import ValidationError
from .spectral import SpectralBasis, validate_h1

_NORM = 1.0 / (math.sqrt(2.0) * math.pi)  # L² normalization on [0, 2π]²

# complex expansion coefficients: trig(a) = Σ_s coef · e^{i s a}
_TRIG_COEF = {
    "cos": ((1, 0.5 + 0.0j), (-1, 0.5 + 0.0j)),
    "sin": ((1, -0.5j), (-1, 0.5j)),
}
# d/da of the trig factor: cos' = -sin, sin' = cos
_TRIG_DERIV = {"cos": (-1.0, "sin"), "sin": (1.0, "cos")}


@dataclass(frozen=True)
class FourierMode:
    k: tuple[int, int]
    trig: str  # "cos" | "sin"

    @property
    def lam(self) -> float:
        return float(self.k[0] ** 2 + self.k[1] ** 2)

    @property
    def direction(self) -> np.ndarray:
        kx, ky = self.k
        return np.array([-ky, kx], dtype=float) / math.sqrt(kx * kx + ky * ky)


@dataclass(frozen=True)
class FourierGrid:
    """Divergence-free real Fourier modes with |k| ≤ κ, sorted by eigenvalue."""

    max_wavenumber: int
    modes: tuple[FourierMode, ...]

    @property
    def dim(self) -> int:
        return len(self.modes)

    def eigenvalues(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])


def build_fourier_grid(kappa: int) -> FourierGrid:
    if kappa < 1:
        raise ValidationError("kappa must be at least 1")
    vectors = []
    for kx in range(-kappa, kappa + 1):
        for ky in range(-kappa, kappa + 1):
            if (kx, ky) == (0, 0) or kx * kx + ky * ky > kappa * kappa:
                continue
            # one representative per {k, -k}: positive kx, or kx = 0 with ky > 0
            if kx > 0 or (kx == 0 and ky > 0):
                vectors.append((kx, ky))
    modes = [FourierMode(k, trig) for k in vectors for trig in ("cos", "sin")]
    modes.sort(key=lambda mo: (mo.lam, mo.k, mo.trig))
    return FourierGrid(max_wavenumber=kappa, modes=tuple(modes))


def _triple_integral(t1, k1, t2, k2, t3, k3) -> float:
    """∫_{[0,2π]²} trig1(k1·ξ) trig2(k2·ξ) trig3(k3·ξ) dξ, exactly."""
    total = 0.0 + 0.0j
    for s1, c1 in _TRIG_COEF[t1]:
        for s2, c2 in _TRIG_COEF[t2]:
            for s3, c3 in _TRIG_COEF[t3]:
                if (
                    s1 * k1[0] + s2 * k2[0] + s3 * k3[0] == 0
                    and s1 * k1[1] + s2 * k2[1] + s3 * k3[1] == 0
                ):
                    total += c1 * c2 * c3
    val = total * (2.0 * math.pi) ** 2
    return float(val.real)


def _assemble_convection(grid: FourierGrid) -> BilinearForm:
    """Sparse tensor T[α,β,γ] = ∫ (ψ_α·∇)ψ_β · ψ_γ, antisymmetrized in (β,γ),
    with its two pair lists (see BilinearForm)."""
    from scipy.sparse import csr_array  # imported here: only NSE set-up pays for it

    modes = grid.modes
    m = grid.dim
    by_vector: dict[tuple[int, int], list[int]] = {}
    for idx, mo in enumerate(modes):
        by_vector.setdefault(mo.k, []).append(idx)

    def candidates(ka, kb):
        seen = set()
        for v in (
            (ka[0] + kb[0], ka[1] + kb[1]),
            (ka[0] - kb[0], ka[1] - kb[1]),
        ):
            for w in (v, (-v[0], -v[1])):
                if w in by_vector and w not in seen:
                    seen.add(w)
                    yield from by_vector[w]

    dirs = [mo.direction for mo in modes]
    raw: dict[tuple[int, int, int], float] = {}
    for a, ma in enumerate(modes):
        for b, mb in enumerate(modes):
            da_dot_kb = float(dirs[a] @ np.array(mb.k, dtype=float))
            if da_dot_kb == 0.0:
                continue
            sign, tb = _TRIG_DERIV[mb.trig]
            for c in candidates(ma.k, mb.k):
                mc = modes[c]
                integ = _triple_integral(ma.trig, ma.k, tb, mb.k, mc.trig, mc.k)
                if integ == 0.0:
                    continue
                val = _NORM**3 * da_dot_kb * sign * float(dirs[b] @ dirs[c]) * integ
                if val != 0.0:
                    raw[(a, b, c)] = raw.get((a, b, c), 0.0) + val

    # antisymmetrize in the (β, γ) slots over the union of mirrored triples,
    # so T[a,b,c] = -T[a,c,b] holds entrywise by construction
    slots = set(raw)
    slots.update((a, c, b) for a, b, c in raw)
    entries: dict[tuple[int, int, int], float] = {}
    for a, b, c in slots:
        anti = 0.5 * (raw.get((a, b, c), 0.0) - raw.get((a, c, b), 0.0))
        if anti != 0.0:
            entries[(a, b, c)] = anti
    keys = sorted(entries)
    ii = [a for a, _, _ in keys]
    jj = [b for _, b, _ in keys]
    kk = [c for _, _, c in keys]
    vals = [entries[k] for k in keys]
    ii = np.asarray(ii, dtype=np.int64)
    jj = np.asarray(jj, dtype=np.int64)
    kk = np.asarray(kk, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)

    def pair_list(a, b):
        # sum the triples that share (a, b, kk): at most two, and a two-term
        # float sum is the same in either order; drop sums that cancel to zero
        key3, inv = np.unique((a * m + b) * m + kk, return_inverse=True)
        coef = np.zeros(key3.size)
        np.add.at(coef, inv, vals)
        key3, coef = key3[coef != 0.0], coef[coef != 0.0]
        pairs, col = np.unique(key3 // m, return_inverse=True)
        mat = csr_array((coef, (key3 % m, col)), shape=(m, pairs.size))
        return pairs // m, pairs % m, mat

    return BilinearForm(
        kind="nse_convective",
        nse_idx=(ii, jj, kk, vals),
        nse_pairs=pair_list(ii, jj),
        nse_folded=pair_list(np.minimum(ii, jj), np.maximum(ii, jj)),
        dim=m,
    )


@dataclass(frozen=True)
class NseModel:
    """Damped Navier-Stokes instance: grid, damping, forcing, and the
    assembled generic model (viscosity fixed at 1)."""

    grid: FourierGrid
    gamma: float
    forcing: np.ndarray  # (M,) constant divergence-free field coefficients
    spec: ModelSpec


def build_nse_model(
    kappa: int,
    gamma: float,
    sigma0: float = 0.05,
    forcing=None,
    coupling_n: int | None = None,
    lipschitz_c1: float | None = None,
    noise_s=None,
) -> NseModel:
    """Assemble the instance: eigenvalues λ = |k|² sorted ascending, the
    convection form, damping −γX inside the drift, diagonal noise.

    The declared Lipschitz constant defaults to the noise map's analytic
    one (the drift is constant), which is 0 for state-independent noise.
    """
    if gamma < 0.0:
        raise ValidationError("gamma must be nonnegative")
    grid = build_fourier_grid(kappa)
    m = grid.dim
    basis = SpectralBasis(grid.eigenvalues())
    if forcing is None:
        forcing = np.zeros(m)
    forcing = np.asarray(forcing, dtype=float)
    if forcing.shape != (m,):
        raise ValidationError(f"forcing needs {m} mode coefficients")
    if coupling_n is None:
        coupling_n = min(4, m - 1)
    s = np.asarray(noise_s, dtype=float) if noise_s is not None else (
        inverse_mode_amplitudes(m, sigma0)
    )
    c_min = float(s[:coupling_n].min()) if coupling_n > 0 else 0.0
    noise = diag_affine_noise(s, c_min=c_min)
    if lipschitz_c1 is None:
        lipschitz_c1 = 0.0  # constant drift + state-independent noise
    spec = build_model(
        basis=basis,
        drift=affine_drift(forcing, 0.0),
        bilinear=_assemble_convection(grid),
        noise=noise,
        lipschitz_c1=lipschitz_c1,
        coupling_n=coupling_n,
        damping_gamma=gamma,
    )
    return NseModel(grid=grid, gamma=float(gamma), forcing=forcing, spec=spec)


def nse_trilinear(model: NseModel, u, v, w) -> float:
    """b(u, v, w) = ∫ (u·∇)v · w dξ via the spectral interaction sum."""
    from .coefficients import trilinear_form

    return trilinear_form(model.spec, u, v, w)


def velocity_field(grid: FourierGrid, coeffs, n_grid: int = 64) -> np.ndarray:
    """Synthesize the (n, n, 2) velocity field on the uniform grid of [0,2π]²."""
    coeffs = np.asarray(coeffs, dtype=float)
    xs = np.arange(n_grid) * (2.0 * math.pi / n_grid)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    out = np.zeros((n_grid, n_grid, 2))
    for a, mo in enumerate(grid.modes):
        if coeffs[a] == 0.0:
            continue
        phase = mo.k[0] * gx + mo.k[1] * gy
        factor = np.cos(phase) if mo.trig == "cos" else np.sin(phase)
        out += (coeffs[a] * _NORM) * factor[:, :, None] * mo.direction
    return out


def divergence_structure_ok(grid: FourierGrid) -> bool:
    """Every basis field is divergence-free identically: k⊥·k = 0 in exact
    integer arithmetic, so any coefficient vector represents a solenoidal
    field.  Returns True; kept as an explicit structural assertion."""
    for mo in grid.modes:
        kx, ky = mo.k
        if (-ky) * kx + kx * ky != 0:
            return False
    return True


def nse_verdicts(nse: NseModel, seed: int = 0) -> list:
    """The instance's own checks: divergence-free structure, the form
    bounds, and both spectral-gap variants."""
    model = nse.spec
    fb = check_form_bounds(model, samples=1000, seed=seed)
    h1_nse = validate_h1(model, variant="nse")
    h1_gen = validate_h1(model, variant="generic")
    return [
        Verdict(
            "divergence_free_structure",
            divergence_structure_ok(nse.grid),
            0.0,
            "all basis fields satisfy k_perp . k = 0 exactly",
        ),
        Verdict(
            "form_bounds",
            fb.passed,
            1.0 + 1e-9 - max(fb.max_ratio_trilinear, fb.max_ratio_bmap),
            f"trilinear ratio {fb.max_ratio_trilinear:.3g}, "
            f"B(u,u) ratio {fb.max_ratio_bmap:.3g} <= 1+1e-9",
        ),
        Verdict(
            "h1_nse_variant",
            h1_nse.passed and h1_nse.pinv_ok,
            h1_nse.lambda_next - h1_nse.threshold,
            f"lambda_(N+1)={h1_nse.lambda_next:g} vs (32/3)|s0|^2+12C1+16g^2"
            f"={h1_nse.threshold:g}",
        ),
        Verdict(
            "h1_generic_variant",
            h1_gen.passed and h1_gen.pinv_ok,
            h1_gen.lambda_next - h1_gen.threshold,
            f"lambda_(N+1)={h1_gen.lambda_next:g} vs generic threshold"
            f"={h1_gen.threshold:g}",
        ),
    ]
