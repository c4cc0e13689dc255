import math

import numpy as np
import pytest

from see_lab.coefficients import check_form_bounds, trilinear_form
from see_lab.dynamics import StepperConfig, simulate_path
from see_lab.errors import ValidationError
from see_lab.nse import (
    build_fourier_grid,
    build_nse_model,
    divergence_structure_ok,
    nse_trilinear,
    nse_verdicts,
    velocity_field,
)
from see_lab.spectral import h_norm_arr, h1_threshold_nse, validate_h1


def _oracle_field_and_grad(grid, coeffs, n=64):
    """Independent synthesis of the velocity field and its gradient on the
    uniform n x n grid of [0, 2pi]^2, built from the mode definition alone."""
    xs = np.arange(n) * (2.0 * math.pi / n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vel = np.zeros((n, n, 2))
    grad = np.zeros((n, n, 2, 2))  # grad[..., i, j] = d u_i / d xi_j
    nrm = 1.0 / (math.sqrt(2.0) * math.pi)
    for a, mode in enumerate(grid.modes):
        c = float(coeffs[a])
        if c == 0.0:
            continue
        kx, ky = mode.k
        d = np.array([-ky, kx], dtype=float) / math.hypot(kx, ky)
        phase = kx * gx + ky * gy
        if mode.trig == "cos":
            f, fp = np.cos(phase), -np.sin(phase)
        else:
            f, fp = np.sin(phase), np.cos(phase)
        vel += c * nrm * f[:, :, None] * d
        for i in range(2):
            grad[:, :, i, 0] += c * nrm * fp * kx * d[i]
            grad[:, :, i, 1] += c * nrm * fp * ky * d[i]
    return vel, grad


def _oracle_trilinear(grid, u, v, w, n=64):
    """Physical-space quadrature of b(u,v,w) = int (u . grad) v . w; exact for
    band-limited fields on the uniform grid."""
    uf, _ = _oracle_field_and_grad(grid, u, n)
    vf, vg = _oracle_field_and_grad(grid, v, n)
    wf, _ = _oracle_field_and_grad(grid, w, n)
    conv = np.einsum("xyj,xyij->xyi", uf, vg)
    return float((conv * wf).sum() * (2.0 * math.pi / n) ** 2)


def test_kappa_one_mode_enumeration():
    # 4 wave vectors (+-1,0),(0,+-1) collapse to 2 representatives, each with
    # a cos/sin pair: 4 real modes, all with eigenvalue 1
    g = build_fourier_grid(1)
    assert g.dim == 4
    assert sorted({m.k for m in g.modes}) == [(0, 1), (1, 0)]
    assert np.all(g.eigenvalues() == 1.0)


def test_eigenvalues_sorted_with_multiplicity():
    model = build_nse_model(kappa=3, gamma=0.5)
    lam = model.spec.basis.eigenvalues
    assert np.all(np.diff(lam) >= 0.0)
    assert lam[0] == 1.0
    # |k|^2 values with |k| <= 3: 1, 2, 4, 5, 8, 9
    assert set(np.unique(lam)) == {1.0, 2.0, 4.0, 5.0, 8.0, 9.0}


def test_gamma_zero_classical_form():
    model = build_nse_model(kappa=1, gamma=0.0)
    assert model.spec.damping_gamma == 0.0


def test_forcing_zero_noise_zero_pure_decay():
    model = build_nse_model(kappa=1, gamma=0.0, sigma0=0.0,
                            noise_s=np.zeros(4))
    x0 = np.array([0.5, 0.0, 0.3, 0.0])
    path = simulate_path(model.spec, x0, 0.5, StepperConfig(dt=1e-3), seed=1)
    energy = h_norm_arr(path.states) ** 2
    assert np.all(np.diff(energy) < 0.0)


def test_invalid_kappa():
    with pytest.raises(ValidationError):
        build_nse_model(kappa=0, gamma=1.0)


# trilinear form ----------------------------------------------------------


def test_trilinear_cancellation_1000_triples():
    model = build_nse_model(kappa=2, gamma=1.0)
    m = model.spec.dim
    rng = np.random.default_rng(2)
    lam = model.spec.basis.eigenvalues
    for _ in range(1000):
        u, v = rng.standard_normal((2, m))
        val = nse_trilinear(model, u, v, v)
        vn = np.sqrt(float((lam * v * v).sum()))
        hn = np.sqrt(float((v * v).sum()))
        un = np.sqrt(float((lam * u * u).sum()))
        uh = np.sqrt(float((u * u).sum()))
        scale = 2.0 * math.sqrt(un * uh) * math.sqrt(vn * hn) * vn + 1e-300
        assert abs(val) <= 1e-12 * scale


def test_single_mode_self_transport_vanishes():
    # one Fourier shear mode transports itself trivially: (psi . grad) psi is
    # orthogonal to every divergence-free field
    model = build_nse_model(kappa=2, gamma=1.0)
    m = model.spec.dim
    rng = np.random.default_rng(3)
    for a in range(m):
        e = np.zeros(m)
        e[a] = 1.0
        w = rng.standard_normal(m)
        assert nse_trilinear(model, e, e, w) == pytest.approx(0.0, abs=1e-14)


def test_trilinear_matches_quadrature_oracle():
    model = build_nse_model(kappa=3, gamma=1.0)
    g = model.grid
    m = model.spec.dim
    rng = np.random.default_rng(4)
    for _ in range(25):
        u, v, w = rng.standard_normal((3, m))
        quad = _oracle_trilinear(g, u, v, w)
        spec_val = nse_trilinear(model, u, v, w)
        assert spec_val == pytest.approx(quad, rel=1e-8, abs=1e-10)


def _dense_convection(form, u, v):
    """Reference B(u, v): the (P, M^2) @ (M^2, M) contraction against the
    dense tensor rebuilt from the triples, plus the same contraction of the
    absolute terms, which scales the rounding error of any summation order."""
    ii, jj, kk, vals = form.nse_idx
    m = form.dim
    mat = np.zeros((m * m, m))
    np.add.at(mat, (ii * m + jj, kk), vals)
    p = u.shape[0]
    pair = (u[:, :, None] * v[:, None, :]).reshape(p, m * m)
    return pair @ mat, np.abs(pair) @ np.abs(mat)


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_sparse_convection_matches_dense_reference(kappa):
    form = build_nse_model(kappa=kappa, gamma=1.0).spec.bilinear
    rng = np.random.default_rng(10 + kappa)
    u = rng.standard_normal((200, form.dim))
    v = rng.standard_normal((200, form.dim))
    for a, b in ((u, u), (u, u.copy()), (u, v)):
        out = form.bilinear_batch(a, b)  # a is b: the folded i <= j pair list
        ref, terms = _dense_convection(form, a, b)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert np.all(np.abs(out - ref) <= 1e-14 * terms)


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_sparse_convection_rows_independent_of_batch(kappa):
    form = build_nse_model(kappa=kappa, gamma=1.0).spec.bilinear
    rng = np.random.default_rng(20 + kappa)
    u = rng.standard_normal((200, form.dim))
    full_folded = form.bilinear_batch(u, u)
    full_pairs = form.bilinear_batch(u, u.copy())
    for p in (1, 7, 200):
        for start in (0, 200 - p):
            rows = u[start : start + p]
            assert np.array_equal(
                form.bilinear_batch(rows, rows), full_folded[start : start + p]
            )
            assert np.array_equal(
                form.bilinear_batch(rows, rows.copy()), full_pairs[start : start + p]
            )


def test_form_bounds_nse_convective():
    model = build_nse_model(kappa=2, gamma=1.0)
    rep = check_form_bounds(model.spec, samples=1000, seed=5)
    assert rep.passed


def test_riesz_consistency_nse():
    from see_lab.coefficients import eval_bilinear

    model = build_nse_model(kappa=2, gamma=1.0)
    m = model.spec.dim
    rng = np.random.default_rng(6)
    for _ in range(100):
        u, v, w = rng.standard_normal((3, m))
        lhs = float(eval_bilinear(model.spec, u, v).coeffs @ w)
        rhs = trilinear_form(model.spec, u, v, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# structure ----------------------------------------------------------------


def test_divergence_free_structure():
    assert divergence_structure_ok(build_fourier_grid(4))


def test_field_divergence_machine_zero():
    # spectral synthesis: div = sum_a c_a n (d_a . k_a) trig' = 0 termwise;
    # verify via the oracle gradient trace on a random state
    model = build_nse_model(kappa=2, gamma=1.0)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(model.spec.dim)
    _, grad = _oracle_field_and_grad(model.grid, coeffs)
    div = grad[:, :, 0, 0] + grad[:, :, 1, 1]
    assert np.abs(div).max() <= 1e-13


def test_velocity_field_matches_oracle():
    model = build_nse_model(kappa=2, gamma=1.0)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(model.spec.dim)
    mine = velocity_field(model.grid, coeffs, n_grid=32)
    ref, _ = _oracle_field_and_grad(model.grid, coeffs, n=32)
    assert np.allclose(mine, ref, rtol=1e-12, atol=1e-14)


def test_field_l2_norm_matches_h_norm():
    # L2-orthonormality of the synthesized basis: grid quadrature of |u|^2
    # equals the coefficient norm squared
    model = build_nse_model(kappa=2, gamma=1.0)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(model.spec.dim)
    vel = velocity_field(model.grid, coeffs, n_grid=64)
    l2sq = float((vel * vel).sum() * (2.0 * math.pi / 64) ** 2)
    assert l2sq == pytest.approx(float((coeffs * coeffs).sum()), rel=1e-12)


# experiments ----------------------------------------------------------------


def test_energy_identity_noise_free():
    # |X(t)|^2 nonincreasing with 1e-6 relative slack (b(u,u,u) = 0 and
    # positive A, gamma dissipate; the explicit B adds only O(dt^2))
    model = build_nse_model(kappa=2, gamma=0.5, sigma0=0.0, noise_s=np.zeros(12))
    x0 = np.zeros(model.spec.dim)
    x0[0], x0[2], x0[5] = 0.5, 0.4, 0.3
    x0 *= 0.9 / float(h_norm_arr(x0))
    path = simulate_path(model.spec, x0, 1.0, StepperConfig(dt=1e-3), seed=10)
    energy = h_norm_arr(path.states) ** 2
    assert np.all(np.diff(energy) <= 1e-6 * energy[:-1])


def test_h1_nse_threshold_formula_exact():
    model = build_nse_model(kappa=2, gamma=1.25, sigma0=0.3, lipschitz_c1=0.7)
    rep = validate_h1(model.spec, variant="nse")
    expected = (32.0 / 3.0) * model.spec.sigma0_hs**2 + 12.0 * 0.7 + 16.0 * 1.25**2
    assert rep.threshold == expected
    assert rep.threshold == h1_threshold_nse(model.spec.sigma0_hs, 0.7, 1.25)


def test_nse_verdicts():
    # the instance's own checks; the generic ones come from verify-model
    model = build_nse_model(kappa=2, gamma=1.0)
    verdicts = nse_verdicts(model)
    assert [v.name for v in verdicts] == ["divergence_free_structure", "h1_nse_variant"]
    assert verdicts[0].passed
    h1 = validate_h1(model.spec, variant="nse")
    assert verdicts[1].margin == h1.lambda_next - h1.threshold
    assert "> nse threshold" in verdicts[1].detail


def test_nse_ergodicity_contraction():
    # small gap-dominant instance: strong damping makes the coupled pair
    # contract and the battery's contraction verdict must come back
    import warnings

    from see_lab.ergodicity import MonteCarloPlan, run_ergodicity_battery

    model = build_nse_model(kappa=1, gamma=1.0, sigma0=0.05, coupling_n=3)
    plan = MonteCarloPlan(n_paths=24, t_grid=np.array([0.5, 1.0, 2.0]),
                          base_seed=41, cfg=StepperConfig(dt=1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, _ = run_ergodicity_battery(model.spec, plan, occupation=False)
    verdicts = {v.name: v for v in report.verdicts}
    assert "contraction" in verdicts
    assert verdicts["contraction"].passed
