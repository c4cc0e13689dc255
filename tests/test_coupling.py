import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from see_lab.coefficients import (
    benchmark_model,
    build_model,
    diag_affine_noise,
    linear_decay_drift,
    zero_form,
)
from see_lab.coupling import (
    DistanceParams,
    d_distance,
    dump_coupled_csv,
    girsanov_shift,
    select_delta,
    shift_bound_constant,
    simulate_coupled,
)
from see_lab.dynamics import StepperConfig
from see_lab.errors import ValidationError
from see_lab.spectral import h_norm_arr, quadratic_basis, validate_h1


def _linear_model(m=6, n=2, s_level=0.01):
    basis = quadratic_basis(m)
    s = np.full(m, s_level)
    return build_model(
        basis=basis,
        drift=linear_decay_drift(0.0),
        bilinear=zero_form(),
        noise=diag_affine_noise(s, c_min=s_level if s_level > 0 else 0.0),
        lipschitz_c1=0.0,
        coupling_n=n,
    )


# d_distance ------------------------------------------------------------


def test_d_zero_on_diagonal():
    p = DistanceParams(n_tilde=1.0, delta=0.5)
    x = np.array([0.1, 0.2])
    assert d_distance(x, x, p) == 0.0


def test_d_unit_gap_caps_at_one():
    # delta = 1/3 gives exponent 1/2; |x-y| = 1 -> d = 1
    p = DistanceParams(n_tilde=1.0, delta=1.0 / 3.0)
    assert p.exponent == pytest.approx(0.5)
    assert d_distance(np.array([1.0, 0.0]), np.array([0.0, 0.0]), p) == 1.0


def test_d_small_gap_value():
    # n_tilde = 10, delta = 1/3, |x-y| = 1e-4 -> 10 * 0.01 = 0.1
    p = DistanceParams(n_tilde=10.0, delta=1.0 / 3.0)
    d = d_distance(np.array([1e-4]), np.array([0.0]), p)
    assert d == pytest.approx(0.1, rel=1e-12)


def test_d_params_validated():
    with pytest.raises(ValidationError):
        DistanceParams(n_tilde=1.0, delta=1.0)
    with pytest.raises(ValidationError):
        DistanceParams(n_tilde=0.0, delta=0.5)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-0.7, 0.7), min_size=3, max_size=3),
    st.lists(st.floats(-0.7, 0.7), min_size=3, max_size=3),
    st.floats(0.05, 0.95),
)
def test_d_distance_like_properties(xs, ys, delta):
    p = DistanceParams(n_tilde=1.0, delta=delta)
    x, y = np.asarray(xs), np.asarray(ys)
    biggest = float(np.max(np.abs(x - y)))
    assume(biggest == 0.0 or biggest > 1e-150)  # below this the squared norm underflows
    gap = float(h_norm_arr(x - y))
    d_xy = d_distance(x, y, p)
    assert d_xy == d_distance(y, x, p)  # symmetric
    assert 0.0 <= d_xy <= 1.0
    assert (d_xy == 0.0) == bool(np.array_equal(x, y))
    if gap <= 1.0:  # rho wedge 1 <= d whenever n_tilde >= 1
        assert min(gap, 1.0) <= d_xy + 1e-12


# girsanov shift --------------------------------------------------------


def test_shift_vanishes_above_coupled_modes():
    model = _linear_model(m=6, n=2)
    x = np.zeros(6)
    y = np.zeros(6)
    x[4] = 0.3  # gap only on a high mode
    beta = girsanov_shift(model, x, y)
    assert np.array_equal(beta, np.zeros(6))


def test_shift_componentwise_division():
    m = 6
    basis = quadratic_basis(m)
    model = build_model(
        basis=basis,
        drift=linear_decay_drift(0.0),
        bilinear=zero_form(),
        noise=diag_affine_noise(np.ones(m), c_min=1.0),
        lipschitz_c1=0.0,
        coupling_n=2,
    )
    eps = 1e-3
    x = np.zeros(m)
    x[0] = eps
    beta = girsanov_shift(model, x, np.zeros(m))
    lam_next = model.basis.eigenvalues[2]
    assert beta[0] == pytest.approx(0.5 * lam_next * eps, rel=1e-15)
    assert np.all(beta[1:] == 0.0)


def test_shift_bound_random_pairs():
    model = benchmark_model()
    c = shift_bound_constant(model)
    rng = np.random.default_rng(0)
    for _ in range(500):
        x = rng.standard_normal(model.dim) * 0.3
        y = rng.standard_normal(model.dim) * 0.3
        beta = girsanov_shift(model, x, y)
        assert float(h_norm_arr(beta)) <= c * float(h_norm_arr(x - y)) * (1 + 1e-12)


def test_shift_needs_pseudo_inverse():
    model = _linear_model(s_level=0.0)
    with pytest.raises(ValidationError):
        girsanov_shift(model, np.zeros(6), np.zeros(6))


def test_declared_zero_floor_is_no_pseudo_inverse():
    # a custom noise map that declares the floor 0 has no pseudo-inverse:
    # H1 reads it as not invertible, and the shift-bound constant is a
    # ValidationError rather than a division by zero
    from see_lab.coefficients import NoiseMap

    hooked = NoiseMap(kind="custom", diag_fn=lambda u: 0.2 + 0.0 * u, pinv_floor=0.0)
    model = build_model(basis=quadratic_basis(6), drift=linear_decay_drift(0.0),
                        bilinear=zero_form(), noise=hooked, lipschitz_c1=0.0, coupling_n=2)
    assert hooked.pseudo_inverse_floor(2) is None
    assert not validate_h1(model).pinv_ok
    with pytest.raises(ValidationError, match="no pseudo-inverse"):
        shift_bound_constant(model)


def test_zero_coupled_modes_have_an_empty_shift():
    # N = 0: nothing to invert, so the floor is inf, β is empty and the
    # shift-bound constant is 0
    model = _linear_model(n=0, s_level=0.0)
    assert model.noise.pseudo_inverse_floor(0) == math.inf
    assert validate_h1(model).pinv_ok
    assert shift_bound_constant(model) == 0.0
    x, y = np.zeros(6), np.zeros(6)
    x[0], y[1] = 0.5, -0.3
    assert np.array_equal(girsanov_shift(model, x, y), np.zeros(6))


# coupled simulation ----------------------------------------------------


def test_equal_starts_stay_identical():
    model = _linear_model()
    x = np.zeros(6)
    x[0] = 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cp = simulate_coupled(model, x, x, 0.1, StepperConfig(dt=1e-3), seed=21)
    assert np.array_equal(cp.x_path.states, cp.y_path.states)
    assert cp.shift_cost == 0.0
    assert np.all(cp.shift_record == 0.0)


def test_coupled_linear_recursion_oracle():
    # f=B=0, additive diagonal noise, both interior: the gap follows
    # w_i(k+1) = w_i(k) (1 - dt lambda_(N+1)/2 [i<=N]) / (1 + dt lambda_i)
    m, n = 6, 2
    model = _linear_model(m=m, n=n)
    dt = 1e-3
    lam = model.basis.eigenvalues
    x = np.zeros(m)
    x[0], x[1], x[4] = 0.2, 0.1, 0.05
    y = -x
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cp = simulate_coupled(model, x, y, 0.05, StepperConfig(dt=dt), seed=22)
    gap = cp.x_path.states - cp.y_path.states
    factor = (1.0 - 0.5 * dt * lam[n] * (np.arange(m) < n)) / (1.0 + dt * lam)
    w = (x - y).copy()
    for k in range(50):
        w = w * factor
        assert np.allclose(gap[k + 1], w, rtol=1e-12, atol=1e-15)


def test_noise_free_gap_strictly_decreasing():
    model = _linear_model(s_level=0.0)
    x = np.zeros(6)
    y = np.zeros(6)
    x[0], y[0] = 0.3, -0.3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cp = simulate_coupled(model, x, y, 0.2, StepperConfig(dt=1e-3), seed=23)
    gaps = h_norm_arr(cp.x_path.states - cp.y_path.states)
    assert np.all(np.diff(gaps) < 0.0)


def test_coupled_bit_reproducible():
    model = benchmark_model()
    x = np.zeros(model.dim)
    y = np.zeros(model.dim)
    x[0], y[0] = 0.5, -0.5
    a = simulate_coupled(model, x, y, 0.05, StepperConfig(dt=1e-3), seed=24, path_index=3)
    b = simulate_coupled(model, x, y, 0.05, StepperConfig(dt=1e-3), seed=24, path_index=3)
    assert np.array_equal(a.x_path.states, b.x_path.states)
    assert np.array_equal(a.y_path.states, b.y_path.states)
    assert np.array_equal(a.shift_record, b.shift_record)
    assert a.shift_cost == b.shift_cost


def test_coupled_paths_stay_in_ball():
    model = benchmark_model()
    x = np.zeros(model.dim)
    y = np.zeros(model.dim)
    x[0], y[1] = 0.9, -0.9
    cp = simulate_coupled(model, x, y, 0.2, StepperConfig(dt=1e-3), seed=25)
    assert h_norm_arr(cp.x_path.states).max() <= 1.0
    assert h_norm_arr(cp.y_path.states).max() <= 1.0


def test_shift_record_matches_pointwise_formula():
    model = benchmark_model()
    x = np.zeros(model.dim)
    y = np.zeros(model.dim)
    x[0], y[0] = 0.5, -0.5
    cp = simulate_coupled(model, x, y, 0.02, StepperConfig(dt=1e-3), seed=26)
    for k in (0, 7, 20):
        expected = girsanov_shift(model, cp.x_path.states[k], cp.y_path.states[k])
        assert np.allclose(cp.shift_record[k], expected, rtol=1e-12, atol=0.0)


def test_select_delta_brute_force():
    model = benchmark_model()
    delta, expo = select_delta(model)
    lam_next = model.basis.eigenvalues[model.coupling_n]

    def combined(d):
        return (
            8 * d * model.f0_vstar**2
            + (8 * d + 64 * d * d) * model.sigma0_hs**2
            + (64 * d * d + 12 * d) * model.lipschitz_c1
            - 0.75 * d * lam_next
        ) / (1 + d)

    grid = np.round(np.arange(0.05, 0.951, 0.05), 2)
    best = min(grid, key=combined)
    assert delta == pytest.approx(best)
    assert expo == pytest.approx(combined(best), rel=1e-12)
    assert expo < 0.0  # spectral gap comfortably dominates for this model


def test_dump_coupled_csv(tmp_path):
    model = benchmark_model()
    x = np.zeros(model.dim)
    y = np.zeros(model.dim)
    x[0], y[0] = 0.3, -0.3
    cp = simulate_coupled(model, x, y, 0.01, StepperConfig(dt=1e-3), seed=27, path_index=2)
    p = DistanceParams(n_tilde=1.0, delta=0.25)
    fname = dump_coupled_csv(cp, p, tmp_path)
    lines = open(fname).read().splitlines()
    assert lines[0] == "t,|x-y|_H,d_N,shift_cost_cum"
    assert len(lines) == 12
    assert fname.endswith("coupled_27_2.csv")
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.6, rel=1e-12)
    assert float(first[3]) == 0.0
