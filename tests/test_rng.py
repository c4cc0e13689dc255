import math
import sys
import threading

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from see_lab.rng import derive_seed, gaussian_block, gaussian_increments

DT = 1e-3


def test_same_tuple_is_deterministic():
    a = gaussian_increments(42, 7, 19, 16, DT)
    b = gaussian_increments(42, 7, 19, 16, DT)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("change", ["seed", "path", "step"])
def test_distinct_tuples_differ(change):
    base = gaussian_increments(1, 2, 3, 8, DT)
    other = {
        "seed": gaussian_increments(9, 2, 3, 8, DT),
        "path": gaussian_increments(1, 9, 3, 8, DT),
        "step": gaussian_increments(1, 2, 9, 8, DT),
    }[change]
    assert not np.array_equal(base, other)


def test_block_rows_equal_per_step_calls():
    block = gaussian_block(5, 11, 3, 20, 13, DT)
    for j in (0, 7, 19):
        assert np.array_equal(block[j], gaussian_increments(5, 11, 3 + j, 13, DT))


def test_sample_mean_clt_bound():
    # 10^6 draws: mean within 4*sqrt(dt/n)
    n = 1_000_000
    draws = gaussian_block(2024, 0, 0, n // 100, 100, DT).ravel()
    assert abs(draws.mean()) <= 4.0 * np.sqrt(DT / n)


def test_sample_variance_chi_square_bound():
    n = 1_000_000
    draws = gaussian_block(2025, 0, 0, n // 100, 100, DT).ravel()
    assert DT * 0.99 <= draws.var() <= DT * 1.01


def test_variance_scales_with_dt():
    a = gaussian_increments(3, 0, 0, 1000, 1e-3)
    b = gaussian_increments(3, 0, 0, 1000, 4e-3)
    assert np.allclose(b, 2.0 * a)  # same normals, sqrt(dt) scaling


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert 0 <= derive_seed(1, "a") < 2**128


def _fresh_block(seed, path_index, step0, n_steps, k, dt):
    # one freshly built Philox per read, as the stream is specified
    stride = (k + 3) // 4
    bg = Philox(key=seed, counter=(path_index << 96) + step0 * stride)
    raw = bg.random_raw(4 * stride * n_steps)
    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return ndtri(u).reshape(n_steps, 4 * stride)[:, :k] * math.sqrt(dt)


# k = 16 and 48 put the counter of step 2^62 - 3 just below a multiple of
# 2^64, so a read carries across a 64-bit word; so does step 2^64 - 2 at k = 1
STEP0S = (0, 2**62 - 3, 2**64 - 2)


@pytest.mark.parametrize("k", [1, 3, 5, 16, 48])
def test_block_equals_fresh_generator(k):
    for seed in (0, 7, 2**128 - 1):
        for path_index in (0, 3, 2**40):
            for step0 in STEP0S:
                ref = _fresh_block(seed, path_index, step0, 9, k, DT)
                got = gaussian_block(seed, path_index, step0, 9, k, DT)
                assert got.tobytes() == ref.tobytes(), (seed, path_index, step0)
                out = np.full((9, k), np.nan)
                assert gaussian_block(seed, path_index, step0, 9, k, DT, out=out) is out
                assert out.tobytes() == ref.tobytes(), (seed, path_index, step0)


@pytest.mark.parametrize("k", [1, 3, 5, 16, 48])
def test_run_chunks_equal_fresh_generator(monkeypatch, k):
    # run_paths fills each noise chunk path by path through gaussian_block;
    # with chunks of 3 steps, an 8-step run has chunk boundaries after steps
    # 3 and 6, and the pieces joined equal one fresh read of the whole run
    from see_lab import dynamics
    from see_lab.coefficients import build_model, diag_affine_noise, linear_decay_drift, zero_form
    from see_lab.spectral import quadratic_basis

    model = build_model(
        basis=quadratic_basis(k),
        drift=linear_decay_drift(0.0),
        bilinear=zero_form(),
        noise=diag_affine_noise(np.full(k, 0.1), c_min=0.0),
        lipschitz_c1=1.0,
        coupling_n=0,
    )
    paths = [0, 5, 2**40]
    filled = {pi: [] for pi in paths}

    def capture(seed, path_index, step0, *args, **kwargs):
        z = gaussian_block(seed, path_index, step0, *args, **kwargs)
        filled[path_index].append((step0, z.copy()))
        return z

    monkeypatch.setattr(dynamics, "gaussian_block", capture)
    monkeypatch.setattr(dynamics, "_NOISE_CHUNK_TARGET", 3 * len(paths) * k)
    for step0 in STEP0S:
        for pieces in filled.values():
            pieces.clear()
        dynamics.run_paths(model, dynamics.StepperConfig(dt=DT), np.zeros((3, k)), 8, 11,
                           paths, step0=step0)
        for pi, pieces in filled.items():
            assert [s for s, _ in pieces] == [step0, step0 + 3, step0 + 6]
            joined = np.concatenate([z for _, z in pieces])
            assert joined.tobytes() == _fresh_block(11, pi, step0, 8, k, DT).tobytes()


def test_threads_read_the_same_blocks():
    # each thread repositions its own generator: reads interleaved across
    # more threads than cores give the serial blocks
    jobs = [(seed, path, 37 * path, 5, k) for seed in (1, 2) for path in range(8)
            for k in (3, 16)]
    expected = [gaussian_block(*job, DT).tobytes() for job in jobs]
    reads, bad = [], []

    def work(offset):
        for _ in range(20):
            for i in range(offset, len(jobs), 4):
                if gaussian_block(*jobs[i], DT).tobytes() != expected[i]:
                    bad.append(i)
                reads.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(reads) == 20 * len(jobs) and not bad
