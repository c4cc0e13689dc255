import math
import sys
import threading

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from see_lab.rng import derive_seed, gaussian_block, gaussian_increments, words_per_step

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
def test_index_array_equals_stacked_scalar_calls(k):
    # one call for P paths gives each path's block bit for bit, also when
    # the chunk spans more than one conversion pass
    from see_lab.rng import _PASS_WORDS, words_per_step

    idx = np.array([0, 3, 2**40])
    long_run = _PASS_WORDS // (len(idx) * words_per_step(k)) + 2
    for seed in (0, 2**128 - 1):
        for step0 in STEP0S:
            for n_steps in (9, long_run):
                got = gaussian_block(seed, idx, step0, n_steps, k, DT)
                assert got.shape == (len(idx), n_steps, k)
                ref = np.stack([gaussian_block(seed, int(pi), step0, n_steps, k, DT)
                                for pi in idx])
                assert got.tobytes() == ref.tobytes(), (seed, step0, n_steps)
                fresh = _fresh_block(seed, int(idx[-1]), step0, n_steps, k, DT)
                assert got[-1].tobytes() == fresh.tobytes(), (seed, step0, n_steps)
            out = np.full((len(idx), 9, k), np.nan)
            assert gaussian_block(seed, idx, step0, 9, k, DT, out=out) is out
            assert out.tobytes() == gaussian_block(seed, idx, step0, 9, k, DT).tobytes()


def test_bad_key_counter_or_path_index_is_rejected():
    with pytest.raises(ValueError, match="key must be positive"):
        gaussian_block(2**128, np.array([0, 1]), 0, 2, 4, DT)
    with pytest.raises(ValueError, match="counter must be positive"):
        gaussian_block(1, np.array([0, -1]), 0, 2, 4, DT)
    with pytest.raises(ValueError, match="counter must be positive"):
        gaussian_block(1, 2**160, 0, 2, 4, DT)


@pytest.mark.parametrize("k", [1, 3, 5, 16, 48])
def test_run_chunks_equal_fresh_generator(monkeypatch, k):
    # run_paths fills each noise chunk, every path at once, with one
    # gaussian_block call; with chunks of 3 steps, an 8-step run has chunk
    # boundaries after steps 3 and 6, and each path's pieces joined equal
    # one fresh read of the whole run
    from see_lab import dynamics
    from see_lab.coefficients import build_model, diag_affine_noise, linear_decay_drift, zero_form
    from see_lab.rng import words_per_step
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
    calls = []

    def capture(seed, path_index, step0, *args, **kwargs):
        z = gaussian_block(seed, path_index, step0, *args, **kwargs)
        calls.append((step0, list(path_index), z.copy()))
        return z

    monkeypatch.setattr(dynamics, "gaussian_block", capture)
    monkeypatch.setattr(dynamics, "_NOISE_CHUNK_TARGET", 3 * len(paths) * words_per_step(k))
    for step0 in STEP0S:
        calls.clear()
        dynamics.run_paths(model, dynamics.StepperConfig(dt=DT), np.zeros((3, k)), 8, 11,
                           paths, step0=step0)
        assert [s for s, _, _ in calls] == [step0, step0 + 3, step0 + 6]
        assert all(idx == paths for _, idx, _ in calls)
        for row, pi in enumerate(paths):
            joined = np.concatenate([z[row] for _, _, z in calls])
            assert joined.tobytes() == _fresh_block(11, pi, step0, 8, k, DT).tobytes()


def test_run_paths_noise_chunk_stays_under_target(monkeypatch):
    # every buffer behind a noise chunk, the keystream words included, fits
    # in _NOISE_CHUNK_TARGET floats, and that is at most 12.8 MB; M = 5
    # reads 8 words per step, so sizing chunks by M alone would overshoot
    from see_lab import dynamics
    from see_lab.coefficients import benchmark_model, build_model, diag_affine_noise
    from see_lab.coefficients import linear_decay_drift, zero_form
    from see_lab.spectral import quadratic_basis

    cap = 8 * dynamics._NOISE_CHUNK_TARGET
    assert cap <= 12.8e6
    five = build_model(basis=quadratic_basis(5), drift=linear_decay_drift(1.0),
                       bilinear=zero_form(), noise=diag_affine_noise(np.full(5, 0.1), c_min=0.0),
                       lipschitz_c1=1.0, coupling_n=0)
    sizes = []

    def capture(*args, **kwargs):
        z = gaussian_block(*args, **kwargs)
        owner = z
        while owner.base is not None:
            owner = owner.base
        sizes.append(owner.nbytes)
        return z

    monkeypatch.setattr(dynamics, "gaussian_block", capture)
    p = 100
    for model, n_steps in ((benchmark_model(), 1200), (five, 2100)):
        sizes.clear()
        dynamics.run_paths(model, dynamics.StepperConfig(dt=DT),
                           np.zeros((p, model.dim)), n_steps, 3, np.arange(p))
        assert len(sizes) == 2
        assert max(sizes) <= cap, (model.dim, sizes)


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


@pytest.fixture
def fresh_worker(monkeypatch):
    # a two-core process whose conversion worker is not made yet; the
    # worker this test makes is shut down at the end
    from see_lab import rng

    monkeypatch.setattr(rng, "_pool", (None, 0))
    monkeypatch.setattr(rng, "_cores", lambda: 2)
    yield rng
    if rng._pool[0] is not None:
        rng._pool[0].shutdown()


@pytest.fixture
def ndtri_calls(monkeypatch):
    # (thread, words, address) of every pass turned into normals
    from see_lab import rng

    calls = []

    def counted(u, out=None):
        calls.append((threading.current_thread(), u.size, u.ctypes.data))
        return ndtri(u, out=out)

    monkeypatch.setattr(rng, "ndtri", counted)
    return calls


def _rows_per_pass(k):
    from see_lab.rng import _PASS_WORDS, words_per_step

    return max(1, _PASS_WORDS // words_per_step(k))


@pytest.mark.parametrize("k", [1, 3, 5, 16, 48])
def test_draws_do_not_depend_on_the_worker(fresh_worker, monkeypatch, k):
    # P paths over 1, 2 and 6 conversion passes (P = 2000 at k = 48 needs
    # two passes for one step), at every STEP0S, with the worker and with
    # the caller alone
    rpp = _rows_per_pass(k)
    for p in (1, 2, 37, 2000):
        idx = 7 * np.arange(p) + 3
        for passes in (1, 2, 6):
            n_steps = (passes - 1) * rpp // p + 1
            for step0 in STEP0S:
                monkeypatch.setattr(fresh_worker, "_cores", lambda: 2)
                got = gaussian_block(5, idx, step0, n_steps, k, DT)
                monkeypatch.setattr(fresh_worker, "_cores", lambda: 1)
                alone = gaussian_block(5, idx, step0, n_steps, k, DT)
                assert got.shape == (p, n_steps, k)
                assert got.tobytes() == alone.tobytes(), (p, n_steps, step0)
                fresh = _fresh_block(5, int(idx[-1]), step0, n_steps, k, DT)
                assert got[-1].tobytes() == fresh.tobytes(), (p, n_steps, step0)
    assert fresh_worker._pool[0] is not None


def test_a_blocked_worker_leaves_every_pass_to_the_caller(fresh_worker, ndtri_calls):
    idx = np.arange(2000)
    ref = gaussian_block(9, idx, 4, 50, 16, DT).copy()
    ndtri_calls.clear()
    gate = threading.Event()
    blocker = fresh_worker._worker().submit(gate.wait, 60)
    try:
        got = gaussian_block(9, idx, 4, 50, 16, DT)
    finally:
        gate.set()
    assert blocker.result(timeout=60)
    assert got.tobytes() == ref.tobytes()
    assert len(ndtri_calls) == math.ceil(2000 * 50 / _rows_per_pass(16))
    assert {t for t, _, _ in ndtri_calls} == {threading.main_thread()}


@pytest.mark.parametrize("p, n_steps, k", [(2000, 50, 16), (200, 166, 48), (37, 900, 5),
                                           (1, 40000, 1), (1, 1000, 16)])
def test_each_pass_is_converted_once(fresh_worker, ndtri_calls, p, n_steps, k):
    # no timing: count the passes that reach ndtri, on whichever thread
    before = threading.active_count()
    z = gaussian_block(1, np.arange(p), 0, n_steps, k, DT)
    rpp, rows = _rows_per_pass(k), p * n_steps
    sizes = sorted(size for _, size, _ in ndtri_calls)
    assert sizes == sorted(min(rpp, rows - a) * k for a in range(0, rows, rpp))
    assert len({address for _, _, address in ndtri_calls}) == len(ndtri_calls)
    assert max(sizes) * words_per_step(k) // k <= 2**16
    assert z.shape == (p, n_steps, k) and np.isfinite(z).all()
    if rows <= rpp:  # one pass: no worker is made, no thread started
        assert fresh_worker._pool[0] is None
        assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 2])
def test_at_most_one_worker_thread(fresh_worker, monkeypatch, cores):
    # four callers with chunks of many passes share the one worker; on a
    # single core there is none and the callers convert every pass
    monkeypatch.setattr(fresh_worker, "_cores", lambda: cores)
    before = threading.active_count()
    seen = []

    def work(seed):
        for _ in range(3):
            gaussian_block(seed, np.arange(100), 0, 200, 16, DT)
            seen.append(threading.active_count())

    callers = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in callers) and len(seen) == 12
    assert max(seen) <= before + 4 + (cores - 1)
    assert threading.active_count() == before + (cores - 1)
    assert (fresh_worker._pool[0] is None) == (cores == 1)


def test_threads_read_the_same_many_pass_chunks(fresh_worker):
    # as test_threads_read_the_same_blocks, with chunks of 2 to 5 passes,
    # so callers' passes interleave in the worker's queue
    jobs = [(seed, 5 * np.arange(p) + path, 37 * path, 20000 // p, k) for seed in (1, 2)
            for path, p in enumerate((3, 8)) for k in (3, 16)]
    expected = [gaussian_block(*job, DT).tobytes() for job in jobs]
    reads, bad = [], []

    def work(offset):
        for _ in range(3):
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
    assert len(reads) == 3 * len(jobs) and not bad
