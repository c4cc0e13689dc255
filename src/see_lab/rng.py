"""Counter-based Gaussian increment streams for reproducible parallel Monte Carlo.

Every Brownian increment is addressed by the tuple (seed, path_index, step):
the Philox-4x64 keystream at key=seed is read at an explicit 256-bit counter
offset, so the same tuple always yields the same draws no matter how many
other paths run or in which order.  Normals come from the inverse CDF
applied to the raw 64-bit words, which keeps the per-step counter footprint
fixed (ziggurat-style rejection would not).

The stream is counter-addressed, so no generator carries state from one
read to the next.  One call fills a whole noise chunk, every path of a
batch: each thread keeps one Philox generator and one state dict, sets the
key once per call and, for each path, moves only the counter before that
path's read, which gives the generator a fresh `Philox(key=seed,
counter=block)` would be, without building one.  The words land in one
buffer and are turned into normals in place, in passes of at most 2^16
words that stay in cache.

The two stages overlap.  The calling thread fills the buffer path by path
and hands each pass to one worker thread as soon as its words are in;
`ndtri` releases the GIL, so the worker converts while the caller fills.
After the fill the caller takes back, last first, every pass the worker
has not started and converts it itself, then waits for the rest.  The
process has one such worker, made the first time a chunk has more than
one pass, and none on a single core; a worker that never starts costs
time, never the result.  Every word goes through the same arithmetic on
whichever thread, so the draws do not depend on the core count.

Counter layout (units of 4-word Philox blocks):

    block(path_index, step) = (path_index << 96) + step * stride(k)

with stride(k) = ceil(k/4) blocks per step of k draws.  Paths are 2^96
blocks apart; a path would need ~10^28 steps to collide with its neighbour.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

_PATH_SHIFT = 96
_MASK64 = (1 << 64) - 1
_PASS_WORDS = 1 << 16  # words turned into normals per pass (512 KiB)
_local = threading.local()
_pool_lock = threading.Lock()
_pool: tuple[ThreadPoolExecutor | None, int] = (None, 0)  # (worker, pid that made it)


def _stride_blocks(k: int) -> int:
    return (k + 3) // 4


def words_per_step(k: int) -> int:
    """Keystream words read per step of k draws: the size, in floats, of a
    step's share of gaussian_block's buffer."""
    return 4 * _stride_blocks(k)


def _words(value: int, n: int, name: str) -> list[int]:
    """value as n little-endian 64-bit words, range-checked as Philox does."""
    if not 0 <= value < 1 << (64 * n):
        raise ValueError(f"{name} must be positive and less than 2**{64 * n}.")
    return [(value >> (64 * i)) & _MASK64 for i in range(n)]


def _generator():
    """This thread's Generator on its own Philox, and the state dict that
    repositions that Philox; built once per thread and reused."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = Generator(Philox(0))
        _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty buffer: the next read starts a new block
            "has_uint32": 0,
            "uinteger": 0,
        }
    return gen, _local.state


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker() -> ThreadPoolExecutor | None:
    """The process's one conversion worker, made on first use (again in a
    forked child, which has no thread behind its parent's), or None on a
    single core."""
    global _pool
    if _cores() < 2:
        return None
    with _pool_lock:
        if _pool[1] != os.getpid():
            _pool = (ThreadPoolExecutor(1, thread_name_prefix="see-lab-noise"), os.getpid())
        return _pool[0]


def _to_normals(u: np.ndarray, sd: float) -> None:
    """Turn a pass of uniforms in [0, 1) into N(0, sd^2) draws in place."""
    u += 2.0**-54  # open at both ends: (0, 1)
    ndtri(u, out=u)
    u *= sd


def gaussian_increments(
    seed: int, path_index: int, step: int, k: int, dt: float
) -> np.ndarray:
    """k i.i.d. N(0, dt) draws, a pure function of (seed, path_index, step).

    Distinct tuples read disjoint stretches of the keystream and are
    therefore independent.  This is the one-row case of gaussian_block.
    """
    return gaussian_block(seed, path_index, step, 1, k, dt)[0]


def gaussian_block(
    seed: int, path_index, step0: int, n_steps: int, k: int, dt: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Row j holds the k draws of step step0 + j of a path.

    path_index: an int, giving an (n_steps, k) array, or a 1-D array of P
    path indices, giving (P, n_steps, k) whose entry i is the block of path
    path_index[i], bit for bit.  With `out`, an array of that shape, the
    draws are written there and `out` is returned.

    The caller fills the keystream words; each filled pass of at most 2^16
    words goes to the worker, and the caller converts the passes the worker
    has not started.  Without `out` the result is a view of the word
    buffer, strided when k is not a multiple of 4.
    """
    indices = np.ravel(path_index).tolist()
    shape = (n_steps, k) if np.ndim(path_index) == 0 else (len(indices), n_steps, k)
    if n_steps <= 0 or k <= 0:
        return np.zeros([max(n, 0) for n in shape]) if out is None else out
    width = words_per_step(k)
    base = int(step0) * _stride_blocks(k)
    gen, state = _generator()
    bg = gen.bit_generator
    state["state"]["key"] = _words(int(seed), 2, "key")
    counter = state["state"]["counter"]
    # every counter is range-checked before any pass goes to the worker
    counters = [_words((pi << _PATH_SHIFT) + base, 4, "counter") for pi in indices]
    # one buffer for the chunk: the generator's `random` writes each word w
    # as (w >> 11) * 2**-53, the top 53 bits as a uniform in [0, 1); a
    # step's k draws are the first k of its width words
    buf = np.empty((len(indices), n_steps * width))
    words = buf.reshape(-1, width)
    rows_per_pass = max(1, _PASS_WORDS // width)
    pool = _worker() if len(words) > rows_per_pass else None
    sd = math.sqrt(dt)
    passes, queued = [], 0
    for row, words_of_counter in enumerate(counters):
        counter[:] = words_of_counter
        bg.state = state
        gen.random(out=buf[row])
        filled = (row + 1) * n_steps
        while queued < filled and (filled - queued >= rows_per_pass or filled == len(words)):
            u = words[queued:queued + rows_per_pass, :k]
            # with no worker the pass waits, unstarted, for the caller
            passes.append((u, pool.submit(_to_normals, u, sd) if pool else Future()))
            queued += len(u)
    for u, job in reversed(passes):
        if job.cancel():  # not started: convert it here
            _to_normals(u, sd)
        else:
            job.result()  # started passes come first, so each is waited on once
    z = words[:, :k].reshape(shape)
    if out is None:
        return z
    out[...] = z
    return out


def derive_seed(base_seed: int, tag: str) -> int:
    """128-bit Philox key for a named substream of a base seed.

    Used so that different estimators (and different sampled pairs inside
    one estimator) consume independent streams while staying reproducible.
    """
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:16], "little")
