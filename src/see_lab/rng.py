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
buffer, which is then turned into normals in place, in passes of about
2^16 words that stay in cache.

Counter layout (units of 4-word Philox blocks):

    block(path_index, step) = (path_index << 96) + step * stride(k)

with stride(k) = ceil(k/4) blocks per step of k draws.  Paths are 2^96
blocks apart; a path would need ~10^28 steps to collide with its neighbour.
"""

from __future__ import annotations

import hashlib
import math
import threading

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

_PATH_SHIFT = 96
_MASK64 = (1 << 64) - 1
_PASS_WORDS = 1 << 16  # words turned into normals per pass (512 KiB)
_local = threading.local()


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
    # one buffer for the chunk: the generator's `random` writes each word w
    # as (w >> 11) * 2**-53, the top 53 bits as a uniform in [0, 1)
    buf = np.empty((len(indices), n_steps * width))
    for row, pi in enumerate(indices):
        counter[:] = _words((pi << _PATH_SHIFT) + base, 4, "counter")
        bg.state = state
        gen.random(out=buf[row])
    # the normals are packed k to a step over the words, width >= k to a
    # step, so no pass overwrites words that a later pass reads (ndtri
    # buffers the overlap inside a pass)
    words = buf.reshape(-1, width)
    z = buf.reshape(-1)[:words.shape[0] * k].reshape(-1, k)
    rows_per_pass = max(1, _PASS_WORDS // width)
    sd = math.sqrt(dt)
    for a in range(0, words.shape[0], rows_per_pass):
        u = words[a:a + rows_per_pass]
        u += 2.0**-54  # open at both ends: (0, 1)
        zz = z[a:a + rows_per_pass]
        ndtri(u[:, :k], out=zz)
        zz *= sd
    z = z.reshape(shape)
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
