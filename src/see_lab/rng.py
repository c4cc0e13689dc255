"""Counter-based Gaussian increment streams for reproducible parallel Monte Carlo.

Every Brownian increment is addressed by the tuple (seed, path_index, step):
the Philox-4x64 keystream at key=seed is read at an explicit 256-bit counter
offset, so the same tuple always yields the same draws no matter how many
other paths run or in which order.  Normals come from the inverse CDF
applied to the raw 64-bit words, which keeps the per-step counter footprint
fixed (ziggurat-style rejection would not).

The stream is counter-addressed, so no generator carries state from one
read to the next: each thread keeps one Philox generator and moves it to
(key, counter) for every path's read, which is the generator a fresh
`Philox(key=seed, counter=block)` would be, without building one.

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
from numpy.random import Philox
from scipy.special import ndtri

_PATH_SHIFT = 96
_MASK64 = (1 << 64) - 1
_local = threading.local()


def _stride_blocks(k: int) -> int:
    return (k + 3) // 4


def _words(value: int, n: int, name: str) -> list[int]:
    """value as n little-endian 64-bit words, range-checked as Philox does."""
    if not 0 <= value < 1 << (64 * n):
        raise ValueError(f"{name} must be positive and less than 2**{64 * n}.")
    return [(value >> (64 * i)) & _MASK64 for i in range(n)]


def _raw_words(seed: int, block_start: int, n_words: int) -> np.ndarray:
    """n_words of the keystream of key=seed from counter block_start, read by
    this thread's generator after it is moved there."""
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = Philox(0)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": _words(block_start, 4, "counter"),
                  "key": _words(seed, 2, "key")},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty buffer: the next read starts a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg.random_raw(n_words)


def gaussian_increments(
    seed: int, path_index: int, step: int, k: int, dt: float
) -> np.ndarray:
    """k i.i.d. N(0, dt) draws, a pure function of (seed, path_index, step).

    Distinct tuples read disjoint stretches of the keystream and are
    therefore independent.  This is the one-row case of gaussian_block.
    """
    return gaussian_block(seed, path_index, step, 1, k, dt)[0]


def gaussian_block(
    seed: int, path_index: int, step0: int, n_steps: int, k: int, dt: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(n_steps, k) array whose row j is the k draws of step step0 + j.

    Single keystream read; used by the batch engine to amortize generator
    setup across a chunk of steps.  With `out`, an (n_steps, k) float array,
    the draws are written there and `out` is returned.
    """
    if n_steps <= 0 or k <= 0:
        return np.zeros((max(n_steps, 0), max(k, 0))) if out is None else out
    stride = _stride_blocks(k)
    block = (int(path_index) << _PATH_SHIFT) + int(step0) * stride
    raw = _raw_words(int(seed), block, 4 * stride * n_steps)
    # top 53 bits -> uniform in (0,1), open at both ends, in place
    raw >>= np.uint64(11)
    u = np.multiply(raw, 2.0**-53, out=raw.view(np.float64))
    u += 2.0**-54
    z = ndtri(u.reshape(n_steps, 4 * stride)[:, :k], out=out)
    z *= math.sqrt(dt)
    return z


def derive_seed(base_seed: int, tag: str) -> int:
    """128-bit Philox key for a named substream of a base seed.

    Used so that different estimators (and different sampled pairs inside
    one estimator) consume independent streams while staying reproducible.
    """
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:16], "little")
