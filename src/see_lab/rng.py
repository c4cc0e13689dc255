"""Counter-based Gaussian increment streams for reproducible parallel Monte Carlo.

Every Brownian increment is addressed by the tuple (seed, path_index, step):
the Philox-4x64 keystream at key=seed is read at an explicit 256-bit counter
offset, so the same tuple always yields the same draws no matter how many
other paths run, in which order, or on how many workers.  Normals come from
the inverse CDF applied to the raw 64-bit words, which keeps the per-step
counter footprint fixed (ziggurat-style rejection would not).

Counter layout (units of 4-word Philox blocks):

    block(path_index, step) = (path_index << 96) + step * stride(k)

with stride(k) = ceil(k/4) blocks per step of k draws.  Paths are 2^96
blocks apart; a path would need ~10^28 steps to collide with its neighbour.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

_PATH_SHIFT = 96


def _stride_blocks(k: int) -> int:
    return (k + 3) // 4


def _raw_words(seed: int, block_start: int, n_words: int) -> np.ndarray:
    bg = Philox(key=seed, counter=block_start)
    return bg.random_raw(n_words)


def _words_to_normals(raw: np.ndarray) -> np.ndarray:
    # top 53 bits -> uniform in (0,1), open at both ends
    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def gaussian_increments(
    seed: int, path_index: int, step: int, k: int, dt: float
) -> np.ndarray:
    """k i.i.d. N(0, dt) draws, a pure function of (seed, path_index, step).

    Distinct tuples read disjoint stretches of the keystream and are
    therefore independent.  This is the one-row case of gaussian_block.
    """
    return gaussian_block(seed, path_index, step, 1, k, dt)[0]


def gaussian_block(
    seed: int, path_index: int, step0: int, n_steps: int, k: int, dt: float
) -> np.ndarray:
    """(n_steps, k) array whose row j is the k draws of step step0 + j.

    Single keystream read; used by the batch engine to amortize generator
    setup across a chunk of steps.
    """
    if n_steps <= 0 or k <= 0:
        return np.zeros((max(n_steps, 0), max(k, 0)))
    stride = _stride_blocks(k)
    block = (path_index << _PATH_SHIFT) + step0 * stride
    raw = _raw_words(seed, block, 4 * stride * n_steps)
    z = _words_to_normals(raw).reshape(n_steps, 4 * stride)[:, :k]
    return z * math.sqrt(dt)


def derive_seed(base_seed: int, tag: str) -> int:
    """128-bit Philox key for a named substream of a base seed.

    Used so that different estimators (and different sampled pairs inside
    one estimator) consume independent streams while staying reproducible.
    """
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:16], "little")
