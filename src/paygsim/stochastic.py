"""Seedable normal streams and the parameters of the shock processes.

Every stochastic quantity in the model is an affine transform of a standard
normal shock: demographic factors are floored at zero, mortality rates are
clipped to [0, 1], and investment returns follow a stationary AR(1) around a
deterministic base rate. The engine applies these transforms to whole arrays
of explicitly passed shocks; only the streams opened by `open_streams` touch
the underlying generator, so any computation can be replayed bit-exactly by
replaying the shocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

import numpy as np


# numpy's SeedSequence hash (O'Neill's seed_seq_fe128 with a 4-word pool).
# numpy hashes the seed into the pool; the steps after that, which mix in a
# stream id and read the pool out, are restated to run over many ids at once.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def _chain(init: int, mult: int, n: int) -> list[int]:
    """The hash's running constant: init * mult**k mod 2**32, k < n."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _MASK)
    return out


# Step k of a chain hashes with the constant pair (c[k], c[k+1]). The output
# words have a chain of their own: output word i is pool word i hashed at step i.
_OUT_XOR, _OUT_MUL = (np.array(c, dtype=np.uint32)
                      for c in zip(*pairwise(_chain(_INIT_B, _MULT_B, _POOL + 1))))


# Both work alike on Python ints and on uint32 arrays, whose products wrap
# modulo 2**32 silently, as the hash needs.
def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul & _MASK
    return value ^ value >> 16


def _mix(x, y):
    value = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return value ^ value >> 16


@lru_cache(maxsize=16)
def _spawn_pool(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool of `SeedSequence(seed, spawn_key=(id,))` before its id word
    is mixed in, and the constant pairs that mix the id into each pool word,
    as read-only uint32 arrays."""
    # A spawned sequence pads the seed's w words to the pool with zeros, as
    # an unspawned one pads its pool, so the two pools agree. Filling and
    # mixing the pool takes 4 * w hashmix steps; the id takes the next four.
    w = max(_POOL, -(-seed.bit_length() // 32))
    steps = pairwise(_chain(_INIT_A, _MULT_A, 4 * w + 5)[4 * w:])
    out = (np.random.SeedSequence(seed).pool, *(np.array(c, dtype=np.uint32) for c in zip(*steps)))
    for a in out:
        a.flags.writeable = False
    return out


def stream_keys(seed: int, ids) -> np.ndarray:
    """Philox keys of the streams (seed, id), one (2,) uint64 row per id.

    Row i equals `SeedSequence(seed, spawn_key=(ids[i],)).generate_state(2,
    np.uint64)`, the key `Philox(SeedSequence(...))` would use, so a stream
    opened from it is numpy's stream for that key. The seed is hashed once,
    by `SeedSequence(seed)`; the id, the last entropy word, is then mixed in
    for all ids at once in uint32 arrays. Ids must be below 2**32, one
    entropy word each.
    """
    seed = int(seed)
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if seed < 0 or (ids.size and ids.min() < 0):
        raise ValueError("seed and stream ids must be non-negative")
    if ids.size and ids.max() > _MASK:
        raise ValueError(f"stream ids must be below 2**32, got {int(ids.max())}")
    pool, xor, mul = _spawn_pool(seed)
    state = _mix(pool, _hashmix(ids.astype(np.uint32)[:, None], xor, mul))
    state = _hashmix(state, _OUT_XOR, _OUT_MUL)  # generate_state
    # two 32-bit words, low first, make each 64-bit key word
    return state.astype("<u4").view("<u8").astype(np.uint64)


def open_streams(seed: int, ids):
    """Yield a generator at the start of stream (seed, id) for each id in turn.

    One Philox bit generator is reset to each id's key with a zero counter,
    so the generator yielded for an id is the one yielded before it, and is
    only that id's stream until the next one is taken.
    """
    keys = stream_keys(seed, ids)
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state  # counter 0 and an empty output buffer
    for key in keys:
        state["state"]["key"] = key
        bits.state = state
        yield gen


@dataclass(frozen=True)
class Ar1Params:
    """Stationary AR(1) deviation process: x_t = phi*x_{t-1} + sigma*eps_t."""

    phi: float
    sigma: float
    x0: float = 0.0


def ar1_path(params: Ar1Params, eps) -> np.ndarray:
    """Deviation path for a whole shock sequence, starting from x0.

    eps may be 1-D (one path) or 2-D with shape (n_paths, n_steps); the
    recursion runs along the last axis.
    """
    eps = np.asarray(eps, dtype=float)
    out = np.empty_like(eps)
    x = np.full(eps.shape[:-1], params.x0, dtype=float)
    for t in range(eps.shape[-1]):
        x = params.phi * x + params.sigma * eps[..., t]
        out[..., t] = x
    return out


def ar1_stationary_std(params: Ar1Params) -> float:
    """Long-run standard deviation sigma / sqrt(1 - phi^2)."""
    return params.sigma / math.sqrt(1.0 - params.phi * params.phi)
