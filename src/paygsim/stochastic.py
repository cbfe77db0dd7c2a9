"""Seedable normal draws and the small family of samplers built on them.

Every stochastic quantity in the model is an affine transform of a standard
normal shock: demographic factors are floored at zero, mortality rates are
clipped to [0, 1], and investment returns follow a stationary AR(1) around a
deterministic base rate. Samplers are pure functions of an explicitly passed
shock; only NormalSource touches the underlying generator, so any computation
can be replayed bit-exactly by replaying the shocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NormalSource:
    """Stream of standard normal draws, keyed by (seed, stream_id).

    Built on the counter-based Philox generator. Two sources with the same
    key yield identical sequences; distinct stream ids give statistically
    independent streams, which is how replications are decoupled.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(key))

    def standard_normal(self, size=None):
        """Draw one value (size=None) or an array of the given shape.

        Block draws consume the stream exactly like repeated scalar draws,
        so pre-drawing a schedule of shocks is equivalent to drawing them
        one by one in the same order.
        """
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"NormalSource(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class TruncatedAffineParams:
    """mean + sigma*eps, floored at zero. May exceed 1; ratios above 1 are legal."""

    mean: float
    sigma: float

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError(f"mean must be >= 0, got {self.mean}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class ClippedAffineParams:
    """mean + sigma*eps, clipped into [0, 1]. Used for death probabilities."""

    mean: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"mean must be in [0, 1], got {self.mean}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def sample_truncated_affine(params: TruncatedAffineParams, eps):
    """Zero-floored affine normal: max(0, mean + sigma*eps).

    With sigma = 0 the draw collapses to the mean regardless of eps.
    Accepts scalar or array eps.
    """
    return np.maximum(0.0, params.mean + params.sigma * np.asarray(eps, dtype=float))[()]


def sample_clipped_affine(params: ClippedAffineParams, eps):
    """Interval-clipped affine normal: min(1, max(0, mean + sigma*eps))."""
    return np.clip(params.mean + params.sigma * np.asarray(eps, dtype=float), 0.0, 1.0)[()]


@dataclass(frozen=True)
class Ar1Params:
    """Stationary AR(1) deviation process: x_t = phi*x_{t-1} + sigma*eps_t."""

    phi: float
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        if not abs(self.phi) < 1.0:
            raise ValueError(f"|phi| must be < 1 for stationarity, got {self.phi}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def ar1_step(params: Ar1Params, x_prev: float, eps):
    """One transition of the deviation process."""
    return params.phi * x_prev + params.sigma * np.asarray(eps, dtype=float)[()]


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
