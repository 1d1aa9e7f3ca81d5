"""Seeded sampling.

All stochastic code in the package draws through :class:`RngStream`, so a
run is fully reproducible from its (seed, stream_id) pairs.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    The same key replays the same sample sequence on every run; distinct
    stream_ids give statistically independent substreams.  The underlying
    bit source is PCG64 seeded via SeedSequence(seed, spawn_key=(stream_id,)),
    whose output stream numpy guarantees stable.  Gaussian deviates are
    produced by the Box-Muller transform over 53-bit uniforms (pairs
    interleaved), so the normal sequence is pinned by this module rather
    than by the numpy version in use.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return self._gen.random(int(n))

    def normal(self, mean: float, std: float, n: int) -> np.ndarray:
        """n draws from N(mean, std^2) via Box-Muller.

        std == 0 returns the constant `mean` without consuming draws.
        Calls with even n compose: k calls of size m consume the same
        uniforms as one call of size k*m and yield the same values.
        """
        if std < 0:
            raise ValueError(f"std must be nonnegative, got {std}")
        n = int(n)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if std == 0:
            return np.full(n, float(mean))
        pairs = (n + 1) // 2
        u = self._gen.random(2 * pairs)
        u1 = 1.0 - u[0::2]  # (0, 1]: log-safe
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(angle)
        out[1::2] = r * np.sin(angle)
        return float(mean) + float(std) * out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n)."""
        return self._gen.permutation(int(n))
