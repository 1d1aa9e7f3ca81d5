"""Seeded sampling.

All stochastic code in the package draws through :class:`RngStream`, so a
run is fully reproducible from its (seed, stream_id) pairs.
"""

from __future__ import annotations

import numbers

import numpy as np

# Box-Muller pairs computed per pass over the scratch: 2**15 pairs keep the
# three scratch rows (768 KB) in cache.
BOX_MULLER_PAIRS = 1 << 15


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
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return self._gen.random(_count(n))

    def normal(self, std: float, n: int) -> np.ndarray:
        """n draws from N(0, std^2) via Box-Muller.

        std == 0 returns zeros without consuming draws.
        Box-Muller turns uniforms into deviates two at a time, so an odd n
        consumes n + 1 uniforms and drops the last deviate: a call of size
        n draws exactly what a call of size n + n % 2 draws and returns its
        first n values.  Calls therefore compose: k calls of an even size m
        consume the same uniforms as one call of size k*m and yield the
        same values, and normal_rows pads an odd size to compose as well.
        """
        if std < 0:
            raise ValueError(f"std must be nonnegative, got {std}")
        n = _count(n)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if std == 0:
            return np.zeros(n)
        out = np.empty(n + n % 2)
        self._box_muller(out)
        if std != 1:  # a product with 1 is exact, so skipping it changes no bit
            out *= float(std)
        return out[:n] if n % 2 else out

    def normal_rows(self, rows: int, width: int) -> np.ndarray:
        """A (rows, width) block of standard normals, drawn in one call,
        whose row i holds the bits of the i-th of `rows` successive
        normal(1, width) calls.  Each row is drawn width + width % 2
        wide, as such a call draws, and the pad column is dropped."""
        padded = width + width % 2
        return self.normal(1.0, rows * padded).reshape(rows, padded)[:, :width]

    def _box_muller(self, out: np.ndarray) -> None:
        """Fill the even-length `out` with standard normals, in place.

        Works through BOX_MULLER_PAIRS pairs at a time, so the scratch stays
        in cache.  Every pair is computed on its own (cos and sin of one
        angle, from the uniforms 2i and 2i+1), so chunking changes no bit.
        log, cos and sin run on contiguous arrays, as they always have:
        numpy may pick another loop for strided input, and loops can differ
        by an ulp.
        """
        width = min(out.size // 2, BOX_MULLER_PAIRS)
        r, angle, cos = np.empty(width), np.empty(width), np.empty(width)
        for start in range(0, out.size, 2 * width):
            chunk = out[start:start + 2 * width]
            if chunk.size < 2 * width:  # the last chunk is shorter
                k = chunk.size // 2
                r, angle, cos = r[:k], angle[:k], cos[:k]
            self._gen.random(out=chunk)
            even, odd = chunk[0::2], chunk[1::2]
            np.subtract(1.0, even, r)  # (0, 1]: log-safe
            np.log(r, r)
            np.multiply(-2.0, r, r)
            np.sqrt(r, r)
            np.multiply(2.0 * np.pi, odd, angle)
            np.cos(angle, cos)
            np.sin(angle, angle)
            np.multiply(r, cos, even)
            np.multiply(r, angle, odd)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n)."""
        return self._gen.permutation(_count(n))


def _count(n) -> int:
    """n as an int; a bool or a non-integral n raises ValueError, where
    int() would truncate it."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    return int(n)
