"""Seeded sampling, descriptive moments, K0, and small dense solves.

All stochastic code in the package draws through :class:`RngStream`, so a
run is fully reproducible from its (seed, stream_id) pairs.  Matrices and
vectors are plain float64 numpy arrays throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# Pivots smaller than this fraction of the largest matrix entry are treated
# as zero during elimination.
PIVOT_TOLERANCE = 1e-12


class SingularMatrixError(ValueError):
    """Elimination met a pivot too small to trust."""


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


@dataclass(frozen=True)
class MomentSummary:
    """Raw moments and population variance of a sample."""

    n: int
    mean: float
    m2: float  # E[X^2]
    m4: float  # E[X^4]
    variance: float  # E[(X - mean)^2], equals m2 - mean^2 up to rounding


def moments(samples: np.ndarray) -> MomentSummary:
    """Mean, raw second/fourth moments, and variance of a sample.

    Two-pass scheme: variance is computed from centered values so constant
    sequences come out exactly zero.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    mean = float(x.mean())
    sq = x * x
    m2 = float(sq.mean())
    m4 = float((sq * sq).mean())
    centered = x - mean
    variance = float(np.dot(centered, centered) / x.size)
    return MomentSummary(n=int(x.size), mean=mean, m2=m2, m4=m4, variance=max(variance, 0.0))


def bessel_k0(z: float) -> float:
    """Modified Bessel function of the second kind, order zero.

    Split at z = 2: the ascending series below, and adaptive quadrature of
    exp(-z*cosh(t)) with the exp(-z) prefactor factored out above.  Both
    branches hold relative error well under 1e-8.
    """
    z = float(z)
    if not z > 0:
        raise ValueError(f"K0 requires z > 0, got {z}")
    if z <= 2.0:
        return _k0_series(z)
    return _k0_quadrature(z)


def _k0_series(z: float) -> float:
    # K0(z) = -(log(z/2) + gamma) * I0(z) + sum_{k>=1} (z^2/4)^k / (k!)^2 * H_k
    q = 0.25 * z * z
    term = 1.0
    i0 = 1.0
    harmonic = 0.0
    correction = 0.0
    for k in range(1, 400):
        term *= q / (k * k)
        harmonic += 1.0 / k
        i0 += term
        correction += term * harmonic
        if term * (harmonic + 1.0) < 1e-18 * (i0 + correction):
            break
    return -(math.log(0.5 * z) + EULER_GAMMA) * i0 + correction


def _k0_quadrature(z: float) -> float:
    # K0(z) = exp(-z) * integral_0^inf exp(-z*(cosh t - 1)) dt; the integrand
    # is below 3e-20 once z*(cosh t - 1) > 45, so the tail past T is ignorable.
    from scipy.integrate import quad  # slow to import; only K0 above z = 2 needs it

    upper = math.acosh(1.0 + 45.0 / z)
    value, _ = quad(lambda t: math.exp(-z * (math.cosh(t) - 1.0)), 0.0, upper,
                    epsabs=0.0, epsrel=1e-12, limit=200)
    return math.exp(-z) * value


def solve_linear_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by LU factorization with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    PIVOT_TOLERANCE times the largest entry of `a`.
    """
    mat = np.array(a, dtype=np.float64, copy=True)
    rhs = np.array(b, dtype=np.float64, copy=True).ravel()
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix of size {n}")
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise ValueError("matrix and rhs entries must be finite")
    if n == 0:
        return np.empty(0)

    scale = np.abs(mat).max()
    threshold = PIVOT_TOLERANCE * scale
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(mat[k:, k])))
        pivot = mat[pivot_row, k]
        if abs(pivot) <= threshold:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} at column {k} below tolerance {threshold:.3e}"
            )
        if pivot_row != k:
            mat[[k, pivot_row]] = mat[[pivot_row, k]]
            rhs[[k, pivot_row]] = rhs[[pivot_row, k]]
        factors = mat[k + 1:, k] / mat[k, k]
        mat[k + 1:, k:] -= np.outer(factors, mat[k, k:])
        rhs[k + 1:] -= factors * rhs[k]

    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - mat[k, k + 1:] @ x[k + 1:]) / mat[k, k]
    return x
