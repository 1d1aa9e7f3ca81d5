"""Seeded sampling.

All stochastic code in the package draws through :class:`RngStream`, so a
run is fully reproducible from the (seed, key) pairs of its streams.  A
stream's key names what it is for: a purpose from the table below, then
the indices of the draw (a trial, a restart, a Monte Carlo check and
block).  A function that draws on behalf of its caller takes the caller's
key as a prefix and puts its own purpose after it, as train does under an
attack trial's key.  Keys of different purposes never match, and runs of
different seeds never share a stream, so no two draws of a run, or of two
runs, are secretly the same numbers.  This is the keyed-stream design of
Salmon et al. (SC'11, "Parallel random numbers: as easy as 1, 2, 3").
Gaussians are numpy's own standard normals on the keyed PCG64 stream, so
draws of any size compose: k calls of m values give one call of k*m.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Stream purposes, the first part of every key.  Data and train purposes
# also follow a caller's prefix: (ATTACK_TRIAL, k, TRAIN_NOISE) is the
# noise of trial k's training step.
DATA_FEATURES = 1
DATA_TARGET_NOISE = 2
DATA_HIDDEN = 3              # noisy_linear's w*, or the clusters' direction
TRAIN_INIT = 4
TRAIN_SHUFFLE = 5
TRAIN_NOISE = 6
ATTACK_TRIAL = 7             # (ATTACK_TRIAL, trial): that trial's train draws
ATTACK_RESTART = 8           # (ATTACK_RESTART, trial, restart): a descent's start
ATTACK_MEMBERSHIP = 9        # prefix of the membership attack's training runs
VERIFY_SETUPS = 10           # the randomized linear-neuron setups
VERIFY_NOISY_STEP = 11       # (VERIFY_NOISY_STEP, stream, block)
VERIFY_MOMENTS = 12          # (VERIFY_MOMENTS, sigma index, stream, block)
VERIFY_PRODUCT_DENSITY = 13  # (VERIFY_PRODUCT_DENSITY, stream, block)
VERIFY_TRAJECTORY = 14       # prefix of the trajectory check's data and runs
VERIFY_STEP_EXPECTATION = 15  # prefix of the step expectation's data, start, noise
VERIFY_GRAD_CHECK = 16       # (VERIFY_GRAD_CHECK, 0): cases; (..., 1): net inits

# SeedSequence takes a key as 32-bit words, so each part is one word and
# no two keys give the same words.
KEY_PART_LIMIT = 1 << 32


class RngStream:
    """Deterministic random stream keyed by (seed, *key).

    The same key replays the same sample sequence on every run; distinct
    keys give statistically independent streams.  The underlying bit
    source is PCG64 seeded via SeedSequence(seed, spawn_key=key).  Gaussian
    deviates are numpy's Generator.standard_normal, the ziggurat method of
    Marsaglia & Tsang (2000).  It builds each deviate from the stream's
    integer bits in scalar C, through none of numpy's SIMD loops, so its
    bits do not depend on the CPU features numpy dispatches to; the numpy
    version in use pins them.
    """

    def __init__(self, seed: int, *key: int):
        checks = [("seed", seed, math.inf, "an integer >= 0")]
        checks += [("key part", part, KEY_PART_LIMIT, "an integer in [0, 2**32)") for part in key]
        for name, value, limit, rule in checks:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or not 0 <= value < limit:
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        self.seed = int(seed)
        self.key = tuple(int(part) for part in key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return self._gen.random(_count(n))

    def normal(self, std: float, n: int) -> np.ndarray:
        """n draws from N(0, std^2).

        std == 0 returns zeros without consuming draws.  numpy keeps no
        deviate back between calls, so calls compose at any size: k calls
        of size m yield the values of one call of size k*m.
        """
        if not (math.isfinite(std) and std >= 0):
            raise ValueError(f"std must be a finite number >= 0, got {std!r}")
        n = _count(n)
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if std == 0:
            return np.zeros(n)
        out = self._gen.standard_normal(n)
        if std != 1:  # a product with 1 is exact, so skipping it changes no bit
            out *= float(std)
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n)."""
        return self._gen.permutation(_count(n))


def _count(n) -> int:
    """n as an int; a bool or a non-integral n raises ValueError, where
    int() would truncate it."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    return int(n)
