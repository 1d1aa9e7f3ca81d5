import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privreg import numerics
from privreg.numerics import RngStream


class TestRngStream:
    def test_same_key_replays_bit_identical(self):
        a = RngStream(123, 4).normal(1.0, 257)
        b = RngStream(123, 4).normal(1.0, 257)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        draws = [RngStream(123, *key).normal(1.0, 64).tobytes()
                 for key in ((), (0,), (1,), (0, 0), (1, 0), (0, 1), (1, 2, 3))]
        assert len(set(draws)) == len(draws)
        assert RngStream(123, 1, 2).normal(1.0, 64).tobytes() != \
            RngStream(124, 1, 2).normal(1.0, 64).tobytes()

    def test_key_is_the_seed_sequence_spawn_key(self):
        ss = np.random.SeedSequence(entropy=77, spawn_key=(5, 0, 9))
        want = np.random.Generator(np.random.PCG64(ss)).random(4)
        stream = RngStream(77, 5, 0, 9)
        assert stream.key == (5, 0, 9)
        assert stream.uniform(4).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 113, 2 ** 12])
    @pytest.mark.parametrize("std", [1.0, 0.3])
    def test_calls_compose_at_any_size(self, m, std):
        split, joined = RngStream(9, 0), RngStream(9, 0)
        chunks = np.concatenate([split.normal(std, m) for _ in range(6)])
        assert chunks.tobytes() == joined.normal(std, 6 * m).tobytes()
        # and the streams stay in step after calls of mixed sizes
        assert split.normal(1.0, 7).tobytes() == joined.normal(1.0, 7).tobytes()

    def test_permutation_is_seeded(self):
        assert np.array_equal(RngStream(5, 1).permutation(40),
                              RngStream(5, 1).permutation(40))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        for seed, part, name in ((2.7, 1, "seed"), (True, 0, "seed"), (2.0, 0, "seed"),
                                 (2, 1.5, "key part"), (2, False, "key part"),
                                 (2, -1, "key part"), (2, 2 ** 32, "key part")):
            with pytest.raises(ValueError, match=name):
                RngStream(seed, 3, part)
        assert np.array_equal(RngStream(np.int64(2), np.uint8(1)).uniform(3),
                              RngStream(2, 1).uniform(3))
        # a part of 2**32 would be two words of the key, the words of (0, 1)
        assert RngStream(2, 2 ** 32 - 1).key == (2 ** 32 - 1,)


class TestGaussianSample:
    def test_zero_std_returns_zeros_and_draws_nothing(self):
        stream = RngStream(1)
        assert np.array_equal(stream.normal(0.0, 3), np.zeros(3))
        assert stream.normal(1.0, 6).tobytes() == RngStream(1).normal(1.0, 6).tobytes()

    def test_std_scales_the_standard_draws(self):
        assert RngStream(34, 1).normal(0.3, 99).tobytes() == \
            (0.3 * RngStream(34, 1).normal(1.0, 99)).tobytes()

    def test_seeded_sample_variance(self):
        # Var = sigma^2 = 4 with stderr ~ sigma^2 * sqrt(2/n)
        out = RngStream(7).normal(2.0, 10 ** 6)
        assert 3.98 <= out.var(ddof=1) <= 4.02

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).normal(-0.1, 4)

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).normal(1.0, 0)

    @pytest.mark.parametrize("n", [2.5, 3.7, 4.9, 4.0, True, "3"])
    def test_non_integral_count_rejected(self, n):
        # int() would truncate each of these silently
        stream = RngStream(1)
        for draw in (lambda: stream.normal(1.0, n), lambda: stream.uniform(n),
                     lambda: stream.permutation(n)):
            with pytest.raises(ValueError, match="n must be an integer"):
                draw()

    def test_numpy_integer_counts_accepted(self):
        assert RngStream(1).normal(1.0, np.int64(5)).tobytes() == \
            RngStream(1).normal(1.0, 5).tobytes()
        assert np.array_equal(RngStream(2).uniform(np.uint8(3)), RngStream(2).uniform(3))
        assert np.array_equal(RngStream(3).permutation(np.int32(9)),
                              RngStream(3).permutation(9))

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_moments_at_one_million(self, sigma):
        x = RngStream(11).normal(sigma, 10 ** 6)
        sq = x * x
        stderr_m2 = sq.std(ddof=1) / math.sqrt(x.size)
        stderr_m4 = (sq * sq).std(ddof=1) / math.sqrt(x.size)
        assert abs(sq.mean() - sigma ** 2) <= 3 * stderr_m2
        assert abs((sq * sq).mean() - 3 * sigma ** 4) <= 3 * stderr_m4
        # spread of X^2 is 2*sigma^4
        assert abs(sq.var(ddof=1) - 2 * sigma ** 4) <= 0.05 * 2 * sigma ** 4


def reference_normal(seed, key, std, n):
    """RngStream.normal written out from numpy: a fresh Generator on the
    keyed PCG64, its standard normals, then one product with std."""
    if std == 0:
        return np.zeros(n)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return float(std) * np.random.Generator(np.random.PCG64(ss)).standard_normal(n)


class TestKeyedStandardNormal:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 113, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                                   2 ** 17 + 3, 10 ** 6])
    @pytest.mark.parametrize("std", [1.0, 0.3, 4.0])
    def test_same_bits_as_reference(self, n, std):
        got = RngStream(31, 2).normal(std, n)
        assert got.tobytes() == reference_normal(31, (2,), std, n).tobytes()

    def test_mixed_size_calls_follow_the_reference(self):
        split = RngStream(34, 1)
        parts = [split.normal(1.0, m) for m in (2 ** 14 - 6, 10, 2 ** 14 + 3, 1, 2)]
        joined = reference_normal(34, (1,), 1.0, 2 ** 15 + 10)
        assert np.concatenate(parts).tobytes() == joined.tobytes()


DRAW_DIGEST = ("import hashlib; from privreg.numerics import RngStream; "
               "print(hashlib.sha256(RngStream(1, 2).normal(1.0, 2 ** 16).tobytes()).hexdigest())")


def test_draws_do_not_depend_on_the_cpu_features_numpy_dispatches_to():
    # numpy picks a SIMD loop per CPU feature at run time; a child with
    # every feature it may dispatch to beyond its baseline switched off
    # must draw this process's bytes.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not enabled:
        pytest.skip("numpy dispatches to no CPU feature beyond its baseline here")
    src = str(pathlib.Path(numerics.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", DRAW_DIGEST], env=env, check=True,
                           capture_output=True, text=True)
    here = hashlib.sha256(RngStream(1, 2).normal(1.0, 2 ** 16).tobytes()).hexdigest()
    assert child.stdout.strip() == here


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_reproducibility_across_stream_reconstruction(seed):
    a = RngStream(seed, 2).normal(0.5, 10)
    b = RngStream(seed, 2).normal(0.5, 10)
    assert np.array_equal(a, b)
