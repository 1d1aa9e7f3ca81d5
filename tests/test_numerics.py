import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privreg.numerics import RngStream


class TestRngStream:
    def test_same_key_replays_bit_identical(self):
        a = RngStream(123, 4).normal(0.0, 1.0, 257)
        b = RngStream(123, 4).normal(0.0, 1.0, 257)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 0).normal(0.0, 1.0, 64)
        b = RngStream(123, 1).normal(0.0, 1.0, 64)
        assert not np.array_equal(a, b)

    def test_even_sized_calls_compose(self):
        split = RngStream(9, 0)
        joined = RngStream(9, 0)
        chunks = np.concatenate([split.normal(0.0, 1.0, 4) for _ in range(6)])
        assert np.array_equal(chunks, joined.normal(0.0, 1.0, 24))

    def test_permutation_is_seeded(self):
        assert np.array_equal(RngStream(5, 1).permutation(40),
                              RngStream(5, 1).permutation(40))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)


class TestGaussianSample:
    def test_zero_std_returns_zeros(self):
        out = RngStream(1).normal(0.0, 0.0, 3)
        assert np.array_equal(out, np.zeros(3))

    def test_zero_std_returns_constant_mean(self):
        out = RngStream(1).normal(5.0, 0.0, 1)
        assert np.array_equal(out, np.array([5.0]))

    def test_seeded_sample_variance(self):
        # Var = sigma^2 = 4 with stderr ~ sigma^2 * sqrt(2/n)
        out = RngStream(7).normal(0.0, 2.0, 10 ** 6)
        assert 3.98 <= out.var(ddof=1) <= 4.02

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).normal(0.0, -0.1, 4)

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).normal(0.0, 1.0, 0)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_moments_at_one_million(self, sigma):
        x = RngStream(11).normal(0.0, sigma, 10 ** 6)
        sq = x * x
        stderr_m2 = sq.std(ddof=1) / math.sqrt(x.size)
        stderr_m4 = (sq * sq).std(ddof=1) / math.sqrt(x.size)
        assert abs(sq.mean() - sigma ** 2) <= 3 * stderr_m2
        assert abs((sq * sq).mean() - 3 * sigma ** 4) <= 3 * stderr_m4
        # spread of X^2 is 2*sigma^4
        assert abs(sq.var(ddof=1) - 2 * sigma ** 4) <= 0.05 * 2 * sigma ** 4


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_reproducibility_across_stream_reconstruction(seed):
    a = RngStream(seed, 2).normal(1.5, 0.5, 10)
    b = RngStream(seed, 2).normal(1.5, 0.5, 10)
    assert np.array_equal(a, b)
