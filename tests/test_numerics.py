import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privreg.numerics import (MomentSummary, RngStream, SingularMatrixError,
                              bessel_k0, moments, solve_linear_system)


def k0_series_oracle(z: float) -> float:
    """Independent high-precision ascending series for K0.

    K0(z) = -(log(z/2) + gamma) * I0(z) + sum_{k>=1} (z^2/4)^k / (k!)^2 * H_k,
    evaluated in 40-digit arithmetic so the cancellation at z ~ 10 is harmless.
    """
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        q = z * z / 4
        term = mpmath.mpf(1)
        i0 = mpmath.mpf(1)
        harmonic = mpmath.mpf(0)
        correction = mpmath.mpf(0)
        for k in range(1, 500):
            term *= q / (k * k)
            harmonic += mpmath.mpf(1) / k
            i0 += term
            correction += term * harmonic
            if term * (harmonic + 1) < mpmath.mpf(10) ** -45 * (i0 + correction):
                break
        value = -(mpmath.log(z / 2) + mpmath.euler) * i0 + correction
        return float(value)


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


class TestMoments:
    def test_constant_sequence(self):
        summary = moments(np.ones(4))
        assert summary.mean == 1.0
        assert summary.variance == 0.0

    def test_plus_minus_one(self):
        summary = moments(np.array([-1.0, 1.0]))
        assert summary == MomentSummary(n=2, mean=0.0, m2=1.0, m4=1.0, variance=1.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            moments(np.array([1.0]))
        with pytest.raises(ValueError):
            moments(np.array([]))

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_moments_at_one_million(self, sigma):
        x = RngStream(11).normal(0.0, sigma, 10 ** 6)
        summary = moments(x)
        n = summary.n
        sq = x * x
        stderr_m2 = sq.std(ddof=1) / math.sqrt(n)
        stderr_m4 = (sq * sq).std(ddof=1) / math.sqrt(n)
        assert abs(summary.m2 - sigma ** 2) <= 3 * stderr_m2
        assert abs(summary.m4 - 3 * sigma ** 4) <= 3 * stderr_m4
        # spread of X^2 is 2*sigma^4
        assert abs(sq.var(ddof=1) - 2 * sigma ** 4) <= 0.05 * 2 * sigma ** 4

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    def test_variance_consistent_with_raw_moments(self, values):
        summary = moments(np.array(values))
        scale = max(1.0, summary.m2)
        assert abs(summary.variance - (summary.m2 - summary.mean ** 2)) <= 1e-9 * scale
        assert summary.variance >= 0


class TestBesselK0:
    def test_matches_series_oracle(self):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            reference = k0_series_oracle(z)
            assert abs(bessel_k0(z) - reference) <= 1e-8 * reference

    def test_value_at_one(self):
        assert abs(bessel_k0(1.0) - 0.42102443824) < 1e-10

    def test_strictly_decreasing(self):
        grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
        values = [bessel_k0(z) for z in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert bessel_k0(10.0) < bessel_k0(1.0)

    def test_asymptotic_ratio(self):
        # K0(z) ~ sqrt(pi/(2z)) e^-z (1 - 1/(8z) + ...): the first correction
        # is 2.5e-3 at z = 50, so the ratio reaches 1e-3 only past z ~ 125.
        ratio50 = bessel_k0(50.0) * math.sqrt(2 * 50.0 / math.pi) * math.exp(50.0)
        assert abs(ratio50 - 1.0) < 3e-3
        ratio500 = bessel_k0(500.0) * math.sqrt(2 * 500.0 / math.pi) * math.exp(500.0)
        assert abs(ratio500 - 1.0) < 1e-3

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_domain_error(self, z):
        with pytest.raises(ValueError):
            bessel_k0(z)


class TestSolveLinearSystem:
    def test_identity(self):
        x = solve_linear_system(np.eye(2), np.array([3.0, 4.0]))
        assert np.array_equal(x, np.array([3.0, 4.0]))

    def test_hand_elimination(self):
        x = solve_linear_system(np.array([[3.0, 1.0], [1.0, 3.0]]),
                                np.array([3.0, 3.0]))
        assert np.allclose(x, [0.75, 0.75], atol=1e-14)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system(np.array([[1.0, 1.0], [2.0, 2.0]]),
                                np.array([1.0, 2.0]))

    @pytest.mark.parametrize("dim", [2, 8, 33, 64])
    def test_residual_bound_on_well_conditioned_systems(self, dim):
        rng = RngStream(17, dim)
        raw = rng.normal(0.0, 1.0, dim * dim).reshape(dim, dim)
        a = raw @ raw.T + dim * np.eye(dim)
        b = rng.normal(0.0, 1.0, dim)
        x = solve_linear_system(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve_linear_system(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear_system(np.eye(2), np.ones(3))


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_reproducibility_across_stream_reconstruction(seed):
    a = RngStream(seed, 2).normal(1.5, 0.5, 10)
    b = RngStream(seed, 2).normal(1.5, 0.5, 10)
    assert np.array_equal(a, b)
