import math

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

    def test_even_sized_calls_compose(self):
        split = RngStream(9, 0)
        joined = RngStream(9, 0)
        chunks = np.concatenate([split.normal(1.0, 4) for _ in range(6)])
        assert np.array_equal(chunks, joined.normal(1.0, 24))

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
    def test_zero_std_returns_zeros(self):
        out = RngStream(1).normal(0.0, 3)
        assert np.array_equal(out, np.zeros(3))

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


def reference_normal(stream, std, n):
    """RngStream.normal as it was before the chunked, in-place core: one
    block of uniforms, then Box-Muller on fresh arrays."""
    if std == 0:
        return np.zeros(n)
    pairs = (n + 1) // 2
    u = stream._gen.random(2 * pairs)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(angle)
    out[1::2] = r * np.sin(angle)
    return float(std) * out[:n]


class TestChunkedBoxMuller:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 113, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                                   4 * numerics.BOX_MULLER_PAIRS + 3, 10 ** 6])
    @pytest.mark.parametrize("std", [1.0, 0.3, 4.0])
    def test_same_bits_as_reference(self, n, std):
        got = RngStream(31, 2).normal(std, n)
        want = reference_normal(RngStream(31, 2), std, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pairs", [1, 3, 64])
    def test_same_bits_at_any_chunk_width(self, monkeypatch, pairs):
        monkeypatch.setattr(numerics, "BOX_MULLER_PAIRS", pairs)
        for n in (1, 5, 113, 1001):
            got = RngStream(32, 0).normal(2.0, n)
            assert got.tobytes() == reference_normal(RngStream(32, 0), 2.0, n).tobytes()

    def test_zero_std_draws_nothing(self):
        stream = RngStream(33)
        assert np.array_equal(stream.normal(0.0, 7), np.zeros(7))
        assert np.array_equal(stream.normal(1.0, 6), reference_normal(RngStream(33), 1.0, 6))

    def test_even_calls_compose_across_a_chunk_boundary(self):
        width = 2 * numerics.BOX_MULLER_PAIRS
        split = RngStream(34, 1)
        parts = [split.normal(1.0, m) for m in (width - 6, 10, width + 2, 2)]
        joined = reference_normal(RngStream(34, 1), 1.0, 2 * width + 8)
        assert np.concatenate(parts).tobytes() == joined.tobytes()

    def test_odd_call_consumes_the_next_even_count(self):
        odd, even = RngStream(36), RngStream(36)
        assert odd.normal(1.0, 5).tobytes() == even.normal(1.0, 6)[:5].tobytes()
        assert odd.normal(1.0, 4).tobytes() == even.normal(1.0, 4).tobytes()


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_reproducibility_across_stream_reconstruction(seed):
    a = RngStream(seed, 2).normal(0.5, 10)
    b = RngStream(seed, 2).normal(0.5, 10)
    assert np.array_equal(a, b)
