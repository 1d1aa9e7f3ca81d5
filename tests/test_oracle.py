from dataclasses import replace

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from privreg.experiments import _setup_checks
from privreg.model import Dataset, ModelSpec, ParameterSet
from privreg.numerics import RngStream
from privreg import oracle
from privreg.optimizers import NoiseSpec
from privreg.oracle import (MC_CHUNK_ROWS, analytic_post_update_loss,
                            backprop_grad_check, check_cross_term_vanishes,
                            check_moment_identities, check_post_update_loss,
                            check_product_density, equivalence_chain_residuals,
                            finite_difference_gradient, mc_post_update_loss,
                            random_linear_setups)
from reference_solvers import regularized_least_squares_oracle

LINEAR2 = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=False)
THETA = ParameterSet(LINEAR2, np.array([0.5, -1.0]))
X = np.array([2.0, 1.0])
IID = NoiseSpec(mode="iid", sigma=0.2)
PROP = NoiseSpec(mode="proportional", sigma=0.2)
BIASED = ParameterSet(ModelSpec(layer_sizes=(2, 1), include_bias=True),
                      np.array([0.5, -1.0, 0.3]))


class TestAnalyticPostUpdateLoss:
    def test_iid_hand_value(self):
        # clean one-step loss is 0 here; iid adds eta^2*sigma^2*sum(x^2) = 4e-4*5
        assert analytic_post_update_loss(THETA, X, 1.0, 0.1, IID) == pytest.approx(0.002)

    def test_proportional_hand_value(self):
        # sum(theta^2 x^2) = 0.25*4 + 1*1 = 2 -> 4e-4*2
        assert analytic_post_update_loss(THETA, X, 1.0, 0.1, PROP) == pytest.approx(0.0008)

    def test_no_noise_returns_clean_loss(self):
        none = NoiseSpec(mode="none")
        assert analytic_post_update_loss(THETA, X, 1.0, 0.1, none) == pytest.approx(0.0)

    def test_rejects_nonlinear_model(self):
        spec = ModelSpec(layer_sizes=(2, 3, 1), activation="tanh")
        p = ParameterSet(spec, np.zeros(2 * 3 + 3 + 3 + 1))
        with pytest.raises(ValueError):
            analytic_post_update_loss(p, X, 1.0, 0.1, IID)


class TestMcPostUpdateLoss:
    def test_zero_sigma_exact(self):
        mean, stderr = mc_post_update_loss(THETA, X, 1.0, 0.1, NoiseSpec(mode="none"),
                                           replicas=100, seed=1)
        assert stderr == 0.0
        assert mean == pytest.approx(0.0)

    def test_iid_matches_analytic(self):
        mean, stderr = mc_post_update_loss(THETA, X, 1.0, 0.1, IID, replicas=200_000, seed=3)
        assert abs(mean - 0.002) <= 3 * stderr

    def test_proportional_matches_analytic(self):
        mean, stderr = mc_post_update_loss(THETA, X, 1.0, 0.1, PROP, replicas=200_000, seed=4)
        assert abs(mean - 0.0008) <= 3 * stderr

    def test_stream_split_reduces_identically(self, monkeypatch):
        # R = 10,001 is a multiple of no chunk size here, and R * d is odd
        theta = ParameterSet(ModelSpec(layer_sizes=(3, 1)), np.array([0.5, -1.0, 0.25, 0.1]))
        x, replicas = np.array([2.0, 1.0, -0.5]), 10_001

        def estimates(noise, chunk_rows):
            monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", chunk_rows)
            loss = mc_post_update_loss(theta, x, 1.0, 0.1, noise, replicas, seed=5)
            cross = check_cross_term_vanishes(theta, x, 1.0, 0.1, noise, replicas, seed=5,
                                              threshold=3.0)
            return loss, cross.mean, cross.stderr

        for noise in (IID, PROP):
            one_block = estimates(noise, replicas)
            for chunk_rows in (2, 64, 1000, 4096):
                assert replicas % chunk_rows and (replicas * x.size) % 2
                assert estimates(noise, chunk_rows) == one_block

    def test_chunk_rows_even(self):
        # every chunk but the last must draw an even count to compose
        assert oracle.MC_CHUNK_ROWS % 2 == 0

    @pytest.mark.parametrize("mode", ["iid", "proportional"])
    def test_bias_neuron_matches_analytic(self, mode):
        noise = NoiseSpec(mode=mode, sigma=0.4)
        mean, stderr = mc_post_update_loss(BIASED, X, 0.3, 0.15, noise, replicas=200_000,
                                           seed=21)
        analytic = analytic_post_update_loss(BIASED, X, 0.3, 0.15, noise)
        assert abs(mean - analytic) <= 3 * stderr

    @pytest.mark.parametrize("mode", ["iid", "proportional"])
    @pytest.mark.parametrize("model", ["plain", "bias"])
    def test_clipped_step_matches_analytic(self, mode, model):
        params = BIASED if model == "bias" else THETA
        noise = NoiseSpec(mode=mode, sigma=0.4, clip_c=0.5)
        # the unclipped gradient 2*(y - t)*x has norm 4.9 or more here: the clip acts
        assert analytic_post_update_loss(params, X, 1.3, 0.15, noise) != \
            analytic_post_update_loss(params, X, 1.3, 0.15, replace(noise, clip_c=None))
        mean, stderr = mc_post_update_loss(params, X, 1.3, 0.15, noise, replicas=200_000,
                                           seed=22)
        analytic = analytic_post_update_loss(params, X, 1.3, 0.15, noise)
        assert abs(mean - analytic) <= 3 * stderr

    def test_steps_through_the_trainer(self, monkeypatch):
        # a trainer that doubled its noise would fail the identity
        real_step = oracle.mechanism_step

        def doubled(params, x, t, eta, noise, reg, z=None):
            return real_step(params, x, t, eta, noise, reg, None if z is None else 2 * z)

        monkeypatch.setattr(oracle, "mechanism_step", doubled)
        mean, stderr = mc_post_update_loss(THETA, X, 1.0, 0.1, IID, replicas=200_000, seed=3)
        assert abs(mean - 0.002) > 3 * stderr

    def test_bias_folds_into_constant_feature(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        with_bias = ParameterSet(spec, np.array([0.5, -1.0, 0.3]))
        folded_spec = ModelSpec(layer_sizes=(3, 1), activation="identity",
                                include_bias=False)
        folded = ParameterSet(folded_spec, np.array([0.5, -1.0, 0.3]))
        a = analytic_post_update_loss(with_bias, X, 1.0, 0.1, IID)
        b = analytic_post_update_loss(folded, np.array([2.0, 1.0, 1.0]), 1.0, 0.1, IID)
        assert a == b


class TestCrossTerm:
    def test_zero_mean_at_scale(self):
        check = check_cross_term_vanishes(THETA, X, 0.7, 0.1, IID,
                                          replicas=100_000, seed=6, threshold=3.0)
        assert check.analytic == 0.0
        assert check.passed

    def test_zero_sigma_exact(self):
        check = check_cross_term_vanishes(THETA, X, 0.7, 0.1, NoiseSpec(mode="none"),
                                          replicas=100, seed=7, threshold=3.0)
        assert check.mean == 0.0
        assert check.z == 0.0

    @pytest.mark.parametrize("eta", [0.0, -0.1])
    def test_nonpositive_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            check_cross_term_vanishes(THETA, X, 0.7, eta, IID, replicas=100, seed=8,
                                      threshold=3.0)
        with pytest.raises(ValueError, match="eta must be positive"):
            mc_post_update_loss(THETA, X, 0.7, eta, IID, replicas=100, seed=8)

    @pytest.mark.parametrize("noise", [IID, PROP, NoiseSpec(mode="iid", sigma=0.2, clip_c=0.5)])
    def test_bias_neuron_zero_mean(self, noise):
        check = check_cross_term_vanishes(BIASED, X, 0.7, 0.1, noise,
                                          replicas=200_000, seed=9, threshold=3.0)
        assert check.passed

    def test_zero_input_annihilates(self):
        check = check_cross_term_vanishes(THETA, np.zeros(2), 0.7, 0.1, IID,
                                          replicas=1000, seed=8, threshold=3.0)
        assert check.mean == 0.0


class TestMomentIdentities:
    def test_analytic_triples(self):
        for sigma, triple in ((1.0, (1.0, 3.0, 2.0)), (2.0, (4.0, 48.0, 32.0))):
            checks = check_moment_identities(sigma, replicas=1000, seed=9, threshold=3.0)
            assert [c.analytic for c in checks] == list(triple)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_checks_pass_at_scale(self, sigma):
        checks = check_moment_identities(sigma, replicas=200_000, seed=10, threshold=3.0)
        assert all(c.passed for c in checks)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            check_moment_identities(0.0, replicas=100, seed=0, threshold=3.0)

    def test_non_integral_replicas_rejected(self):
        # a truncated count would draw 1,000 values and divide by 1000.5
        with pytest.raises(ValueError, match="n must be an integer"):
            check_moment_identities(1.0, 1000.5, 3, 3.0)

    @pytest.mark.parametrize("sigma,replicas", [(0.5, 2), (1.0, 100_001), (2.0, 65_537)])
    def test_in_place_summaries_give_numpys_bits(self, sigma, replicas):
        # the reference is the whole-array form, with numpy's mean/std/var
        x = RngStream(31, 0).normal(sigma, replicas)
        w = x * x
        n = replicas
        var_w = float(w.var(ddof=1))
        mu4_w = float(((w - w.mean()) ** 4).mean())
        expected = [
            (float(w.mean()), float(w.std(ddof=1) / np.sqrt(n))),
            (float((w * w).mean()), float((w * w).std(ddof=1) / np.sqrt(n))),
            (var_w, float(np.sqrt(max(mu4_w - var_w ** 2 * (n - 3) / (n - 1), 0.0) / n))),
        ]
        checks = check_moment_identities(sigma, replicas, seed=31, threshold=3.0)
        assert [(c.mean, c.stderr) for c in checks] == expected


class TestMeanAndStderr:
    @pytest.mark.parametrize("n", [2, 1001, 65_537, 1_000_000])
    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e6])
    def test_equals_numpy(self, n, scale):
        values = RngStream(n, 3).normal(scale, n) + 0.7 * scale
        expected = (float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)))
        buffer = values.copy()
        assert oracle._mean_and_stderr(buffer) == expected
        assert np.array_equal(buffer, np.square(values - values.mean()))


def quad_bin_masses(sigma_x, sigma_y, edges):
    """Reference mass of the K0 product density on each interval of `edges`,
    by adaptive quadrature of scipy's K0 per bin."""
    scale = sigma_x * sigma_y
    density = lambda v: special.k0(v / scale) / (np.pi * scale)
    return np.array([quad(density, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:])])


class TestProductDensity:
    def test_analytic_density_value(self):
        # unit sigmas: density at u=1 is K0(1)/pi = 0.42102443824/pi
        assert special.k0(1.0) / np.pi == pytest.approx(0.1340162410, abs=1e-9)

    @pytest.mark.parametrize("sigma_x,sigma_y,bins,support", [
        (1.0, 1.0, 40, (0.05, 4.0)),
        (1.0, 1.0, 20, (0.05, 4.0)),
        (0.7, 1.3, 15, (0.05, 3.0)),
        (0.7, 1.3, 40, (0.05, 4.0)),
        (2.0, 1.0, 40, (0.05, 4.0)),
    ])
    def test_masses_match_quadrature_near_unit_scale(self, sigma_x, sigma_y, bins,
                                                     support):
        edges = np.linspace(*support, bins + 1)
        masses = oracle._bin_masses(sigma_x, sigma_y, edges)
        assert np.abs(masses / quad_bin_masses(sigma_x, sigma_y, edges) - 1.0).max() <= 1e-11

    def test_report_mirrors_the_masses_of_its_support(self):
        report = check_product_density(0.7, 1.3, replicas=100, bins=15, seed=0)
        edges = np.linspace(0.05, 4.0, 16)
        masses = oracle._bin_masses(0.7, 1.3, edges)
        assert np.array_equal(report.edges, np.concatenate([-edges[::-1], edges]))
        assert np.array_equal(report.expected, np.concatenate([masses[::-1], masses]))

    @pytest.mark.parametrize("sigma_x,sigma_y", [(0.25, 1.0), (0.5, 0.5), (0.5, 0.3)])
    def test_masses_within_stated_absolute_bound_at_small_scales(self, sigma_x, sigma_y):
        report = check_product_density(sigma_x, sigma_y, replicas=100, bins=40, seed=0)
        reference = quad_bin_masses(sigma_x, sigma_y, report.edges[41:])
        assert np.abs(report.expected[40:] - reference).max() <= 3e-13

    def test_unresolvable_tail_bins_rejected(self):
        # at scale 0.1 the bins near |u| = 4 hold ~1e-19, below the 3e-13 accuracy
        with pytest.raises(ValueError, match=r"resolves at sigma_x \* sigma_y = 0.1"):
            check_product_density(0.1, 1.0, replicas=100, bins=40, seed=0)

    def test_masses_sum_to_one_over_a_wide_support(self):
        # the mass outside (1e-12, 20) is (2/pi) * (int_0^1e-12 K0 + int_20^inf K0)
        # = (2/pi) * (2.875e-11 + 5.609e-10) = 3.754e-10
        masses = oracle._bin_masses(1.0, 1.0, np.linspace(1e-12, 20.0, 201))
        assert 2.0 * masses.sum() == pytest.approx(1.0 - 3.754e-10, abs=1e-12)

    def test_histogram_matches_density(self):
        report = check_product_density(1.0, 1.0, replicas=200_000, bins=20, seed=11)
        assert report.max_abs_z <= 4.0
        assert report.counts.size == 40
        assert report.expected.sum() < 1.0

    def test_symmetry(self):
        report = check_product_density(1.0, 1.0, replicas=200_000, bins=20, seed=12)
        assert np.abs(report.symmetry_z).max() <= 3.0

    def test_unequal_sigmas(self):
        report = check_product_density(0.7, 1.3, replicas=200_000, bins=15, seed=13)
        assert report.max_abs_z <= 4.0

    @pytest.mark.parametrize("replicas", [MC_CHUNK_ROWS, 3 * MC_CHUNK_ROWS + 7])
    def test_chunked_counts_equal_one_histogram(self, replicas):
        report = check_product_density(0.7, 1.3, replicas, bins=15, seed=14)
        x = RngStream(14, 0).normal(0.7, replicas)
        y = RngStream(14, 1).normal(1.3, replicas)
        whole, _ = np.histogram(x * y, bins=report.edges)
        assert np.array_equal(report.counts, np.delete(whole, 15).astype(np.float64))

    def test_degenerate_bins_rejected(self):
        with pytest.raises(ValueError):
            check_product_density(1.0, 1.0, replicas=100, bins=5, seed=0)


class TestRegularizedLeastSquaresOracle:
    def test_kappa_zero_is_least_squares(self):
        rng = RngStream(14)
        x = rng.normal(1.0, 30 * 3).reshape(30, 3)
        t = rng.normal(1.0, 30)
        data = Dataset(x, t[:, None])
        theta = regularized_least_squares_oracle(data, 0.0).flat
        lstsq, *_ = np.linalg.lstsq(x, t, rcond=None)
        assert np.abs(theta - lstsq).max() <= 1e-10

    def test_hand_instance(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        t = np.array([1.0, 1.0, 2.0])
        data = Dataset(x, t[:, None])
        theta = regularized_least_squares_oracle(data, 0.5).flat
        assert np.allclose(theta, [0.75, 0.75], atol=1e-12)

    def test_shrinkage_toward_zero(self):
        rng = RngStream(15)
        x = rng.normal(1.0, 20 * 3).reshape(20, 3)
        t = rng.normal(1.0, 20)
        data = Dataset(x, t[:, None])
        norms = [np.linalg.norm(regularized_least_squares_oracle(data, k).flat)
                 for k in (0.0, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_singular_system_raises(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        data = Dataset(x, np.ones((2, 1)))
        with pytest.raises(np.linalg.LinAlgError):
            regularized_least_squares_oracle(data, 0.0)


class TestFiniteDifferences:
    def test_quadratic_is_exact(self):
        f = lambda v: float(v @ v)
        grad = finite_difference_gradient(f, np.array([1.0, -2.0, 0.5]), 1e-5)
        assert np.abs(grad - np.array([2.0, -4.0, 1.0])).max() <= 1e-9

    def test_backprop_check_flags_wrong_gradient(self):
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        p = ParameterSet(spec, np.array([1.0, 2.0, 3.0]))
        x = np.array([0.5, -1.0, 2.0])
        assert backprop_grad_check(p, x, np.array([1.0])) <= 1e-8


class TestRandomizedIdentitySuite:
    def test_fifty_setups_pass_both_modes(self):
        setups = random_linear_setups(50, seed=2024)
        checks = _setup_checks(check_post_update_loss, setups, ("iid", "proportional"),
                               20_000, 900, 3.0)
        for (mode, i), check in checks.items():
            assert check.name == f"post_update_loss[{mode}]"
            assert check.seed == 900 + i
            assert abs(check.z) <= 3.0, f"{mode}[{i}]: z = {check.z}"

    def test_equivalence_chain_is_algebraic(self):
        for setup in random_linear_setups(50, seed=2025):
            iid_resid, prop_resid = equivalence_chain_residuals(setup)
            assert iid_resid <= 1e-12
            assert prop_resid <= 1e-12
