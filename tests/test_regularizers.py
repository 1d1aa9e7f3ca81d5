import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from privreg.model import Dataset, ModelSpec, ParameterSet, init_params
from privreg.numerics import RngStream
from privreg.optimizers import NoiseSpec, TrainConfig, mechanism_label, train
from privreg.oracle import grad_check
from privreg.regularizers import (RegSpec, dp_input_penalty, l2_grad, l2_penalty,
                                  pdp_grad, pdp_penalty)


def row(*values):
    """A batch of one example."""
    return np.array([values], dtype=float)


def linear_params(values):
    spec = ModelSpec(layer_sizes=(len(values), 1), activation="identity",
                     include_bias=False)
    return ParameterSet(spec, np.asarray(values, dtype=float))


class TestL2:
    def test_hand_case(self):
        p = linear_params([3.0, 4.0])
        assert l2_penalty(p, 0.01) == pytest.approx(0.25)
        assert np.allclose(l2_grad(p, 0.01), [0.06, 0.08])

    def test_zero_parameters(self):
        p = linear_params([0.0, 0.0])
        assert l2_penalty(p, 0.3) == 0.0
        assert np.array_equal(l2_grad(p, 0.3), np.zeros(2))

    def test_disabled(self):
        assert l2_penalty(linear_params([5.0, -2.0]), 0.0) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            l2_penalty(linear_params([1.0]), -0.1)
        with pytest.raises(ValueError):
            l2_grad(linear_params([1.0]), -0.1)


class TestInputPenalty:
    def test_hand_case(self):
        # eta = 0.1, sigma = 0.2 -> kappa = 4e-4; sum x^2 = 5
        assert dp_input_penalty(np.array([2.0, 1.0]), 0.01 * 0.04) == pytest.approx(0.002)

    def test_zero_input(self):
        assert dp_input_penalty(np.zeros(4), 0.5) == 0.0

    def test_one_value_per_row(self):
        x = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(dp_input_penalty(x, 0.5), [2.5, 4.5])

    def test_parameter_gradient_is_exactly_zero(self):
        p = linear_params([1.2, -0.7, 3.0])
        x = np.array([0.5, 2.0, -1.0])
        assert grad_check("dp_input", p, x, kappa=0.3) == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            dp_input_penalty(np.ones(2), -1.0)


class TestPdp:
    def test_hand_case(self):
        p = linear_params([1.0, 2.0])
        x = row(3.0, 1.0)
        assert pdp_penalty(p, x, 0.1)[0] == pytest.approx(1.3)
        assert np.allclose(pdp_grad(p, x, 0.1), [[1.8, 0.4]])

    def test_all_ones_input_reduces_to_l2(self):
        p = linear_params([0.3, -1.4, 2.2])
        assert pdp_penalty(p, np.ones((1, 3)), 0.17)[0] == l2_penalty(p, 0.17)

    def test_zero_parameters(self):
        p = linear_params([0.0, 0.0])
        assert pdp_penalty(p, row(5.0, -3.0), 0.4)[0] == 0.0

    def test_zero_coefficient_gradient(self):
        p = linear_params([1.0, 2.0])
        assert np.array_equal(pdp_grad(p, row(3.0, 1.0), 0.0), np.zeros((1, 2)))

    def test_positive_when_enabled(self):
        p = linear_params([1.0, -2.0])
        assert pdp_penalty(p, row(3.0, 1.0), 0.1)[0] > 0

    def test_bias_pairs_with_constant_one(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        p = ParameterSet(spec, np.array([1.0, 2.0, 3.0]))
        x = row(2.0, 0.5)
        # weights pair with x^2, bias with 1: 0.1*(1*4 + 4*0.25 + 9*1)
        assert pdp_penalty(p, x, 0.1)[0] == pytest.approx(1.4)
        assert np.allclose(pdp_grad(p, x, 0.1), [[0.8, 0.1, 0.6]])

    @pytest.mark.parametrize("spec", [
        ModelSpec(layer_sizes=(3, 4, 1), activation="tanh"),
        ModelSpec(layer_sizes=(3, 4, 2), activation="relu"),
    ], ids=["tanh-3-4-1", "relu-3-4-2"])
    def test_refused_off_a_linear_unit(self, spec):
        # The identity behind the term holds for one linear output unit only.
        p = init_params(spec, RngStream(3))
        x = RngStream(4).normal(0.0, 1.0, 6).reshape(2, 3)
        with pytest.raises(ValueError, match="single linear output unit"):
            pdp_penalty(p, x, 0.1)
        with pytest.raises(ValueError, match="single linear output unit"):
            pdp_grad(p, x, 0.1)
        data = Dataset(x, np.zeros((2, spec.output_dim)))
        with pytest.raises(ValueError, match="single linear output unit"):
            train(spec, data, TrainConfig(eta=0.05, reg=RegSpec(kappa=0.1)))

    def test_one_row_per_example(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        p = ParameterSet(spec, RngStream(3).normal(0.0, 1.0, 3))
        x = RngStream(4).normal(0.0, 1.0, 10).reshape(5, 2)
        penalties = pdp_penalty(p, x, 0.3)
        grads = pdp_grad(p, x, 0.3)
        assert penalties.shape == (5,) and grads.shape == (5, 3)
        for i in range(5):
            assert pdp_penalty(p, x[i:i + 1], 0.3)[0] == penalties[i]
            assert np.array_equal(pdp_grad(p, x[i:i + 1], 0.3)[0], grads[i])

    @given(st.floats(-3.0, 3.0))
    def test_parameter_scaling_is_quadratic(self, c):
        theta = np.array([0.7, -1.1, 0.4])
        x = row(1.5, 0.3, -2.0)
        base = pdp_penalty(linear_params(theta), x, 0.2)[0]
        scaled = pdp_penalty(linear_params(c * theta), x, 0.2)[0]
        assert scaled == pytest.approx(c * c * base, rel=1e-12, abs=1e-12)

    @given(st.floats(-3.0, 3.0))
    def test_input_scaling_is_quadratic(self, c):
        p = linear_params([0.7, -1.1, 0.4])
        x = row(1.5, 0.3, -2.0)
        base = pdp_penalty(p, x, 0.2)[0]
        assert pdp_penalty(p, c * x, 0.2)[0] == pytest.approx(c * c * base,
                                                              rel=1e-12, abs=1e-12)


class TestCombined:
    def test_hand_case(self):
        # the sum mechanism_step adds: 2*(lam + kappa*x_i^2)*theta_i
        p = linear_params([1.0, 2.0])
        x = row(3.0, 1.0)
        out = l2_grad(p, 0.05) + pdp_grad(p, x, 0.1)
        assert np.allclose(out, [[1.9, 0.6]])


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind,bound", [
        ("l2", 1e-8), ("pdp", 1e-8), ("combined", 1e-8), ("dp_input", 1e-10),
    ])
    def test_random_instances(self, kind, bound):
        rng = RngStream(23)
        for trial in range(25):
            d = 2 + int(rng.uniform(1)[0] * 5)
            p = linear_params(rng.normal(0.0, 1.0, d))
            x = rng.normal(0.0, 1.0, d)
            lam = float(rng.uniform(1)[0] * 0.3)
            kappa = float(rng.uniform(1)[0] * 0.3)
            assert grad_check(kind, p, x, lam, kappa) <= bound


class TestRegSpec:
    def test_defaults_disabled(self):
        assert mechanism_label(NoiseSpec(), RegSpec()) == "noise=none:sigma=0|l2=0|pdp=0"

    def test_validation(self):
        with pytest.raises(ValueError):
            RegSpec(lam=-0.1)
        with pytest.raises(ValueError):
            RegSpec(kappa_mode="implicit")

    def test_penalties_nonnegative(self):
        rng = RngStream(31)
        for _ in range(20):
            p = linear_params(rng.normal(0.0, 1.0, 3))
            x = rng.normal(0.0, 1.0, 3)
            assert l2_penalty(p, 0.2) >= 0
            assert pdp_penalty(p, x[None, :], 0.2)[0] >= 0
            assert dp_input_penalty(x, 0.2) >= 0
