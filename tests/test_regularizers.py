import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from privreg.model import Dataset, ModelSpec, ParameterSet, init_params
from privreg.numerics import RngStream
from privreg.optimizers import NoiseSpec, TrainConfig, mechanism_label, train
from privreg.oracle import penalty_grad_error
from privreg.regularizers import RegSpec, add_gradients, add_penalties


def row(*values):
    """A batch of one example."""
    return np.array([values], dtype=float)


def linear_params(values):
    spec = ModelSpec(layer_sizes=(len(values), 1), activation="identity",
                     include_bias=False)
    return ParameterSet(spec, np.asarray(values, dtype=float))


def penalty(reg, p, x):
    """reg's penalty terms alone, one value per row of the batch x, with
    the product term at reg's explicit kappa."""
    return add_penalties(reg, np.zeros(len(x)), p, x, reg.kappa)


def penalty_grad(reg, p, x):
    """The parameter gradients of penalty(reg, p, x), one row per row of x."""
    return add_gradients(reg, np.zeros((len(x), p.flat.size)), p, x, reg.kappa)


class TestL2:
    def test_hand_case(self):
        p = linear_params([3.0, 4.0])
        assert penalty(RegSpec(lam=0.01), p, row(1.0, 1.0))[0] == pytest.approx(0.25)
        assert np.allclose(penalty_grad(RegSpec(lam=0.01), p, row(1.0, 1.0)), [[0.06, 0.08]])

    def test_zero_parameters(self):
        p = linear_params([0.0, 0.0])
        assert penalty(RegSpec(lam=0.3), p, row(1.0, 1.0))[0] == 0.0
        assert np.array_equal(penalty_grad(RegSpec(lam=0.3), p, row(1.0, 1.0)),
                              np.zeros((1, 2)))

    def test_disabled(self):
        assert penalty(RegSpec(lam=0.0), linear_params([5.0, -2.0]), row(1.0, 1.0))[0] == 0.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            RegSpec(lam=-0.1)


class TestInputPenalty:
    P2 = linear_params([0.3, -1.2])

    def test_hand_case(self):
        # eta = 0.1, sigma = 0.2 -> kappa = 4e-4; sum x^2 = 5
        reg = RegSpec(input_kappa=0.01 * 0.04)
        assert penalty(reg, self.P2, row(2.0, 1.0))[0] == pytest.approx(0.002)

    def test_zero_input(self):
        assert penalty(RegSpec(input_kappa=0.5), linear_params(np.ones(4)),
                       np.zeros((1, 4)))[0] == 0.0

    def test_one_value_per_row(self):
        x = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(penalty(RegSpec(input_kappa=0.5), self.P2, x), [2.5, 4.5])

    def test_parameter_gradient_is_exactly_zero(self):
        p = linear_params([1.2, -0.7, 3.0])
        x = np.array([0.5, 2.0, -1.0])
        assert penalty_grad_error(RegSpec(input_kappa=0.3), p, x) == 0.0
        assert np.array_equal(penalty_grad(RegSpec(input_kappa=0.3), p, x[None, :]),
                              np.zeros((1, 3)))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="input_kappa"):
            RegSpec(input_kappa=-1.0)


class TestPdp:
    def test_hand_case(self):
        p = linear_params([1.0, 2.0])
        x = row(3.0, 1.0)
        assert penalty(RegSpec(kappa=0.1), p, x)[0] == pytest.approx(1.3)
        assert np.allclose(penalty_grad(RegSpec(kappa=0.1), p, x), [[1.8, 0.4]])

    def test_all_ones_input_reduces_to_l2(self):
        p = linear_params([0.3, -1.4, 2.2])
        ones = np.ones((1, 3))
        assert penalty(RegSpec(kappa=0.17), p, ones)[0] == penalty(RegSpec(lam=0.17), p, ones)[0]

    def test_zero_parameters(self):
        p = linear_params([0.0, 0.0])
        assert penalty(RegSpec(kappa=0.4), p, row(5.0, -3.0))[0] == 0.0

    def test_zero_coefficient_gradient(self):
        p = linear_params([1.0, 2.0])
        assert np.array_equal(penalty_grad(RegSpec(kappa=0.0), p, row(3.0, 1.0)),
                              np.zeros((1, 2)))

    def test_positive_when_enabled(self):
        p = linear_params([1.0, -2.0])
        assert penalty(RegSpec(kappa=0.1), p, row(3.0, 1.0))[0] > 0

    def test_bias_pairs_with_constant_one(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        p = ParameterSet(spec, np.array([1.0, 2.0, 3.0]))
        x = row(2.0, 0.5)
        # weights pair with x^2, bias with 1: 0.1*(1*4 + 4*0.25 + 9*1)
        assert penalty(RegSpec(kappa=0.1), p, x)[0] == pytest.approx(1.4)
        assert np.allclose(penalty_grad(RegSpec(kappa=0.1), p, x), [[0.8, 0.1, 0.6]])

    @pytest.mark.parametrize("spec", [
        ModelSpec(layer_sizes=(3, 4, 1), activation="tanh"),
        ModelSpec(layer_sizes=(3, 4, 2), activation="relu"),
    ], ids=["tanh-3-4-1", "relu-3-4-2"])
    def test_refused_off_a_linear_unit(self, spec):
        # The identity behind the term holds for one linear output unit only.
        p = init_params(spec, RngStream(3))
        x = RngStream(4).normal(1.0, 6).reshape(2, 3)
        with pytest.raises(ValueError, match="single linear output unit"):
            penalty(RegSpec(kappa=0.1), p, x)
        with pytest.raises(ValueError, match="single linear output unit"):
            penalty_grad(RegSpec(kappa=0.1), p, x)
        data = Dataset(x, np.zeros((2, spec.output_dim)))
        with pytest.raises(ValueError, match="single linear output unit"):
            train(spec, data, TrainConfig(eta=0.05, reg=RegSpec(kappa=0.1)))
        # weight decay and the input-only term stay accepted there
        other = RegSpec(lam=0.1, input_kappa=0.2)
        assert np.isfinite(penalty(other, p, x)).all()
        assert np.array_equal(penalty_grad(other, p, x),
                              np.broadcast_to(0.2 * p.flat, (2, p.flat.size)))

    def test_one_row_per_example(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        p = ParameterSet(spec, RngStream(3).normal(1.0, 3))
        x = RngStream(4).normal(1.0, 10).reshape(5, 2)
        reg = RegSpec(kappa=0.3)
        penalties = penalty(reg, p, x)
        grads = penalty_grad(reg, p, x)
        assert penalties.shape == (5,) and grads.shape == (5, 3)
        for i in range(5):
            assert penalty(reg, p, x[i:i + 1])[0] == penalties[i]
            assert np.array_equal(penalty_grad(reg, p, x[i:i + 1])[0], grads[i])

    @given(st.floats(-3.0, 3.0))
    def test_parameter_scaling_is_quadratic(self, c):
        theta = np.array([0.7, -1.1, 0.4])
        x = row(1.5, 0.3, -2.0)
        base = penalty(RegSpec(kappa=0.2), linear_params(theta), x)[0]
        scaled = penalty(RegSpec(kappa=0.2), linear_params(c * theta), x)[0]
        assert scaled == pytest.approx(c * c * base, rel=1e-12, abs=1e-12)

    @given(st.floats(-3.0, 3.0))
    def test_input_scaling_is_quadratic(self, c):
        p = linear_params([0.7, -1.1, 0.4])
        x = row(1.5, 0.3, -2.0)
        base = penalty(RegSpec(kappa=0.2), p, x)[0]
        assert penalty(RegSpec(kappa=0.2), p, c * x)[0] == pytest.approx(
            c * c * base, rel=1e-12, abs=1e-12)


class TestCombined:
    def test_hand_case(self):
        # the sum mechanism_step adds: 2*(lam + kappa*x_i^2)*theta_i
        p = linear_params([1.0, 2.0])
        x = row(3.0, 1.0)
        out = penalty_grad(RegSpec(lam=0.05, kappa=0.1), p, x)
        assert np.allclose(out, [[1.9, 0.6]])

    def test_terms_are_added_to_the_base_one_by_one(self):
        # weight decay, then the product term, then the input-only term, each
        # added to the running value: the bits the trainer's losses carry
        p = linear_params([0.7, -1.1, 0.4])
        x = RngStream(5).normal(1.0, 6).reshape(2, 3)
        base = RngStream(6).normal(1.0, 2)
        reg = RegSpec(lam=0.03, kappa=0.2, input_kappa=0.4)
        terms = [penalty(RegSpec(lam=0.03), p, x), penalty(RegSpec(kappa=0.2), p, x),
                 penalty(RegSpec(input_kappa=0.4), p, x)]
        assert np.array_equal(add_penalties(reg, base, p, x, 0.2),
                              ((base + terms[0]) + terms[1]) + terms[2])
        grad_base = RngStream(7).normal(1.0, 6).reshape(2, 3)
        grad_terms = [penalty_grad(RegSpec(lam=0.03), p, x),
                      penalty_grad(RegSpec(kappa=0.2), p, x)]
        assert np.array_equal(add_gradients(reg, grad_base, p, x, 0.2),
                              (grad_base + grad_terms[0]) + grad_terms[1])

    def test_the_passed_kappa_weights_the_product_term(self):
        # a derived kappa is the run's eta^2 * sigma^2, passed in by the caller
        p = linear_params([1.0, 2.0])
        x = row(3.0, 1.0)
        reg = RegSpec(kappa_mode="derived")
        kappa = reg.effective_kappa(0.5, 0.2)
        assert np.array_equal(add_penalties(reg, np.zeros(1), p, x, kappa),
                              penalty(RegSpec(kappa=kappa), p, x))
        assert np.array_equal(add_gradients(reg, np.zeros((1, 2)), p, x, kappa),
                              penalty_grad(RegSpec(kappa=kappa), p, x))


# Each row of verify's gradient check as the RegSpec it checks, from the
# draws lam and kappa.
PENALTY_ROWS = {
    "l2": lambda lam, kappa: RegSpec(lam=lam),
    "pdp": lambda lam, kappa: RegSpec(kappa=kappa),
    "combined": lambda lam, kappa: RegSpec(lam=lam, kappa=kappa),
    "dp_input": lambda lam, kappa: RegSpec(input_kappa=kappa),
}


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind,bound", [
        ("l2", 1e-8), ("pdp", 1e-8), ("combined", 1e-8), ("dp_input", 1e-10),
    ])
    def test_random_instances(self, kind, bound):
        rng = RngStream(23)
        for trial in range(25):
            d = 2 + int(rng.uniform(1)[0] * 5)
            p = linear_params(rng.normal(1.0, d))
            x = rng.normal(1.0, d)
            lam = float(rng.uniform(1)[0] * 0.3)
            kappa = float(rng.uniform(1)[0] * 0.3)
            assert penalty_grad_error(PENALTY_ROWS[kind](lam, kappa), p, x) <= bound


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
            p = linear_params(rng.normal(1.0, 3))
            x = rng.normal(1.0, 3)[None, :]
            assert penalty(RegSpec(lam=0.2), p, x)[0] >= 0
            assert penalty(RegSpec(kappa=0.2), p, x)[0] >= 0
            assert penalty(RegSpec(input_kappa=0.2), p, x)[0] >= 0
