import copy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from privreg.model import (Dataset, ModelSpec, ParameterSet, _ExamplePass, backward, forward,
                           init_params, linear_unit_features, quadratic_loss)
from privreg.numerics import RngStream
from privreg.optimizers import TrainConfig, train
from privreg.oracle import backprop_grad_error

LINEAR2 = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=False)


def params(values, spec=LINEAR2):
    return ParameterSet(spec, np.asarray(values, dtype=float))


def row(*values):
    """A batch of one example."""
    return np.array([values], dtype=float)


class TestForward:
    def test_linear_hand_case(self):
        assert forward(params([0.5, -1.0]), row(2.0, 1.0))[-1][0, 0] == 0.0

    def test_zero_parameters(self):
        assert forward(params([0.0, 0.0]), row(3.0, -7.0))[-1][0, 0] == 0.0

    def test_basis_vector_extracts_coordinate(self):
        theta = np.array([0.3, -2.0, 1.7])
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        assert np.array_equal(forward(params(theta, spec), np.eye(3))[-1][:, 0], theta)

    def test_repeated_calls_identical(self):
        spec = ModelSpec(layer_sizes=(3, 4, 1), activation="tanh")
        p = init_params(spec, RngStream(3))
        x = row(0.1, -0.2, 0.5)
        assert np.array_equal(forward(p, x)[-1], forward(p, x)[-1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(params([1.0, 2.0]), row(1.0, 2.0, 3.0))

    def test_input_must_be_a_nonempty_batch(self):
        with pytest.raises(ValueError):
            forward(params([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            forward(params([1.0, 2.0]), np.empty((0, 2)))

    def test_train_init_equal_spec_accepted_other_spec_rejected(self):
        spec = ModelSpec(layer_sizes=(3, 4, 1), activation="tanh")
        p = init_params(spec, RngStream(4))
        twin = ModelSpec(layer_sizes=(3, 4, 1), activation="tanh")
        assert twin is not spec
        data = Dataset(RngStream(5).normal(1.0, 12).reshape(4, 3), np.ones((4, 1)))
        config = TrainConfig(eta=0.1, batch_size=2, epochs=1, seed=6)
        got = train(twin, data, config, init=p).final_params.flat
        assert np.array_equal(got, train(spec, data, config, init=p).final_params.flat)
        with pytest.raises(ValueError, match="init"):
            train(ModelSpec(layer_sizes=(3, 4, 1), activation="relu"), data, config, init=p)


class TestLinearUnit:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_activation_is_never_applied_on_one_layer(self, activation, bias):
        identity = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=bias)
        other = ModelSpec(layer_sizes=(3, 1), activation=activation, include_bias=bias)
        theta = init_params(identity, RngStream(6)).flat * 40.0  # outputs far past tanh's knee
        x = RngStream(7).normal(3.0, 5 * 3).reshape(5, 3)
        got = forward(ParameterSet(other, theta), x)[-1]
        assert np.array_equal(got, forward(ParameterSet(identity, theta), x)[-1])
        assert np.abs(got).max() > 2.0 and got.min() < 0.0
        assert other.is_linear_unit
        assert np.array_equal(linear_unit_features(other, x), linear_unit_features(identity, x))

    @pytest.mark.parametrize("sizes", [(3, 4, 1), (3, 2)])
    def test_hidden_layer_or_two_outputs_is_not_one(self, sizes):
        spec = ModelSpec(layer_sizes=sizes)
        assert not spec.is_linear_unit
        with pytest.raises(ValueError, match="single linear output unit"):
            linear_unit_features(spec, np.ones((1, 3)))


class TestQuadraticLoss:
    def test_hand_values(self):
        assert quadratic_loss(np.array([0.0]), np.array([1.0])) == 1.0
        assert quadratic_loss(np.array([3.0]), np.array([1.0])) == 4.0

    def test_perfect_fit(self):
        assert quadratic_loss(np.array([2.0, -1.0]), np.array([2.0, -1.0])) == 0.0

    def test_one_loss_per_row(self):
        y = np.array([[0.0, 1.0], [3.0, 1.0]])
        t = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(quadratic_loss(y, t), [1.0, 5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_loss(np.array([1.0]), np.array([1.0, 2.0]))


class TestBackward:
    def test_linear_hand_case(self):
        p = params([0.5, -1.0])
        x = row(2.0, 1.0)
        g = backward(p, x, row(1.0))
        assert np.array_equal(g, np.array([[-4.0, -2.0]]))

    def test_zero_gradient_at_minimum(self):
        p = params([0.5, -1.0])
        x = row(2.0, 1.0)
        g = backward(p, x, forward(p, x)[-1])
        assert np.array_equal(g, np.zeros((1, 2)))

    def test_bias_gradient_is_twice_residual(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        p = params([0.5, -1.0, 0.1], spec)
        x = row(2.0, 1.0)
        g = backward(p, x, row(1.0))
        assert np.allclose(g, [[-3.6, -1.8, -1.8]])

    @pytest.mark.parametrize("layer_sizes,activation,bias", [
        ((3, 1), "identity", False),
        ((4, 8, 1), "tanh", True),
        ((5, 16, 7, 1), "tanh", True),
        ((3, 6, 2), "tanh", False),
        ((4, 9, 1), "identity", True),
        ((4, 8, 1), "relu", True),
    ])
    def test_matches_finite_differences(self, layer_sizes, activation, bias):
        spec = ModelSpec(layer_sizes=layer_sizes, activation=activation,
                         include_bias=bias)
        p = init_params(spec, RngStream(41, sum(layer_sizes)))
        rng = RngStream(42, sum(layer_sizes))
        x = rng.normal(1.0, spec.input_dim)
        t = rng.normal(1.0, spec.output_dim)
        assert backprop_grad_error(p, x, t) <= 1e-6

    def test_relu_hand_case(self):
        # one hidden relu unit: y = w2 * relu(w1 * x); active for w1*x > 0
        spec = ModelSpec(layer_sizes=(1, 1, 1), activation="relu", include_bias=False)
        p = params([2.0, 3.0], spec)
        x = row(1.5)
        assert forward(p, x)[-1][0, 0] == 9.0
        g = backward(p, x, row(0.0))
        # dL/dw2 = 2y * relu(w1 x) = 54; dL/dw1 = 2y * w2 * x = 81
        assert np.allclose(g, [[81.0, 54.0]])

    def test_forward_returns_the_batch_then_each_layer_output(self):
        spec = ModelSpec(layer_sizes=(2, 3, 1), activation="tanh")
        p = init_params(spec, RngStream(0))
        x = row(2.0, 1.0)
        batch, hidden, output = forward(p, x)
        assert np.array_equal(batch, x)
        assert np.array_equal(hidden, np.tanh(p.weights(0) @ x[0] + p.bias(0))[None, :])
        assert output.shape == (1, 1)
        assert backward(p, x, row(1.0)).shape == (1, spec.n_params)
        with pytest.raises(ValueError, match="target shape"):
            backward(p, x, row(1.0, 2.0))

    def test_target_shape_must_match_output(self):
        p = params([0.5, -1.0])
        with pytest.raises(ValueError):
            backward(p, np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, 2.0]))


class TestPerExampleGradients:
    def test_singleton_batch_equals_backward(self):
        p = params([0.5, -1.0])
        [g] = backward(p, row(2.0, 1.0), row(1.0))
        # 2 * (y - t) * x with y = 0
        assert np.array_equal(g, np.array([-4.0, -2.0]))
        x = np.array([[2.0, 1.0], [0.5, 3.0]])
        pair = backward(p, x, np.array([[1.0], [2.0]]))
        assert np.array_equal(pair[0], g)

    def test_identical_examples_identical_gradients(self):
        p = params([0.5, -1.0])
        x = np.array([[2.0, 1.0], [2.0, 1.0]])
        g1, g2 = backward(p, x, np.ones((2, 1)))
        assert np.array_equal(g1, g2)

    def test_mean_equals_batch_gradient_of_mean_loss(self):
        # linear model: batch-matrix route gives (2/N) X^T (X theta - t)
        rng = RngStream(19)
        n, d = 12, 4
        x = rng.normal(1.0, n * d).reshape(n, d)
        t = rng.normal(1.0, n)
        theta = rng.normal(1.0, d)
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=False)
        p = ParameterSet(spec, theta)
        grads = backward(p, x, t[:, None])
        assert grads.shape == (n, d)
        mean_grad = grads.mean(axis=0)
        matrix_grad = (2.0 / n) * x.T @ (x @ theta - t)
        assert np.abs(mean_grad - matrix_grad).max() <= 1e-12

    def test_rows_match_single_row_passes_bit_for_bit(self):
        spec = ModelSpec(layer_sizes=(3, 4, 2), activation="relu")
        p = init_params(spec, RngStream(6))
        rng = RngStream(7)
        x = rng.normal(1.0, 11 * 3).reshape(11, 3)
        t = rng.normal(1.0, 11 * 2).reshape(11, 2)
        grads = backward(p, x, t)
        for i in range(11):
            [single] = backward(p, x[i:i + 1], t[i:i + 1])
            assert np.array_equal(grads[i], single)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            backward(params([1.0, 2.0]), np.empty((0, 2)), np.empty((0, 1)))

    # The one-example pass a batch-1 step runs: two outputs, two hidden
    # layers, hidden layers without a bias (their deltas get buffers of
    # their own), an identity hidden layer, and a linear unit; one pass
    # steps many examples into the same buffer.
    @pytest.mark.parametrize("spec", [
        ModelSpec(layer_sizes=(3, 4, 2), activation="relu"),
        ModelSpec(layer_sizes=(4, 6, 5, 1), activation="tanh"),
        ModelSpec(layer_sizes=(3, 5, 4, 2), activation="relu", include_bias=False),
        ModelSpec(layer_sizes=(5, 8, 1), activation="tanh", include_bias=False),
        ModelSpec(layer_sizes=(3, 4, 1), activation="identity"),
        ModelSpec(layer_sizes=(4, 2), include_bias=False),
        ModelSpec(layer_sizes=(5, 1)),
    ], ids=["relu-2out", "tanh-2hidden", "relu-nobias", "tanh-nobias", "identity-hidden",
            "linear-2out", "linear-bias"])
    def test_one_example_pass_matches_backward_bit_for_bit(self, spec):
        p = init_params(spec, RngStream(spec.n_params, 3))
        before = p.flat.copy()
        rng = RngStream(spec.n_params, 4)
        x = rng.normal(2.0, 11 * spec.input_dim).reshape(11, -1)
        t = rng.normal(1.0, 11 * spec.output_dim).reshape(11, -1)
        grads = backward(p, x, t)
        grad = np.empty(spec.n_params)
        pass_ = _ExamplePass(p, grad)
        for i in range(11):
            pass_(x[i], t[i].tolist())
            assert grad.tobytes() == grads[i].tobytes()
        assert p.flat.tobytes() == before.tobytes()


class TestStackedProductsMatchPerRowProducts:
    """The batched core relies on two facts of the installed numpy/BLAS:
    a stacked product (W @ a[:, :, None])[..., 0] runs, per row, the same
    gemv as W @ a on that row alone (also for W.T), and np.vecdot sums a
    row as np.dot does.  Training output is byte-identical across batch
    sizes only while both hold."""

    # (fan_in, fan_out) of every layer the package's configs, benchmark and
    # tests build, plus a few wider ones.
    SHAPES = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 4), (4, 2), (4, 6),
              (6, 1), (5, 16), (16, 1), (16, 7), (7, 1), (4, 8), (8, 1),
              (3, 6), (6, 2), (4, 9), (9, 1), (16, 16), (33, 5)]

    @pytest.mark.parametrize("fan_in,fan_out", SHAPES)
    def test_stacked_matvec_equals_per_row_gemv(self, fan_in, fan_out):
        rng = RngStream(fan_in, fan_out)
        w = rng.normal(1.0, fan_out * fan_in).reshape(fan_out, fan_in)
        for batch in (1, 2, 7, 25, 29):
            a = rng.normal(1.0, batch * fan_in).reshape(batch, fan_in)
            d = rng.normal(1.0, batch * fan_out).reshape(batch, fan_out)
            stacked = (w @ a[:, :, None])[..., 0]
            back = (w.T @ d[:, :, None])[..., 0]
            for i in range(batch):
                # the one-example pass writes each gemv through np.dot's out=
                assert np.array_equal(np.dot(w, a[i], out=np.empty(fan_out)), w @ a[i])
                assert np.array_equal(np.dot(w.T, d[i], out=np.empty(fan_in)), w.T @ d[i])
                assert np.array_equal(stacked[i], w @ a[i]), (
                    f"stacked W @ a differs from per-row gemv for W {w.shape}, "
                    f"batch {batch}: this numpy/BLAS build breaks the batched "
                    f"core's bit-identity with per-example arithmetic")
                assert np.array_equal(back[i], w.T @ d[i]), (
                    f"stacked W.T @ d differs from per-row gemv for W {w.shape}, "
                    f"batch {batch}: this numpy/BLAS build breaks the batched "
                    f"core's bit-identity with per-example arithmetic")

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 6, 17, 21, 33, 97, 113])
    def test_vecdot_equals_dot(self, size):
        rng = RngStream(size, 1)
        a = rng.normal(1.0, 9 * size).reshape(9, size)
        b = rng.normal(1.0, 9 * size).reshape(9, size)
        rows = np.vecdot(a, b)
        shared = np.vecdot(b[0], a)
        for i in range(9):
            assert rows[i] == np.dot(a[i], b[i]), (
                f"np.vecdot differs from np.dot on rows of {size}: this numpy/BLAS "
                f"build breaks the batched core's bit-identity")
            assert shared[i] == np.dot(b[0], a[i]), (
                f"np.vecdot with a broadcast operand differs from np.dot on rows of "
                f"{size}: this numpy/BLAS build breaks the batched core's bit-identity")


class TestStructures:
    def test_parameter_count_validation(self):
        with pytest.raises(ValueError):
            ParameterSet(LINEAR2, np.ones(3))

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParameterSet(LINEAR2, np.array([1.0, np.nan]))

    def test_layer_views(self):
        spec = ModelSpec(layer_sizes=(2, 3, 1), activation="tanh", include_bias=True)
        p = init_params(spec, RngStream(1))
        assert p.weights(0).shape == (3, 2)
        assert p.bias(0).shape == (3,)
        assert p.weights(1).shape == (1, 3)
        assert p.flat.size == 2 * 3 + 3 + 3 * 1 + 1

    def test_layer_views_share_flat_and_follow_writes(self):
        spec = ModelSpec(layer_sizes=(3, 4, 1), activation="tanh", include_bias=True)
        p = init_params(spec, RngStream(2))
        with pytest.raises(FrozenInstanceError):
            p.flat = p.flat.copy()
        for layer, ls in enumerate(spec.layout):
            assert np.shares_memory(p.weights(layer), p.flat)
            assert np.shares_memory(p.bias(layer), p.flat)
            assert np.array_equal(p.weights(layer).ravel(), p.flat[ls.weights])
        x = RngStream(3).normal(1.0, 15).reshape(5, 3)
        t = RngStream(4).normal(1.0, 5).reshape(5, 1)
        before = forward(p, x)[-1]
        p.flat[:] *= -1.5
        fresh = ParameterSet(spec, p.flat.copy())
        assert not np.array_equal(forward(p, x)[-1], before)
        for got, want in zip(forward(p, x), forward(fresh, x)):
            assert np.array_equal(got, want)
        assert np.array_equal(backward(p, x, t), backward(fresh, x, t))
        twin = copy.deepcopy(p)
        assert not np.shares_memory(twin.flat, p.flat)
        twin.flat[:] = 0.0
        assert not twin.weights(1).any() and p.weights(1).any()

    def test_init_bounds_and_determinism(self):
        spec = ModelSpec(layer_sizes=(9, 4, 1), activation="tanh", include_bias=True)
        a = init_params(spec, RngStream(8))
        b = init_params(spec, RngStream(8))
        assert np.array_equal(a.flat, b.flat)
        assert np.abs(a.weights(0)).max() <= 1.0 / np.sqrt(9)
        assert np.abs(a.weights(1)).max() <= 1.0 / np.sqrt(4)
        assert np.abs(a.flat).max() > 0

    def test_dataset_dimension_check(self):
        data = Dataset(np.ones((4, 3)), np.zeros((4, 1)))
        assert data.dim == 3 and len(data) == 4
        with pytest.raises(ValueError):
            Dataset(np.ones((4, 3)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Dataset(np.ones(3), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            Dataset(np.ones((4, 3)), np.zeros(4))

    @pytest.mark.parametrize("sizes,bias,expected", [((2, 3, 1), True, 13), ((4, 1), False, 4),
                                                     ((5, 16, 1), True, 113)])
    def test_layout_is_worked_out_once(self, sizes, bias, expected):
        spec = ModelSpec(layer_sizes=sizes, activation="tanh", include_bias=bias)
        assert spec.n_params == expected
        assert spec.layout is spec.layout and len(spec.layout) == len(sizes) - 1
        last = spec.layout[-1]
        assert (last.bias or last.weights).stop == expected
        twin = ModelSpec(layer_sizes=list(sizes), activation="tanh", include_bias=bias)
        assert twin == spec and hash(twin) == hash(spec)
        assert "layout" not in repr(spec)
        other = replace(spec, include_bias=not bias)
        assert other != spec
        assert other.n_params == expected + (-1 if bias else 1) * sum(sizes[1:])

    def test_model_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(layer_sizes=(3,))
        with pytest.raises(ValueError):
            ModelSpec(layer_sizes=(3, 0))
        with pytest.raises(ValueError):
            ModelSpec(layer_sizes=(2.7, 1))
        with pytest.raises(ValueError):
            ModelSpec(layer_sizes=(True, 1))
        with pytest.raises(ValueError):
            ModelSpec(layer_sizes=(3, 1), activation="gelu")
