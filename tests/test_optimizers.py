import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from privreg import optimizers
from privreg.experiments import generate_dataset
from privreg.model import Dataset, ModelSpec, ParameterSet, backward, forward, init_params
from privreg.numerics import TRAIN_INIT, TRAIN_NOISE, TRAIN_SHUFFLE, RngStream
from privreg.optimizers import (NOISE_BLOCK, NoiseSpec, TrainConfig, TrainingDivergedError,
                                _noise_rows, block_stepper, clip_gradient, dataset_loss,
                                initial_params_for, mechanism_step, train)
from privreg.oracle import grad_check
from privreg.regularizers import KAPPA_MODES, RegSpec, add_penalties
from reference_solvers import regularized_least_squares_oracle

LINEAR2 = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=False)
LINEAR3 = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
TANH3 = ModelSpec(layer_sizes=(3, 5, 1), activation="tanh", include_bias=True)
IID_CLIP = NoiseSpec(mode="iid", sigma=0.5, clip_c=1.0)


class TestClipGradient:
    def test_rescales_long_gradient(self):
        assert np.allclose(clip_gradient(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])

    def test_leaves_short_gradient_alone(self):
        g = np.array([3.0, 4.0])
        assert np.array_equal(clip_gradient(g, 10.0), g)

    def test_zero_gradient(self):
        assert np.array_equal(clip_gradient(np.zeros(3), 1.0), np.zeros(3))

    def test_clips_each_row_by_its_own_norm(self):
        g = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
        assert np.allclose(clip_gradient(g, 2.5), [[1.5, 2.0], [0.3, 0.4], [0.0, 0.0]])

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            clip_gradient(np.ones(2), 0.0)

    # A one-example step clips in place, dividing by |g| / c only when that
    # is not <= 1: the bits of clip_gradient below, exactly at and above
    # the threshold.
    @pytest.mark.parametrize("scale", [2.0, 1.0, 0.75, 1e-3])
    @pytest.mark.parametrize("spec", [LINEAR3, TANH3], ids=["linear", "tanh"])
    def test_one_example_step_clips_as_clip_gradient(self, spec, scale):
        params = init_params(spec, RngStream(31))
        rng = RngStream(32)
        for _ in range(20):
            x, t = rng.normal(1.0, 3).reshape(1, 3), rng.normal(3.0, 1).reshape(1, 1)
            [g] = backward(params, x, t)
            c = math.sqrt(np.dot(g, g)) * scale  # scale 1: |g| / c is 1 exactly
            step = mechanism_step(params, x, t, 0.1, replace(IID_CLIP, clip_c=c), RegSpec())
            assert step.clean.tobytes() == clip_gradient(g, c).tobytes()

    def test_one_example_step_keeps_a_nan_gradient(self):
        # inf * 0 in the gradient of an infinite input: the norm is NaN,
        # which clip_gradient passes on to every coordinate
        x, t = np.array([[math.inf, 0.0, 1.0]]), np.array([[0.5]])
        params = ParameterSet(LINEAR3, np.array([0.3, -0.2, 0.1]))
        with np.errstate(invalid="ignore"):
            want = clip_gradient(backward(params, x, t)[0], 1.0)
            step = mechanism_step(params, x, t, 0.1, IID_CLIP, RegSpec())
        assert np.isnan(want).all() and step.clean.tobytes() == want.tobytes()

    @given(arrays(np.float64, 4, elements=st.floats(-100, 100)),
           st.floats(0.01, 50))
    def test_norm_bound_and_direction(self, g, c):
        clipped = clip_gradient(g, c)
        assert np.linalg.norm(clipped) <= c + 1e-12
        norm = np.linalg.norm(g)
        if norm > 0:
            scale = max(1.0, norm / c)
            assert np.allclose(clipped * scale, g)


# x = (2, 1): the parameters below give exact outputs, and a target equal to
# the model's own output makes the loss gradient exactly zero, so the step
# is the noise alone.
X_ROW = np.array([[2.0, 1.0]])


def noise_step(theta, noise, z, eta=0.1):
    """mechanism_step at zero loss gradient: the noisy gradient is the noise."""
    p = ParameterSet(LINEAR2, np.asarray(theta, dtype=np.float64))
    target = forward(p, X_ROW)[-1]
    return mechanism_step(p, X_ROW, target, eta, noise, RegSpec(), z)


class TestNoise:
    def test_iid_zero_sigma_is_identity(self):
        noise = NoiseSpec(mode="iid", sigma=0.0)
        assert not noise.adds_noise
        p = ParameterSet(LINEAR2, np.array([0.5, -1.0]))
        step = mechanism_step(p, X_ROW, np.array([[1.0]]), 0.1, noise, RegSpec())
        assert np.array_equal(step.noisy, step.clean)
        assert np.array_equal(step.clean, [-4.0, -2.0])

    def test_iid_statistics(self):
        sigma, replicas = 0.3, 10 ** 5
        noise = NoiseSpec(mode="iid", sigma=sigma)
        deltas = noise_step([0.5, -1.0], noise,
                            RngStream(55).normal(1.0, replicas * 2).reshape(replicas, 2).T).noisy
        assert deltas.shape == (2, replicas)
        assert np.abs(deltas.mean(axis=1)).max() <= 3 * sigma / math.sqrt(replicas)
        var = deltas.var(axis=1, ddof=1)
        assert np.abs(var - sigma ** 2).max() <= 0.05 * sigma ** 2

    def test_proportional_zero_parameter_coordinate_gets_no_noise(self):
        p = ParameterSet(LINEAR2, np.array([0.0, 2.0]))
        noise = NoiseSpec(mode="proportional", sigma=0.8)
        step = mechanism_step(p, X_ROW, np.array([[1.0]]), 0.1, noise, RegSpec(),
                              RngStream(2).normal(1.0, 2))
        assert step.noisy[0] == step.clean[0]
        assert step.noisy[1] != step.clean[1]

    def test_proportional_statistics(self):
        sigma, replicas = 0.5, 10 ** 5
        noise = NoiseSpec(mode="proportional", sigma=sigma)
        deltas = noise_step([1.0, 2.0], noise,
                            RngStream(56).normal(1.0, replicas * 2).reshape(replicas, 2).T).noisy
        assert deltas.shape == (2, replicas)
        stds = deltas.std(axis=1, ddof=1)
        assert np.abs(stds - np.array([0.5, 1.0])).max() <= 0.05 * 1.0
        assert abs(stds[0] - 0.5) <= 0.05 * 0.5

    def test_proportional_zero_sigma_is_identity(self):
        noise = NoiseSpec(mode="proportional", sigma=0.0)
        assert not noise.adds_noise
        step = noise_step([1.0, 2.0], noise, None)
        assert np.array_equal(step.noisy, step.clean)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            noise_step([1.0, 2.0], NoiseSpec(mode="proportional", sigma=0.1), np.ones((4, 3)))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(mode="iid", sigma=-0.1)

    def test_noise_rows_rejected_without_noise(self):
        assert not NoiseSpec(mode="none", sigma=0.5).adds_noise
        with pytest.raises(ValueError, match="no noise rows"):
            noise_step([1.0, 2.0], NoiseSpec(mode="none", sigma=0.5), np.ones((1, 2)))

    def test_rows_drawn_at_once_match_rows_drawn_one_by_one(self):
        at_once = RngStream(57).normal(1.0, 9 * 2).reshape(9, 2)
        one_rng = RngStream(57)
        one_by_one = np.stack([one_rng.normal(1.0, 2) for _ in range(9)])
        assert np.array_equal(at_once, one_by_one)


class TestNoiseBlockLayout:
    """mechanism_step takes z as one (P,) vector or as a (P, R) block of R
    noise columns, the parameter axis first.  A block's column j steps to
    the bits of the (P,) step on that column alone.  Only the first axis
    is checked against P, so a square (P, P) block cannot be told apart
    from its transpose by shape: it is read as (P, R)."""

    @pytest.mark.parametrize("clip_c", [None, 0.5], ids=["no-clip", "clip"])
    @pytest.mark.parametrize("mode", ["iid", "proportional"])
    def test_block_columns_step_as_single_vectors(self, mode, clip_c):
        data = small_dataset(n=5)
        params = init_params(TANH3, RngStream(71))
        noise = NoiseSpec(mode=mode, sigma=0.4, clip_c=clip_c)
        block = RngStream(72).normal(1.0, TANH3.n_params * 7).reshape(TANH3.n_params, 7)
        step = mechanism_step(params, data.x, data.t, 0.1, noise, RegSpec(), block)
        assert step.noisy.shape == step.params.shape == block.shape
        for j in range(block.shape[1]):
            alone = mechanism_step(params, data.x, data.t, 0.1, noise, RegSpec(),
                                   block[:, j].copy())
            assert alone.clean.tobytes() == step.clean.tobytes()
            assert alone.noisy.tobytes() == step.noisy[:, j].tobytes()
            assert alone.params.tobytes() == step.params[:, j].tobytes()

    @pytest.mark.parametrize("mode", ["iid", "proportional"])
    def test_rows_layout_is_rejected(self, mode):
        # R = 7 noise rows of P = 26 as (R, P): the first axis is not P
        params = init_params(TANH3, RngStream(71))
        data = small_dataset(n=5)
        rows = np.ones((7, TANH3.n_params))
        with pytest.raises(ValueError, match=r"noise of shape \(7, 26\) does not match"):
            mechanism_step(params, data.x, data.t, 0.1, NoiseSpec(mode=mode, sigma=0.4),
                           RegSpec(), rows)


class TestBlockStepper:
    """block_stepper(params, x, t, eta, noise, reg) checks once and returns
    step(z): for a (P, R) noise block, the parameters of mechanism_step on
    that block, column j being the (P,) step on column j alone, to the bit."""

    SPECS = {"linear": LINEAR3, "linear-bias": ModelSpec(layer_sizes=(3, 1)), "tanh": TANH3}

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("clip", [False, True], ids=["no-clip", "clip"])
    @pytest.mark.parametrize("model", SPECS)
    @pytest.mark.parametrize("mode", ["iid", "proportional"])
    def test_columns_step_as_single_vectors(self, mode, model, clip, batch):
        spec = self.SPECS[model]
        data = small_dataset(n=5)
        x, t = data.x[:batch], data.t[:batch]
        params = init_params(spec, RngStream(73))
        # a clip at half the shortest example gradient clips every example
        norms = np.linalg.norm(backward(params, x, t), axis=1)
        noise = NoiseSpec(mode=mode, sigma=0.4, clip_c=0.5 * norms.min() if clip else None)
        step = block_stepper(params, x, t, 0.1, noise, RegSpec())
        blocks = [RngStream(74, r).normal(1.0, spec.n_params * r).reshape(spec.n_params, r)
                  for r in (1, 7)]
        for block in blocks:
            stepped = step(block)
            assert stepped.shape == block.shape and stepped.flags.c_contiguous
            assert not np.shares_memory(stepped, block)
            assert stepped.tobytes() == mechanism_step(params, x, t, 0.1, noise,
                                                       RegSpec(), block).params.tobytes()
            for j in range(block.shape[1]):
                alone = mechanism_step(params, x, t, 0.1, noise, RegSpec(),
                                       block[:, j].copy())
                assert alone.params.tobytes() == stepped[:, j].tobytes()
        # a step writes nothing that the next one reads
        assert step(blocks[1]).tobytes() == stepped.tobytes()

    def test_keeps_its_own_theta(self):
        params = init_params(LINEAR3, RngStream(73))
        data = small_dataset(n=2)
        noise = NoiseSpec(mode="proportional", sigma=0.4)
        block = RngStream(74).normal(1.0, 3 * 4).reshape(3, 4)
        step = block_stepper(params, data.x, data.t, 0.1, noise, RegSpec())
        before = step(block)
        expected = mechanism_step(params, data.x, data.t, 0.1, noise, RegSpec(), block).params
        params.flat[:] += 1.0
        assert before.tobytes() == step(block).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("eta", [0.0, -0.1])
    def test_nonpositive_eta_rejected(self, eta):
        data = small_dataset(n=2)
        with pytest.raises(ValueError, match="eta must be positive"):
            block_stepper(init_params(LINEAR3, RngStream(73)), data.x, data.t, eta,
                          NoiseSpec(mode="iid", sigma=0.4), RegSpec())

    def test_noise_mode_none_rejected(self):
        data = small_dataset(n=2)
        with pytest.raises(ValueError, match="noise mode 'none' takes no noise rows"):
            block_stepper(init_params(LINEAR3, RngStream(73)), data.x, data.t, 0.1,
                          NoiseSpec(mode="none"), RegSpec())

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2,), (3, 2, 2)])
    def test_noise_not_parameters_first_rejected(self, shape):
        # P = 3: (R, P) rows, one (P,) vector, a short vector, three axes
        data = small_dataset(n=2)
        step = block_stepper(init_params(LINEAR3, RngStream(73)), data.x, data.t, 0.1,
                             NoiseSpec(mode="iid", sigma=0.4), RegSpec())
        with pytest.raises(ValueError, match=re.escape(f"noise of shape {shape} does not "
                                                       "match parameters (3,): give (P, R)")):
            step(np.ones(shape))


class TestSgdStep:
    def test_hand_case(self):
        p = ParameterSet(LINEAR2, np.array([0.5, -1.0]))
        step = mechanism_step(p, X_ROW, np.array([[1.0]]), 0.1, NoiseSpec(), RegSpec())
        assert np.array_equal(step.clean, [-4.0, -2.0])
        assert np.allclose(step.params, [0.9, -0.8])

    def test_zero_gradient_is_stationary(self):
        step = noise_step([0.5, -1.0], NoiseSpec(), None)
        assert np.array_equal(step.params, [0.5, -1.0])

    @given(arrays(np.float64, 2, elements=st.floats(-10, 10)))
    def test_opposite_steps_cancel(self, g):
        unit = NoiseSpec(mode="iid", sigma=1.0)
        there = noise_step([0.5, -1.0], unit, g)
        back = noise_step(there.params, unit, -g)
        assert np.array_equal(there.noisy, g)
        assert np.allclose(back.params, [0.5, -1.0], atol=1e-15)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            noise_step([0.0, 0.0], NoiseSpec(), None, eta=0.0)


def small_dataset(seed=9, n=24, d=3, noise=0.0):
    return generate_dataset("noisy_linear", n, d, noise, seed)


class TestTrain:
    def test_same_seed_bit_identical(self):
        data = small_dataset()
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        config = TrainConfig(eta=0.05, batch_size=6, epochs=4, seed=77,
                             noise=NoiseSpec(mode="iid", sigma=0.2),
                             record_gradients=True)
        a = train(spec, data, config)
        b = train(spec, data, config)
        assert a.epoch_losses == b.epoch_losses
        assert np.array_equal(a.final_params.flat, b.final_params.flat)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.noisy, rb.noisy)
            assert np.array_equal(ra.batch_indices, rb.batch_indices)

    def test_noiseless_training_solves_realizable_data(self):
        data = small_dataset(n=40, d=4)
        spec = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=False)
        config = TrainConfig(eta=0.05, batch_size=40, epochs=400, seed=3)
        report = train(spec, data, config)
        assert report.epoch_losses[-1] <= 1e-10
        ols = regularized_least_squares_oracle(data, 0.0)
        assert np.abs(report.final_params.flat - ols.flat).max() <= 1e-8

    def test_pdp_training_matches_normal_equations_hand_instance(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        t = np.array([1.0, 1.0, 2.0])
        data = Dataset(x, t[:, None])
        config = TrainConfig(eta=0.2, batch_size=3, epochs=300, seed=5,
                             reg=RegSpec(kappa=0.5))
        report = train(LINEAR2, data, config)
        assert np.abs(report.final_params.flat - 0.75).max() <= 1e-6
        oracle = regularized_least_squares_oracle(data, 0.5)
        assert np.allclose(oracle.flat, [0.75, 0.75], atol=1e-12)

    def test_pdp_training_matches_normal_equations_random_instance(self):
        data = small_dataset(seed=29, n=30, d=4, noise=0.3)
        spec = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=False)
        kappa = 0.35
        config = TrainConfig(eta=0.02, batch_size=30, epochs=4000, seed=6,
                             reg=RegSpec(kappa=kappa))
        report = train(spec, data, config)
        oracle = regularized_least_squares_oracle(data, kappa)
        assert np.abs(report.final_params.flat - oracle.flat).max() <= 1e-6

    def test_input_penalty_shifts_loss_but_not_trajectory(self):
        data = small_dataset(seed=11, n=30, d=3, noise=0.2)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=True)
        base = TrainConfig(eta=0.05, batch_size=5, epochs=3, seed=13,
                           noise=NoiseSpec(mode="iid", sigma=0.1),
                           record_gradients=True)
        shifted_config = replace(base, reg=RegSpec(input_kappa=0.4))
        plain = train(spec, data, base)
        shifted = train(spec, data, shifted_config)
        assert np.array_equal(plain.final_params.flat, shifted.final_params.flat)
        for ra, rb in zip(plain.records, shifted.records):
            assert np.array_equal(ra.clean, rb.clean)
            assert np.array_equal(ra.noisy, rb.noisy)
        mean_shift = np.mean(add_penalties(
            shifted_config.reg, np.zeros(len(data)), plain.final_params, data.x, 0.0))
        for la, lb in zip(plain.epoch_losses, shifted.epoch_losses):
            assert lb - la == pytest.approx(mean_shift, abs=1e-12)

    def test_per_example_clipping_bounds_recorded_gradient(self):
        data = small_dataset(seed=15, n=16, d=3, noise=0.5)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        c = 0.25
        config = TrainConfig(eta=0.05, batch_size=1, epochs=1, seed=21,
                             noise=NoiseSpec(mode="none", clip_c=c),
                             record_gradients=True)
        report = train(spec, data, config)
        assert len(report.records) == 16
        for record in report.records:
            assert np.linalg.norm(record.clean) <= c + 1e-12

    def test_mean_of_clipped_gradients_stays_bounded(self):
        data = small_dataset(seed=15, n=16, d=3, noise=0.5)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        c = 0.25
        config = TrainConfig(eta=0.05, batch_size=8, epochs=1, seed=21,
                             noise=NoiseSpec(mode="none", clip_c=c),
                             record_gradients=True)
        for record in train(spec, data, config).records:
            assert np.linalg.norm(record.clean) <= c + 1e-12

    def test_proportional_noise_vanishes_on_zero_parameters_iid_does_not(self):
        data = small_dataset(seed=17, n=8, d=3)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        zeros = ParameterSet(spec, np.zeros(3))
        for mode, expect_equal in (("proportional", True), ("iid", False)):
            config = TrainConfig(eta=0.05, batch_size=8, epochs=1, seed=19,
                                 noise=NoiseSpec(mode=mode, sigma=0.5),
                                 record_gradients=True)
            [record] = train(spec, data, config, init=zeros).records
            assert np.array_equal(record.noisy, record.clean) == expect_equal

    def test_one_noisy_step_averages_to_clean_step(self):
        eta, sigma, replicas = 0.1, 0.3, 2000
        data = small_dataset(seed=23, n=8, d=3, noise=0.1)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        base = TrainConfig(eta=eta, batch_size=8, epochs=1, seed=25)
        init = initial_params_for(spec, base.seed)
        clean = train(spec, data, base, init=init).final_params.flat
        total = np.zeros(3)
        for k in range(replicas):
            noisy_config = replace(base, seed=1000 + k,
                                   noise=NoiseSpec(mode="iid", sigma=sigma))
            total += train(spec, data, noisy_config, init=init).final_params.flat
        err = np.abs(total / replicas - clean).max()
        assert err <= 3 * eta * sigma / math.sqrt(replicas)

    # At (0.158, 1.9), eta**2 * sigma**2 and eta * eta * sigma * sigma
    # differ in the last bit, so an epoch loss worked out one way and the
    # steps the other would disagree.
    @pytest.mark.parametrize("eta, sigma", [(0.05, 0.4), (0.158, 1.9)])
    def test_derived_kappa_equals_explicit_eta_sq_sigma_sq(self, eta, sigma):
        data = small_dataset(seed=27, n=20, d=3, noise=0.2)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        derived = TrainConfig(eta=eta, batch_size=5, epochs=5, seed=31,
                              noise=NoiseSpec(mode="none", sigma=sigma),
                              reg=RegSpec(kappa_mode="derived"))
        explicit = TrainConfig(eta=eta, batch_size=5, epochs=5, seed=31,
                               reg=RegSpec(kappa=eta * eta * sigma * sigma))
        a = train(spec, data, derived)
        b = train(spec, data, explicit)
        assert np.array_equal(a.final_params.flat, b.final_params.flat)
        assert a.epoch_losses == b.epoch_losses

    def test_epoch_count_matches_config(self):
        data = small_dataset()
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        report = train(spec, data, TrainConfig(eta=0.05, batch_size=6, epochs=7, seed=1))
        assert len(report.epoch_losses) == 7

    def test_validation_errors(self):
        data = small_dataset(n=4)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        with pytest.raises(ValueError):
            train(spec, data, TrainConfig(eta=0.1, batch_size=5, epochs=1, seed=0))
        with pytest.raises(ValueError):
            train(spec, Dataset(np.empty((0, 3)), np.empty((0, 1))),
                  TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=0))
        wrong_dim = ModelSpec(layer_sizes=(4, 1), activation="identity",
                              include_bias=False)
        with pytest.raises(ValueError):
            train(wrong_dim, data, TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=0))

    def test_dataset_loss_matches_epoch_loss(self):
        data = small_dataset(seed=33, n=10, d=3)
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        config = TrainConfig(eta=0.05, batch_size=10, epochs=1, seed=3)
        report = train(spec, data, config)
        assert report.epoch_losses[-1] == pytest.approx(
            dataset_loss(report.final_params, data, config.reg,
                         config.reg.effective_kappa(config.eta, config.noise.sigma)),
            abs=1e-15)


class TestReportedLossIsDescended:
    """train reports dataset_loss at the kappa its steps take; a full batch's
    clean step must be the gradient of that loss, penalties included."""

    def test_clean_step_is_the_gradient_of_the_dataset_loss(self):
        worst = 0.0
        for case in range(300):
            rng = RngStream(71, case)
            d, n = 2 + int(rng.uniform(1)[0] * 5), 2 + int(rng.uniform(1)[0] * 7)
            spec = ModelSpec(layer_sizes=(d, 1), activation="identity",
                             include_bias=bool(rng.uniform(1)[0] < 0.5))
            params = ParameterSet(spec, rng.normal(1.0, spec.n_params))
            data = Dataset(rng.normal(1.0, n * d).reshape(n, d),
                           rng.normal(1.0, n).reshape(n, 1))
            u = rng.uniform(6)
            eta, sigma = 0.02 + 0.3 * u[0], 0.05 + 0.5 * u[1]
            # each coefficient is 0 in about a quarter of the cases
            lam, kappa, input_kappa = (0.0 if v < 0.25 else 0.4 * v for v in u[2:5])
            reg = RegSpec(lam=lam, kappa=kappa, input_kappa=input_kappa,
                          kappa_mode=KAPPA_MODES[int(u[5] < 0.5)])
            step = mechanism_step(params, data.x, data.t, eta, NoiseSpec("none", sigma), reg)
            steps_kappa = reg.effective_kappa(eta, sigma)
            worst = max(worst, grad_check(lambda p: dataset_loss(p, data, reg, steps_kappa),
                                          step.clean, params, 1e-5))
        assert worst <= 1e-8


class TestNoiseBlocks:
    """train() draws its noise in blocks; each step's row must still hold
    the bits of one normal(1, P) call per step on the noise stream."""

    @pytest.mark.parametrize("spec,batch_size", [
        (ModelSpec(layer_sizes=(5, 16, 1), activation="tanh"), 1),      # P = 113
        (ModelSpec(layer_sizes=(5, 16, 1), activation="tanh"), 7),
        (ModelSpec(layer_sizes=(5, 1), include_bias=False), 1),         # P = 5
        (ModelSpec(layer_sizes=(5, 1), include_bias=True), 3),          # P = 6
    ], ids=["P113-batch1", "P113-batch7", "P5-batch1", "P6-batch3"])
    def test_rows_match_one_draw_per_step(self, spec, batch_size):
        n, sigma = 20, 0.3
        per_block = NOISE_BLOCK // spec.n_params
        steps_per_epoch = -(-n // batch_size)
        epochs = -(-(3 * per_block + 5) // steps_per_epoch)  # past 3 block boundaries
        rng = RngStream(59, spec.n_params)
        data = Dataset(rng.normal(1.0, n * 5).reshape(n, 5),
                       rng.normal(1.0, n).reshape(n, 1))
        config = TrainConfig(eta=1e-3, batch_size=batch_size, epochs=epochs, seed=61,
                             noise=NoiseSpec(mode="iid", sigma=sigma, clip_c=1.0),
                             record_gradients=True)
        records = train(spec, data, config).records
        assert len(records) == epochs * steps_per_epoch > 3 * per_block
        per_step = RngStream(config.seed, TRAIN_NOISE)
        for record in records:
            z = per_step.normal(1.0, spec.n_params)
            assert np.array_equal(record.noisy, sigma * z + record.clean)

    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_noise_rows_are_the_bits_of_one_call_per_step(self, monkeypatch, steps, width):
        # 8 normals a block: one to eight rows a block, and a short last block
        monkeypatch.setattr(optimizers, "NOISE_BLOCK", 8)
        block_rng, per_call = RngStream(35, 2), RngStream(35, 2)
        rows = list(_noise_rows(NoiseSpec(mode="iid", sigma=0.3), block_rng, steps, width))
        assert len(rows) == steps
        for row in rows:
            assert row.shape == (width,)
            assert row.tobytes() == per_call.normal(1.0, width).tobytes()
        # both streams stand at the same place afterwards
        assert block_rng.normal(1.0, 3).tobytes() == per_call.normal(1.0, 3).tobytes()

    @pytest.mark.parametrize("noise", [NoiseSpec(mode="none", sigma=0.5),
                                       NoiseSpec(mode="iid", sigma=0.0)])
    def test_noiseless_mechanisms_draw_nothing(self, monkeypatch, noise):
        data = small_dataset(n=6)

        def no_draws(*args):
            raise AssertionError("a noiseless run drew normals")
        monkeypatch.setattr(RngStream, "normal", no_draws)
        config = TrainConfig(eta=0.05, epochs=2, seed=4, noise=noise, record_gradients=True)
        report = train(LINEAR3, data, config)
        assert all(np.array_equal(r.noisy, r.clean) for r in report.records)


class TestOneParameterSetPerRun:
    def test_caller_init_is_not_aliased(self):
        init = ParameterSet(LINEAR3, np.array([0.1, -0.2, 0.3]))
        before = init.flat.copy()
        report = train(LINEAR3, small_dataset(), TrainConfig(eta=0.05, epochs=2, seed=5),
                       init=init)
        assert np.array_equal(init.flat, before)
        assert report.final_params is not init
        assert not np.shares_memory(report.final_params.flat, init.flat)

    # (model, mechanism, eta, the first step whose parameters are not
    # finite), the same at batch 1 and 7.  Epoch 1 ends at step 23 (batch
    # 1) or 3 (batch 7, four steps), so a check made only at the end of an
    # epoch would name another step.  The tanh net's hidden layer saturates,
    # its backward pass meets inf * 0, and the NaN passes the clip.
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("spec,noise,eta,step", [
        (LINEAR3, NoiseSpec(), 1e200, 1), (LINEAR3, NoiseSpec(), 1e150, 2),
        (LINEAR3, NoiseSpec(), 1e100, 3), (TANH3, NoiseSpec(), 1e200, 1),
        (TANH3, NoiseSpec(), 1e150, 2), (TANH3, IID_CLIP, 1e200, 1),
    ], ids=["linear-1e200", "linear-1e150", "linear-1e100", "tanh-1e200", "tanh-1e150",
            "tanh-iid-clip-1e200"])
    def test_divergence_names_epoch_and_step(self, spec, noise, eta, step, batch):
        config = TrainConfig(eta=eta, batch_size=batch, epochs=3, seed=6, noise=noise)
        label = re.escape(optimizers.mechanism_label(noise, RegSpec()))
        with pytest.raises(TrainingDivergedError, match=rf"epoch 1 of 3 at step {step} "
                                                        rf"under {label}: the parameters"):
            train(spec, small_dataset(), config)

    # A step plan reuses its buffers from step to step; none of them may
    # reach a caller.  Without a penalty, the clean gradient is the plan's
    # gradient buffer at batch 1 (its mean buffer above), and a plain
    # step's noisy gradient is the same array.
    @pytest.mark.parametrize("z_shape", [None, (26,), (26, 3)], ids=["plain", "vector", "block"])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_a_step_keeps_its_arrays_through_the_next(self, batch, z_shape):
        data = small_dataset(n=8)
        params = init_params(TANH3, RngStream(81))
        noise = NoiseSpec() if z_shape is None else IID_CLIP
        steps, kept = [], []
        for k in range(2):
            z = None if z_shape is None else RngStream(82, k).normal(
                1.0, math.prod(z_shape)).reshape(z_shape)
            rows = slice(k * batch, (k + 1) * batch)
            steps.append(mechanism_step(params, data.x[rows], data.t[rows], 0.1, noise,
                                        RegSpec(), z))
            kept.append([a.copy() for a in steps[-1]])
        for got, want in zip(steps[0], kept[0]):
            assert got.tobytes() == want.tobytes()
        for a in steps[0]:
            assert not any(np.shares_memory(a, b) for b in steps[1])
        assert not np.array_equal(kept[0][0], kept[1][0])

    @pytest.mark.parametrize("batch", [1, 4])
    def test_records_hold_copies(self, batch):
        config = TrainConfig(eta=0.05, batch_size=batch, epochs=2, seed=8, noise=IID_CLIP,
                             record_gradients=True)
        report = train(TANH3, small_dataset(n=15), config)
        arrays = [a for r in report.records for a in (r.clean, r.noisy)]
        arrays.append(report.final_params.flat)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    def test_large_finite_parameters_are_not_divergence(self):
        # zero inputs leave only the noise in each step: parameters at the
        # largest float stay finite, though their sum or their squares
        # would overflow
        big = np.finfo(np.float64).max
        init = ParameterSet(LINEAR3, np.array([big, 0.75 * big, -0.5 * big]))
        data = Dataset(np.zeros((6, 3)), np.zeros((6, 1)))
        config = TrainConfig(eta=0.1, batch_size=2, epochs=2, seed=7, noise=IID_CLIP)
        report = train(LINEAR3, data, config, init=init)
        assert report.epoch_losses == [0.0, 0.0]
        assert np.isfinite(report.final_params.flat).all()
        assert np.abs(report.final_params.flat).min() > 1e307


class TestOneLayerActivation:
    """On one layer the activation is never applied (the output layer is
    linear), so a (3, 1) tanh or relu model is a linear unit."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("reg", [RegSpec(kappa=0.2), RegSpec(lam=0.01, kappa_mode="derived")],
                             ids=["kappa", "derived"])
    def test_pdp_training_matches_the_identity_model(self, activation, reg):
        data = small_dataset(seed=12, n=15, noise=0.1)
        identity = ModelSpec(layer_sizes=(3, 1), activation="identity")
        other = ModelSpec(layer_sizes=(3, 1), activation=activation)
        config = TrainConfig(eta=0.05, batch_size=4, epochs=3, seed=8,
                             noise=NoiseSpec(mode="none", sigma=0.5), reg=reg,
                             record_gradients=True)
        want = train(identity, data, config)
        got = train(other, data, config)
        assert got.epoch_losses == want.epoch_losses
        assert np.array_equal(got.final_params.flat, want.final_params.flat)
        assert all(np.array_equal(a.noisy, b.noisy) for a, b in zip(got.records, want.records))


# --- reference: the one-example-at-a-time loop that train() batches -------


def _ref_forward(spec, params, x):
    """Per-layer (inputs, pre-activations, outputs) of one input vector."""
    inputs, pre, post = [], [], []
    a = x
    for layer in range(spec.n_layers):
        z = params.weights(layer) @ a
        b = params.bias(layer)
        if b is not None:
            z = z + b
        act = spec.activation if layer < spec.n_layers - 1 else "identity"
        inputs.append(a)
        pre.append(z)
        a = np.tanh(z) if act == "tanh" else np.maximum(z, 0.0) if act == "relu" else z
        post.append(a)
    return inputs, pre, post


def _ref_gradient(spec, params, inputs, pre, post, t):
    grad = np.zeros(spec.n_params)
    delta = 2.0 * (post[-1] - t)
    for layer in range(spec.n_layers - 1, -1, -1):
        ls = spec.layout[layer]
        grad[ls.weights] = np.outer(delta, inputs[layer]).ravel()
        if ls.bias is not None:
            grad[ls.bias] = delta
        if layer > 0:
            back = params.weights(layer).T @ delta
            if spec.activation == "tanh":
                prime = 1.0 - post[layer - 1] * post[layer - 1]
            elif spec.activation == "relu":
                prime = (pre[layer - 1] > 0.0).astype(np.float64)
            else:
                prime = np.ones_like(pre[layer - 1])
            delta = back * prime
    return grad


def _ref_squares(spec, x):
    """A linear unit's squared features: x_i^2 per weight, 1 for the bias."""
    return np.concatenate([x * x, np.ones(int(spec.include_bias))])


def _ref_example_loss(spec, params, x, t, reg, kappa):
    post = _ref_forward(spec, params, x)[2]
    diff = post[-1] - t
    loss = float(np.dot(diff, diff))
    if reg.lam > 0:
        loss += float(reg.lam * np.dot(params.flat, params.flat))
    if kappa > 0:
        loss += float(kappa * np.dot(params.flat * params.flat, _ref_squares(spec, x)))
    if reg.input_kappa > 0:
        loss += float(reg.input_kappa * np.dot(x, x))
    return loss


def reference_train(spec, data, config, key=()):
    """train() as it was before batching: forward, backward, penalties and
    clipping one example at a time, drawing from the streams (*key,
    TRAIN_...).  Returns (epoch losses, final params, records as (clean,
    noisy, batch indices), one per step)."""
    noise, reg = config.noise, config.reg
    shuffle_rng = RngStream(config.seed, *key, TRAIN_SHUFFLE)
    noise_rng = RngStream(config.seed, *key, TRAIN_NOISE)
    params = init_params(spec, RngStream(config.seed, *key, TRAIN_INIT))
    losses, records = [], []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(data))
        for start in range(0, order.size, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            eta = config.eta
            kappa = reg.kappa
            if reg.kappa_mode == "derived":
                kappa = eta * eta * noise.sigma * noise.sigma
            grads = []
            for i in batch_idx:
                inputs, pre, post = _ref_forward(spec, params, data.x[i])
                g = _ref_gradient(spec, params, inputs, pre, post, data.t[i])
                if reg.lam > 0:
                    g = g + 2.0 * reg.lam * params.flat
                if kappa > 0:
                    g = g + 2.0 * kappa * _ref_squares(spec, data.x[i]) * params.flat
                if noise.clip_c is not None:
                    g = g / max(1.0, float(np.linalg.norm(g)) / noise.clip_c)
                grads.append(g)
            g_clean = np.mean(grads, axis=0)
            g_tilde = g_clean
            if noise.mode == "iid" and noise.sigma > 0:
                g_tilde = g_clean + noise_rng.normal(noise.sigma, g_clean.size)
            elif noise.mode == "proportional" and noise.sigma > 0:
                z = noise_rng.normal(1.0, g_clean.size)
                g_tilde = g_clean + noise.sigma * params.flat * z
            records.append((g_clean.copy(), g_tilde.copy(), batch_idx.copy()))
            params = ParameterSet(spec, params.flat - eta * g_tilde)
        kappa = reg.kappa
        if reg.kappa_mode == "derived":
            kappa = config.eta ** 2 * noise.sigma ** 2
        losses.append(float(np.mean([
            _ref_example_loss(spec, params, data.x[i], data.t[i], reg, kappa)
            for i in range(len(data))])))
    return losses, params, records


REFERENCE_N = 15
REFERENCE_MODELS = {
    "linear": ModelSpec(layer_sizes=(4, 1), include_bias=False),
    "linear-bias": ModelSpec(layer_sizes=(4, 1), include_bias=True),
    "tanh": ModelSpec(layer_sizes=(5, 16, 1), activation="tanh"),
    "relu-2out": ModelSpec(layer_sizes=(3, 4, 2), activation="relu"),
    "tanh-2hidden": ModelSpec(layer_sizes=(4, 6, 5, 1), activation="tanh"),
    "relu-nobias": ModelSpec(layer_sizes=(3, 5, 4, 2), activation="relu", include_bias=False),
}
REFERENCE_MECHANISMS = {
    "plain": {},
    "iid-clip": {"noise": NoiseSpec(mode="iid", sigma=0.3, clip_c=0.5)},
    "proportional": {"noise": NoiseSpec(mode="proportional", sigma=0.5)},
    "pdp-derived-l2": {"noise": NoiseSpec(mode="none", sigma=0.5),
                       "reg": RegSpec(lam=0.01, kappa_mode="derived")},
    "input-kappa": {"noise": NoiseSpec(mode="iid", sigma=0.2),
                    "reg": RegSpec(input_kappa=0.4)},
}
# The parameter-input product holds for one linear output unit only, and
# train() refuses it on any other model.
PDP_REFUSED = sorted(m for m, spec in REFERENCE_MODELS.items() if not spec.is_linear_unit)
REFERENCE_CASES = [(model, mechanism) for model in sorted(REFERENCE_MODELS)
                   for mechanism in sorted(REFERENCE_MECHANISMS)
                   if not (model in PDP_REFUSED and mechanism == "pdp-derived-l2")]


def reference_data(model, mechanism):
    spec = REFERENCE_MODELS[model]
    rng = RngStream(len(model), len(mechanism))
    return Dataset(
        rng.normal(1.0, REFERENCE_N * spec.input_dim).reshape(REFERENCE_N, -1),
        rng.normal(1.0, REFERENCE_N * spec.output_dim).reshape(REFERENCE_N, -1))


class TestTrainMatchesPerExampleReference:
    # batch 4 leaves a stacked tail of 3 rows, batch 7 a one-row tail and
    # REFERENCE_N none: train() steps each through a plan of its own size
    @pytest.mark.parametrize("batch_size", [1, 4, 7, REFERENCE_N])
    @pytest.mark.parametrize("model,mechanism", REFERENCE_CASES)
    def test_bit_identical(self, model, mechanism, batch_size):
        spec = REFERENCE_MODELS[model]
        data = reference_data(model, mechanism)
        config = TrainConfig(eta=0.05, batch_size=batch_size, epochs=3, seed=17,
                             record_gradients=True, **REFERENCE_MECHANISMS[mechanism])
        losses, params, records = reference_train(spec, data, config)
        report = train(spec, data, config)
        assert report.epoch_losses == losses
        assert np.array_equal(report.final_params.flat, params.flat)
        assert len(report.records) == len(records)
        for got, (clean, noisy, batch_idx) in zip(report.records, records):
            assert np.array_equal(got.clean, clean)
            assert np.array_equal(got.noisy, noisy)
            assert np.array_equal(got.batch_indices, batch_idx)

    @pytest.mark.parametrize("model,mechanism", [("linear-bias", "iid-clip"),
                                                 ("tanh", "proportional")])
    def test_key_prefix_picks_the_streams(self, model, mechanism):
        # a caller's prefix goes in front of train's own purposes
        spec = REFERENCE_MODELS[model]
        data = reference_data(model, mechanism)
        config = TrainConfig(eta=0.05, batch_size=4, epochs=2, seed=17,
                             **REFERENCE_MECHANISMS[mechanism])
        prefixed = train(spec, data, config, key=(9, 2))
        losses, params, _ = reference_train(spec, data, config, key=(9, 2))
        assert prefixed.epoch_losses == losses
        assert np.array_equal(prefixed.final_params.flat, params.flat)
        assert np.array_equal(initial_params_for(spec, 17, (9, 2)).flat,
                              init_params(spec, RngStream(17, 9, 2, TRAIN_INIT)).flat)
        assert train(spec, data, config).epoch_losses != losses

    # Batch-1 runs that diverge, in the epoch and at the step, and on the
    # value, that the stacked core's step named before single examples took
    # the one-example pass
    @pytest.mark.parametrize("model,mechanism,eta,epoch,step,what", [
        ("relu-2out", "plain", 1.0, 2, 28, "the parameters"),
        ("relu-2out", "proportional", 30.0, 1, 7, "the parameters"),
        ("tanh-2hidden", "plain", 1e10, 1, 14, "the epoch loss"),
        ("relu-nobias", "proportional", 3.0, 1, 12, "the parameters"),
        ("relu-nobias", "plain", 1e30, 1, 7, "the parameters"),
        ("linear-bias", "plain", 1e10, 2, 29, "the epoch loss"),
        ("linear-bias", "iid-clip", 1e200, 1, 14, "the epoch loss"),
    ])
    def test_batch_one_divergence_names_epoch_and_step(self, model, mechanism, eta, epoch,
                                                       step, what):
        config = TrainConfig(eta=eta, batch_size=1, epochs=3, seed=17,
                             **REFERENCE_MECHANISMS[mechanism])
        label = re.escape(optimizers.mechanism_label(config.noise, config.reg))
        with pytest.raises(TrainingDivergedError, match=rf"epoch {epoch} of 3 at step {step} "
                                                        rf"under {label}: {what} became"):
            train(REFERENCE_MODELS[model], reference_data(model, mechanism), config)

    @pytest.mark.parametrize("batch_size", [1, 7, REFERENCE_N])
    @pytest.mark.parametrize("model", PDP_REFUSED)
    def test_pdp_refused_off_a_linear_unit(self, model, batch_size):
        data = reference_data(model, "pdp-derived-l2")
        config = TrainConfig(eta=0.05, batch_size=batch_size, epochs=3, seed=17,
                             **REFERENCE_MECHANISMS["pdp-derived-l2"])
        with pytest.raises(ValueError, match="single linear output unit"):
            train(REFERENCE_MODELS[model], data, config)


class TestSpecs:
    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(mode="laplace")
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(clip_c=0.0)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0)
        with pytest.raises(ValueError, match="eta"):
            TrainConfig(eta=lambda step: 0.1)
        for field in ("batch_size", "epochs"):
            for value in (0, 2.5, 2.0, True, "2"):
                with pytest.raises(ValueError, match=field):
                    TrainConfig(eta=0.1, **{field: value})
            assert getattr(TrainConfig(eta=0.1, **{field: np.int64(3)}), field) == 3
        for value in (-1, 2.7, 2.0, True, "2"):
            with pytest.raises(ValueError, match="seed"):
                TrainConfig(eta=0.1, seed=value)
        assert TrainConfig(eta=0.1, seed=np.int64(0)).seed == 0


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field, make", [
    ("sigma", lambda v: NoiseSpec(mode="iid", sigma=v)),
    ("clip_c", lambda v: NoiseSpec(mode="iid", sigma=0.1, clip_c=v)),
    ("lam", lambda v: RegSpec(lam=v)),
    ("kappa", lambda v: RegSpec(kappa=v)),
    ("input_kappa", lambda v: RegSpec(input_kappa=v)),
    ("eta", lambda v: TrainConfig(eta=v)),
    ("std", lambda v: RngStream(1).normal(v, 3)),
])
def test_non_finite_values_are_refused_naming_the_field(field, make, value):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite number"):
        make(value)
