import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from privreg.model import Dataset, ModelSpec, ParameterSet
from privreg.experiments import _family_bound
from privreg.numerics import (VERIFY_MOMENTS, VERIFY_NOISY_STEP, VERIFY_PRODUCT_DENSITY,
                              VERIFY_SETUPS, RngStream)
from privreg import optimizers, oracle
from privreg.optimizers import NoiseSpec, mechanism_step
from privreg.oracle import (MC_CHUNK_ROWS, analytic_post_update_loss,
                            backprop_grad_error, check_moment_identities,
                            check_noisy_step, check_product_density,
                            equivalence_chain_residuals,
                            finite_difference_gradient, random_linear_setups)
from privreg.regularizers import RegSpec
from reference_solvers import regularized_least_squares_oracle

LINEAR2 = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=False)
THETA = ParameterSet(LINEAR2, np.array([0.5, -1.0]))
X = np.array([2.0, 1.0])
IID = NoiseSpec(mode="iid", sigma=0.2)
PROP = NoiseSpec(mode="proportional", sigma=0.2)
BIASED = ParameterSet(ModelSpec(layer_sizes=(2, 1), include_bias=True),
                      np.array([0.5, -1.0, 0.3]))


def block_rows(seed, key, replicas, width, std=1.0, stream=0, chunk_rows=MC_CHUNK_ROWS):
    """The draws of stream `stream` of a Monte Carlo check keyed `key`, as
    its blocks of chunk_rows rows draw them: block b's rows come from
    RngStream(seed, *key, stream, b)."""
    return np.concatenate([
        RngStream(seed, *key, stream, b).normal(std, min(chunk_rows, replicas - start) * width)
        for b, start in enumerate(range(0, replicas, chunk_rows))])


def mc_post_update_loss(params, x, t, eta, noises, replicas, seed):
    """(mean, stderr) of the sampled post-update loss per noise shape: the
    first len(noises) checks of check_noisy_step."""
    [checks] = check_noisy_step([(params, x, t, eta, noises)], replicas, seed)
    return [(c.mean, c.stderr) for c in checks[:len(noises)]]


def cross_term_checks(params, x, t, eta, noises, replicas, seed):
    """The cross-term estimates of check_noisy_step, one per noise shape."""
    [checks] = check_noisy_step([(params, x, t, eta, noises)], replicas, seed)
    return checks[len(noises):]


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
        [(mean, stderr)] = mc_post_update_loss(THETA, X, 1.0, 0.1, (NoiseSpec(mode="none"),),
                                               replicas=100, seed=1)
        assert stderr == 0.0
        assert mean == pytest.approx(0.0)

    def test_iid_matches_analytic(self):
        [(mean, stderr)] = mc_post_update_loss(THETA, X, 1.0, 0.1, (IID,), replicas=200_000,
                                               seed=3)
        assert abs(mean - 0.002) <= 3 * stderr

    def test_proportional_matches_analytic(self):
        [(mean, stderr)] = mc_post_update_loss(THETA, X, 1.0, 0.1, (PROP,), replicas=200_000,
                                               seed=4)
        assert abs(mean - 0.0008) <= 3 * stderr

    def test_each_block_steps_the_rows_of_its_own_stream(self, monkeypatch):
        # R = 10,001 is a multiple of no chunk size here, and R * d is odd:
        # at any block size, block b steps the rows of RngStream(seed, *key,
        # 0, b), each block drawn on its own
        theta = ParameterSet(ModelSpec(layer_sizes=(3, 1)), np.array([0.5, -1.0, 0.25, 0.1]))
        x, t, eta, replicas, key = np.array([2.0, 1.0, -0.5]), 1.0, 0.1, 10_001, (3, 1)
        xv, batch, target = np.append(x, 1.0), x[None, :], np.array([[t]])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # blocks in order
        real_sums = oracle._power_sums
        for noise in (IID, PROP):
            clean = float(mechanism_step(theta, batch, target, eta, noise, RegSpec()).params
                          @ xv) - t
            for chunk_rows in (2, 64, 1000, 4096, replicas):
                monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", chunk_rows)
                rows = []
                monkeypatch.setattr(oracle, "_power_sums",
                                    lambda e: rows.append(e.copy()) or real_sums(e))
                check_noisy_step([(theta, x, t, eta, (noise,))], replicas, 5, key)
                assert len(rows) == -(-replicas // chunk_rows)
                for b, got in enumerate(rows):
                    z = RngStream(5, *key, 0, b).normal(1.0, got.size * 4).reshape(-1, 4)
                    e = xv @ mechanism_step(theta, batch, target, eta, noise, RegSpec(),
                                            z.T.copy()).params
                    e -= t
                    e -= clean
                    assert got.tobytes() == e.tobytes()

    @pytest.mark.parametrize("mode", ["iid", "proportional"])
    def test_bias_neuron_matches_analytic(self, mode):
        noise = NoiseSpec(mode=mode, sigma=0.4)
        [(mean, stderr)] = mc_post_update_loss(BIASED, X, 0.3, 0.15, (noise,),
                                               replicas=200_000, seed=21)
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
        [(mean, stderr)] = mc_post_update_loss(params, X, 1.3, 0.15, (noise,),
                                               replicas=200_000, seed=22)
        analytic = analytic_post_update_loss(params, X, 1.3, 0.15, noise)
        assert abs(mean - analytic) <= 3 * stderr

    def test_steps_through_the_trainer(self, monkeypatch):
        # a trainer that doubled its noise would fail the identity
        real_step = oracle.mechanism_step

        def doubled(params, x, t, eta, noise, reg, z=None):
            return real_step(params, x, t, eta, noise, reg, None if z is None else 2 * z)

        monkeypatch.setattr(oracle, "block_stepper", lambda *a: lambda z: doubled(*a, z).params)
        [(mean, stderr)] = mc_post_update_loss(THETA, X, 1.0, 0.1, (IID,), replicas=200_000,
                                               seed=3)
        assert abs(mean - 0.002) > 3 * stderr

    @pytest.mark.parametrize("replicas", [2, 1000, 5000])
    def test_one_plan_per_case_and_moved_shape(self, monkeypatch, replicas):
        # Two cases, four shapes each: iid and proportional noise move the
        # output, mode "none" and sigma 0 do not.  Each shape takes one plan
        # for its noiseless step (_stepped_case) and each moved shape one
        # for its stepper, whatever the number of blocks; every block steps
        # each moved shape through the stepper once.
        monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", 64)
        shapes = (IID, PROP, NoiseSpec(mode="none"), NoiseSpec(mode="iid", sigma=0.0))
        cases = [(THETA, X, 1.0, 0.1, shapes), (BIASED, X, 0.3, 0.15, shapes)]
        plans, steps = [], []
        real_plan, real_stepper = optimizers._StepPlan.__init__, oracle.block_stepper

        def counted_plan(plan, *args):
            plans.append(args)
            real_plan(plan, *args)

        def counted_stepper(*args):
            step = real_stepper(*args)
            return lambda z: steps.append(z.shape) or step(z)

        monkeypatch.setattr(optimizers._StepPlan, "__init__", counted_plan)
        monkeypatch.setattr(oracle, "block_stepper", counted_stepper)
        check_noisy_step(cases, replicas, 31)
        assert len(plans) == len(cases) * (len(shapes) + 2)
        assert len(steps) == -(-replicas // 64) * len(cases) * 2

    def test_bias_folds_into_constant_feature(self):
        spec = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)
        with_bias = ParameterSet(spec, np.array([0.5, -1.0, 0.3]))
        folded_spec = ModelSpec(layer_sizes=(3, 1), activation="identity",
                                include_bias=False)
        folded = ParameterSet(folded_spec, np.array([0.5, -1.0, 0.3]))
        a = analytic_post_update_loss(with_bias, X, 1.0, 0.1, IID)
        b = analytic_post_update_loss(folded, np.array([2.0, 1.0, 1.0]), 1.0, 0.1, IID)
        assert a == b


class TestBlocksInLanes:
    # P = 3 (odd) and 5 blocks of 64 rows plus a short last block of 37:
    # every block's draw is odd-sized
    SHAPES = (NoiseSpec(mode="iid", sigma=0.4), NoiseSpec(mode="none"),
              NoiseSpec(mode="proportional", sigma=0.4, clip_c=0.5))
    CHUNK, REPLICAS = 64, 5 * 64 + 37

    @pytest.fixture
    def lanes(self, monkeypatch):
        monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", self.CHUNK)

        def use(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return use

    def test_checks_are_the_same_at_any_lane_count(self, lanes, monkeypatch):
        rows, real_sums = [], oracle._power_sums
        monkeypatch.setattr(oracle, "_power_sums",
                            lambda e: rows.append(e.copy()) or real_sums(e))

        def checks(cpus):
            lanes(cpus)
            assert oracle.mc_lanes(self.REPLICAS) == min(6, cpus)
            [checks] = check_noisy_step([(BIASED, X, 1.3, 0.15, self.SHAPES)], self.REPLICAS,
                                        23)
            return checks

        one_lane = checks(1)
        # every row drew (iid, then proportional, per block); mode "none" drew nothing
        assert len(np.unique(np.concatenate(rows[0::2]))) == self.REPLICAS
        none, none_cross = one_lane[1], one_lane[4]
        assert none.stderr == none_cross.stderr == none_cross.mean == 0.0
        for cpus in (2, 3, 5):
            assert checks(cpus) == one_lane

    def test_blocks_add_in_block_order_at_any_lane_count(self, lanes, monkeypatch):
        # 501 blocks of 2 rows: adding the blocks lane by lane, then the
        # lanes, would round differently
        monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", 2)
        replicas = 1001
        z = block_rows(29, (4,), replicas, 1, 0.5, chunk_rows=2)
        expected = reduce(np.add, [z[i:i + 2].sum(keepdims=True) for i in range(0, replicas, 2)])
        for cpus in (1, 2, 3, 5):
            lanes(cpus)
            total = oracle._block_sums(lambda draws: draws[0].sum(keepdims=True), replicas,
                                       29, (4,), (0.5,), 1)
            assert total == expected

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_case_steps_the_leading_columns_of_the_shared_rows(self, lanes, cpus):
        # cases of 2, 3 and 5 parameters: block b draws 5 normals a row from
        # RngStream(seed, VERIFY_NOISY_STEP, 0, b), and each case's
        # estimates are those of stepping the first P rows of a (5, rows)
        # transposed copy of the block, the block sums added in block
        # order, to the bit
        lanes(cpus)
        wide = ParameterSet(ModelSpec(layer_sizes=(4, 1)), np.array([0.3, -0.2, 0.8, 0.1, -0.4]))
        cases = [(THETA, X, 0.7, 0.1, (IID, PROP)),
                 (BIASED, X, 1.3, 0.15, self.SHAPES),
                 (wide, np.array([1.0, -0.5, 0.25, 2.0]), -0.4, 0.2,
                  (NoiseSpec(mode="proportional", sigma=0.3, clip_c=0.5),))]
        seed, key, width = 31, (VERIFY_NOISY_STEP,), 5
        got = check_noisy_step(cases, self.REPLICAS, seed, key)
        assert len(got) == len(cases)
        for (params, x, t, eta, noises), checks in zip(cases, got):
            xv = np.append(x, 1.0) if params.spec.include_bias else x
            batch, target = x[None, :], np.array([[t]])
            for k, noise in enumerate(noises):
                clean = float(mechanism_step(params, batch, target, eta, noise,
                                             RegSpec()).params @ xv) - t
                sums = np.array([self.REPLICAS, 0.0, 0.0, 0.0, 0.0])
                if noise.adds_noise:
                    blocks = []
                    for b, start in enumerate(range(0, self.REPLICAS, self.CHUNK)):
                        rows = min(self.CHUNK, self.REPLICAS - start)
                        z = RngStream(seed, *key, 0, b).normal(1.0, rows * width)
                        z = z.reshape(rows, width).T.copy()[:params.flat.size]
                        e = xv @ mechanism_step(params, batch, target, eta, noise, RegSpec(),
                                                z).params
                        e -= t
                        e -= clean
                        blocks.append(oracle._power_sums(e))
                    sums = reduce(np.add, blocks)
                (square, cross) = oracle._noisy_step_estimates(clean, sums)
                analytic = analytic_post_update_loss(params, x, t, eta, noise)
                assert checks[k] == oracle._estimate("post_update_loss", noise.mode, analytic,
                                                     *square)
                assert checks[len(noises) + k] == oracle._estimate("cross_term", noise.mode,
                                                                   0.0, *cross)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_shapes_together_equal_each_shape_alone(self, lanes, cpus):
        lanes(cpus)
        args = (BIASED, X, 1.3, 0.15)
        [checks] = check_noisy_step([(*args, self.SHAPES)], self.REPLICAS, 24)
        shapes = len(self.SHAPES)
        assert [c.name for c in checks] == (
            [f"post_update_loss[{noise.mode}]" for noise in self.SHAPES]
            + [f"cross_term[{noise.mode}]" for noise in self.SHAPES])
        for i, noise in enumerate(self.SHAPES):
            [alone] = check_noisy_step([(*args, (noise,))], self.REPLICAS, 24)
            assert [checks[i], checks[shapes + i]] == alone


def _peak_allocation(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each Monte Carlo check at `replicas` rows.
MC_CHECKS = {
    "noisy_step": lambda replicas: check_noisy_step([(BIASED, X, 1.3, 0.15, (IID, PROP))],
                                                    replicas, 25),
    "moments": lambda replicas: check_moment_identities(1.0, replicas, 25),
    "product_density": lambda replicas: check_product_density(1.0, 1.0, replicas, 40, 25),
}


@pytest.mark.parametrize("check", MC_CHECKS)
def test_peak_allocation_does_not_grow_with_replicas(monkeypatch, check):
    # one lane: a check holds a block's rows and one short vector per block
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run = MC_CHECKS[check]
    run(1000)  # imports and caches
    small = _peak_allocation(lambda: run(20_000))
    assert _peak_allocation(lambda: run(200_000)) <= small + 64 * 1024


# Noisy-step checks in a fresh interpreter, after a warm-up at 400,000
# replicas: the fewest minor page faults of three checks at 400,000, less
# the fewest of three at 200,000, so the faults of the extra blocks alone.
# (A check can also fault a few hundred pages once, as a new worker thread
# sets up; that happens at any replica count and says nothing of blocks.)
FAULTS_PROBE = """
import os, resource
import numpy as np
os.sched_getaffinity = lambda pid: set(range({cpus}))
from privreg.model import ModelSpec, ParameterSet
from privreg.optimizers import NoiseSpec
from privreg.oracle import check_noisy_step
params = ParameterSet(ModelSpec(layer_sizes=(2, 1)), np.array([0.5, -1.0, 0.3]))
shapes = (NoiseSpec(mode="iid", sigma=0.2), NoiseSpec(mode="proportional", sigma=0.2))
def faults(replicas):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    check_noisy_step([(params, np.array([2.0, 1.0]), 1.3, 0.15, shapes)], replicas, 25)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults(400_000)
runs = {{200_000: [], 400_000: []}}
for _ in range(3):
    for replicas in runs:
        runs[replicas].append(faults(replicas))
print(min(runs[400_000]) - min(runs[200_000]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a rule of glibc's malloc")
@pytest.mark.parametrize("cpus", [1, 2])
def test_blocks_reuse_the_heap_they_free(cpus):
    # glibc would return a block's freed arrays to the OS and fault them in
    # again for the next block: about 3,000 to 4,400 more faults for the 12
    # extra blocks here, against none once the engine has lifted its trim
    # bound
    src = Path(oracle.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", FAULTS_PROBE.format(cpus=cpus)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert int(out.stdout) < 256


class TestCrossTerm:
    def test_zero_mean_at_scale(self):
        [check] = cross_term_checks(THETA, X, 0.7, 0.1, (IID,),
                                    replicas=100_000, seed=6)
        assert check.z == check.mean / check.stderr  # against an analytic 0
        assert abs(check.z) <= 3.0

    def test_zero_sigma_exact(self):
        [check] = cross_term_checks(THETA, X, 0.7, 0.1, (NoiseSpec(mode="none"),),
                                    replicas=100, seed=7)
        assert check.mean == 0.0
        assert check.z == 0.0

    @pytest.mark.parametrize("eta", [0.0, -0.1])
    def test_nonpositive_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            check_noisy_step([(THETA, X, 0.7, eta, (IID,))], replicas=100, seed=8)

    @pytest.mark.parametrize("noise", [IID, PROP, NoiseSpec(mode="iid", sigma=0.2, clip_c=0.5)])
    def test_bias_neuron_zero_mean(self, noise):
        [check] = cross_term_checks(BIASED, X, 0.7, 0.1, (noise,),
                                    replicas=200_000, seed=9)
        assert abs(check.z) <= 3.0

    def test_zero_input_annihilates(self):
        [check] = cross_term_checks(THETA, np.zeros(2), 0.7, 0.1, (IID,),
                                    replicas=1000, seed=8)
        assert check.mean == 0.0

    def test_noise_off_the_inputs_annihilates(self):
        # proportional noise scales theta_i, and theta_i * x_i = 0 for each i
        params = ParameterSet(LINEAR2, np.array([0.0, -1.0]))
        [check] = cross_term_checks(params, np.array([2.0, 0.0]), 0.7, 0.1, (PROP,),
                                    replicas=1000, seed=8)
        assert (check.mean, check.stderr, check.z) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("noise", [IID, PROP, NoiseSpec(mode="iid", sigma=0.4, clip_c=0.5)])
    def test_summaries_are_those_of_the_stepped_rows(self, noise):
        # r drawn again from the check's stream and stepped in one block: the
        # post-update estimate is numpy's mean and std of r^2, and the cross
        # term numpy's mean and std of 2c(c - r), to rounding
        replicas, seed, t, eta = 50_001, 27, 1.3, 0.15
        [[post_update, cross]] = check_noisy_step([(BIASED, X, t, eta, (noise,))], replicas,
                                                  seed)
        xv = np.append(X, 1.0)
        batch, target = X[None, :], np.array([[t]])
        c = float(mechanism_step(BIASED, batch, target, eta, noise, RegSpec()).params @ xv) - t
        z = block_rows(seed, (), replicas, 3).reshape(replicas, 3).T.copy()
        r = xv @ mechanism_step(BIASED, batch, target, eta, noise, RegSpec(), z).params - t
        n = replicas
        assert (post_update.mean, post_update.stderr) == pytest.approx(
            ((r * r).mean(), (r * r).std(ddof=1) / np.sqrt(n)), rel=1e-12, abs=0)
        assert cross.mean == pytest.approx(2 * c * (c - r.mean()), rel=1e-9, abs=0)
        assert cross.stderr == pytest.approx(2 * abs(c) * r.std(ddof=1) / np.sqrt(n),
                                             rel=1e-9, abs=0)
        assert cross.mean == pytest.approx(np.mean(2 * c * (c - r)), rel=1e-9, abs=0)

    # The post-update checks of this call with numpy's whole-array mean and
    # std of r^2 over the same keyed rows (block_rows):
    # (analytic, mean, stderr, z) per noise shape.
    POST_UPDATE_BITS = [
        (0.6616000000000001, 0.661509081430199, 0.001188637040586325, -0.07648976659534959),
        (0.6738505385825232, 0.6741217900478281, 0.0007085339236281947, 0.3828348315574423),
    ]

    def test_post_update_checks_keep_their_bits(self):
        # the block sums keep the analytic value's bits, the estimates to
        # 1e-12, and z, which divides their difference, to 1e-9
        shapes = (NoiseSpec(mode="iid", sigma=0.4),
                  NoiseSpec(mode="proportional", sigma=0.4, clip_c=0.5))
        [checks] = check_noisy_step([(BIASED, X, 1.3, 0.15, shapes)], 40_000, 26)
        for shape, check, (analytic, mean, stderr, z) in zip(shapes, checks,
                                                             self.POST_UPDATE_BITS):
            assert analytic_post_update_loss(BIASED, X, 1.3, 0.15, shape) == analytic
            assert check.z == (check.mean - analytic) / check.stderr
            assert (check.mean, check.stderr) == pytest.approx((mean, stderr), rel=1e-12, abs=0)
            assert check.z == pytest.approx(z, rel=1e-9, abs=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_off_centre_noise_fails_the_cross_term_gate(self, monkeypatch, seed):
        # a trainer whose noise is sigma * (z + 0.05) keeps the noise scale but
        # shifts the noisy output by eta * sigma * 0.05 * sum(s_i x_i), s = 1
        # (iid) or theta (proportional): about 25 standard errors here
        real_step = oracle.mechanism_step

        def off_centre(params, x, t, eta, noise, reg, z=None):
            return real_step(params, x, t, eta, noise, reg, None if z is None else z + 0.05)

        monkeypatch.setattr(oracle, "block_stepper",
                            lambda *a: lambda z: off_centre(*a, z).params)
        params = ParameterSet(BIASED.spec, np.array([0.5, 1.0, 0.3]))
        checks = cross_term_checks(params, X, 0.7, 0.1, (IID, PROP), 100_000, seed)
        assert [abs(c.z) <= 3.0 for c in checks] == [False, False]


class TestMomentIdentities:
    def test_analytic_triples(self):
        for sigma, triple in ((1.0, (1.0, 3.0, 2.0)), (2.0, (4.0, 48.0, 32.0))):
            checks = check_moment_identities(sigma, replicas=1000, seed=9)
            assert [c.z for c in checks] == [(c.mean - analytic) / c.stderr
                                             for c, analytic in zip(checks, triple)]

    @pytest.mark.parametrize("j,sigma", enumerate([0.5, 1.0, 2.0]), ids=["0.5", "1.0", "2.0"])
    def test_checks_pass_at_scale(self, j, sigma):
        # the three z-scores are one family, held to one 3-sigma test's rate;
        # each sigma draws from its own key, as verify's moment rows do, since
        # on one key the three cases would read the same scale-free z-scores
        checks = check_moment_identities(sigma, replicas=200_000, seed=10,
                                         key=(VERIFY_MOMENTS, j))
        _, bound = _family_bound(3.0, len(checks))
        assert all(abs(c.z) <= bound for c in checks)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            check_moment_identities(0.0, replicas=100, seed=0)

    def test_non_integral_replicas_rejected(self):
        # a truncated count would draw 1,000 values and divide by 1000.5
        with pytest.raises(ValueError, match="replicas must be an integer"):
            check_moment_identities(1.0, 1000.5, 3)

    @pytest.mark.parametrize("sigma,replicas", [(0.5, 2), (1.0, 100_001), (2.0, 65_537)])
    def test_in_place_summaries_give_numpys_bits(self, sigma, replicas):
        # the reference is the whole-array form, with numpy's mean/std/var;
        # the block sums give it to 1e-12
        x = block_rows(31, (), replicas, 1, sigma)
        w = x * x
        n = replicas
        var_w = float(w.var(ddof=1))
        mu4_w = float(((w - w.mean()) ** 4).mean())
        expected = [
            (float(w.mean()), float(w.std(ddof=1) / np.sqrt(n))),
            (float((w * w).mean()), float((w * w).std(ddof=1) / np.sqrt(n))),
            (var_w, float(np.sqrt(max(mu4_w - var_w ** 2 * (n - 3) / (n - 1), 0.0) / n))),
        ]
        checks = check_moment_identities(sigma, replicas, seed=31)
        for check, estimate in zip(checks, expected):
            assert (check.mean, check.stderr) == pytest.approx(estimate, rel=1e-12, abs=0)


class TestMeanAndStderr:
    @pytest.mark.parametrize("n", [2, 1001, 65_537, 1_000_000])
    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e6])
    def test_equals_numpy(self, n, scale):
        # rows r = c + e with c = 0.7 * scale, e centred, summed block by
        # block: the estimates of r^2 and of 2c(c - r) are numpy's
        # whole-array mean and std to rounding
        c = 0.7 * scale
        r = RngStream(n, 3).normal(scale, n) + c
        sums = sum(oracle._power_sums(r[i:i + MC_CHUNK_ROWS] - c)
                   for i in range(0, n, MC_CHUNK_ROWS))
        squares, cross = oracle._noisy_step_estimates(c, sums)
        assert squares == pytest.approx(((r * r).mean(), (r * r).std(ddof=1) / np.sqrt(n)),
                                        rel=1e-12, abs=0)
        cross_rows = 2 * c * (c - r)
        assert cross == pytest.approx((cross_rows.mean(), cross_rows.std(ddof=1) / np.sqrt(n)),
                                      rel=1e-9, abs=0)


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

    @pytest.mark.parametrize("sigma_x,sigma_y", [(0.25, 1.0), (0.5, 0.5), (0.5, 0.3)])
    def test_masses_within_stated_bound_at_small_scales(self, sigma_x, sigma_y):
        edges = np.linspace(0.05, 4.0, 41)
        reference = quad_bin_masses(sigma_x, sigma_y, edges)
        assert np.abs(oracle._bin_masses(sigma_x, sigma_y, edges) / reference - 1.0).max() \
            <= 1e-13

    @pytest.mark.parametrize("sigma_x", [0.1, 0.05])
    def test_tail_bins_resolve_at_small_scales(self, sigma_x):
        # the bins near |u| = 4 hold ~1e-19 at scale 0.1 and ~1e-36 at 0.05
        edges = np.linspace(0.05, 4.0, 41)
        masses = oracle._bin_masses(sigma_x, 1.0, edges)
        assert masses[-1] < (1e-18 if sigma_x == 0.1 else 1e-35)
        reference = quad_bin_masses(sigma_x, 1.0, edges)
        assert np.abs(masses / reference - 1.0).max() <= 1e-13

    def test_masses_sum_to_one_over_a_wide_support(self):
        # the mass outside (1e-12, 20) is (2/pi) * (int_0^1e-12 K0 + int_20^inf K0)
        # = (2/pi) * (2.875e-11 + 5.609e-10) = 3.754e-10
        masses = oracle._bin_masses(1.0, 1.0, np.linspace(1e-12, 20.0, 201))
        assert 2.0 * masses.sum() == pytest.approx(1.0 - 3.754e-10, abs=1e-12)

    def test_histogram_matches_density(self):
        # each check's bin z-scores are one family, as in TestMomentIdentities
        report = check_product_density(1.0, 1.0, replicas=200_000, bins=20, seed=11)
        assert report.max_abs_z <= _family_bound(3.0, 2 * 20)[1]
        assert report.symmetry_z.size == 20

    def test_symmetry(self):
        report = check_product_density(1.0, 1.0, replicas=200_000, bins=20, seed=12)
        assert np.abs(report.symmetry_z).max() <= _family_bound(3.0, 20)[1]

    def test_unequal_sigmas(self):
        report = check_product_density(0.7, 1.3, replicas=200_000, bins=15, seed=13)
        assert report.max_abs_z <= _family_bound(3.0, 2 * 15)[1]

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("replicas", [MC_CHUNK_ROWS, 3 * MC_CHUNK_ROWS + 7])
    def test_chunked_counts_equal_one_histogram(self, monkeypatch, replicas, cpus):
        # the reference bins all the draws at once into the signed bins, the
        # masses mirrored onto the negative side, and scores them as the
        # check does: the integer counts add exactly, so every bit agrees
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        report = check_product_density(0.7, 1.3, replicas, bins=15, seed=14)
        x = block_rows(14, (VERIFY_PRODUCT_DENSITY,), replicas, 1, 0.7, stream=0)
        y = block_rows(14, (VERIFY_PRODUCT_DENSITY,), replicas, 1, 1.3, stream=1)
        pos_edges = np.linspace(0.05, 4.0, 16)
        masses = oracle._bin_masses(0.7, 1.3, pos_edges)
        expected = np.concatenate([masses[::-1], masses])
        whole, _ = np.histogram(x * y, bins=np.concatenate([-pos_edges[::-1], pos_edges]))
        counts = np.delete(whole, 15).astype(np.float64)
        mean_counts = replicas * expected
        z = (counts - mean_counts) / np.sqrt(mean_counts * (1.0 - expected))
        assert report.max_abs_z == float(np.abs(z).max())
        assert report.chi2 == float(((counts - mean_counts) ** 2 / mean_counts).sum())
        totals = counts[15:] + counts[:15][::-1]
        assert np.array_equal(report.symmetry_z,
                              (counts[15:] - counts[:15][::-1]) / np.sqrt(totals))

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
        assert backprop_grad_error(p, x, np.array([1.0])) <= 1e-8


class TestRandomizedIdentitySuite:
    def test_fifty_setups_pass_both_modes(self):
        # the 100 post-update z-scores as verify gates them: one family at
        # the Bonferroni bound that holds all of them to a 3-sigma rate,
        # however the setups' shared noise rows tie them together
        setups = random_linear_setups(50, seed=2024)
        modes = ("iid", "proportional")
        _, bound = _family_bound(3.0, 2 * len(setups))
        cases = [(s.params, s.x, s.t, s.eta,
                  tuple(NoiseSpec(mode=mode, sigma=s.sigma, clip_c=s.clip_c) for mode in modes))
                 for s in setups]
        per_setup = check_noisy_step(cases, 20_000, 2024, (VERIFY_NOISY_STEP,))
        assert len(per_setup) == len(setups)
        for i, checks in enumerate(per_setup):
            assert [(c.kind, c.label) for c in checks] == [
                (kind, mode) for kind in ("post_update_loss", "cross_term") for mode in modes]
            for check in checks:
                assert check.name == f"{check.kind}[{check.label}]"
                if check.kind == "post_update_loss":
                    assert abs(check.z) <= bound, f"{check.label}[{i}]: z = {check.z}"

    def test_setups_draw_in_one_pass_with_both_bias_and_clip_forms(self):
        # each setup draws (d, theta, x, t, eta, sigma, bias, clip) in turn
        seed, n = 2026, 40
        setups = random_linear_setups(n, seed)
        rng = RngStream(seed, VERIFY_SETUPS)
        for s in setups:
            d = min(int(2 + rng.uniform(1)[0] * 5), 6)
            theta, x = rng.normal(1.0, d), rng.normal(1.0, d)
            first = (float(rng.normal(1.0, 1)[0]),
                     float(0.02 + rng.uniform(1)[0] * (0.3 - 0.02)),
                     float(0.05 + rng.uniform(1)[0] * (0.5 - 0.05)))
            bias = bool(rng.uniform(1)[0] < 0.5)
            if bias:
                theta = np.append(theta, rng.normal(1.0, 1))
            clip_c = None
            if rng.uniform(1)[0] < 0.5:
                clip_c = float(0.5 + rng.uniform(1)[0] * (5.0 - 0.5))
            assert s.params.spec.include_bias == bias and s.params.spec.input_dim == d
            assert np.array_equal(s.params.flat, theta) and np.array_equal(s.x, x)
            assert (s.t, s.eta, s.sigma, s.clip_c) == (*first, clip_c)
            assert clip_c is None or 0.5 <= clip_c < 5.0
        forms = {(s.params.spec.include_bias, s.clip_c is not None) for s in setups}
        assert forms == {(False, False), (False, True), (True, False), (True, True)}

    def test_equivalence_chain_is_algebraic(self):
        # each drawn unit also with its bias and its clip toggled: the noise
        # on a bias adds its own kappa to the iid gap, which the input term
        # must carry too, and a clip moves the clean loss, not the gap
        bias_rng = RngStream(2025, 1)
        setups = random_linear_setups(50, seed=2025)
        assert {s.params.spec.include_bias for s in setups} == {False, True}
        for setup in setups:
            d, flat = setup.x.size, setup.params.flat
            toggled = not setup.params.spec.include_bias
            spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=toggled)
            other = replace(setup, params=ParameterSet(
                spec, np.append(flat, bias_rng.normal(1.0, 1)) if toggled else flat[:d]),
                clip_c=None if setup.clip_c else 1.0)
            for unit in (setup, other):
                iid_resid, prop_resid = equivalence_chain_residuals(unit)
                assert iid_resid <= 1e-12
                assert prop_resid <= 1e-12
