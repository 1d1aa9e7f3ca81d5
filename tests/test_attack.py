import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import privreg.attack
from privreg.attack import (DIVERGENCE_PATIENCE, NoLeakageError,
                            _descend, _invert_records,
                            _objective_and_gradient, _restart_starts,
                            cosine_similarity, invert_linear_gradient, leakage_sweep,
                            mechanism_label, membership_inference)
from privreg.experiments import generate_dataset
from privreg.model import (Dataset, ModelSpec, ParameterSet, backward, forward,
                           init_params, quadratic_loss)
from privreg.numerics import ATTACK_RESTART, ATTACK_TRIAL, RngStream
from privreg.optimizers import NoiseSpec, TrainConfig, initial_params_for, train
from privreg.regularizers import RegSpec

BIAS_SPEC = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=True)


def clean_gradient(params, x, t):
    """The (P,) loss gradient of one example."""
    return backward(params, x[None, :], np.atleast_1d(t)[None, :])[0]


def invert_one(g, params, iters, step, seed, restarts=10, trial=0):
    """Gradient matching on one observed gradient g, as leakage_sweep runs
    it for trial `trial` of seed `seed`: the best x over the restarts."""
    x0, t0 = _restart_starts(seed, trial, restarts, params.spec.input_dim)
    return _invert_records(params.weights(0), params.bias(0), np.asarray(g)[None, :],
                           x0[None], t0[None], iters, step)[0]


def reference_inversion(g, spec, params, iters, step, seed, restarts, trial=0):
    """The one-restart-at-a-time descent the batched attack must reproduce,
    for trial `trial` of seed `seed`.

    Returns (best_x, best_objective, stops), where stops names why each
    restart ended: "iters", "converged", "patience" or "nonfinite".
    """
    target = np.asarray(g, dtype=np.float64)
    d = spec.input_dim
    theta = params.weights(0).ravel()
    b0 = float(params.bias(0)[0])

    def objective(x, t):
        diff = backward(params, x[None, :], np.array([[t]]))[0] - target
        return float(np.dot(diff, diff))

    def gradient(x, t):
        r = float(theta @ x) + b0 - t
        dw = 2.0 * r * x - target[:d]
        db = 2.0 * r - target[d]
        gx = 4.0 * float(x @ dw) * theta + 4.0 * r * dw + 4.0 * db * theta
        gt = -4.0 * float(dw @ x) - 4.0 * db
        return gx, gt

    best_obj, best_x = math.inf, np.zeros(d)
    stops = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(restarts):
            rng = RngStream(seed, ATTACK_RESTART, trial, r)
            x = rng.normal(1.0, d)
            t = float(rng.normal(1.0, 1)[0])
            obj = objective(x, t)
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
            worse_streak = 0
            stop = "iters"
            for _ in range(iters):
                gx, gt = gradient(x, t)
                x = x - step * gx
                t = t - step * gt
                new_obj = objective(x, t)
                if not math.isfinite(new_obj):
                    stop = "nonfinite"
                    break
                if new_obj < best_obj:
                    best_obj, best_x = new_obj, x.copy()
                worse_streak = worse_streak + 1 if new_obj > obj else 0
                obj = new_obj
                if worse_streak >= DIVERGENCE_PATIENCE:
                    stop = "patience"
                    break
                if obj < 1e-26:
                    stop = "converged"
                    break
            stops.append(stop)
    return best_x, best_obj, stops


class TestClosedFormInversion:
    def test_hand_case(self):
        params = ParameterSet(BIAS_SPEC, np.array([0.5, -1.0, 0.1]))
        g = clean_gradient(params, np.array([2.0, 1.0]), 1.0)
        assert np.allclose(g, [-3.6, -1.8, -1.8])
        assert np.array_equal(invert_linear_gradient(g, BIAS_SPEC), np.array([2.0, 1.0]))

    def test_loss_minimum_reveals_nothing(self):
        params = ParameterSet(BIAS_SPEC, np.array([0.5, -1.0, 0.1]))
        x = np.array([2.0, 1.0])
        y = forward(params, x[None, :])[-1][0, 0]
        g = clean_gradient(params, x, y)
        with pytest.raises(NoLeakageError):
            invert_linear_gradient(g, BIAS_SPEC)
        # one such row among informative ones still reveals nothing
        informative = clean_gradient(params, x, 1.0)
        with pytest.raises(NoLeakageError):
            invert_linear_gradient(np.stack([informative, g]), BIAS_SPEC)

    def test_exact_on_random_instances(self):
        rng = RngStream(61)
        for _ in range(20):
            d = 2 + int(rng.uniform(1)[0] * 6)
            spec = ModelSpec(layer_sizes=(d, 1), activation="identity",
                             include_bias=True)
            params = ParameterSet(spec, rng.normal(1.0, d + 1))
            x = rng.normal(1.0, d)
            t = float(rng.normal(1.0, 1)[0])
            g = clean_gradient(params, x, t)
            if abs(g[-1]) < 1e-12:
                continue
            recon = invert_linear_gradient(g, spec)
            assert float(np.mean((recon - x) ** 2)) <= 1e-20

    def test_rows_invert_as_one_division_each(self):
        rng = RngStream(62)
        g = rng.normal(1.0, 40 * 5).reshape(40, 5)
        spec = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=True)
        rows = invert_linear_gradient(g, spec)
        for i in range(40):
            assert np.array_equal(rows[i], g[i, :4] / g[i, 4])

    def test_requires_bias_and_matching_width(self):
        no_bias = ModelSpec(layer_sizes=(2, 1), activation="identity",
                            include_bias=False)
        with pytest.raises(ValueError):
            invert_linear_gradient(np.ones((1, 2)), no_bias)
        with pytest.raises(ValueError):
            invert_linear_gradient(np.ones((1, 4)), BIAS_SPEC)


class TestPerRowScores:
    def test_cosine_and_mse_rows_match_one_row_at_a_time(self):
        # The sweep scores all trials at once; each row must get the bits
        # of the one-vector formulas it replaced.
        rng = RngStream(63)
        for d in (1, 2, 3, 4, 5, 8, 17):
            a = rng.normal(1.0, 300 * d).reshape(300, d)
            b = rng.normal(1.0, 300 * d).reshape(300, d) * rng.uniform(300)[:, None]
            a[:3] = 0.0  # zero rows score 0
            cos = cosine_similarity(a, b)
            mse = np.mean((a - b) ** 2, axis=1)
            for i in range(300):
                na, nb = float(np.linalg.norm(a[i])), float(np.linalg.norm(b[i]))
                one = 0.0 if na == 0 or nb == 0 else float(np.dot(a[i], b[i]) / (na * nb))
                assert cos[i] == one
                assert mse[i] == float(np.mean((a[i] - b[i]) ** 2))


class TestIterativeInversion:
    def test_clean_gradients_recover_input(self):
        params = ParameterSet(BIAS_SPEC, np.array([0.5, -1.0, 0.1]))
        x = np.array([2.0, 1.0])
        g = clean_gradient(params, x, 1.0)
        x_hat = invert_one(g, params, iters=2000, step=0.02, seed=0)
        assert cosine_similarity(x_hat, x) >= 0.999
        closed = invert_linear_gradient(g, BIAS_SPEC)
        assert cosine_similarity(x_hat, closed) >= 0.999

    def test_zero_sigma_record_equals_clean_case(self):
        params = ParameterSet(BIAS_SPEC, np.array([0.4, 0.8, -0.2]))
        x = np.array([1.0, -2.0])
        g = clean_gradient(params, x, 0.5)
        noise_free = g + 0.0 * RngStream(4).normal(1.0, g.size)
        a = invert_one(g, params, iters=500, step=0.02, seed=3)
        b = invert_one(noise_free, params, iters=500, step=0.02, seed=3)
        assert np.array_equal(a, b)

    def test_analytic_objective_gradient_matches_finite_differences(self):
        spec = BIAS_SPEC
        params = init_params(spec, RngStream(72))
        d = spec.input_dim
        g = clean_gradient(params, RngStream(73).normal(1.0, d), 1.0)
        theta = params.weights(0)
        bias = params.bias(0)
        target = g[None, :]

        def rows(x, t):
            return _objective_and_gradient(theta, bias, target, x[None, :],
                                           np.array([t]))

        rng = RngStream(71)
        for _ in range(5):
            x = rng.normal(1.0, d)
            t = float(rng.normal(1.0, 1)[0])
            obj, gx, gt = rows(x, t)
            diff = backward(params, x[None, :], np.array([[t]]))[0] - g
            assert obj[0] == float(np.dot(diff, diff))
            h = 1e-6
            for i in range(d):
                bump = np.zeros(d)
                bump[i] = h
                fd = (rows(x + bump, t)[0][0] - rows(x - bump, t)[0][0]) / (2 * h)
                assert fd == pytest.approx(gx[0, i], rel=1e-4, abs=1e-6)
            fd_t = (rows(x, t + h)[0][0] - rows(x, t - h)[0][0]) / (2 * h)
            assert fd_t == pytest.approx(gt[0], rel=1e-4, abs=1e-6)

    def test_monotonicity_across_noise_levels(self):
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=True)
        params = init_params(spec, RngStream(81))
        x = np.array([1.0, -0.5, 2.0])
        base = clean_gradient(params, x, 1.5)
        cosines = {}
        for sigma in (0.0, 0.5):
            values = []
            for trial in range(30):
                noise = RngStream(900 + trial, 0).normal(sigma, 4)
                x_hat = invert_one(base + noise, params, iters=400, step=0.01,
                                   seed=trial, restarts=4)
                values.append(cosine_similarity(x_hat, x))
            cosines[sigma] = median(values)
        assert cosines[0.5] <= cosines[0.0]


def _reference_case(name):
    """(gradient, spec, params, iters, step, seed, restarts, expected stop)."""
    if name in ("clean", "patience", "patience_all_diverged",
                "patience_at_last_step", "overflow"):
        spec = BIAS_SPEC
        params = ParameterSet(spec, np.array([0.5, -1.0, 0.1]))
        g = clean_gradient(params, np.array([2.0, 1.0]), 1.0)
        return {
            "clean": (g, spec, params, 300, 0.02, 0, 4, "iters"),
            # Just past the stability edge of the minimum: the objective
            # grows slowly enough to stay finite for the whole streak.
            "patience": (g, spec, params, 3000, 0.0172, 0, 4, "patience"),
            "patience_all_diverged": (g, spec, params, 3000, 0.0172, 1, 4, "patience"),
            # The streak reaches DIVERGENCE_PATIENCE on the final step, so the
            # lone restart stops for patience; one step fewer and it would run
            # out of steps instead.
            "patience_at_last_step": (g, spec, params, 618, 0.0172, 1, 1, "patience"),
            "overflow": (g, spec, params, 500, 1e6, 1, 3, "nonfinite"),
        }[name]
    d, sigma = {"iid_noisy": (3, 0.5), "odd_d": (5, 0.3), "converged": (2, 0.0)}[name]
    spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=True)
    # key (0,): the problems these cases were chosen on
    params = init_params(spec, RngStream(101, 0))
    g = clean_gradient(params, RngStream(201, 0).normal(1.0, d), 0.7)
    if sigma:
        g = g + RngStream(301, 0).normal(sigma, g.size)
    stop = "converged" if name == "converged" else "iters"
    return g, spec, params, 3300 if name == "converged" else 400, 0.01, 1, 4, stop


class TestBatchedDescentMatchesReference:
    @pytest.mark.parametrize("name", [
        "clean", "iid_noisy", "odd_d", "converged", "patience",
        "patience_all_diverged", "patience_at_last_step", "overflow",
    ])
    def test_bit_identical_to_one_restart_at_a_time(self, name):
        g, spec, params, iters, step, seed, restarts, stop = _reference_case(name)
        ref_x, ref_obj, stops = reference_inversion(g, spec, params, iters, step,
                                                    seed, restarts)
        assert stop in stops
        assert np.array_equal(invert_one(g, params, iters, step, seed, restarts), ref_x)
        x0, t0 = _restart_starts(seed, 0, restarts, spec.input_dim)
        best_obj, _ = _descend(np.repeat(params.weights(0), restarts, axis=0),
                               np.repeat(params.bias(0), restarts),
                               np.repeat(g[None, :], restarts, axis=0), x0, t0,
                               iters, step)
        assert best_obj.min() == ref_obj

    def test_sweep_matches_per_record_inversion(self, monkeypatch):
        spec = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=True)
        data = generate_dataset("noisy_linear", 20, 4, 0.3, seed=8)
        mechanisms = [(NoiseSpec(mode="none"), RegSpec()),
                      (NoiseSpec(mode="iid", sigma=0.5), RegSpec()),
                      (NoiseSpec(mode="proportional", sigma=0.5), RegSpec())]
        trials, seed, kwargs = 4, 100, dict(iters=300, step=0.05, restarts=2)
        scored = []

        def recording_cosine(x_hat, x_true):
            scored.append(x_hat)
            return cosine_similarity(x_hat, x_true)

        monkeypatch.setattr(privreg.attack, "cosine_similarity", recording_cosine)
        leakage_sweep(spec, data, mechanisms, trials=trials, seed=seed, eta=0.1, **kwargs)
        # Per mechanism the sweep scores the closed-form x_hat rows of its
        # trials, then the iterative ones.
        swept = [scored[2 * m + 1][k] for m in range(len(mechanisms))
                 for k in range(trials)]

        outcomes = set()
        for m, (noise, reg) in enumerate(mechanisms):
            for k in range(trials):
                # trial k takes the first step of train() under its key
                config = TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=seed,
                                     noise=noise, reg=reg, record_gradients=True)
                noisy = train(spec, data, config, key=(ATTACK_TRIAL, k)).records[0].noisy
                params0 = initial_params_for(spec, seed, (ATTACK_TRIAL, k))
                x = invert_one(noisy, params0, seed=seed, trial=k, **kwargs)
                assert np.array_equal(swept[m * trials + k], x)
                stops = reference_inversion(noisy, spec, params0, seed=seed, trial=k,
                                            **kwargs)[2]
                outcomes.add("all restarts diverged"
                             if set(stops) <= {"nonfinite", "patience"} else "returned")
        assert outcomes == {"returned", "all restarts diverged"}

    def test_sweep_draws_each_trial_once(self, monkeypatch):
        # Per trial: one init, one shuffle, one noise stream and one per
        # restart, shared by every mechanism.
        made = []
        init = RngStream.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        spec = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=True)
        data = generate_dataset("noisy_linear", 20, 4, 0.3, seed=8)
        mechanisms = [(NoiseSpec(mode="none"), RegSpec()),
                      (NoiseSpec(mode="iid", sigma=0.5), RegSpec()),
                      (NoiseSpec(mode="proportional", sigma=0.5), RegSpec())]
        monkeypatch.setattr(RngStream, "__init__", counting)
        leakage_sweep(spec, data, mechanisms, trials=2, seed=100, eta=0.1, iters=5,
                      step=0.05, restarts=10)
        assert len(made) == 2 * (10 + 3)


class TestMembershipInference:
    def test_untrained_model_is_uninformative(self):
        spec = ModelSpec(layer_sizes=(5, 1), activation="identity", include_bias=True)
        params = init_params(spec, RngStream(2))
        pool = generate_dataset("noisy_linear", 200, 5, 0.5, seed=3)
        members = Dataset(pool.x[:100], pool.t[:100])
        fresh = Dataset(pool.x[100:], pool.t[100:])
        assert abs(membership_inference(params, members, fresh) - 0.5) <= 0.1

    def test_memorizing_model_is_detectable(self):
        from privreg.optimizers import TrainConfig, train
        eye = np.eye(16)
        signs = np.where(np.arange(16) % 2, 1.0, -1.0)[:, None]
        members = Dataset(eye, signs)
        spec = ModelSpec(layer_sizes=(16, 1), activation="identity",
                         include_bias=False)
        report = train(spec, members, TrainConfig(eta=0.4, batch_size=16,
                                                  epochs=100, seed=6))
        fresh = Dataset(np.stack([RngStream(77, i).normal(1.0, 16)
                                  for i in range(16)]), signs)
        assert membership_inference(report.final_params, members, fresh) > 0.9

    def test_constant_scores_give_exact_half(self):
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        zero = ParameterSet(spec, np.zeros(3))
        data = generate_dataset("noisy_linear", 20, 3, 0.2, seed=5)
        assert membership_inference(zero, data, data) == 0.5

    def test_auc_equals_pairwise_count_with_ties(self):
        spec = ModelSpec(layer_sizes=(1, 1), activation="identity", include_bias=False)
        params = ParameterSet(spec, np.array([1.0]))
        for case in range(20):
            rng = RngStream(500 + case)
            n = 3 + int(rng.uniform(1)[0] * 10)

            def draw():
                # Integer inputs and targets give integer losses, so scores tie.
                rows = [(np.floor(rng.uniform(1) * 3), np.floor(rng.uniform(1) * 3))
                        for _ in range(n)]
                return Dataset(np.stack([x for x, _ in rows]),
                               np.stack([t for _, t in rows]))

            members, non_members = draw(), draw()

            def scores(data):
                return -quadratic_loss(forward(params, data.x)[-1], data.t)

            wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
                       for a in scores(members) for b in scores(non_members))
            assert membership_inference(params, members, non_members) == wins / (n * n)

    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0]), st.floats(-3.0, 3.0)),
                 min_size=2 * n, max_size=2 * n),
        st.none() | st.integers(0, 2 * n - 1))))
    def test_auc_matches_the_pairwise_count_with_ties_and_nan(self, case):
        # y = x and t = 0 make each score -x^2, so x and -x tie; a NaN input
        # gives a NaN score, and the AUC is then NaN
        inputs, nan_at = case
        spec = ModelSpec(layer_sizes=(1, 1), activation="identity", include_bias=False)
        params = ParameterSet(spec, np.array([1.0]))
        x = np.array(inputs)[:, None]
        if nan_at is not None:
            x[nan_at] = math.nan
        n = len(inputs) // 2
        members, non_members = (Dataset(x[part], np.zeros((n, 1)))
                                for part in (slice(0, n), slice(n, None)))
        s_mem, s_non = -x[:n, 0] ** 2, -x[n:, 0] ** 2
        auc = membership_inference(params, members, non_members)
        if np.isnan(x).any():
            assert math.isnan(auc)
        else:
            wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
                       for a in s_mem for b in s_non)
            assert auc == wins / (n * n)

    def test_cli_import_leaves_scipy_stats_out(self, tmp_path):
        # neither the import nor a verify run, which checks the product
        # density, loads any scipy module
        src = Path(privreg.attack.__file__).resolve().parent.parent
        for module in ("scipy", "scipy.stats", "scipy.integrate", "jsonschema", "pydantic"):
            probe = f"import sys, privreg.cli; print({module!r} in sys.modules)"
            out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                 text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": str(src)})
            assert out.stdout.strip() == "False", f"importing privreg.cli loads {module}"
        cfg = {"experiment_id": "t",
               "oracle": {"seed": 42, "replicas": 4000, "configs": 2, "sigmas": [1.0],
                          "bins": 12, "product_replicas": 30000,
                          "expectation_replicas": 400, "trajectory_epochs": 2},
               "output": {"directory": str(tmp_path / "out")}}
        (tmp_path / "verify.json").write_text(json.dumps(cfg))
        probe = ("import sys; from privreg.cli import main; "
                 f"code = main(['verify', '--config', {str(tmp_path / 'verify.json')!r}]); "
                 "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "0 []"

    def test_product_density_check_leaves_scipy_integrate_out(self):
        src = Path(privreg.attack.__file__).resolve().parent.parent
        probe = ("import sys; from privreg.oracle import check_product_density; "
                 "check_product_density(1.0, 1.0, replicas=1000, bins=10, seed=0); "
                 "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    def test_validation(self):
        spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
        params = ParameterSet(spec, np.zeros(3))
        data = generate_dataset("noisy_linear", 10, 3, 0.0, seed=1)
        short = Dataset(data.x[:5], data.t[:5])
        with pytest.raises(ValueError):
            membership_inference(params, data, short)
        empty = Dataset(np.empty((0, 3)), np.empty((0, 1)))
        with pytest.raises(ValueError):
            membership_inference(params, empty, empty)


class TestLeakageSweep:
    def setup_method(self):
        self.spec = ModelSpec(layer_sizes=(4, 1), activation="identity",
                              include_bias=True)
        self.data = generate_dataset("noisy_linear", 20, 4, 0.3, seed=8)

    def test_clean_mechanism_is_fully_recovered(self):
        mechanisms = [(NoiseSpec(mode="none"), RegSpec())]
        reports = leakage_sweep(self.spec, self.data, mechanisms, trials=10,
                                seed=100, eta=0.1, iters=600, step=0.01, restarts=6)
        closed = next(r for r in reports if r.attack == "closed_form")
        iterative = next(r for r in reports if r.attack == "iterative")
        assert np.mean(closed.cosine) >= 0.999
        assert np.mean(closed.mse) <= 1e-20
        assert np.median(iterative.cosine) >= 0.999

    def test_identical_mechanisms_identical_reports(self):
        mech = (NoiseSpec(mode="iid", sigma=0.3), RegSpec())
        reports = leakage_sweep(self.spec, self.data, [mech, mech], trials=5,
                                seed=100, eta=0.1, iters=200, step=0.01, restarts=3)
        first = [r for r in reports if r.attack == "closed_form"]
        assert np.array_equal(first[0].cosine, first[1].cosine)
        assert np.array_equal(first[0].mse, first[1].mse)

    def test_sweep_is_deterministic(self):
        mechanisms = [(NoiseSpec(mode="iid", sigma=0.5), RegSpec()),
                      (NoiseSpec(mode="proportional", sigma=0.5), RegSpec())]
        a = leakage_sweep(self.spec, self.data, mechanisms, trials=5, seed=100,
                          eta=0.1, iters=200, step=0.01, restarts=3)
        b = leakage_sweep(self.spec, self.data, mechanisms, trials=5, seed=100,
                          eta=0.1, iters=200, step=0.01, restarts=3)
        for ra, rb in zip(a, b):
            assert ra.mechanism == rb.mechanism and ra.attack == rb.attack
            assert np.array_equal(ra.cosine, rb.cosine)
            assert np.array_equal(ra.mse, rb.mse)

    def test_noise_degrades_median_cosine(self):
        mechanisms = [(NoiseSpec(mode="iid", sigma=s), RegSpec())
                      for s in (0.0, 0.5)]
        reports = leakage_sweep(self.spec, self.data, mechanisms, trials=10,
                                seed=100, eta=0.1, iters=200, step=0.01, restarts=3)
        closed = [r for r in reports if r.attack == "closed_form"]
        assert np.median(closed[1].cosine) <= np.median(closed[0].cosine)

    def test_mechanism_labels_are_stable(self):
        label = mechanism_label(NoiseSpec(mode="iid", sigma=0.5, clip_c=1.0),
                                RegSpec(lam=0.01, kappa=0.2))
        assert label == "noise=iid:sigma=0.5:clip=1|l2=0.01|pdp=0.2"
