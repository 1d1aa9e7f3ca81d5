"""End-to-end acceptance criteria at their contracted tolerances.

Each test covers one criterion and prints a single PASS/FAIL line (visible
with `pytest -v -s`); the test name states the criterion.  Seeds are
frozen, so every statistical gate is deterministic.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from privreg.attack import (_invert_records, _restart_starts, cosine_similarity,
                            invert_linear_gradient, leakage_sweep)
from privreg.experiments import (RunTelemetry, _cmd_train, _cmd_verify,
                                 generate_dataset, parse_config, run,
                                 write_result_rows)
from privreg.model import Dataset, ModelSpec, ParameterSet, backward, init_params
from privreg.numerics import RngStream
from privreg.optimizers import NoiseSpec, TrainConfig, initial_params_for, train
from privreg.oracle import (backprop_grad_check, check_moment_identities,
                            check_noisy_step, check_product_density,
                            grad_check, random_linear_setups)
from privreg.regularizers import RegSpec, dp_input_penalty
from reference_solvers import regularized_least_squares_oracle

SETUP_SEED = 20260810
MC_SEED = 7000


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def noisy_steps():
    """The checks of one check_noisy_step pass per setup under both noise
    shapes, for 50 random setups at 1e6 replicas, setup i from stream
    MC_SEED + i, and the seconds the pass took."""
    started = time.perf_counter()
    checks = []
    for i, s in enumerate(random_linear_setups(50, seed=SETUP_SEED)):
        noises = (NoiseSpec(mode="iid", sigma=s.sigma),
                  NoiseSpec(mode="proportional", sigma=s.sigma))
        checks += check_noisy_step(s.params, s.x, s.t, s.eta, noises, 1_000_000,
                                   MC_SEED + i)
    return checks, time.perf_counter() - started


def _post_update_report(name: str, noisy_steps, mode: str) -> None:
    checks, elapsed = noisy_steps
    post_update = [c for c in checks if c.kind == "post_update_loss" and c.label == mode]
    worst = max(abs(c.z) for c in post_update)
    report(name, worst <= 3.0 and elapsed <= 120.0,
           f"max |z| = {worst:.2f} over {len(post_update)} setups at 1e6 replicas "
           f"in {elapsed:.0f}s (both shapes, one pass)")


def test_c1_iid_noise_expected_loss_identity(noisy_steps):
    """Sampled post-update loss under homogeneous noise matches
    (y'-t)^2 + eta^2 sigma^2 sum(x^2) within |z| <= 3 on 50 random setups."""
    _post_update_report("C1 iid expected-loss identity", noisy_steps, "iid")


def test_c2_proportional_noise_expected_loss_identity(noisy_steps):
    """Same protocol against (y'-t)^2 + eta^2 sigma^2 sum(theta^2 x^2)."""
    _post_update_report("C2 proportional expected-loss identity", noisy_steps,
                        "proportional")


def test_c3_input_penalty_leaves_trajectory_bit_identical():
    """Adding the input-only term kappa*sum(x^2) to the loss shifts reported
    losses but leaves ten epochs of SGD bit-identical on 100 examples."""
    data = generate_dataset("noisy_linear", 100, 5, 0.2, seed=331)
    spec = ModelSpec(layer_sizes=(5, 1), activation="identity", include_bias=True)
    base = TrainConfig(eta=0.05, batch_size=10, epochs=10, seed=332,
                       record_gradients=True)
    shifted_config = replace(base, reg=RegSpec(input_kappa=0.7))
    plain = train(spec, data, base)
    shifted = train(spec, data, shifted_config)

    params_identical = np.array_equal(plain.final_params.flat,
                                      shifted.final_params.flat)
    records_identical = all(
        np.array_equal(a.clean, b.clean) and np.array_equal(a.noisy, b.noisy)
        and np.array_equal(a.batch_indices, b.batch_indices)
        for a, b in zip(plain.records, shifted.records))
    mean_shift = float(np.mean(dp_input_penalty(data.x, 0.7)))
    losses_shift = all(abs((b - a) - mean_shift) <= 1e-12
                       for a, b in zip(plain.epoch_losses, shifted.epoch_losses))
    report("C3 zero-gradient trajectory identity",
           params_identical and records_identical and losses_shift,
           f"{len(plain.records)} steps bit-identical; losses shifted by "
           f"{mean_shift:.4f}")


def test_c4_noisy_step_averages_to_clean_step():
    """Mean over 1e4 noise seeds of one clip-free noisy step equals the
    noiseless step, per coordinate within 3*eta*sigma/100."""
    eta, sigma, replicas = 0.1, 0.3, 10_000
    data = generate_dataset("noisy_linear", 8, 3, 0.1, seed=441)
    spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
    base = TrainConfig(eta=eta, batch_size=8, epochs=1, seed=442)
    init = initial_params_for(spec, base.seed)
    clean = train(spec, data, base, init=init).final_params.flat
    total = np.zeros(3)
    for k in range(replicas):
        config = replace(base, seed=5000 + k,
                         noise=NoiseSpec(mode="iid", sigma=sigma))
        total += train(spec, data, config, init=init).final_params.flat
    err = float(np.abs(total / replicas - clean).max())
    bound = 3.0 * eta * sigma / 100.0
    report("C4 expected-trajectory equivalence", err <= bound,
           f"max coordinate error {err:.2e} <= {bound:.2e} over 1e4 noise seeds")


def test_c5_gradient_formulas_match_finite_differences():
    """Penalty gradients within 1e-8 of central differences on 100 random
    instances; feed-forward backprop within 1e-6."""
    rng = RngStream(551)
    worst_penalty = 0.0
    for _ in range(100):
        d = 2 + int(rng.uniform(1)[0] * 5)
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity",
                         include_bias=False)
        params = ParameterSet(spec, rng.normal(1.0, d))
        x = rng.normal(1.0, d)
        lam = float(rng.uniform(1)[0] * 0.3)
        kappa = float(rng.uniform(1)[0] * 0.3)
        for kind in ("l2", "pdp", "combined"):
            worst_penalty = max(worst_penalty,
                                grad_check(kind, params, x, lam, kappa))

    worst_backprop = 0.0
    for trial in range(10):
        depth = 2 + trial % 2
        sizes = tuple([4] + [8] * (depth - 1) + [1])
        activation = "tanh" if trial % 2 else "identity"
        spec = ModelSpec(layer_sizes=sizes, activation=activation,
                         include_bias=bool(trial % 3))
        params = init_params(spec, RngStream(552, trial))
        x = rng.normal(1.0, 4)
        t = rng.normal(1.0, 1)
        worst_backprop = max(worst_backprop, backprop_grad_check(params, x, t))

    report("C5 gradient correctness",
           worst_penalty <= 1e-8 and worst_backprop <= 1e-6,
           f"penalty grads worst {worst_penalty:.2e} (<=1e-8), "
           f"backprop worst {worst_backprop:.2e} (<=1e-6)")


def test_c6_trained_parameters_match_normal_equations():
    """Penalty-trained SGD lands within 1e-6 of (X'X + kappa D) theta = X't,
    including the hand-checked (0.75, 0.75) instance."""
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    t = np.array([1.0, 1.0, 2.0])
    hand = Dataset(x, t[:, None])
    spec2 = ModelSpec(layer_sizes=(2, 1), activation="identity", include_bias=False)
    config = TrainConfig(eta=0.2, batch_size=3, epochs=300, seed=661,
                         reg=RegSpec(kappa=0.5))
    trained = train(spec2, hand, config).final_params.flat
    oracle = regularized_least_squares_oracle(hand, 0.5).flat
    hand_err = float(np.abs(trained - oracle).max())
    hand_ok = hand_err <= 1e-6 and np.allclose(oracle, [0.75, 0.75], atol=1e-12)

    data = generate_dataset("noisy_linear", 40, 4, 0.3, seed=662)
    spec4 = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=False)
    kappa = 0.25
    config4 = TrainConfig(eta=0.02, batch_size=40, epochs=4000, seed=663,
                          reg=RegSpec(kappa=kappa))
    trained4 = train(spec4, data, config4).final_params.flat
    oracle4 = regularized_least_squares_oracle(data, kappa).flat
    rand_err = float(np.abs(trained4 - oracle4).max())

    report("C6 end-to-end regularization oracle",
           hand_ok and rand_err <= 1e-6,
           f"hand instance err {hand_err:.2e}, random instance err {rand_err:.2e}, "
           f"oracle = (0.75, 0.75)")


def test_c7_gaussian_moments_and_product_density():
    """E[X^2], E[X^4], Var[X^2] checks pass |z| <= 3 at 1e6 samples for
    sigma in {0.5, 1, 2}; the X*Y histogram stays within 4 stderr of the
    bin-integrated K0 density."""
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        checks = check_moment_identities(sigma, 1_000_000, seed=2101)
        worst = max(worst, max(abs(c.z) for c in checks))
    density = check_product_density(1.0, 1.0, 1_000_000, 40, seed=2151)
    report("C7 Gaussian moment and product-density checks",
           worst <= 3.0 and density.max_abs_z <= 4.0,
           f"moments max |z| = {worst:.2f}, density max |z| = "
           f"{density.max_abs_z:.2f} over {2 * density.symmetry_z.size} bins")


def test_c8_leakage_baselines_and_noise_trend():
    """Closed-form inversion is exact on clean batch-1 gradients
    (MSE <= 1e-20); gradient matching reaches cosine >= 0.999; median
    cosine is non-increasing across sigma in {0, 0.1, 0.5, 1.0}."""
    spec = ModelSpec(layer_sizes=(4, 1), activation="identity", include_bias=True)
    params = ParameterSet(spec, np.array([0.5, -1.0, 0.3, 0.1, 0.2]))
    x = np.array([2.0, 1.0, -0.5, 0.8])
    g = backward(params, x[None, :], np.array([[1.0]]))
    exact_mse = float(np.mean((invert_linear_gradient(g, spec)[0] - x) ** 2))
    x0, t0 = _restart_starts(881, 10, 4)
    x_it = _invert_records(params.weights(0), params.bias(0), g, x0[None], t0[None],
                           iters=2000, step=0.02)
    iterative_cosine = float(cosine_similarity(x_it[0], x))

    data = generate_dataset("noisy_linear", 24, 4, 0.3, seed=882)
    mechanisms = [(NoiseSpec(mode="iid", sigma=s), RegSpec())
                  for s in (0.0, 0.1, 0.5, 1.0)]
    reports = leakage_sweep(spec, data, mechanisms, trials=30, seed=883,
                            eta=0.1, iters=800, step=0.01, restarts=10)
    closed = [r for r in reports if r.attack == "closed_form"]
    medians = [float(np.median(r.cosine)) for r in closed]
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))
    clean_sweep_mse = float(np.mean(closed[0].mse))

    report("C8 leakage baselines and noise trend",
           exact_mse <= 1e-20 and iterative_cosine >= 0.999
           and monotone and clean_sweep_mse <= 1e-20,
           f"exact MSE {exact_mse:.1e}, iterative cosine {iterative_cosine:.5f}, "
           f"medians by sigma {['%.4f' % m for m in medians]}")


def test_c9_subcommand_reruns_are_byte_identical(tmp_path):
    """Every subcommand rerun with an identical config writes byte-identical
    CSV results."""
    out = tmp_path / "out"
    configs = {
        "train": {
            "experiment_id": "acc",
            "model": {"layer_sizes": [3, 1], "include_bias": False},
            "data": {"kind": "noisy_linear", "n": 30, "d": 3,
                     "noise_level": 0.2, "seed": 991},
            "train": {"eta": 0.05, "batch_size": 10, "epochs": 3, "seed": 992,
                      "noise": {"mode": "iid", "sigma": 0.2}},
            "output": {"directory": str(out)},
        },
        "moments": {
            "experiment_id": "acc",
            "oracle": {"seed": 993, "replicas": 30000, "sigmas": [1.0],
                       "bins": 12, "product_replicas": 40000},
            "output": {"directory": str(out)},
        },
        "verify": {
            "experiment_id": "acc",
            "oracle": {"seed": 994, "replicas": 4000, "configs": 4,
                       "sigmas": [1.0], "bins": 12, "product_replicas": 30000,
                       "expectation_replicas": 400, "trajectory_epochs": 2},
            "output": {"directory": str(out)},
        },
        "attack": {
            "experiment_id": "acc",
            "model": {"layer_sizes": [3, 1], "include_bias": True},
            "data": {"kind": "noisy_linear", "n": 12, "d": 3,
                     "noise_level": 0.3, "seed": 995},
            "attack": {"seed": 996, "trials": 3, "iters": 150, "step": 0.01,
                       "restarts": 2, "mechanisms": [
                           {"noise": {"mode": "none"}},
                           {"noise": {"mode": "proportional", "sigma": 0.5}}]},
            "output": {"directory": str(out)},
        },
    }
    all_identical = True
    details = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(command, cfg_path) == 0
        first = (out / f"{command}_results.csv").read_bytes()
        assert run(command, cfg_path) == 0
        second = (out / f"{command}_results.csv").read_bytes()
        identical = first == second
        all_identical = all_identical and identical
        details.append(f"{command}:{'ok' if identical else 'DIFFERS'}")

    # report consumes the train CSV twice and must also be stable
    report_cfg = {
        "experiment_id": "acc",
        "report": {"inputs": [str(out / "train_results.csv")] * 2},
        "output": {"directory": str(out)},
    }
    cfg_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(report_cfg))
    assert run("report", cfg_path) == 0
    first = (out / "report_results.csv").read_bytes()
    assert run("report", cfg_path) == 0
    identical = first == (out / "report_results.csv").read_bytes()
    all_identical = all_identical and identical
    details.append(f"report:{'ok' if identical else 'DIFFERS'}")

    report("C9 deterministic subcommand output", all_identical,
           ", ".join(details))


def test_c9_telemetry_leaves_csv_bytes_unchanged(tmp_path):
    """verify's telemetry (phase timings, peak RSS, failed checks) goes to
    the manifest only: rerun after rerun the CSV holds exactly the bytes of
    its result rows."""
    cfg = {"experiment_id": "acc",
           "oracle": {"seed": 994, "replicas": 4000, "configs": 4,
                      "sigmas": [1.0], "bins": 12, "product_replicas": 30000,
                      "expectation_replicas": 400, "trajectory_epochs": 2},
           "output": {"directory": str(tmp_path / "out")}}
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs, manifests = [], []
    for _ in range(2):
        assert run("verify", cfg_path) == 0
        csvs.append((tmp_path / "out" / "verify_results.csv").read_bytes())
        manifests.append(json.loads((tmp_path / "out" / "verify_manifest.json").read_text()))
    write_result_rows(tmp_path / "rows.csv",
                      _cmd_verify(parse_config(cfg, "verify"), RunTelemetry()))
    rows_only = (tmp_path / "rows.csv").read_bytes()
    header = rows_only.split(b"\n", 1)[0]
    telemetry_keys = all(m["timings"] and m["peak_rss_mb"] > 0 and m["failed_checks"] == []
                         for m in manifests)
    report("C9 telemetry stays out of the CSV",
           csvs[0] == csvs[1] == rows_only and telemetry_keys
           and header == b"experiment_id,mechanism,metric,value,stderr,seed",
           f"{len(rows_only)} CSV bytes identical over 2 reruns and the rows alone; "
           f"manifest phases {sorted(manifests[0]['timings'])}")


def test_c9_train_telemetry_leaves_csv_bytes_unchanged(tmp_path):
    """train's telemetry (phase timings, row count, peak RSS) goes to the
    manifest only: rerun after rerun the CSV holds exactly the bytes of its
    result rows."""
    cfg = {"experiment_id": "acc",
           "model": {"layer_sizes": [5, 16, 1], "activation": "tanh"},
           "data": {"kind": "noisy_linear", "n": 60, "d": 5, "noise_level": 0.2,
                    "seed": 995},
           "train": {"eta": 0.05, "batch_size": 1, "epochs": 4, "seed": 996,
                     "noise": {"mode": "proportional", "sigma": 0.5}},
           "output": {"directory": str(tmp_path / "out")}}
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs, manifests = [], []
    for _ in range(2):
        assert run("train", cfg_path) == 0
        csvs.append((tmp_path / "out" / "train_results.csv").read_bytes())
        manifests.append(json.loads((tmp_path / "out" / "train_manifest.json").read_text()))
    rows = _cmd_train(parse_config(cfg, "train"), RunTelemetry())
    write_result_rows(tmp_path / "rows.csv", rows)
    rows_only = (tmp_path / "rows.csv").read_bytes()
    telemetry_keys = all(set(m["timings"]) == {"load_data", "train"}
                         and m["rows"] == len(rows) and m["peak_rss_mb"] > 0
                         and m["failed_checks"] == [] for m in manifests)
    report("C9 train telemetry stays out of the CSV",
           csvs[0] == csvs[1] == rows_only and telemetry_keys,
           f"{len(rows_only)} CSV bytes identical over 2 reruns and the rows alone; "
           f"{len(rows)} rows; manifest phases {sorted(manifests[0]['timings'])}")
