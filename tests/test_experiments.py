import contextlib
import copy
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special

from privreg import experiments, optimizers
from privreg.attack import COSINE_SUCCESS
from privreg.cli import main as cli_main
from privreg.experiments import (COMMANDS, ConfigError, OracleConfig, ResultRow,
                                 _family_bound, _step_expectation, apply_seed_override,
                                 generate_dataset, load_dataset, parse_config,
                                 read_result_rows, run, write_result_rows)
from privreg.numerics import (VERIFY_MOMENTS, VERIFY_NOISY_STEP, VERIFY_PRODUCT_DENSITY,
                              RngStream)
from privreg.oracle import MC_CHUNK_ROWS, _in_lanes, random_linear_setups
from reference_solvers import regularized_least_squares_oracle


class TestGenerateDataset:
    def test_same_seed_identical(self):
        a = generate_dataset("noisy_linear", 50, 4, 0.3, seed=3)
        b = generate_dataset("noisy_linear", 50, 4, 0.3, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)

    def test_noiseless_linear_is_exactly_realizable(self):
        data = generate_dataset("noisy_linear", 100, 5, 0.0, seed=3)
        theta = regularized_least_squares_oracle(data, 0.0).flat
        x, t = data.x, data.t
        residual_mse = float(np.mean((x @ theta - t[:, 0]) ** 2))
        assert residual_mse <= 1e-20
        assert np.linalg.matrix_rank(x) == 5

    def test_features_are_standardized(self):
        data = generate_dataset("noisy_linear", 500, 3, 0.2, seed=7)
        x = data.x
        assert np.abs(x.mean(axis=0)).max() <= 1e-12
        assert np.abs(x.std(axis=0) - 1.0).max() <= 1e-12

    def test_noisy_linear_residual_variance(self):
        data = generate_dataset("noisy_linear", 10_000, 5, 0.1, seed=9)
        theta = regularized_least_squares_oracle(data, 0.0).flat
        x, t = data.x, data.t
        residual_var = float(np.var(x @ theta - t[:, 0]))
        assert abs(residual_var - 0.01) <= 0.2 * 0.01

    def test_clusters_have_pm_one_targets(self):
        data = generate_dataset("clusters", 40, 3, 0.5, seed=11)
        targets = sorted({float(t) for t in data.t[:, 0]})
        assert targets == [-1.0, 1.0]
        x = data.x
        assert np.abs(x.mean(axis=0)).max() <= 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_dataset("spiral", 10, 2, 0.0, seed=1)
        with pytest.raises(ValueError):
            generate_dataset("clusters", 0, 2, 0.0, seed=1)
        # a column standardised over one row is all zeros
        with pytest.raises(ValueError, match="n must be >= 2"):
            generate_dataset("noisy_linear", 1, 3, 0.0, seed=9)


class TestDatasetFileRoundTrip:
    def test_load_written_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,t\n1.5,-2.0,0.25\n0.0,3.25,-1.0\n", encoding="utf-8")
        data = load_dataset(path)
        assert data.dim == 2 and len(data) == 2
        assert np.array_equal(data.x[0], np.array([1.5, -2.0]))
        assert data.t[1, 0] == -1.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_dataset(path)


class TestResultRowRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        rows = [
            ResultRow("e", "m", "metric_a", 1.0 / 3.0, None, 7),
            ResultRow("e", "m", "metric_b", -1.2345678901234567e-17, 0.1 + 0.2, 0),
            ResultRow("e", "other", "metric_c", 3.0, 1e-300, 2 ** 62),
        ]
        path = tmp_path / "rows.csv"
        write_result_rows(path, rows)
        assert read_result_rows(path) == rows

    def test_lf_line_endings_and_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_result_rows(path, [ResultRow("e", "m", "x", 1.0, None, 1)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"experiment_id,mechanism,metric,value,stderr,seed\n")


def minimal_verify_config(out_dir):
    return {
        "experiment_id": "t",
        "oracle": {"seed": 42, "replicas": 4000, "configs": 4, "sigmas": [1.0],
                   "bins": 12, "product_replicas": 30000,
                   "expectation_replicas": 400, "trajectory_epochs": 2},
        "output": {"directory": str(out_dir)},
    }


def minimal_train_config(out_dir):
    return {
        "experiment_id": "t",
        "model": {"layer_sizes": [3, 1], "include_bias": False},
        "data": {"kind": "noisy_linear", "n": 30, "d": 3, "seed": 5},
        "train": {"eta": 0.05, "batch_size": 10, "epochs": 3, "seed": 11,
                  "noise": {"mode": "iid", "sigma": 0.1}},
        "output": {"directory": str(out_dir)},
    }


def small_attack_config(out_dir):
    return {
        "experiment_id": "atk",
        "model": {"layer_sizes": [3, 1], "include_bias": True},
        "data": {"kind": "noisy_linear", "n": 12, "d": 3,
                 "noise_level": 0.3, "seed": 8},
        "attack": {"seed": 100, "trials": 3, "iters": 150, "step": 0.01,
                   "restarts": 2, "mechanisms": [
                       {"noise": {"mode": "none"}},
                       {"noise": {"mode": "iid", "sigma": 0.5}}]},
        "output": {"directory": str(out_dir)},
    }


def small_moments_config(out_dir):
    return {
        "experiment_id": "cli",
        "oracle": {"seed": 5, "replicas": 20000, "sigmas": [1.0],
                   "bins": 12, "product_replicas": 30000},
        "output": {"directory": str(out_dir)},
    }


def nan_from(monkeypatch, fold):
    """Make one check of verify return NaN where its worst case is folded:
    every penalty_grad_error, every backprop_grad_error, the second
    setup's equivalence residuals, or one later record or epoch loss of
    the trajectory run with the input penalty.  Returns the failed checks."""
    if fold in ("penalty_grad_error", "backprop_grad_error"):
        monkeypatch.setattr(experiments, fold, lambda *args: math.nan)
        kinds = ("backprop",) if fold == "backprop_grad_error" else (
            "l2", "pdp", "combined", "dp_input")
        return [f"grad_check_{kind}_max_rel_err" for kind in kinds]
    if fold == "equivalence":
        real, calls = experiments.equivalence_chain_residuals, itertools.count()
        monkeypatch.setattr(experiments, "equivalence_chain_residuals", lambda setup: (
            (math.nan, math.nan) if next(calls) == 1 else real(setup)))
        return ["equivalence_residual[iid]", "equivalence_residual[proportional]"]
    real_train = experiments.train

    def train(spec, data, config, **kwargs):
        report = real_train(spec, data, config, **kwargs)
        if config.reg.input_kappa > 0:
            if fold == "record_diff":
                report.records[1].noisy[0] = math.nan
            else:
                report.epoch_losses[1] = math.nan
        return report

    monkeypatch.setattr(experiments, "train", train)
    return [f"trajectory_{fold}"]


def csv_bytes_by_lanes(tmp_path, monkeypatch, command, lane_counts):
    """`command`'s CSV bytes at each of `lane_counts` lanes, checking each
    manifest's lanes; more lanes than cores on any host, switching
    threads as often as the interpreter allows."""
    csvs = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in lane_counts:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            cfg_path = tmp_path / f"cpus{cpus}.json"
            cfg = minimal_verify_config(out)
            cfg["oracle"]["replicas"] = 250_000  # 16 blocks per check, 4 per lane
            cfg["oracle"]["sigmas"] = [0.5, 2.0]
            cfg_path.write_text(json.dumps(cfg))
            codes = []
            runner = threading.Thread(target=lambda: codes.append(run(command, cfg_path)))
            runner.start()
            runner.join(timeout=120)
            assert not runner.is_alive() and codes == [0]
            manifest = json.loads((out / f"{command}_manifest.json").read_text())
            lanes = {"moments_and_product_density": cpus}
            if command == "verify":
                lanes["post_update_mc"] = cpus
            assert manifest["lanes"] == lanes
            csvs[cpus] = (out / f"{command}_results.csv").read_bytes()
    finally:
        sys.setswitchinterval(switch)
    return list(csvs.values())


def _count_train_steps(monkeypatch) -> dict[str, int]:
    """Counts of the steps train() takes and of the examples in them, kept
    at the step plan as train() calls it from here on, each call stepping
    the plan's batch of examples.  mechanism_step's own calls of a plan
    (the attack sweep's single steps) are no training steps, so they are
    left out."""
    counts = {"steps": 0, "example_steps": 0}
    real = optimizers._StepPlan.__call__
    train_code = inspect.unwrap(optimizers.train).__code__

    def counted(plan, x, t, z):
        if sys._getframe(1).f_code is train_code:
            counts["steps"] += 1
            counts["example_steps"] += plan.batch
        return real(plan, x, t, z)

    monkeypatch.setattr(optimizers._StepPlan, "__call__", counted)
    return counts


def small_report_config(directory):
    """A report over two one-row result CSVs it writes into `directory`."""
    write_result_rows(directory / "a.csv", [ResultRow("e", "m", "loss", 1.0, None, 1)])
    write_result_rows(directory / "b.csv", [ResultRow("e", "m", "loss", 3.0, None, 2)])
    return {
        "experiment_id": "rep",
        "report": {"inputs": [str(directory / "a.csv"), str(directory / "b.csv")]},
        "output": {"directory": str(directory / "out")},
    }


class TestConfigValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="config.trian"):
            parse_config({"experiment_id": "x", "output": {"directory": "o"},
                          "trian": {}}, "verify")

    def test_unknown_nested_field(self, tmp_path):
        cfg = minimal_train_config(tmp_path)
        cfg["train"]["sigma"] = 0.5
        with pytest.raises(ConfigError, match="train.sigma"):
            parse_config(cfg, "train")

    def test_missing_required_section(self):
        with pytest.raises(ConfigError, match="config.oracle"):
            parse_config({"experiment_id": "x", "output": {"directory": "o"}},
                         "verify")

    def test_missing_seed(self, tmp_path):
        cfg = minimal_train_config(tmp_path)
        del cfg["train"]["seed"]
        with pytest.raises(ConfigError, match="train.seed"):
            parse_config(cfg, "train")

    def test_wrong_type(self, tmp_path):
        cfg = minimal_train_config(tmp_path)
        cfg["train"]["epochs"] = "three"
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config(cfg, "train")

    def test_invalid_mechanism_entry(self, tmp_path):
        cfg = {
            "experiment_id": "x",
            "model": {"layer_sizes": [2, 1]},
            "data": {"kind": "clusters", "n": 10, "d": 2, "seed": 1},
            "attack": {"seed": 1, "trials": 1,
                       "mechanisms": [{"noise": {"mode": "iid"}, "regs": {}}]},
            "output": {"directory": str(tmp_path)},
        }
        with pytest.raises(ConfigError, match=r"attack.mechanisms\[0\].regs"):
            parse_config(cfg, "attack")

    @pytest.mark.parametrize("field,value", [
        ("trials", 0), ("iters", 0), ("restarts", 0), ("step", -0.01), ("eta", 0),
    ])
    def test_attack_field_out_of_range_exits_2(self, tmp_path, capsys, field, value):
        cfg = {
            "experiment_id": "x",
            "model": {"layer_sizes": [2, 1]},
            "data": {"kind": "noisy_linear", "n": 10, "d": 2,
                     "noise_level": 0.3, "seed": 1},
            "attack": {"seed": 1, "trials": 1, "iters": 5, "restarts": 1,
                       "mechanisms": [{"noise": {"mode": "none"}}], field: value},
            "output": {"directory": str(tmp_path / "out")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("attack", cfg_path) == 2
        assert f"attack.{field}" in json.loads(capsys.readouterr().err)["message"]

    def test_unused_sections_still_validated(self, tmp_path):
        cfg = minimal_verify_config(tmp_path)
        cfg["model"] = {"layer_sizes": [0, 1]}
        with pytest.raises(ConfigError, match="model"):
            parse_config(cfg, "verify")

    def test_oracle_configs_has_no_cap(self, tmp_path):
        # setups draw from keys of their own, so no count reaches other streams
        cfg = minimal_verify_config(tmp_path)
        cfg["oracle"]["configs"] = 2001
        assert parse_config(cfg, "verify").oracle.configs == 2001

    def test_seed_override_applies_everywhere(self, tmp_path):
        cfg = parse_config(minimal_train_config(tmp_path), "train")
        overridden = apply_seed_override(cfg, 99)
        assert overridden.train.seed == 99
        assert overridden.data.seed == 99


class TestRun:
    def test_verify_small_scale_passes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_verify_config(tmp_path / "out")))
        assert run("verify", cfg_path) == 0
        rows = read_result_rows(tmp_path / "out" / "verify_results.csv")
        passing = [r for r in rows if r.metric == "verify_pass"]
        assert passing and passing[0].value == 1.0
        manifest = json.loads((tmp_path / "out" / "verify_manifest.json").read_text())
        assert manifest["command"] == "verify"
        assert manifest["seeds"] == {"oracle": 42}

    def test_each_sigma_draws_its_own_moments_and_verify_writes_the_same(self, tmp_path):
        gaussian_rows = {}
        for command in ("moments", "verify"):
            cfg = minimal_verify_config(tmp_path / command)
            cfg["oracle"]["sigmas"] = [0.5, 1.0, 2.0]
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert run(command, cfg_path) == 0
            gaussian_rows[command] = [
                r for r in read_result_rows(tmp_path / command / f"{command}_results.csv")
                if r.mechanism.startswith("gaussian(")]
        rows = gaussian_rows["moments"]
        assert rows == gaussian_rows["verify"]
        assert len({r.value for r in rows}) == len(rows) == 9
        assert [r.seed for r in rows] == [42] * 9

    def test_verify_manifest_carries_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_verify_config(tmp_path / "out")))
        assert run("verify", cfg_path) == 0
        manifest = json.loads((tmp_path / "out" / "verify_manifest.json").read_text())
        assert set(manifest["timings"]) == {
            "post_update_mc", "equivalence", "trajectory",
            "step_expectation", "grad_checks", "moments_and_product_density"}
        assert all(seconds >= 0 for seconds in manifest["timings"].values())
        # 4000 replicas are one noise block, and a lane takes whole blocks;
        # 30,000 product draws are two
        assert manifest["lanes"] == {"post_update_mc": 1, "moments_and_product_density": 2}
        assert manifest["peak_rss_mb"] > 0
        assert manifest["failed_checks"] == []

    def test_manifest_counts_each_monte_carlo_phases_work(self, tmp_path, monkeypatch):
        # the normals each phase's manifest entry records are the normals
        # its streams hand out, counted here as they are drawn
        drawn, lock, real = {}, threading.Lock(), RngStream.normal

        def normal(self, std, n):
            with lock:
                drawn[self.key[0]] = drawn.get(self.key[0], 0) + n
            return real(self, std, n)

        monkeypatch.setattr(RngStream, "normal", normal)
        for command, cfg in (("verify", minimal_verify_config(tmp_path / "verify")),
                             ("moments", small_moments_config(tmp_path / "moments"))):
            drawn.clear()
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert run(command, cfg_path) == 0
            oc = cfg["oracle"]
            work = json.loads((Path(cfg["output"]["directory"]) / f"{command}_manifest.json")
                              .read_text())["work"]
            moments = {"replicas": oc["replicas"] + oc["product_replicas"],
                       "normals": drawn[VERIFY_MOMENTS] + drawn[VERIFY_PRODUCT_DENSITY]}
            assert moments["normals"] == oc["replicas"] + 2 * oc["product_replicas"]
            if command == "moments":
                assert work == {"moments_and_product_density": moments}
                continue
            # 4 setups, each scored in 2 shapes, on rows as wide as the widest
            setups = random_linear_setups(oc["configs"], oc["seed"])
            width = max(s.params.flat.size for s in setups)
            assert drawn[VERIFY_NOISY_STEP] == oc["replicas"] * width
            assert work == {"post_update_mc": {"replicas": 2 * 4 * oc["replicas"],
                                               "normals": drawn[VERIFY_NOISY_STEP]},
                            "moments_and_product_density": moments}

    def test_manifest_records_the_family_gate(self, tmp_path):
        # 4 setups: 8 post-update and 8 cross-term z, 3 moment z for one
        # sigma, 24 product-density bins and 3 step-expectation coordinates
        cfg = minimal_verify_config(tmp_path / "out")
        cfg["oracle"]["threshold"] = 2.5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("verify", cfg_path) == 0
        gate = json.loads((tmp_path / "out" / "verify_manifest.json").read_text())["family_gate"]
        alpha = float(special.erfc(2.5 / np.sqrt(2.0)))
        assert gate["k"] == 8 + 8 + 3 + 24 + 3
        assert gate["alpha"] == pytest.approx(alpha, rel=1e-14)
        assert gate["z_bound"] == pytest.approx(np.sqrt(2.0) * special.erfcinv(alpha / 46),
                                                rel=1e-12)
        rows = read_result_rows(tmp_path / "out" / "verify_results.csv")
        step = {r.metric: r.value for r in rows if r.metric.startswith("step_expectation")}
        unit = 0.1 * 0.3 / np.sqrt(400)  # eta * sigma / sqrt(expectation_replicas)
        assert step["step_expectation_bound"] == pytest.approx(gate["z_bound"] * unit,
                                                               rel=1e-15)

    @pytest.mark.parametrize("threshold,tests,bound", [(3.0, 132, 4.26), (3.0, 212, 4.36),
                                                       (3.0, 292, 4.43), (3.0, 1, 3.0),
                                                       (2.0, 10, 2.84)])
    def test_family_bound_holds_the_family_to_one_tests_rate(self, threshold, tests, bound):
        alpha, b = _family_bound(threshold, tests)
        assert alpha == math.erfc(threshold / math.sqrt(2.0))
        assert b == pytest.approx(bound, abs=5e-3)
        assert math.erfc(b / math.sqrt(2.0)) <= alpha / tests
        assert b == pytest.approx(np.sqrt(2.0) * special.erfcinv(alpha / tests), rel=1e-12)

    def test_cross_term_reads_each_setups_post_update_stream(self, tmp_path, monkeypatch):
        # 12 setups: every check of every setup steps on the rows of one key
        # per block, (VERIFY_NOISY_STEP, 0, b), and the cross term is
        # written, mode by mode, for every setup
        cfg = minimal_verify_config(tmp_path / "out")
        cfg["oracle"]["configs"] = 12
        keys, init = [], RngStream.__init__
        monkeypatch.setattr(RngStream, "__init__",
                            lambda self, seed, *key: keys.append(key) or init(self, seed, *key))
        rows = experiments._cmd_verify(parse_config(cfg, "verify"), experiments.RunTelemetry())
        assert [k for k in keys if k[0] == VERIFY_NOISY_STEP] == [
            (VERIFY_NOISY_STEP, 0, 0)]  # 4000 replicas: one block
        post_update = [(r.mechanism, r.seed) for r in rows if r.metric == "post_update_loss_z"]
        cross = [(r.mechanism, r.seed) for r in rows if r.metric == "cross_term_z"]
        assert post_update == [(mode, 42) for mode in ("iid", "proportional") for i in range(12)]
        assert cross == [(mode, 42) for mode in ("iid", "proportional") for i in range(12)]
        metrics = [r.metric for r in rows]
        assert metrics.index("cross_term_z") > max(
            i for i, metric in enumerate(metrics) if metric.startswith("post_update_loss"))

    def test_verify_and_moments_write_their_rows_in_the_documented_order(self, tmp_path):
        # 12 setups, each with its cross term, and 2 sigmas
        cfg = minimal_verify_config(tmp_path / "out")
        cfg["oracle"].update(configs=12, sigmas=[0.5, 2.0])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        s, modes = 42, ("iid", "proportional")
        moments = [(f"gaussian(sigma={sigma:g})", f"{kind}_z", s)
                   for sigma in (0.5, 2.0)
                   for kind in ("second_moment", "fourth_moment", "variance_of_square")]
        moments += [("product(sigma_x=1,sigma_y=1)", f"product_density_{metric}", s)
                    for metric in ("max_abs_z", "chi2", "symmetry_max_z")]
        verify = [(mode, metric, s) for mode in modes for i in range(12)
                  for metric in ("post_update_loss_z", "post_update_loss_mc")]
        verify += [(mode, "cross_term_z", s) for mode in modes for i in range(12)]
        verify += [(mode, "equivalence_residual", s) for mode in modes]
        verify += [("input_penalty", f"trajectory_{metric}", s)
                   for metric in ("param_diff", "record_diff", "loss_shift_residual")]
        verify += [("iid", "step_expectation_err", s), ("iid", "step_expectation_bound", s)]
        verify += [("gradients", f"grad_check_{kind}_max_rel_err", s)
                   for kind in ("l2", "pdp", "combined", "dp_input", "backprop")]
        expected = {"verify": verify + moments + [("all", "verify_pass", s)],
                    "moments": moments + [("all", "moments_pass", s)]}
        for command, sequence in expected.items():
            # a failed gate would write the same rows
            assert run(command, cfg_path) in (0, 1)
            rows = read_result_rows(tmp_path / "out" / f"{command}_results.csv")
            assert [(r.mechanism, r.metric, r.seed) for r in rows] == sequence

    def test_failing_verify_names_its_failed_checks(self, tmp_path, monkeypatch, capsys):
        # a family bound that no sampled z-score passes
        monkeypatch.setattr(experiments, "_family_bound", lambda threshold, tests: (1.0, 1e-9))
        cfg = minimal_verify_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("verify", cfg_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VerificationFailure"
        assert "post_update_loss[iid][0] = " in err["message"]
        assert "verify_manifest.json" in err["message"]
        manifest = json.loads((tmp_path / "out" / "verify_manifest.json").read_text())
        failed = {name: (value, bound) for name, value, bound in manifest["failed_checks"]}
        assert {f"post_update_loss[{mode}][{i}]" for mode in ("iid", "proportional")
                for i in range(4)} <= set(failed)
        assert {f"cross_term[{mode}][{i}]" for mode in ("iid", "proportional")
                for i in range(4)} <= set(failed)
        assert all(value > bound == 1e-9 for name, (value, bound) in failed.items()
                   if name.startswith(("post_update_loss[", "cross_term[")))
        assert failed["step_expectation_err"][1] == pytest.approx(1e-9 * 0.03 / 20)
        rows = read_result_rows(tmp_path / "out" / "verify_results.csv")
        assert [r.value for r in rows if r.metric == "verify_pass"] == [0.0]

    @pytest.mark.parametrize("fold", ["penalty_grad_error", "backprop_grad_error",
                                      "equivalence", "record_diff", "loss_shift_residual"])
    def test_a_nan_check_fails_verify_and_the_manifest_stays_strict_json(
            self, tmp_path, monkeypatch, capsys, fold):
        names = nan_from(monkeypatch, fold)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_verify_config(tmp_path / "out")))
        assert run("verify", cfg_path) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert all(f"{name} = nan > " in message for name in names)

        def no_constants(token):
            raise AssertionError(f"the manifest holds the bare JSON constant {token}")

        manifest = json.loads((tmp_path / "out" / "verify_manifest.json").read_text(),
                              parse_constant=no_constants)
        assert [(name, value) for name, value, _ in manifest["failed_checks"]] == [
            (name, "nan") for name in names]
        rows = read_result_rows(tmp_path / "out" / "verify_results.csv")
        assert sum(math.isnan(r.value) for r in rows) == len(names)
        assert [r.value for r in rows if r.metric == "verify_pass"] == [0.0]

    def test_lane_count_leaves_verify_csv_bytes_unchanged(self, tmp_path, monkeypatch):
        one_lane, *more = csv_bytes_by_lanes(tmp_path, monkeypatch, "verify", (1, 2, 3, 5))
        assert all(csv == one_lane for csv in more)

    def test_lane_count_leaves_moments_csv_bytes_unchanged(self, tmp_path, monkeypatch):
        one_lane, four_lanes = csv_bytes_by_lanes(tmp_path, monkeypatch, "moments", (1, 4))
        assert one_lane == four_lanes

    def test_error_in_a_worker_lane_exits_1(self, tmp_path, monkeypatch, capsys):
        # three noise blocks per check, so three lanes, one block each; a
        # worker lane fails as it opens its block's stream, the key's last
        # part, and the error raised is that of the lowest block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        caller, real = threading.current_thread(), RngStream.__init__
        raised = []

        def init(self, seed, *key):
            if key[:1] == (VERIFY_NOISY_STEP,):
                if threading.current_thread() is not caller:
                    raised.append(key[-1])
                    raise FloatingPointError(f"injected at block {key[-1]}")
                time.sleep(0.05)  # leave jobs for the worker lanes
            real(self, seed, *key)

        monkeypatch.setattr(RngStream, "__init__", init)
        cfg = minimal_verify_config(tmp_path / "out")
        cfg["oracle"]["replicas"] = 2 * MC_CHUNK_ROWS + 100
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("verify", cfg_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert sorted(raised) == [1, 2] and err == {"error": "FloatingPointError",
                                                    "message": "injected at block 1"}
        assert not (tmp_path / "out" / "verify_results.csv").exists()

    def test_lanes_keep_job_order_and_raise_the_first_failure(self):
        # one job per lane; later jobs finish first
        caller, threads = threading.current_thread(), {}

        def job(i, failing=()):
            threads[i] = threading.current_thread()
            time.sleep(0.01 * (4 - i))
            if i in failing:
                raise ValueError(f"job {i}")
            return i * i

        assert _in_lanes([lambda i=i: job(i) for i in range(4)]) == [0, 1, 4, 9]
        assert threads[0] is caller and caller not in [threads[i] for i in (1, 2, 3)]
        assert len(set(threads.values())) == 4
        for failing, first in (((1, 3), "job 1"), ((0, 2), "job 0"), ((3,), "job 3")):
            with pytest.raises(ValueError, match=first):
                _in_lanes([lambda i=i: job(i, failing) for i in range(4)])
        assert _in_lanes([lambda: job(0)]) == [0] and threads[0] is caller

    def test_step_expectation_fails_on_biased_noise(self, monkeypatch):
        # its worst error, in units of eta * sigma / sqrt(n), against the
        # family bound of the shipped verify config
        oc = OracleConfig(seed=77)
        _, bound = _family_bound(oc.threshold, 292)
        [err] = _step_expectation(oc)
        assert (err.metric, err.bound_metric) == ("step_expectation_err",
                                                  "step_expectation_bound")
        assert (err.zs, err.unit) == (3, 0.1 * 0.3 / math.sqrt(oc.expectation_replicas))
        assert err.value <= bound * err.unit

        real = experiments.block_stepper

        def biased(*args):
            clean, step = real(*args)
            return clean, lambda z: step(z + 0.1)

        monkeypatch.setattr(experiments, "block_stepper", biased)
        [err] = _step_expectation(oc)
        assert err.value > bound * err.unit

    def test_step_expectation_builds_one_plan(self, monkeypatch):
        # its clean and its noisy steps come from one block stepper
        plans = []
        real = optimizers._StepPlan.__init__
        monkeypatch.setattr(optimizers._StepPlan, "__init__",
                            lambda plan, *args: plans.append(args) or real(plan, *args))
        _step_expectation(OracleConfig(seed=77, expectation_replicas=1000))
        assert len(plans) == 1

    def test_step_expectation_makes_a_fixed_number_of_streams(self, monkeypatch):
        made = []
        init = RngStream.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RngStream, "__init__", counting)
        _step_expectation(OracleConfig(seed=77, expectation_replicas=1000))
        assert len(made) <= 5

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_train_config(tmp_path / "out")))
        assert run("train", cfg_path) == 0
        first = (tmp_path / "out" / "train_results.csv").read_bytes()
        assert run("train", cfg_path) == 0
        assert (tmp_path / "out" / "train_results.csv").read_bytes() == first

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_train_config(tmp_path / "out")))
        run("train", cfg_path)
        baseline = (tmp_path / "out" / "train_results.csv").read_bytes()
        run("train", cfg_path, seed_override=99)
        assert (tmp_path / "out" / "train_results.csv").read_bytes() != baseline

    def test_out_argument_beats_env_and_config(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_train_config(tmp_path / "from_config")))
        monkeypatch.setenv("PRIVREG_OUT", str(tmp_path / "from_env"))
        assert run("train", cfg_path, out_dir=str(tmp_path / "from_arg")) == 0
        assert (tmp_path / "from_arg" / "train_results.csv").exists()
        assert not (tmp_path / "from_env").exists()
        monkeypatch.delenv("PRIVREG_OUT")

    def test_env_var_beats_config(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_train_config(tmp_path / "from_config")))
        monkeypatch.setenv("PRIVREG_OUT", str(tmp_path / "from_env"))
        assert run("train", cfg_path) == 0
        assert (tmp_path / "from_env" / "train_results.csv").exists()
        assert not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
    @pytest.mark.parametrize("source", ["--out", "$PRIVREG_OUT", "output.directory"])
    def test_uncreatable_out_dir_exits_2_naming_its_source(self, tmp_path, monkeypatch,
                                                           capsys, source, below):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        blocked = str(blocker / below) if below else str(blocker)
        cfg = minimal_train_config(blocked if source == "output.directory"
                                   else tmp_path / "from_config")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.delenv("PRIVREG_OUT", raising=False)
        if source == "$PRIVREG_OUT":
            monkeypatch.setenv("PRIVREG_OUT", blocked)
        argv = ["train", "--config", str(cfg_path)]
        if source == "--out":
            argv += ["--out", blocked]
        assert cli_main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        named = "field 'output.directory'" if source == "output.directory" else source
        assert err["message"].startswith(f"{named}: cannot create output directory")
        assert repr(blocked) in err["message"]
        assert not (tmp_path / "from_config").exists()

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run("train", cfg_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "JSONDecodeError"

    def test_unknown_field_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = minimal_train_config(tmp_path)
        cfg["train"]["learning_rate"] = 0.1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", cfg_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert "train.learning_rate" in err["message"]

    @pytest.mark.parametrize("eta,epochs,where", [
        (100.0, 3, "epoch 3 of 3 at step 89"),   # losses overflow first
        (1e200, 1, "epoch 1 of 1 at step 1"),    # one step overflows the parameters
    ])
    def test_diverged_training_exits_1_naming_where(self, tmp_path, capsys, eta,
                                                     epochs, where):
        cfg = minimal_train_config(tmp_path / "out")
        cfg["train"].update(eta=eta, epochs=epochs, batch_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", cfg_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TrainingDivergedError"
        assert where in err["message"]
        assert "noise=iid:sigma=0.1|l2=0|pdp=0" in err["message"]
        what = "epoch loss" if eta == 100.0 else "parameters"
        assert f"{what} became non-finite" in err["message"]
        assert not (tmp_path / "out" / "train_results.csv").exists()

    @pytest.mark.parametrize("content,line,problem", [
        ("x0,x1,t\n1,2,3\n4,5,6,7\n", 3, "expected 3 values, got 4"),
        ("x0,x1,t\n1,2,3\n4,5\n", 3, "expected 3 values, got 2"),
        ("x0,x1,t\n1,2,3\n4,abc,6\n", 3, "abc"),
        ("x0,x1,t\n1,nan,3\n", 2, "finite"),
        ("x0,x1,t\n1,2,3\n4,1_0,6\n", 3, "'1_0'"),
        ("x0,x1,t\n1, 2 ,3\n", 2, "' 2 '"),
        ("x0,x1,t\n1,2,\t3\n", 2, "'\\t3'"),
        ("x0,x1,t\n1,2,\uff13\n", 2, "not a plain ASCII number"),
        ("", 1, "empty file"),
    ])
    def test_bad_dataset_csv_exits_2_naming_file_and_line(self, tmp_path, capsys,
                                                          content, line, problem):
        data_path = tmp_path / "bad.csv"
        data_path.write_text(content, encoding="utf-8")
        cfg = minimal_train_config(tmp_path / "out")
        cfg["model"]["layer_sizes"] = [2, 1]
        cfg["data"] = {"path": str(data_path)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("train", cfg_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        message = err["message"]
        assert "data.path" in message and "bad.csv" in message
        assert f"line {line}:" in message and problem in message
        assert not (tmp_path / "out" / "train_results.csv").exists()

    def test_empty_out_flag_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PRIVREG_OUT", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_train_config(tmp_path / "from_config")))
        assert cli_main(["train", "--config", str(cfg_path), "--out", ""]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": "--out: the output directory must not be empty"}
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("section,key,value", [("", "experiment_id", '"again"'),
                                                   ("train", "eta", "0.2")])
    def test_duplicate_key_exits_2_naming_it(self, tmp_path, capsys, section, key, value):
        text = json.dumps(minimal_train_config(tmp_path / "out"))
        opening = f'"{section}": {{' if section else "{"  # the first such text in it
        text = text.replace(opening, f'{opening}"{key}": {value}, ', 1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run("train", cfg_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError",
                       "message": f"duplicate key {key!r} in the config"}
        assert not (tmp_path / "out").exists()

    def test_attack_command_writes_aggregates(self, tmp_path):
        cfg = small_attack_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("attack", cfg_path) == 0
        rows = read_result_rows(tmp_path / "out" / "attack_results.csv")
        metrics = {r.metric for r in rows}
        assert "closed_form_cosine_median" in metrics
        assert "iterative_success_rate" in metrics
        mechanisms = {r.mechanism for r in rows}
        assert len(mechanisms) == 2
        # each cosine aggregate is its numpy reduction of the per-trial rows
        for mech in mechanisms:
            value = {r.metric: r.value for r in rows if r.mechanism == mech}
            for attack in ("closed_form", "iterative"):
                cosine = np.array([r.value for r in rows
                                   if r.mechanism == mech and r.metric == f"{attack}_cosine"])
                assert cosine.size == 3
                assert value[f"{attack}_cosine_median"] == np.median(cosine)
                assert value[f"{attack}_cosine_mean"] == np.mean(cosine)
                assert value[f"{attack}_success_rate"] == np.mean(cosine >= COSINE_SUCCESS)

    def test_attack_run_leaves_numpy_ma_out(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_attack_config(tmp_path / "out")))
        probe = ("import sys; from privreg.cli import main; "
                 f"code = main(['attack', '--config', {str(cfg_path)!r}]); "
                 "print(code, 'numpy.ma' in sys.modules)")
        src = Path(experiments.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "0 False"

    def test_report_aggregates_means(self, tmp_path, capsys):
        cfg = small_report_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("report", cfg_path) == 0
        [row] = read_result_rows(tmp_path / "out" / "report_results.csv")
        assert row.value == 2.0
        assert row.stderr == pytest.approx(1.0)
        assert "loss" in capsys.readouterr().out


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# Every shipped config, with the subcommand its name starts with
# (train_dpsgd.json -> train).
SHIPPED_CONFIGS = [(path.name, path.stem.split("_")[0])
                   for path in sorted(CONFIG_DIR.glob("*.json"))]


class TestShippedConfigs:
    def test_every_config_names_a_command(self):
        assert len(SHIPPED_CONFIGS) >= 6
        assert {command for _, command in SHIPPED_CONFIGS} <= set(COMMANDS)

    @pytest.mark.parametrize("name,command", SHIPPED_CONFIGS)
    def test_config_parses_for_its_command(self, name, command):
        config = parse_config(json.loads((CONFIG_DIR / name).read_text()), command)
        assert config.experiment_id


class TestCli:
    def test_cli_runs_moments(self, tmp_path):
        cfg = small_moments_config(tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["moments", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "moments_results.csv").exists()

    def test_cli_seed_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_train_config(tmp_path / "out")))
        assert cli_main(["train", "--config", str(cfg_path), "--seed", "123"]) == 0
        manifest = json.loads((tmp_path / "out" / "train_manifest.json").read_text())
        assert manifest["seeds"]["train"] == 123

    def test_manifest_names_only_seeds_in_use(self, tmp_path):
        (tmp_path / "data.csv").write_text("x0,x1,x2,t\n1,2,3,4\n5,6,7,8\n",
                                           encoding="utf-8")
        cfg = minimal_train_config(tmp_path / "out")
        cfg["data"] = {"path": str(tmp_path / "data.csv")}
        cfg["train"]["batch_size"] = 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path), "--seed", "7"]) == 0
        manifest = json.loads((tmp_path / "out" / "train_manifest.json").read_text())
        assert manifest["seeds"] == {"train": 7}

    @pytest.mark.parametrize("noise,reg", [
        ({"mode": "none"}, {"kappa_mode": "derived"}),
        ({"mode": "none", "sigma": 0.0}, {"kappa_mode": "derived", "kappa": 0.2}),
        ({"mode": "iid", "sigma": 0.1}, {"input_kappa": 0.4}),
        ({"mode": "proportional", "sigma": 0.5}, {"lambda": 0.01}),
    ], ids=["derived-sigma-0", "derived-ignores-kappa", "iid-input-kappa",
            "proportional-l2"])
    def test_multilayer_model_trains_without_the_pdp_penalty(self, tmp_path, noise, reg):
        # Effective kappa 0 keeps a (3, 4, 1) tanh net trainable.
        cfg = minimal_train_config(tmp_path / "out")
        cfg["model"] = {"layer_sizes": [3, 4, 1], "activation": "tanh"}
        cfg["train"].update(noise=noise, reg=reg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "train_results.csv").exists()

    @pytest.mark.parametrize("command,changes", [
        ("attack", {}),
        ("train", {"train.reg": {"kappa": 0.1}}),
        ("train", {"train.noise.sigma": 0.5, "train.reg": {"kappa_mode": "derived"}}),
    ], ids=["attack", "train-kappa", "train-derived"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_one_layer_model_of_any_activation_is_a_linear_unit(self, tmp_path, command,
                                                                changes, activation):
        # The activation applies to hidden layers only, so on [d, 1] it changes
        # nothing: the run is accepted and writes the identity model's bytes.
        csvs = []
        for name in ("identity", activation):
            cfg = SMALL_CONFIGS[command](tmp_path / name)
            for path, value in changes.items():
                _set(cfg, path, value)
            cfg["model"]["activation"] = name
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert run(command, cfg_path) == 0
            csvs.append((tmp_path / name / "out" / f"{command}_results.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_train_manifest_carries_phases_and_rows(self, tmp_path, monkeypatch):
        cfg = minimal_train_config(tmp_path / "out")
        cfg["train"]["batch_size"] = 3  # a last partial batch in every epoch
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        steps = _count_train_steps(monkeypatch)
        assert run("train", cfg_path) == 0
        manifest = json.loads((tmp_path / "out" / "train_manifest.json").read_text())
        assert set(manifest["timings"]) == {"load_data", "train"}
        assert all(seconds >= 0 for seconds in manifest["timings"].values())
        assert manifest["rows"] == 3 + 2  # one epoch_loss per epoch, final loss and norm
        assert manifest["lanes"] == {}
        assert steps["steps"] == 3 * -(-cfg["data"]["n"] // 3)
        assert manifest["work"] == {"train": steps}

    def test_attack_manifest_carries_phases(self, tmp_path, monkeypatch):
        cfg = small_attack_config(tmp_path / "out")
        cfg["attack"]["membership"] = True
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        steps = _count_train_steps(monkeypatch)
        assert run("attack", cfg_path) == 0
        manifest = json.loads((tmp_path / "out" / "attack_manifest.json").read_text())
        assert set(manifest["timings"]) == {"load_data", "sweep", "membership"}
        assert all(seconds >= 0 for seconds in manifest["timings"].values())
        assert manifest["lanes"] == {}
        # 50 epochs per mechanism on half the rows
        half = cfg["data"]["n"] // 2
        assert steps["example_steps"] == len(cfg["attack"]["mechanisms"]) * 50 * half
        assert manifest["work"] == {"membership": steps}

    def test_moments_manifest_carries_its_phase(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_moments_config(tmp_path / "out")))
        assert run("moments", cfg_path) == 0
        manifest = json.loads((tmp_path / "out" / "moments_manifest.json").read_text())
        assert set(manifest["timings"]) == {"moments_and_product_density"}
        assert all(seconds >= 0 for seconds in manifest["timings"].values())
        # 20,000 moment and 30,000 product draws are two blocks each
        assert manifest["lanes"] == {"moments_and_product_density": 2}

    def test_report_manifest_carries_phases(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_report_config(tmp_path)))
        assert run("report", cfg_path) == 0
        manifest = json.loads((tmp_path / "out" / "report_manifest.json").read_text())
        assert set(manifest["timings"]) == {"read_inputs", "aggregate"}
        assert all(seconds >= 0 for seconds in manifest["timings"].values())
        assert manifest["rows"] == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_manifest_counts_its_csv_rows(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIGS[command](tmp_path)))
        assert run(command, cfg_path) == 0
        csv_lines = (tmp_path / "out" / f"{command}_results.csv").read_text().splitlines()
        manifest = json.loads((tmp_path / "out" / f"{command}_manifest.json").read_text())
        assert manifest["rows"] == len(csv_lines) - 1 > 0

    def test_cli_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["tune", "--config", "x.json"])


SMALL_CONFIGS = {
    "train": lambda directory: minimal_train_config(directory / "out"),
    "verify": lambda directory: minimal_verify_config(directory / "out"),
    "attack": lambda directory: small_attack_config(directory / "out"),
    "moments": lambda directory: small_moments_config(directory / "out"),
    "report": small_report_config,
}
RESULT_HEADER = "experiment_id,mechanism,metric,value,stderr,seed\n"
NAN, INF = float("nan"), float("inf")


def _set(cfg, path, value):
    """Set the value at a dotted path; integer parts index lists."""
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    reduce(getitem, parents, cfg)[last] = value


def _probe(id, command, changes, field, *also, files=None, seed=None):
    return pytest.param(command, changes, files or {}, seed, field, also, id=id)


BOUNDARY_PROBES = [
    # non-finite numbers (JSON NaN / Infinity), bool-as-int, choices
    _probe("sigma-nan", "train", {"train.noise.sigma": NAN}, "train.noise.sigma"),
    _probe("eta-inf", "train", {"train.eta": INF}, "train.eta"),
    _probe("epochs-bool", "train", {"train.epochs": True}, "train.epochs"),
    _probe("noise-mode", "train", {"train.noise.mode": "gaussian"}, "train.noise.mode"),
    _probe("data-kind-removed", "train", {"data.kind": "linear_regression"}, "data.kind"),
    _probe("mechanism-sigma-inf", "attack",
           {"attack.mechanisms.0.noise.sigma": INF}, "attack.mechanisms[0].noise.sigma"),
    # ranges
    _probe("data-n-negative", "train", {"data.n": -5}, "data.n"),
    _probe("data-d-zero", "train", {"data.d": 0}, "data.d"),
    _probe("data-seed-negative", "train", {"data.seed": -1}, "data.seed"),
    _probe("train-seed-negative", "train", {"train.seed": -1}, "train.seed"),
    _probe("seed-flag-negative", "train", {}, "--seed", seed=-3),
    _probe("record-cap-negative", "train", {"train.record_cap": -1}, "train.record_cap"),
    _probe("pdp-kappa-off-linear-unit", "train",
           {"model": {"layer_sizes": [3, 4, 1], "activation": "tanh"},
            "train.reg": {"kappa": 0.1}}, "train.reg.kappa"),
    _probe("pdp-derived-off-linear-unit", "train",
           {"model": {"layer_sizes": [3, 4, 1], "activation": "tanh"},
            "train.noise.sigma": 0.5, "train.reg": {"kappa_mode": "derived"}},
           "train.reg.kappa_mode"),
    _probe("clip-zero", "train", {"train.noise.clip_c": 0}, "train.noise.clip_c"),
    _probe("kappa-negative", "train", {"train.reg": {"kappa": -1}}, "train.reg.kappa"),
    _probe("layer-sizes-short", "train", {"model.layer_sizes": [3]}, "model.layer_sizes"),
    _probe("oracle-seed-negative", "verify", {"oracle.seed": -1}, "oracle.seed"),
    _probe("configs-zero", "verify", {"oracle.configs": 0}, "oracle.configs"),
    _probe("expectation-replicas-zero", "verify", {"oracle.expectation_replicas": 0},
           "oracle.expectation_replicas"),
    _probe("threshold-negative", "verify", {"oracle.threshold": -1}, "oracle.threshold"),
    _probe("replicas-one", "verify", {"oracle.replicas": 1}, "oracle.replicas"),
    _probe("bins-nine", "verify", {"oracle.bins": 9}, "oracle.bins"),
    _probe("trajectory-epochs-zero", "verify", {"oracle.trajectory_epochs": 0},
           "oracle.trajectory_epochs"),
    _probe("sigma-item-zero", "verify", {"oracle.sigmas": [1.0, 0.0]}, "oracle.sigmas[1]"),
    _probe("sigmas-empty", "moments", {"oracle.sigmas": []}, "oracle.sigmas"),
    _probe("product-replicas-one", "moments", {"oracle.product_replicas": 1},
           "oracle.product_replicas"),
    _probe("attack-seed-negative", "attack", {"attack.seed": -1}, "attack.seed"),
    _probe("mechanisms-empty", "attack", {"attack.mechanisms": []}, "attack.mechanisms"),
    _probe("output-formats", "train", {"output.formats": ["csv"]}, "output.formats"),
    _probe("output-directory-empty", "train", {"output.directory": ""}, "output.directory",
           "must not be empty"),
    # cross-field rules
    _probe("d-mismatch", "train", {"data.d": 2}, "model.layer_sizes[0]", "data.d"),
    _probe("batch-exceeds-n", "train", {"train.batch_size": 40}, "train.batch_size",
           "data.n"),
    _probe("two-outputs", "train", {"model.layer_sizes": [3, 2]}, "model.layer_sizes"),
    _probe("attack-hidden-layer", "attack", {"model.layer_sizes": [3, 4, 1]},
           "model.layer_sizes"),
    _probe("attack-no-bias", "attack", {"model.include_bias": False}, "model.include_bias"),
    _probe("data-one-row", "attack", {"data.n": 1}, "data.n", ">= 2"),
    _probe("membership-one-row", "attack",
           {"attack.membership": True, "data": {"path": "data.csv"}}, "attack.membership",
           "the number of rows in data.csv", files={"data.csv": "x0,x1,x2,t\n1,2,3,4\n"}),
    _probe("file-d-mismatch", "train", {"data": {"path": "data.csv"}},
           "model.layer_sizes[0]", "data.csv", files={"data.csv": "x0,x1,t\n1,2,3\n"}),
    _probe("file-batch-exceeds-rows", "train",
           {"data": {"path": "data.csv"}, "model.layer_sizes": [2, 1]},
           "train.batch_size", "data.csv", files={"data.csv": "x0,x1,t\n1,2,3\n"}),
    # input files that cannot be opened
    _probe("file-missing", "train", {"data": {"path": "missing.csv"}}, "data.path",
           "cannot read 'missing.csv'"),
    _probe("file-path-empty", "train", {"data": {"path": ""}}, "data.path", "cannot read ''"),
    _probe("file-is-a-directory", "train", {"data": {"path": "."}}, "data.path",
           "cannot read '.'"),
    _probe("report-input-missing", "report", {"report.inputs.1": "missing.csv"},
           "report.inputs[1]", "cannot read 'missing.csv'"),
    _probe("report-input-empty", "report", {"report.inputs.1": ""}, "report.inputs[1]",
           "cannot read ''"),
    _probe("report-input-is-a-directory", "report", {"report.inputs.0": "."},
           "report.inputs[0]", "cannot read '.'"),
    # input files that are not UTF-8
    _probe("file-not-utf8", "train", {"data": {"path": "data.csv"}}, "data.path",
           "data.csv, line 2: not UTF-8 text: byte 0xff",
           files={"data.csv": b"x0,x1,x2,t\n1,2,3,\xff\n"}),
    _probe("report-input-not-utf8", "report", {"report.inputs.1": "b.csv"},
           "report.inputs[1]", "b.csv, line 3: not UTF-8 text: byte 0xfe",
           files={"b.csv": RESULT_HEADER.encode() + b"e,m,loss,1,,1\ne,m,loss,\xfe,,1\n"}),
    # report inputs
    _probe("report-empty-csv", "report", {}, "report.inputs[0]", "a.csv", "line 1:",
           files={"a.csv": ""}),
    _probe("report-wrong-header", "report", {}, "report.inputs[1]", "b.csv", "line 1:",
           files={"b.csv": "a,b\n"}),
    _probe("report-short-row", "report", {}, "report.inputs[0]", "a.csv", "line 2:",
           files={"a.csv": RESULT_HEADER + "e,m,loss,1.0\n"}),
    _probe("report-long-row", "report", {}, "report.inputs[0]", "line 3:",
           files={"a.csv": RESULT_HEADER + "e,m,loss,1,,1\ne,m,loss,1,,1,7\n"}),
    _probe("report-not-a-number", "report", {}, "report.inputs[1]", "line 2:",
           files={"b.csv": RESULT_HEADER + "e,m,loss,abc,,1\n"}),
    _probe("report-digit-separator", "report", {}, "report.inputs[1]", "line 2:", "'1_0'",
           files={"b.csv": RESULT_HEADER + "e,m,loss,1_0,,1\n"}),
    _probe("report-blank-value", "report", {}, "report.inputs[0]", "line 3:", "' 2 '",
           files={"a.csv": RESULT_HEADER + "e,m,loss,1,,1\ne,m,loss, 2 ,,1\n"}),
    _probe("report-blank-stderr", "report", {}, "report.inputs[0]", "line 2:", "'0.1 '",
           files={"a.csv": RESULT_HEADER + "e,m,loss,1,0.1 ,1\n"}),
    _probe("report-seed-separator", "report", {}, "report.inputs[1]", "line 2:", "'1_0'",
           files={"b.csv": RESULT_HEADER + "e,m,loss,1,,1_0\n"}),
]


class TestBoundary:
    @pytest.mark.parametrize("command,changes,files,seed,field,also", BOUNDARY_PROBES)
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys,
                                                command, changes, files, seed, field,
                                                also):
        monkeypatch.chdir(tmp_path)
        cfg = SMALL_CONFIGS[command](tmp_path)
        for path, value in changes.items():
            _set(cfg, path, value)
        for name, content in files.items():
            if isinstance(content, bytes):
                (tmp_path / name).write_bytes(content)
            else:
                (tmp_path / name).write_text(content, encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(command, cfg_path, seed_override=seed) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"'{field}'" in err["message"]
        assert all(part in err["message"] for part in also), err["message"]
        assert not (tmp_path / "out" / f"{command}_results.csv").exists()


MUTATION_MENU = (-1, 0, 1, 2.5, NAN, INF, "x", "", True, None, [], {})


def _nodes(obj, path=()):
    """(path, value) of `obj` and of every value nested in it."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _nodes(value, path + (key,))


class TestConfigMutations:
    """Any one mutation of a small working config ends in exit 0, a config
    error (exit 2), or a failure the program names (exit 1): never in an
    exception from deep inside the run."""

    @pytest.mark.parametrize("command", ["train", "attack", "moments", "report"])
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_config_fails_only_at_the_boundary(self, tmp_path, monkeypatch,
                                                       command, data):
        monkeypatch.chdir(tmp_path)
        cfg = SMALL_CONFIGS[command](tmp_path)
        nodes = list(_nodes(cfg))
        action = data.draw(st.sampled_from(["delete", "add", "replace"]))
        if action == "add":
            path = data.draw(st.sampled_from([p for p, v in nodes if isinstance(v, dict)]))
            reduce(getitem, path, cfg)["extra_field"] = 1
        else:
            *parents, last = data.draw(st.sampled_from([p for p, _ in nodes if p]))
            parent = reduce(getitem, parents, cfg)
            if action == "delete":
                del parent[last]
            else:
                parent[last] = copy.deepcopy(data.draw(st.sampled_from(MUTATION_MENU)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run(command, cfg_path, out_dir=str(tmp_path / "out"))
        if code == 0:
            return
        error = json.loads(stderr.getvalue().splitlines()[-1])["error"]
        allowed = {2: {"ConfigError"},
                   1: {"VerificationFailure", "TrainingDivergedError"}}[code]
        assert error in allowed, (code, stderr.getvalue(), cfg)
