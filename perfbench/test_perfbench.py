"""Tests of the benchmark's own parts: generator, checks and tracer."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import privreg  # noqa: E402
from privreg import experiments, model, numerics, optimizers  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from pass_child import run_ops  # noqa: E402
from tracer import Tracer  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _tiny_train_op(directory: Path, op_id: str = "op000", **train) -> workloads.Op:
    config = {
        "experiment_id": "tiny",
        "model": {"layer_sizes": [3, 1], "include_bias": False},
        "data": {"kind": "noisy_linear", "n": 10, "d": 3, "noise_level": 0.1, "seed": 4},
        "train": {"eta": 0.05, "batch_size": 1, "epochs": 2, "seed": 5, **train},
        "output": {"directory": "out"},
    }
    (directory / f"{op_id}.json").write_text(json.dumps(config), encoding="utf-8")
    rows = frozenset(("noise=none:sigma=0|l2=0|pdp=0", metric)
                     for metric in workloads.TRAIN_METRICS)
    return workloads.Op(op_id, "train", f"{op_id}.json", rows, epochs=2)


def test_counters_are_exact_on_a_tiny_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = _tiny_train_op(tmp_path)
    with Tracer() as tracer:
        results = run_ops([op], tmp_path, tracer)
    assert results[0]["reason"] is None
    counters = tracer.counters()
    assert counters["optimizers.example_steps"] == 20
    assert counters["optimizers.train.calls"] == 1
    assert counters["experiments.calls"] == 1
    self_ns = tracer.self_ns()
    assert sum(self_ns.values()) == tracer.root_ns()
    assert all(value >= 0 for value in self_ns.values())


def test_tracing_restores_every_namespace():
    originals = (model.forward, numerics.RngStream.normal, experiments.run)
    with Tracer():
        assert optimizers.forward is model.forward
        assert privreg.forward is model.forward
        assert model.forward is not originals[0]
        assert numerics.RngStream.normal is not originals[1]
    assert privreg.optimizers.forward is privreg.model.forward
    assert (model.forward, numerics.RngStream.normal, experiments.run) == originals


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    workloads.generate(workload, 7, 1, tmp_path / "a")
    workloads.generate(workload, 7, 1, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    workloads.generate(workload, 8, 1, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_inputs_not_work(tmp_path, workload):
    counts = []
    for seed in (1, 2):
        directory = tmp_path / str(seed)
        ops = workloads.generate(workload, seed, 0, directory)
        counts.append(workloads.work_count(ops, directory))
    assert counts[0] == counts[1]


def test_failing_op_is_counted_and_named(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = _tiny_train_op(tmp_path, "op000")
    bad = _tiny_train_op(tmp_path, "op001", momentum=0.9)  # unknown field: exit 2
    results = run_ops([good, bad, good], tmp_path)
    error_rate, failures = run.failures(results)
    assert error_rate == pytest.approx(1 / 3)
    assert len(failures) == 1 and "op001" in failures[0] and "exit code 2" in failures[0]


def test_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    op = {"op": "op000", "command": "train", "wall_s": 1.0, "rows": 3, "reason": None}
    trace = {"self_ns": dict.fromkeys(run.LAYERS, 1), "root_ns": 7, "counters": {},
             "missing_units": []}
    passes = [{"ops": [op], "peak_rss_kb": 1024, "trace": trace}]
    for listed, (metrics, _) in ((spec["end_to_end"], run.end_to_end([1.0], passes)),
                                 (spec["per_layer"], run.per_layer(passes, passes))):
        assert {m["name"]: m["unit"] for m in listed} == {
            name: value["unit"] for name, value in metrics.items()}
