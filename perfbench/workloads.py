"""Seeded workload generator and per-op output checks.

A workload is a fixed sequence of ops (one pass).  Each op is one call to
``privreg.experiments.run(command, config_path, out_dir)``.  ``generate``
writes a pass's configs (and, for train-mix, its CSV datasets) into a
directory, with every path relative to that directory, so the same
(workload, seed, pass) gives byte-identical files wherever they land.

The workload seed changes data, train, oracle and attack seeds only; the
grid and the sizes never change.  verify-mc and attack-sweep take their
seeds from pools on which the program's data-dependent work (setup
dimensions, descent restarts stopping early) is the same, so every seed
does the same work.

This module uses only the standard library: the benchmark's parent
process imports it without importing numpy or privreg.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

WORKLOADS = ("train-mix", "verify-mc", "attack-sweep")

# --- train-mix: {linear, tanh} x mechanism x batch {1, 25}, four rounds ---

TRAIN_N, TRAIN_D, TRAIN_EPOCHS, TRAIN_ROUNDS = 200, 5, 10, 4
TRAIN_BATCHES = (1, 25)
TRAIN_MODELS = {
    "linear": {"layer_sizes": [5, 1], "activation": "identity", "include_bias": False},
    "tanh": {"layer_sizes": [5, 16, 1], "activation": "tanh", "include_bias": True},
}
# mechanism name -> (train-section fields, label privreg writes in the CSV)
TRAIN_MECHANISMS = {
    "plain": ({}, "noise=none:sigma=0|l2=0|pdp=0"),
    "dpsgd": ({"noise": {"mode": "iid", "sigma": 0.3, "clip_c": 1.0}},
              "noise=iid:sigma=0.3:clip=1|l2=0|pdp=0"),
    "proportional": ({"noise": {"mode": "proportional", "sigma": 0.5}},
                     "noise=proportional:sigma=0.5|l2=0|pdp=0"),
    "pdp-reg": ({"noise": {"mode": "none", "sigma": 0.5},
                 "reg": {"kappa_mode": "derived", "lambda": 0.01}},
                "noise=none:sigma=0.5|l2=0.01|pdp=derived"),
}
# The penalty is exact for one linear neuron only, so pdp-reg stays off the
# tanh model: a later release may reject kappa > 0 on multi-layer models.
TRAIN_SKIP = {("tanh", "pdp-reg")}
TRAIN_METRICS = ("epoch_loss", "final_loss", "final_param_norm")

# --- verify-mc: the shipped identity suite with 10 randomized setups ---

VERIFY_CONFIG = {
    "replicas": 1_000_000, "configs": 10, "threshold": 3.0,
    "sigmas": [0.5, 1.0, 2.0], "bins": 40, "product_replicas": 1_000_000,
    "trajectory_epochs": 10, "expectation_replicas": 10_000,
}
# Oracle seeds whose ten setups all have the same dimensions, so every op
# draws the same normals, and that pass: verify's 3-sigma gates fail a
# correct program on about one seed in eight.  pools.py rebuilds the list.
VERIFY_SEEDS = (
    1399561358, 1016379134, 1496509137, 1018607246, 231845113, 762837120,
    1729467747, 274267908, 1175016305, 113625311, 884687438, 1968528641,
)
VERIFY_ROWS = frozenset(
    [(mode, metric) for mode in ("iid", "proportional")
     for metric in ("post_update_loss_z", "post_update_loss_mc", "cross_term_z",
                    "equivalence_residual")]
    + [("input_penalty", metric) for metric in
       ("trajectory_param_diff", "trajectory_record_diff",
        "trajectory_loss_shift_residual")]
    + [("iid", "step_expectation_err"), ("iid", "step_expectation_bound")]
    + [("gradients", f"grad_check_{kind}_max_rel_err")
       for kind in ("l2", "pdp", "combined", "dp_input", "backprop")]
    + [(f"gaussian(sigma={sigma:g})", f"{moment}_z")
       for sigma in VERIFY_CONFIG["sigmas"]
       for moment in ("second_moment", "fourth_moment", "variance_of_square")]
    + [("product(sigma_x=1,sigma_y=1)", metric) for metric in
       ("product_density_max_abs_z", "product_density_chi2",
        "product_density_symmetry_max_z")]
    + [("all", "verify_pass")]
)

# --- attack-sweep: the shipped six-mechanism sweep, two trials per op ---

ATTACK_OPS, ATTACK_TRIALS, ATTACK_N, ATTACK_D = 2, 2, 24, 4
ATTACK_ITERS, ATTACK_RESTARTS = 800, 10
ATTACK_MECHANISMS = (
    ({"noise": {"mode": "none"}}, "noise=none:sigma=0|l2=0|pdp=0"),
    ({"noise": {"mode": "iid", "sigma": 0.1}}, "noise=iid:sigma=0.1|l2=0|pdp=0"),
    ({"noise": {"mode": "iid", "sigma": 0.5}}, "noise=iid:sigma=0.5|l2=0|pdp=0"),
    ({"noise": {"mode": "iid", "sigma": 1.0}}, "noise=iid:sigma=1|l2=0|pdp=0"),
    ({"noise": {"mode": "proportional", "sigma": 0.5}},
     "noise=proportional:sigma=0.5|l2=0|pdp=0"),
    ({"noise": {"mode": "none"}, "reg": {"kappa": 0.01}},
     "noise=none:sigma=0|l2=0|pdp=0.01"),
)
# (data seed, attack seed) pairs on which every restart runs all its
# iterations, so every op does the same work; pools.py rebuilds the list.
ATTACK_SEEDS = (
    (1743791103, 180997436), (1286795645, 165387379), (398148379, 100115636),
    (1655422343, 2093556304), (1503184130, 510244498), (1572799812, 243197927),
    (704018005, 287890794), (1108486581, 170659967), (653856488, 1689752730),
    (1912826759, 525571738), (1299011156, 2079303148), (1663657017, 721751723),
    (270842934, 828866501), (932602642, 657377069), (1327228448, 2051219607),
    (1163503110, 464125613),
)
# Clean inversion of a linear neuron's gradient is exact.
ATTACK_EXACT_MECHANISM = ATTACK_MECHANISMS[0][1]
ATTACK_ROWS = frozenset(
    (label, f"{attack}_{metric}")
    for _, label in ATTACK_MECHANISMS
    for attack in ("closed_form", "iterative")
    for metric in ("cosine", "cosine_median", "cosine_mean", "mse_median",
                   "mse_mean", "success_rate")
) | frozenset((label, "membership_auc") for _, label in ATTACK_MECHANISMS)


@dataclass(frozen=True)
class Op:
    """One call to privreg.experiments.run and what its output must hold."""

    op_id: str
    command: str
    config: str                 # path relative to the pass directory
    expected_rows: frozenset    # exact set of (mechanism, metric) pairs
    epochs: int = 0             # train only: epoch_loss rows expected


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_dataset(path: Path, seed: int) -> None:
    """noisy_linear data like privreg's generator, but drawn here."""
    rng = random.Random(seed)
    w = [rng.gauss(0.0, 1.0) for _ in range(TRAIN_D)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(TRAIN_D)] + ["t"])
        for _ in range(TRAIN_N):
            x = [rng.gauss(0.0, 1.0) for _ in range(TRAIN_D)]
            t = sum(a * b for a, b in zip(w, x)) + rng.gauss(0.0, 0.2)
            writer.writerow([repr(v) for v in x + [t]])


def _train_ops(seed: int, pass_index: int, directory: Path) -> list[Op]:
    draw = partial(random.Random(f"train-mix:{seed}:{pass_index}").randrange, 1, 2 ** 31)
    ops = []
    for rnd in range(TRAIN_ROUNDS):
        data_seed = draw()
        if rnd % 2:
            data_file = f"data-round{rnd}.csv"
            _write_dataset(directory / data_file, data_seed)
            data = {"path": data_file}
        else:
            data = {"kind": "noisy_linear", "n": TRAIN_N, "d": TRAIN_D,
                    "noise_level": 0.2, "seed": data_seed}
        for model_name, model in TRAIN_MODELS.items():
            for mech_name, (fields, label) in TRAIN_MECHANISMS.items():
                if (model_name, mech_name) in TRAIN_SKIP:
                    continue
                for batch in TRAIN_BATCHES:
                    op_id = f"op{len(ops):03d}"
                    config = {
                        "experiment_id": f"train-mix-{model_name}-{mech_name}-b{batch}",
                        "model": model, "data": data,
                        "train": {"eta": 0.05, "batch_size": batch,
                                  "epochs": TRAIN_EPOCHS, "seed": draw(), **fields},
                        "output": {"directory": "out"},
                    }
                    _write_json(directory / f"{op_id}.json", config)
                    ops.append(Op(op_id, "train", f"{op_id}.json",
                                  frozenset((label, m) for m in TRAIN_METRICS),
                                  epochs=TRAIN_EPOCHS))
    return ops


def verify_op(directory: Path, op_id: str, oracle_seed: int) -> Op:
    config = {"experiment_id": "verify-mc",
              "oracle": {**VERIFY_CONFIG, "seed": oracle_seed},
              "output": {"directory": "out"}}
    _write_json(directory / f"{op_id}.json", config)
    return Op(op_id, "verify", f"{op_id}.json", VERIFY_ROWS)


def attack_op(directory: Path, op_id: str, data_seed: int, attack_seed: int) -> Op:
    config = {
        "experiment_id": "attack-sweep",
        "model": {"layer_sizes": [ATTACK_D, 1], "include_bias": True},
        "data": {"kind": "noisy_linear", "n": ATTACK_N, "d": ATTACK_D,
                 "noise_level": 0.3, "seed": data_seed},
        "attack": {"seed": attack_seed, "trials": ATTACK_TRIALS, "eta": 0.1,
                   "iters": ATTACK_ITERS, "step": 0.01,
                   "restarts": ATTACK_RESTARTS, "membership": True,
                   "mechanisms": [m for m, _ in ATTACK_MECHANISMS]},
        "output": {"directory": "out"},
    }
    _write_json(directory / f"{op_id}.json", config)
    return Op(op_id, "attack", f"{op_id}.json", ATTACK_ROWS)


def _pool_slice(pool: tuple, workload: str, seed: int, pass_index: int, count: int):
    """`count` pool entries for one pass; the passes of a run take
    consecutive entries, so a run repeats none until the pool runs out."""
    start = random.Random(f"{workload}:{seed}").randrange(len(pool))
    return [pool[(start + pass_index * count + i) % len(pool)] for i in range(count)]


def _verify_ops(seed: int, pass_index: int, directory: Path) -> list[Op]:
    (oracle_seed,) = _pool_slice(VERIFY_SEEDS, "verify-mc", seed, pass_index, 1)
    return [verify_op(directory, "op000", oracle_seed)]


def _attack_ops(seed: int, pass_index: int, directory: Path) -> list[Op]:
    pairs = _pool_slice(ATTACK_SEEDS, "attack-sweep", seed, pass_index, ATTACK_OPS)
    return [attack_op(directory, f"op{k:03d}", *pair) for k, pair in enumerate(pairs)]


_GENERATORS = {"train-mix": _train_ops, "verify-mc": _verify_ops,
               "attack-sweep": _attack_ops}


def generate(workload: str, seed: int, pass_index: int, directory: Path) -> list[Op]:
    """Write one pass's inputs into `directory` and return its ops."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](seed, pass_index, directory)


def work_count(ops: list[Op], directory: Path) -> dict[str, int]:
    """Units of work in a pass, read back from its generated configs."""
    counts = {"ops": len(ops)}
    for op in ops:
        config = json.loads((directory / op.config).read_text(encoding="utf-8"))
        if op.command == "train":
            n = _dataset_size(config["data"], directory)
            counts["example-steps"] = counts.get("example-steps", 0) + n * config["train"]["epochs"]
        elif op.command == "verify":
            oc = config["oracle"]
            # post-update and cross-term checks per noise shape, plus moments
            replicas = (2 * oc["configs"] + 2 * min(oc["configs"], 10)) * oc["replicas"]
            replicas += len(oc["sigmas"]) * oc["replicas"] + oc["product_replicas"]
            counts["mc-replicas"] = counts.get("mc-replicas", 0) + replicas
        elif op.command == "attack":
            ac = config["attack"]
            inversions = len(ac["mechanisms"]) * ac["trials"]
            counts["inversions"] = counts.get("inversions", 0) + inversions
            counts["restarts"] = counts.get("restarts", 0) + inversions * ac["restarts"]
    return counts


def _dataset_size(data: dict, directory: Path) -> int:
    if "path" not in data:
        return data["n"]
    with open(directory / data["path"], encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check_output(op: Op, exit_code: int, out_dir: Path) -> tuple[list[tuple], str | None]:
    """Read an op's result rows and return (rows, reason it failed or None)."""
    if exit_code != 0:
        return [], f"exit code {exit_code}"
    path = out_dir / f"{op.command}_results.csv"
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [(r["mechanism"], r["metric"], float(r["value"]))
                    for r in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError) as exc:
        return [], f"unreadable {path.name}: {exc}"
    got = {(mech, metric) for mech, metric, _ in rows}
    if got != op.expected_rows:
        missing = sorted(op.expected_rows - got)[:3]
        extra = sorted(got - op.expected_rows)[:3]
        return rows, f"row set differs: missing {missing}, unexpected {extra}"
    values = {}
    for mech, metric, value in rows:
        values.setdefault(metric, []).append((mech, value))
    if op.command == "train":
        losses = [v for _, v in values["epoch_loss"] + values["final_loss"]]
        if not all(math.isfinite(v) for v in losses):
            return rows, "non-finite training loss"
        if len(values["epoch_loss"]) != op.epochs:
            return rows, f"{len(values['epoch_loss'])} epoch_loss rows, expected {op.epochs}"
    elif op.command == "verify":
        if values["verify_pass"][0][1] != 1.0:
            return rows, "verify_pass is not 1"
    elif op.command == "attack":
        rate = dict(values["closed_form_success_rate"])[ATTACK_EXACT_MECHANISM]
        if rate != 1.0:
            return rows, f"clean closed-form success rate {rate}, expected 1"
    return rows, None
