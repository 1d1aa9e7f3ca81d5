"""Config-driven experiment orchestration and result persistence.

One JSON config file drives every subcommand; unknown fields are rejected
so typos cannot silently change a run.  Results land as CSV rows with the
fixed header ``experiment_id,mechanism,metric,value,stderr,seed`` (UTF-8,
LF, 17 significant digits) next to a JSON manifest recording the config
hash, seeds, and library versions.  Reruns of the same config produce
byte-identical CSVs; only manifest timestamps differ.

Metric vocabulary by subcommand:

* train:   epoch_loss (one row per epoch), final_loss, final_param_norm
* verify:  post_update_loss_z / post_update_loss_mc (per drawn setup),
           cross_term_z, equivalence_residual, trajectory_param_diff,
           trajectory_record_diff, trajectory_loss_shift_residual,
           step_expectation_err / step_expectation_bound,
           grad_check_{l2,pdp,combined,dp_input,backprop}_max_rel_err,
           plus the moments vocabulary below, and verify_pass
* moments: second_moment_z, fourth_moment_z, variance_of_square_z,
           product_density_max_abs_z, product_density_chi2,
           product_density_symmetry_max_z, moments_pass
* attack:  {closed_form,iterative}_cosine (per trial) and the aggregates
           *_cosine_median, *_cosine_mean, *_mse_median, *_mse_mean,
           *_success_rate, membership_auc (optional)
* report:  input metrics aggregated as mean over rows sharing
           (experiment_id, mechanism, metric)
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .attack import leakage_sweep, membership_inference
from .model import Dataset, ModelSpec, ParameterSet
from .numerics import RngStream
from .optimizers import (NoiseSpec, TrainConfig, initial_params_for,
                         mechanism_label, train)
from .oracle import (DEFAULT_Z_THRESHOLD, backprop_grad_check,
                     check_cross_term_vanishes, check_moment_identities,
                     check_product_density, equivalence_chain_residuals,
                     grad_check, post_update_identity_checks,
                     random_linear_setups)
from .regularizers import RegSpec, dp_input_penalty

COMMANDS = ("train", "verify", "attack", "moments", "report")
OUT_DIR_ENV = "PRIVREG_OUT"
CSV_HEADER = ("experiment_id", "mechanism", "metric", "value", "stderr", "seed")
DATASET_KINDS = ("linear_regression", "noisy_linear", "clusters")


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the field."""


# ---------------------------------------------------------------------------
# result rows


@dataclass(frozen=True)
class ResultRow:
    experiment_id: str
    mechanism: str
    metric: str
    value: float
    stderr: float | None
    seed: int


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_result_rows(path: Path, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.experiment_id, r.mechanism, r.metric, _fmt(r.value),
                             "" if r.stderr is None else _fmt(r.stderr), str(r.seed)])


def read_result_rows(path: Path) -> list[ResultRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header} in {path}")
        for rec in reader:
            rows.append(ResultRow(
                experiment_id=rec[0], mechanism=rec[1], metric=rec[2],
                value=float(rec[3]), stderr=None if rec[4] == "" else float(rec[4]),
                seed=int(rec[5]),
            ))
    return rows


# ---------------------------------------------------------------------------
# dataset generation


def generate_dataset(kind: str, n: int, d: int, noise_level: float,
                     seed: int) -> Dataset:
    """Synthetic regression data with per-column standardized features.

    linear_regression: t = w*.x for a hidden seeded w* (noiseless, so a
    least-squares fit recovers w* exactly).  noisy_linear adds
    N(0, noise_level^2) to the targets.  clusters: two Gaussian blobs of
    spread noise_level around opposite centers, targets +/-1.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if noise_level < 0:
        raise ValueError("noise_level must be nonnegative")

    features = RngStream(seed, 0)
    target_noise = RngStream(seed, 1)
    hidden = RngStream(seed, 2)

    if kind in ("linear_regression", "noisy_linear"):
        x = features.normal(0.0, 1.0, n * d).reshape(n, d)
        x = _standardize_columns(x)
        w_star = hidden.normal(0.0, 1.0, d)
        t = x @ w_star
        if kind == "noisy_linear" and noise_level > 0:
            t = t + target_noise.normal(0.0, noise_level, n)
    else:
        direction = hidden.normal(0.0, 1.0, d)
        direction = direction / max(np.linalg.norm(direction), 1e-12)
        n_pos = n // 2
        labels = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
        x = features.normal(0.0, noise_level, n * d).reshape(n, d)
        x = x + np.outer(labels, 1.5 * direction)
        x = _standardize_columns(x)
        t = labels

    return Dataset(x, t[:, None])


def _standardize_columns(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (x - mu) / sd


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV with header x0,...,x{d-1},t.

    Every row must hold d + 1 finite numbers.  A file that breaks this, or
    holds no rows, raises ConfigError naming the file and the 1-based line.
    """
    def bad(line: int, problem: str) -> ConfigError:
        return ConfigError(f"field 'data.path': {path}, line {line}: {problem}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise bad(1, "empty file, expected the header x0,...,x{d-1},t")
        if (len(header) < 2 or header[-1] != "t"
                or any(h != f"x{i}" for i, h in enumerate(header[:-1]))):
            raise bad(reader.line_num,
                      f"dataset header must be x0,...,x{{d-1}},t, got {header}")
        width = len(header)
        rows = []
        for rec in reader:
            if len(rec) != width:
                raise bad(reader.line_num, f"expected {width} values, got {len(rec)}")
            try:
                vals = [float(v) for v in rec]
            except ValueError as exc:
                raise bad(reader.line_num, str(exc)) from None
            if not all(math.isfinite(v) for v in vals):
                raise bad(reader.line_num, f"values must be finite, got {rec}")
            rows.append(vals)
        if not rows:
            raise bad(reader.line_num + 1, "no data rows after the header")
    table = np.array(rows)
    return Dataset(table[:, :-1], table[:, -1:])


# ---------------------------------------------------------------------------
# config parsing


@dataclass(frozen=True)
class DataConfig:
    kind: str | None = None
    n: int = 0
    d: int = 0
    noise_level: float = 0.0
    seed: int = 0
    path: str | None = None

    def build(self) -> Dataset:
        if self.path is not None:
            return load_dataset(self.path)
        return generate_dataset(self.kind, self.n, self.d, self.noise_level, self.seed)


@dataclass(frozen=True)
class OracleConfig:
    seed: int
    replicas: int = 1_000_000
    configs: int = 50
    threshold: float = DEFAULT_Z_THRESHOLD
    sigmas: tuple[float, ...] = (0.5, 1.0, 2.0)
    bins: int = 40
    product_replicas: int = 1_000_000
    trajectory_epochs: int = 10
    expectation_replicas: int = 10_000


@dataclass(frozen=True)
class AttackConfig:
    seed: int
    trials: int
    mechanisms: tuple[tuple[NoiseSpec, RegSpec], ...]
    eta: float = 0.1
    iters: int = 800
    step: float = 0.02
    restarts: int = 10
    membership: bool = False


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    formats: tuple[str, ...] = ("csv",)


@dataclass(frozen=True)
class ReportConfig:
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    raw: dict
    output: OutputConfig
    model: ModelSpec | None = None
    data: DataConfig | None = None
    train: TrainConfig | None = None
    oracle: OracleConfig | None = None
    attack: AttackConfig | None = None
    report: ReportConfig | None = None


def _check_keys(obj, path: str, required: tuple[str, ...], optional: tuple[str, ...]):
    if not isinstance(obj, dict):
        raise ConfigError(f"'{path}' must be an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown field '{path}.{key}'")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing field '{path}.{key}'")


def _typed(obj, key, path, kind, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing field '{path}.{key}'")
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"field '{path}.{key}' must be {kind.__name__}")
    if not isinstance(value, kind):
        raise ConfigError(f"field '{path}.{key}' must be {kind.__name__}")
    return value


def _parse_noise(obj, path) -> NoiseSpec:
    _check_keys(obj, path, (), ("mode", "sigma", "clip_c"))
    clip = obj.get("clip_c")
    if clip is not None:
        clip = _typed(obj, "clip_c", path, float)
    try:
        return NoiseSpec(mode=_typed(obj, "mode", path, str, "none"),
                         sigma=_typed(obj, "sigma", path, float, 0.0),
                         clip_c=clip)
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _parse_reg(obj, path) -> RegSpec:
    _check_keys(obj, path, (), ("lambda", "kappa", "kappa_mode", "input_kappa"))
    try:
        return RegSpec(lam=_typed(obj, "lambda", path, float, 0.0),
                       kappa=_typed(obj, "kappa", path, float, 0.0),
                       kappa_mode=_typed(obj, "kappa_mode", path, str, "explicit"),
                       input_kappa=_typed(obj, "input_kappa", path, float, 0.0))
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _parse_model(obj) -> ModelSpec:
    _check_keys(obj, "model", ("layer_sizes",), ("activation", "include_bias"))
    sizes = _typed(obj, "layer_sizes", "model", list, required=True)
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in sizes):
        raise ConfigError("field 'model.layer_sizes' must be a list of integers")
    try:
        return ModelSpec(layer_sizes=tuple(sizes),
                         activation=_typed(obj, "activation", "model", str, "identity"),
                         include_bias=_typed(obj, "include_bias", "model", bool, True))
    except ValueError as exc:
        raise ConfigError(f"invalid 'model': {exc}") from exc


def _parse_data(obj) -> DataConfig:
    _check_keys(obj, "data", (), ("kind", "n", "d", "noise_level", "seed", "path"))
    if "path" in obj:
        if len(obj) > 1:
            raise ConfigError("field 'data.path' excludes generator fields")
        return DataConfig(path=_typed(obj, "path", "data", str, required=True))
    for key in ("kind", "n", "d", "seed"):
        if key not in obj:
            raise ConfigError(f"missing field 'data.{key}'")
    kind = _typed(obj, "kind", "data", str, required=True)
    if kind not in DATASET_KINDS:
        raise ConfigError(f"field 'data.kind' must be one of {DATASET_KINDS}")
    return DataConfig(kind=kind,
                      n=_typed(obj, "n", "data", int, required=True),
                      d=_typed(obj, "d", "data", int, required=True),
                      noise_level=_typed(obj, "noise_level", "data", float, 0.0),
                      seed=_typed(obj, "seed", "data", int, required=True))


def _parse_train(obj) -> TrainConfig:
    _check_keys(obj, "train", ("eta", "batch_size", "epochs", "seed"),
                ("noise", "reg", "record_gradients", "record_cap"))
    try:
        return TrainConfig(
            eta=_typed(obj, "eta", "train", float, required=True),
            batch_size=_typed(obj, "batch_size", "train", int, required=True),
            epochs=_typed(obj, "epochs", "train", int, required=True),
            seed=_typed(obj, "seed", "train", int, required=True),
            noise=_parse_noise(obj.get("noise", {}), "train.noise"),
            reg=_parse_reg(obj.get("reg", {}), "train.reg"),
            record_gradients=_typed(obj, "record_gradients", "train", bool, False),
            record_cap=_typed(obj, "record_cap", "train", int, 128),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid 'train': {exc}") from exc


def _parse_oracle(obj) -> OracleConfig:
    _check_keys(obj, "oracle", ("seed",),
                ("replicas", "configs", "threshold", "sigmas", "bins",
                 "product_replicas", "trajectory_epochs", "expectation_replicas"))
    sigmas = obj.get("sigmas", [0.5, 1.0, 2.0])
    if (not isinstance(sigmas, list) or not sigmas
            or not all(isinstance(s, (int, float)) and not isinstance(s, bool) for s in sigmas)):
        raise ConfigError("field 'oracle.sigmas' must be a nonempty list of numbers")
    return OracleConfig(
        seed=_typed(obj, "seed", "oracle", int, required=True),
        replicas=_typed(obj, "replicas", "oracle", int, 1_000_000),
        configs=_typed(obj, "configs", "oracle", int, 50),
        threshold=_typed(obj, "threshold", "oracle", float, DEFAULT_Z_THRESHOLD),
        sigmas=tuple(float(s) for s in sigmas),
        bins=_typed(obj, "bins", "oracle", int, 40),
        product_replicas=_typed(obj, "product_replicas", "oracle", int, 1_000_000),
        trajectory_epochs=_typed(obj, "trajectory_epochs", "oracle", int, 10),
        expectation_replicas=_typed(obj, "expectation_replicas", "oracle", int, 10_000),
    )


def _parse_attack(obj) -> AttackConfig:
    _check_keys(obj, "attack", ("seed", "trials", "mechanisms"),
                ("eta", "iters", "step", "restarts", "membership"))
    mechanisms_raw = _typed(obj, "mechanisms", "attack", list, required=True)
    if not mechanisms_raw:
        raise ConfigError("field 'attack.mechanisms' must be a nonempty list")
    mechanisms = []
    for i, entry in enumerate(mechanisms_raw):
        path = f"attack.mechanisms[{i}]"
        _check_keys(entry, path, (), ("noise", "reg"))
        mechanisms.append((_parse_noise(entry.get("noise", {}), f"{path}.noise"),
                           _parse_reg(entry.get("reg", {}), f"{path}.reg")))
    config = AttackConfig(
        seed=_typed(obj, "seed", "attack", int, required=True),
        trials=_typed(obj, "trials", "attack", int, required=True),
        mechanisms=tuple(mechanisms),
        eta=_typed(obj, "eta", "attack", float, 0.1),
        iters=_typed(obj, "iters", "attack", int, 800),
        step=_typed(obj, "step", "attack", float, 0.02),
        restarts=_typed(obj, "restarts", "attack", int, 10),
        membership=_typed(obj, "membership", "attack", bool, False),
    )
    for key in ("trials", "iters", "restarts"):
        if getattr(config, key) < 1:
            raise ConfigError(f"field 'attack.{key}' must be >= 1")
    for key in ("step", "eta"):
        value = getattr(config, key)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"field 'attack.{key}' must be finite and > 0")
    return config


def _parse_output(obj) -> OutputConfig:
    _check_keys(obj, "output", ("directory",), ("formats",))
    formats = obj.get("formats", ["csv"])
    if not isinstance(formats, list) or any(f != "csv" for f in formats):
        raise ConfigError("field 'output.formats' supports only [\"csv\"]")
    return OutputConfig(directory=_typed(obj, "directory", "output", str, required=True),
                        formats=tuple(formats))


def _parse_report(obj) -> ReportConfig:
    _check_keys(obj, "report", ("inputs",), ())
    inputs = _typed(obj, "inputs", "report", list, required=True)
    if not inputs or not all(isinstance(p, str) for p in inputs):
        raise ConfigError("field 'report.inputs' must be a nonempty list of paths")
    return ReportConfig(inputs=tuple(inputs))


_REQUIRED_SECTIONS = {
    "train": ("model", "data", "train", "output"),
    "verify": ("oracle", "output"),
    "attack": ("model", "data", "attack", "output"),
    "moments": ("oracle", "output"),
    "report": ("report", "output"),
}

_SECTION_PARSERS = {
    "model": _parse_model,
    "data": _parse_data,
    "train": _parse_train,
    "oracle": _parse_oracle,
    "attack": _parse_attack,
    "output": _parse_output,
    "report": _parse_report,
}


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate the raw config dict for one subcommand.

    Every present section is validated (typos fail even in unused
    sections); the command's required sections must be present.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    _check_keys(raw, "config", ("experiment_id", "output"),
                ("model", "data", "train", "oracle", "attack", "report"))
    experiment_id = _typed(raw, "experiment_id", "config", str, required=True)
    for section in _REQUIRED_SECTIONS[command]:
        if section not in raw:
            raise ConfigError(f"missing field 'config.{section}' (required by {command})")
    parsed = {name: parser(raw[name])
              for name, parser in _SECTION_PARSERS.items() if name in raw}
    return ExperimentConfig(experiment_id=experiment_id, raw=raw,
                            output=parsed["output"],
                            model=parsed.get("model"), data=parsed.get("data"),
                            train=parsed.get("train"), oracle=parsed.get("oracle"),
                            attack=parsed.get("attack"), report=parsed.get("report"))


def apply_seed_override(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Replace every section seed with one explicit value."""
    updates = {}
    for name in ("data", "train", "oracle", "attack"):
        section = getattr(config, name)
        if section is not None and getattr(section, "seed", None) is not None:
            if name == "data" and section.path is not None:
                continue
            updates[name] = replace(section, seed=seed)
    return replace(config, **updates)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_train(config: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    data = config.data.build()
    report = train(config.model, data, config.train)
    mech = mechanism_label(config.train.noise, config.train.reg)
    seed = config.train.seed
    rows = [ResultRow(config.experiment_id, mech, "epoch_loss", loss, None, seed)
            for loss in report.epoch_losses]
    rows.append(ResultRow(config.experiment_id, mech, "final_loss",
                          report.epoch_losses[-1], None, seed))
    rows.append(ResultRow(config.experiment_id, mech, "final_param_norm",
                          float(np.linalg.norm(report.final_params.flat)), None, seed))
    return rows, True


def _moment_rows(config: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    oc = config.oracle
    rows, ok = [], True
    for sigma in oc.sigmas:
        mech = f"gaussian(sigma={sigma:g})"
        for check in check_moment_identities(sigma, oc.replicas, oc.seed,
                                             threshold=oc.threshold):
            metric = check.name.split("[")[0] + "_z"
            rows.append(ResultRow(config.experiment_id, mech, metric, check.z,
                                  None, oc.seed))
            ok = ok and check.passed

    density = check_product_density(1.0, 1.0, oc.product_replicas, oc.bins,
                                    oc.seed + 1)
    mech = "product(sigma_x=1,sigma_y=1)"
    rows.append(ResultRow(config.experiment_id, mech, "product_density_max_abs_z",
                          density.max_abs_z, None, oc.seed + 1))
    rows.append(ResultRow(config.experiment_id, mech, "product_density_chi2",
                          density.chi2, None, oc.seed + 1))
    rows.append(ResultRow(config.experiment_id, mech, "product_density_symmetry_max_z",
                          float(np.abs(density.symmetry_z).max()), None, oc.seed + 1))
    ok = ok and density.max_abs_z <= 4.0
    return rows, ok


def _cmd_moments(config: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    rows, ok = _moment_rows(config)
    rows.append(ResultRow(config.experiment_id, "all", "moments_pass",
                          1.0 if ok else 0.0, None, config.oracle.seed))
    return rows, ok


def _cmd_verify(config: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    oc = config.oracle
    eid = config.experiment_id
    rows: list[ResultRow] = []
    ok = True

    # Expected post-update loss identities, both noise shapes.
    setups = random_linear_setups(oc.configs, oc.seed)
    for mode in ("iid", "proportional"):
        checks = post_update_identity_checks(setups, mode, oc.replicas,
                                             oc.seed + 1000, threshold=oc.threshold)
        for check in checks:
            rows.append(ResultRow(eid, mode, "post_update_loss_z", check.z, None,
                                  check.estimate.seed))
            rows.append(ResultRow(eid, mode, "post_update_loss_mc",
                                  check.estimate.mean, check.estimate.stderr,
                                  check.estimate.seed))
            ok = ok and check.passed

    # Cross term has mean zero.
    for mode in ("iid", "proportional"):
        for i, setup in enumerate(setups[:10]):
            check = check_cross_term_vanishes(
                setup.params, setup.x, setup.t, setup.eta,
                NoiseSpec(mode=mode, sigma=setup.sigma),
                max(oc.replicas, 2), oc.seed + 2000 + i, threshold=oc.threshold)
            rows.append(ResultRow(eid, mode, "cross_term_z", check.z, None,
                                  check.estimate.seed))
            ok = ok and check.passed

    # Analytic noisy-minus-clean gap equals the matching penalty.
    for mode_name, idx in (("iid", 0), ("proportional", 1)):
        residual = max(equivalence_chain_residuals(s)[idx] for s in setups)
        rows.append(ResultRow(eid, mode_name, "equivalence_residual", residual,
                              None, oc.seed))
        ok = ok and residual <= 1e-12

    # Input-only penalty leaves the trajectory bit-identical.
    traj = _trajectory_identity(oc)
    for metric, value, bound in traj:
        rows.append(ResultRow(eid, "input_penalty", metric, value, None, oc.seed))
        ok = ok and value <= bound

    # One noisy step averages to the clean step.
    err, bound = _step_expectation(oc)
    rows.append(ResultRow(eid, "iid", "step_expectation_err", err, None, oc.seed))
    rows.append(ResultRow(eid, "iid", "step_expectation_bound", bound, None, oc.seed))
    ok = ok and err <= bound

    # Penalty gradients and backprop against finite differences.
    for kind, worst, bound in _grad_check_suite(oc.seed):
        rows.append(ResultRow(eid, "gradients", f"grad_check_{kind}_max_rel_err",
                              worst, None, oc.seed))
        ok = ok and worst <= bound

    moment_rows, moments_ok = _moment_rows(config)
    rows.extend(moment_rows)
    ok = ok and moments_ok

    rows.append(ResultRow(eid, "all", "verify_pass", 1.0 if ok else 0.0, None, oc.seed))
    return rows, ok


def _trajectory_identity(oc: OracleConfig) -> list[tuple[str, float, float]]:
    """Train with and without the input-only penalty; compare trajectories."""
    data = generate_dataset("noisy_linear", 100, 5, 0.2, oc.seed + 31)
    spec = ModelSpec(layer_sizes=(5, 1), activation="identity", include_bias=True)
    base = TrainConfig(eta=0.05, batch_size=10, epochs=oc.trajectory_epochs,
                       seed=oc.seed + 32, record_gradients=True, record_cap=2048)
    with_term = replace(base, reg=RegSpec(input_kappa=0.7))
    plain = train(spec, data, base)
    shifted = train(spec, data, with_term)

    param_diff = float(np.abs(plain.final_params.flat - shifted.final_params.flat).max())
    record_diff = 0.0
    for a, b in zip(plain.records, shifted.records):
        record_diff = max(record_diff,
                          float(np.abs(a.clean - b.clean).max()),
                          float(np.abs(a.noisy - b.noisy).max()),
                          float(np.abs(a.batch_indices - b.batch_indices).max()))

    mean_input_sq = float(np.mean(dp_input_penalty(data.x, 0.7)))
    shift_residual = max(abs((s - p) - mean_input_sq)
                         for p, s in zip(plain.epoch_losses, shifted.epoch_losses))
    return [("trajectory_param_diff", param_diff, 0.0),
            ("trajectory_record_diff", record_diff, 0.0),
            ("trajectory_loss_shift_residual", shift_residual, 1e-9)]


def _step_expectation(oc: OracleConfig) -> tuple[float, float]:
    """Mean of one noisy step over many noise seeds vs the clean step."""
    eta, sigma = 0.1, 0.3
    data = generate_dataset("noisy_linear", 8, 3, 0.1, oc.seed + 41)
    spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
    base = TrainConfig(eta=eta, batch_size=8, epochs=1, seed=oc.seed + 42)
    init = initial_params_for(spec, base)
    clean = train(spec, data, base, init=init).final_params.flat

    n = oc.expectation_replicas
    total = np.zeros_like(clean)
    for k in range(n):
        config = replace(base, seed=oc.seed + 100 + k,
                         noise=NoiseSpec(mode="iid", sigma=sigma))
        total += train(spec, data, config, init=init).final_params.flat
    err = float(np.abs(total / n - clean).max())
    bound = 3.0 * eta * sigma / np.sqrt(n)
    return err, bound


def _grad_check_suite(seed: int) -> list[tuple[str, float, float]]:
    rng = RngStream(seed, 7)
    worst = {kind: 0.0 for kind in ("l2", "pdp", "combined", "dp_input")}
    for _ in range(20):
        d = 2 + int(rng.uniform(1)[0] * 5)
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=False)
        params = ParameterSet(spec, rng.normal(0.0, 1.0, d))
        x = rng.normal(0.0, 1.0, d)
        lam = float(rng.uniform(1)[0] * 0.2)
        kappa = float(rng.uniform(1)[0] * 0.2)
        for kind in worst:
            worst[kind] = max(worst[kind], grad_check(kind, params, x, lam, kappa))

    backprop_worst = 0.0
    for _ in range(5):
        spec = ModelSpec(layer_sizes=(4, 6, 1), activation="tanh", include_bias=True)
        from .model import init_params
        params = init_params(spec, RngStream(seed, 8))
        x = rng.normal(0.0, 1.0, 4)
        t = rng.normal(0.0, 1.0, 1)
        backprop_worst = max(backprop_worst,
                             backprop_grad_check(spec, params, x, t, h_scale=1e-6))

    return [("l2", worst["l2"], 1e-8), ("pdp", worst["pdp"], 1e-8),
            ("combined", worst["combined"], 1e-8),
            ("dp_input", worst["dp_input"], 1e-10),
            ("backprop", backprop_worst, 1e-6)]


def _cmd_attack(config: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    ac = config.attack
    data = config.data.build()
    reports = leakage_sweep(config.model, data, list(ac.mechanisms), ac.trials,
                            ac.seed, eta=ac.eta, iters=ac.iters, step=ac.step,
                            restarts=ac.restarts)
    eid = config.experiment_id
    rows = []
    for rep in reports:
        prefix = rep.attack
        for cos in rep.cosine:
            rows.append(ResultRow(eid, rep.mechanism, f"{prefix}_cosine", cos,
                                  None, ac.seed))
        rows.append(ResultRow(eid, rep.mechanism, f"{prefix}_cosine_median",
                              rep.median_cosine, None, ac.seed))
        rows.append(ResultRow(eid, rep.mechanism, f"{prefix}_cosine_mean",
                              rep.mean_cosine, None, ac.seed))
        rows.append(ResultRow(eid, rep.mechanism, f"{prefix}_mse_median",
                              rep.median_mse, None, ac.seed))
        rows.append(ResultRow(eid, rep.mechanism, f"{prefix}_mse_mean",
                              rep.mean_mse, None, ac.seed))
        rows.append(ResultRow(eid, rep.mechanism, f"{prefix}_success_rate",
                              rep.success_rate, None, ac.seed))

    if ac.membership:
        rows.extend(_membership_rows(config, data))
    return rows, True


def _membership_rows(config: ExperimentConfig, data: Dataset) -> list[ResultRow]:
    ac = config.attack
    half = len(data) // 2
    members = Dataset(data.x[:half], data.t[:half])
    fresh = Dataset(data.x[half:2 * half], data.t[half:2 * half])
    rows = []
    for noise, reg in ac.mechanisms:
        label = mechanism_label(noise, reg)
        train_config = TrainConfig(eta=ac.eta, batch_size=min(8, half), epochs=50,
                                   seed=ac.seed, noise=noise, reg=reg)
        report = train(config.model, members, train_config)
        result = membership_inference(config.model, report.final_params, members,
                                      fresh, threshold=-1.0)
        rows.append(ResultRow(config.experiment_id, label, "membership_auc",
                              result.auc, None, ac.seed))
    return rows


def _cmd_report(config: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    groups: dict[tuple[str, str, str], list[ResultRow]] = {}
    for path in config.report.inputs:
        for row in read_result_rows(Path(path)):
            groups.setdefault((row.experiment_id, row.mechanism, row.metric),
                              []).append(row)
    rows = []
    for (eid, mech, metric) in sorted(groups):
        bucket = groups[(eid, mech, metric)]
        values = np.array([r.value for r in bucket])
        stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else None
        rows.append(ResultRow(eid, mech, metric, float(values.mean()), stderr,
                              bucket[0].seed))
    mech_width = max((len(r.mechanism) for r in rows), default=10)
    metric_width = max((len(r.metric) for r in rows), default=10)
    for r in rows:
        count = len(groups[(r.experiment_id, r.mechanism, r.metric)])
        print(f"{r.mechanism:<{mech_width}}  {r.metric:<{metric_width}}  "
              f"{r.value:>14.6g}  (n={count})")
    return rows, True


_COMMAND_IMPLS = {
    "train": _cmd_train,
    "verify": _cmd_verify,
    "attack": _cmd_attack,
    "moments": _cmd_moments,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# orchestration


def _collect_seeds(config: ExperimentConfig) -> dict:
    seeds = {}
    for name in ("data", "train", "oracle", "attack"):
        section = getattr(config, name)
        if section is not None and getattr(section, "seed", None) is not None:
            seeds[name] = section.seed
    return seeds


def _write_manifest(path: Path, config: ExperimentConfig, command: str) -> None:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    manifest = {
        "experiment_id": config.experiment_id,
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seeds": _collect_seeds(config),
        "versions": {
            "privreg": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _error_report(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message}, sort_keys=True)


def run(command: str, config_path: str | Path, out_dir: str | None = None,
        seed_override: int | None = None) -> int:
    """Execute one subcommand from a config file.

    Exit codes: 0 success (all checks passed where applicable), 1 runtime
    or verification failure, 2 config error.  Output directory precedence:
    --out argument, then $PRIVREG_OUT, then output.directory.
    """
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        config = parse_config(raw, command)
        if seed_override is not None:
            config = apply_seed_override(config, seed_override)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(_error_report(type(exc).__name__, str(exc)), file=sys.stderr)
        return 2

    directory = Path(out_dir or os.environ.get(OUT_DIR_ENV) or config.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        rows, ok = _COMMAND_IMPLS[command](config)
        write_result_rows(directory / f"{command}_results.csv", rows)
        _write_manifest(directory / f"{command}_manifest.json", config, command)
    except ConfigError as exc:  # input files named by the config, read at run time
        print(_error_report(type(exc).__name__, str(exc)), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (boundary: report and signal failure)
        print(_error_report(type(exc).__name__, str(exc)), file=sys.stderr)
        return 1
    if not ok:
        print(_error_report("VerificationFailure",
                            f"{command} checks failed; see {directory}"), file=sys.stderr)
        return 1
    return 0
