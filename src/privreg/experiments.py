"""Config-driven experiment orchestration and result persistence.

One JSON config file drives every subcommand; unknown fields are rejected
so typos cannot silently change a run.  Results land as CSV rows with the
fixed header ``experiment_id,mechanism,metric,value,stderr,seed`` (UTF-8,
LF, 17 significant digits) next to a JSON manifest recording the config
hash, seeds, library versions, the CSV's row count and the run's
telemetry (seconds per phase for every subcommand, the Monte Carlo lanes,
replicas and normals of verify and moments, peak RSS, failed checks).
Reruns of the same config produce byte-identical CSVs; only the
manifest's timestamp and telemetry differ.

verify and moments run a table of (phase, check function) pairs through
one runner (_run_checks), which times the phases and decides every gate:
each exact check at its own tolerance, and every z-score of the run as
one family held to the false-failure rate that oracle.threshold names
(_family_bound).  Every row of a run carries the run's seed; its draws
come from streams keyed by purpose (see privreg.numerics).

Metric vocabulary by subcommand:

* train:   epoch_loss (one row per epoch), final_loss, final_param_norm
* verify:  post_update_loss_z / post_update_loss_mc and cross_term_z
           (per drawn setup), equivalence_residual, trajectory_param_diff,
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
import io
import json
import math
import os
import resource
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .attack import COSINE_SUCCESS, leakage_sweep, membership_inference
from .model import ACTIVATIONS, Dataset, ModelSpec, ParameterSet, init_params
from .numerics import (ATTACK_MEMBERSHIP, DATA_FEATURES, DATA_HIDDEN, DATA_TARGET_NOISE,
                       TRAIN_NOISE, VERIFY_GRAD_CHECK, VERIFY_MOMENTS, VERIFY_NOISY_STEP,
                       VERIFY_STEP_EXPECTATION, VERIFY_TRAJECTORY, RngStream)
from .optimizers import (NOISE_MODES, NoiseSpec, TrainConfig, initial_params_for,
                         mechanism_label, mechanism_step, train)
from .oracle import (LinearSetup, backprop_grad_error, check_moment_identities,
                     check_noisy_step, check_product_density, equivalence_chain_residuals,
                     mc_lanes, penalty_grad_error, random_linear_setups)
from .regularizers import KAPPA_MODES, RegSpec, add_penalties

OUT_DIR_ENV = "PRIVREG_OUT"
CSV_HEADER = ("experiment_id", "mechanism", "metric", "value", "stderr", "seed")
DATASET_KINDS = ("noisy_linear", "clusters")


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


def read_result_rows(path: str | Path, field: str = "report.inputs") -> list[ResultRow]:
    """Read a result CSV written by write_result_rows; a bad file raises
    ConfigError naming `field`, the file and the 1-based line."""
    rows = []
    for line, rec in _read_csv(path, field, ",".join(CSV_HEADER),
                               lambda header: tuple(header) == CSV_HEADER):
        try:
            rows.append(ResultRow(
                experiment_id=rec[0], mechanism=rec[1], metric=rec[2],
                value=_cell_number(rec[3]),
                stderr=None if rec[4] == "" else _cell_number(rec[4]),
                seed=_cell_number(rec[5], int),
            ))
        except ValueError as exc:
            raise _file_error(field, path, line, str(exc)) from None
    return rows


def _cell_number(cell: str, kind: type = float):
    """kind(cell), without the digit separators, blanks and non-ASCII digits
    that float() and int() allow."""
    if "_" in cell or cell != cell.strip() or not cell.isascii():
        raise ValueError(f"{cell!r} is not a plain ASCII number (no '_', no blanks)")
    return kind(cell)


def _file_error(field: str, path, line: int, problem: str) -> ConfigError:
    return ConfigError(f"field '{field}': {path}, line {line}: {problem}")


def _read_csv(path, field: str, header_text: str,
              header_ok: Callable[[list[str]], bool]) -> list[tuple[int, list[str]]]:
    """(1-based line, record) for every row of a CSV file after its header.

    A file that cannot be opened, a file that is not UTF-8 text, an empty
    file, a header that fails `header_ok`, or a row not as long as the
    header raises ConfigError naming `field`, the file and, past the
    opening, the line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"field '{field}': cannot read {str(path)!r}: "
                          f"{exc.strerror or exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _file_error(field, path, raw.count(b"\n", 0, exc.start) + 1,
                          f"not UTF-8 text: byte 0x{raw[exc.start]:02x}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise _file_error(field, path, 1, f"empty file, expected the header {header_text}")
    if not header_ok(header):
        raise _file_error(field, path, reader.line_num,
                          f"header must be {header_text}, got {header}")
    records = []
    for rec in reader:
        if len(rec) != len(header):
            raise _file_error(field, path, reader.line_num,
                              f"expected {len(header)} values, got {len(rec)}")
        records.append((reader.line_num, rec))
    return records


# ---------------------------------------------------------------------------
# dataset generation


def generate_dataset(kind: str, n: int, d: int, noise_level: float,
                     seed: int, key: tuple[int, ...] = ()) -> Dataset:
    """Synthetic regression data with per-column standardized features,
    drawn from the streams (*key, DATA_...) of `seed`.

    noisy_linear: t = w*.x + N(0, noise_level^2) for a hidden seeded w*
    (at noise_level 0 a least-squares fit recovers w* exactly).  clusters:
    two Gaussian blobs of spread noise_level around opposite centers,
    targets +/-1.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if noise_level < 0:
        raise ValueError("noise_level must be nonnegative")

    features = RngStream(seed, *key, DATA_FEATURES)
    target_noise = RngStream(seed, *key, DATA_TARGET_NOISE)
    hidden = RngStream(seed, *key, DATA_HIDDEN)

    if kind == "noisy_linear":
        x = features.normal(1.0, n * d).reshape(n, d)
        x = _standardize_columns(x)
        w_star = hidden.normal(1.0, d)
        t = x @ w_star
        if noise_level > 0:
            t = t + target_noise.normal(noise_level, n)
    else:
        direction = hidden.normal(1.0, d)
        direction = direction / max(np.linalg.norm(direction), 1e-12)
        n_pos = n // 2
        labels = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
        x = features.normal(noise_level, n * d).reshape(n, d)
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
    def header_ok(header: list[str]) -> bool:
        return (len(header) >= 2 and header[-1] == "t"
                and all(h == f"x{i}" for i, h in enumerate(header[:-1])))

    rows = []
    for line, rec in _read_csv(path, "data.path", "x0,...,x{d-1},t", header_ok):
        try:
            vals = [_cell_number(v) for v in rec]
        except ValueError as exc:
            raise _file_error("data.path", path, line, str(exc)) from None
        if not all(math.isfinite(v) for v in vals):
            raise _file_error("data.path", path, line, f"values must be finite, got {rec}")
        rows.append(vals)
    if not rows:
        raise _file_error("data.path", path, 2, "no data rows after the header")
    table = np.array(rows)
    return Dataset(table[:, :-1], table[:, -1:])


# ---------------------------------------------------------------------------
# config parsing
#
# Each section is a table of fields.  One walker checks a raw JSON object
# against its table and builds the section's dataclass from the keys that
# are present, so the dataclasses stay the only home of defaults.


@dataclass(frozen=True)
class DataConfig:
    kind: str | None = None
    n: int = 0
    d: int = 0
    noise_level: float = 0.0
    seed: int = 0
    path: str | None = None


@dataclass(frozen=True)
class OracleConfig:
    seed: int
    replicas: int = 1_000_000
    configs: int = 50
    threshold: float = 3.0
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


@dataclass(frozen=True)
class Field:
    """One config field: its JSON type, whether it must be present, a range
    rule (text for the message, predicate), the spec of list elements or of
    object members, and what builds an object from its checked members."""

    kind: type
    required: bool = False
    rule: tuple[str, Callable] | None = None
    items: Field | None = None
    fields: dict[str, Field] | None = None
    build: Callable | None = None


def _at_least(low: int) -> tuple[str, Callable]:
    return f">= {low}", lambda v: v >= low


def _one_of(choices: tuple[str, ...]) -> tuple[str, Callable]:
    return f"one of {choices}", lambda v: v in choices


_POSITIVE = ("> 0", lambda v: v > 0)
_NONNEGATIVE = _at_least(0)
_NONEMPTY = ("nonempty", lambda v: len(v) > 0)
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _check(spec: Field, value, path: str):
    """`value` checked against `spec`: ints widen to floats, lists become
    tuples, and objects are built from their checked members."""
    if spec.kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"field '{path}' must be finite") from None
    if not isinstance(value, spec.kind) or (isinstance(value, bool) and spec.kind is not bool):
        raise ConfigError(f"field '{path}' must be {_KIND_NAMES[spec.kind]}")
    if spec.kind is float and not math.isfinite(value):
        raise ConfigError(f"field '{path}' must be finite, got {value}")
    if spec.items is not None:
        value = tuple(_check(spec.items, v, f"{path}[{i}]") for i, v in enumerate(value))
    if spec.rule is not None and not spec.rule[1](value):
        raise ConfigError(f"field '{path}' must be {spec.rule[0]}")
    if spec.fields is not None:
        members = _check_members(spec.fields, value, path)
        try:
            value = spec.build(**members)
        except ValueError as exc:
            raise ConfigError(f"invalid '{path}': {exc}") from exc
    return value


def _check_members(fields: dict[str, Field], obj: dict, path: str) -> dict:
    """The checked members of an object; the root object has path ''."""
    where = path or "config"
    for key in obj:
        if key not in fields:
            raise ConfigError(f"unknown field '{where}.{key}'")
    for key, spec in fields.items():
        if spec.required and key not in obj:
            raise ConfigError(f"missing field '{where}.{key}'")
    return {key: _check(fields[key], value, f"{path}.{key}" if path else key)
            for key, value in obj.items()}


def _reg_spec(**members) -> RegSpec:
    if "lambda" in members:
        members["lam"] = members.pop("lambda")
    return RegSpec(**members)


def _mechanism(noise=NoiseSpec(), reg=RegSpec()) -> tuple[NoiseSpec, RegSpec]:
    return noise, reg


def _data_config(**members) -> DataConfig:
    if "path" in members:
        if len(members) > 1:
            raise ConfigError("field 'data.path' excludes generator fields")
    else:
        for key in ("kind", "n", "d", "seed"):
            if key not in members:
                raise ConfigError(f"missing field 'data.{key}'")
    return DataConfig(**members)


_SEED = Field(int, True, _NONNEGATIVE)
_NOISE = Field(dict, fields={
    "mode": Field(str, rule=_one_of(NOISE_MODES)),
    "sigma": Field(float, rule=_NONNEGATIVE),
    "clip_c": Field(float, rule=_POSITIVE),
}, build=NoiseSpec)
_REG = Field(dict, fields={
    "lambda": Field(float, rule=_NONNEGATIVE),
    "kappa": Field(float, rule=_NONNEGATIVE),
    "kappa_mode": Field(str, rule=_one_of(KAPPA_MODES)),
    "input_kappa": Field(float, rule=_NONNEGATIVE),
}, build=_reg_spec)
_SECTIONS = {
    "experiment_id": Field(str, True),
    "output": Field(dict, True, fields={"directory": Field(str, True)}, build=OutputConfig),
    "model": Field(dict, fields={
        "layer_sizes": Field(list, True, ("a list of at least 2 sizes", lambda v: len(v) >= 2),
                             items=Field(int, rule=_at_least(1))),
        "activation": Field(str, rule=_one_of(ACTIVATIONS)),
        "include_bias": Field(bool),
    }, build=ModelSpec),
    "data": Field(dict, fields={
        "kind": Field(str, rule=_one_of(DATASET_KINDS)),
        "n": Field(int, rule=_at_least(1)),
        "d": Field(int, rule=_at_least(1)),
        "noise_level": Field(float, rule=_NONNEGATIVE),
        "seed": Field(int, rule=_NONNEGATIVE),
        "path": Field(str),
    }, build=_data_config),
    "train": Field(dict, fields={
        "eta": Field(float, True, _POSITIVE),
        "batch_size": Field(int, True, _at_least(1)),
        "epochs": Field(int, True, _at_least(1)),
        "seed": _SEED,
        "noise": _NOISE,
        "reg": _REG,
    }, build=TrainConfig),
    "oracle": Field(dict, fields={
        "seed": _SEED,
        "replicas": Field(int, rule=_at_least(2)),
        "configs": Field(int, rule=_at_least(1)),
        "threshold": Field(float, rule=_POSITIVE),
        "sigmas": Field(list, rule=_NONEMPTY, items=Field(float, rule=_POSITIVE)),
        "bins": Field(int, rule=_at_least(10)),
        "product_replicas": Field(int, rule=_at_least(2)),
        "trajectory_epochs": Field(int, rule=_at_least(1)),
        "expectation_replicas": Field(int, rule=_at_least(1)),
    }, build=OracleConfig),
    "attack": Field(dict, fields={
        "seed": _SEED,
        "trials": Field(int, True, _at_least(1)),
        "mechanisms": Field(list, True, _NONEMPTY, items=Field(dict, fields={
            "noise": _NOISE, "reg": _REG}, build=_mechanism)),
        "eta": Field(float, rule=_POSITIVE),
        "iters": Field(int, rule=_at_least(1)),
        "step": Field(float, rule=_POSITIVE),
        "restarts": Field(int, rule=_at_least(1)),
        "membership": Field(bool),
    }, build=AttackConfig),
    "report": Field(dict, fields={
        "inputs": Field(list, True, _NONEMPTY, items=Field(str)),
    }, build=ReportConfig),
}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key given twice raises
    ConfigError, as json.load would keep only its last value."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ConfigError(f"duplicate key {key!r} in the config")
        members[key] = value
    return members


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate the raw config dict for one subcommand.

    Every present section is validated (typos fail even in unused
    sections); the command's required sections must be present, and the
    model must fit the command and, when generated, the data.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    config = ExperimentConfig(raw=raw, **_check_members(_SECTIONS, raw, ""))
    for section in COMMANDS[command].sections:
        if section not in raw:
            raise ConfigError(f"missing field 'config.{section}' (required by {command})")
    if command in ("train", "attack"):
        _check_model_use(config, command)
        if config.data.path is None:
            _check_data_fit(config, command, config.data.n, config.data.d)
    return config


def _check_model_use(config: ExperimentConfig, command: str) -> None:
    """Rules between the model and the command, whatever the data."""
    sizes = config.model.layer_sizes
    if sizes[-1] != 1:
        raise ConfigError(f"field 'model.layer_sizes' must end in 1, got {list(sizes)}: "
                          "every dataset has one target column")
    if command == "attack":
        if not config.model.is_linear_unit:
            raise ConfigError(f"field 'model.layer_sizes' must be [d, 1] for attack, "
                              f"got {list(sizes)}: the inversions need one linear unit")
        if not config.model.include_bias:
            raise ConfigError("field 'model.include_bias' must be true for attack: "
                              "closed-form inversion divides by the bias gradient")
    if command == "train" and not config.model.is_linear_unit:
        # The parameter-input product stands in for proportional noise on
        # one linear output unit only (see privreg.regularizers).
        reg = config.train.reg
        if reg.effective_kappa(config.train.eta, config.train.noise.sigma) > 0:
            if reg.kappa_mode == "explicit":
                raise ConfigError(f"field 'train.reg.kappa' must be 0 unless the model is "
                                  f"a single linear output unit, got {reg.kappa}")
            raise ConfigError("field 'train.reg.kappa_mode' must not be 'derived' with "
                              "train.noise.sigma > 0 unless the model is a single "
                              "linear output unit")


def _check_data_fit(config: ExperimentConfig, command: str, n: int, d: int,
                    rows: str = "data.n", features: str = "data.d") -> None:
    """Rules between the model, the command and the data's n rows of d
    features, checked at parse time for generated data and after loading
    for a data file; `rows` and `features` say where n and d come from."""
    if config.model.layer_sizes[0] != d:
        raise ConfigError(f"field 'model.layer_sizes[0]' must equal {features} ({d}), "
                          f"got {config.model.layer_sizes[0]}")
    if command == "train" and config.train.batch_size > n:
        raise ConfigError(f"field 'train.batch_size' must be <= {rows} ({n}), "
                          f"got {config.train.batch_size}")
    if command == "attack" and config.attack.membership and n < 2:
        raise ConfigError(f"field 'attack.membership' needs {rows} >= 2 to split the "
                          f"data into members and non-members, got {n}")


def _seeded_sections(config: ExperimentConfig) -> dict:
    """The present sections whose seed the run uses; a data file has none."""
    sections = {name: getattr(config, name) for name in ("data", "train", "oracle", "attack")}
    return {name: section for name, section in sections.items()
            if section is not None and not (name == "data" and section.path is not None)}


def apply_seed_override(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Replace every section seed with one explicit value."""
    _check(_SEED, seed, "--seed")
    return replace(config, **{name: replace(section, seed=seed)
                              for name, section in _seeded_sections(config).items()})


# ---------------------------------------------------------------------------
# subcommand implementations


def _load_data(config: ExperimentConfig, command: str) -> Dataset:
    """The configured dataset; a data file is checked against the model
    once loaded, as generated data was at parse time."""
    dc = config.data
    if dc.path is None:
        return generate_dataset(dc.kind, dc.n, dc.d, dc.noise_level, dc.seed)
    data = load_dataset(dc.path)
    _check_data_fit(config, command, len(data), data.dim, f"the number of rows in {dc.path}",
                    f"the number of x columns in {dc.path}")
    return data


class RunTelemetry:
    """What a run says about itself in its manifest, never in its CSV:
    wall seconds per phase, lanes per phase run in lanes (see oracle.mc_lanes),
    units of work per phase (replicas scored and normals drawn by a Monte
    Carlo phase, steps and example-steps by a training phase), the
    family gate of verify and moments (its size k, rate alpha and
    bound on |z|; None for the other subcommands), and every failed check
    as (name, value, bound), a check passing when value <= bound."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self.lanes: dict[str, int] = {}
        self.work: dict[str, dict[str, int]] = {}
        self.family_gate: dict[str, float] | None = None
        self.failed_checks: list[tuple[str, float, float]] = []

    @contextmanager
    def phase(self, name: str):
        started = perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + perf_counter() - started

    def count(self, phase: str, **units: int) -> None:
        """Add units of work to a phase's counts."""
        counts = self.work.setdefault(phase, {})
        for unit, amount in units.items():
            counts[unit] = counts.get(unit, 0) + amount


def _train_work(n: int, config: TrainConfig) -> dict[str, int]:
    """The steps and example-steps of one train() run on n examples."""
    return {"steps": config.epochs * -(-n // config.batch_size),
            "example_steps": config.epochs * n}


def _cmd_train(config: ExperimentConfig, telemetry: RunTelemetry) -> list[ResultRow]:
    with telemetry.phase("load_data"):
        data = _load_data(config, "train")
    with telemetry.phase("train"):
        report = train(config.model, data, config.train)
    telemetry.count("train", **_train_work(len(data), config.train))
    mech = mechanism_label(config.train.noise, config.train.reg)
    seed = config.train.seed
    rows = [ResultRow(config.experiment_id, mech, "epoch_loss", loss, None, seed)
            for loss in report.epoch_losses]
    rows.append(ResultRow(config.experiment_id, mech, "final_loss",
                          report.epoch_losses[-1], None, seed))
    rows.append(ResultRow(config.experiment_id, mech, "final_param_norm",
                          float(np.linalg.norm(report.final_params.flat)), None, seed))
    return rows


@dataclass(frozen=True)
class _CheckRow:
    """A verify or moments CSV row, less its experiment id and its seed (the
    run's).  A gated row's check `check` (the metric if None) passes when
    |value| <= its bound: `bound` for an exact check, or for a row that
    stands for `zs` z-scores of the run's family, the family's bound on |z|
    times `unit`, the standard error that |value| is measured in.  A row
    with a `bound_metric` is followed by a row of that name holding its
    bound."""

    mechanism: str
    metric: str
    value: float
    stderr: float | None = None
    bound: float | None = None
    zs: int = 0
    unit: float = 1.0
    check: str | None = None
    bound_metric: str | None = None


def _worst(values) -> float:
    """The largest |value|, NaN if any value is NaN: a worst case folded
    with Python's max would drop a NaN and pass its gate."""
    return float(np.max(np.abs(values)))


class _McWork(NamedTuple):
    """A Monte Carlo phase's work: the most lanes a check of the phase runs
    in (oracle.mc_lanes), the replicas its checks score, and the normals
    they draw."""

    lanes: int
    replicas: int
    normals: int


def _family_bound(threshold: float, tests: int) -> tuple[float, float]:
    """(alpha, b) for a family of `tests` z-scores: alpha = erfc(threshold
    / sqrt 2) is the rate at which one |z| <= threshold test fails a
    correct program, and b solves erfc(b / sqrt 2) = alpha / tests.  Gating
    every z of the family at |z| <= b fails a correct program with
    probability at most alpha (Bonferroni), however the z-scores depend on
    each other.  b is found by bisection on math.erfc, to the last bit, and
    errs high by at most one ulp."""
    alpha = math.erfc(threshold / math.sqrt(2.0))
    target = alpha / max(tests, 1)

    def tail(b: float) -> float:
        return math.erfc(b / math.sqrt(2.0))

    lo, hi = threshold, 2.0 * threshold
    while tail(hi) > target:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if tail(mid) > target else (lo, mid)
    return alpha, hi


def _run_checks(config: ExperimentConfig, telemetry: RunTelemetry, verdict: str,
                phases: list[tuple[str, Callable[[OracleConfig], list[_CheckRow]]]],
                mc_work: dict[str, Callable[[OracleConfig], _McWork]]) -> list[ResultRow]:
    """The rows of each (phase, check function) in order, each function
    timed as its phase, then the `verdict` row, 1 if every gate passed.
    A phase named in `mc_work` has its lanes and its Monte Carlo work
    recorded in the telemetry.  Every gate of verify and moments is decided
    here, in row order: each exact check at its own bound, and all the
    run's z-scores as one family at the bound _family_bound gives for
    oracle.threshold."""
    oc, checked = config.oracle, []
    for phase, checks in phases:
        with telemetry.phase(phase):
            checked += checks(oc)
        if phase in mc_work:
            work = mc_work[phase](oc)
            telemetry.lanes[phase] = work.lanes
            telemetry.count(phase, replicas=work.replicas, normals=work.normals)
    tests = sum(r.zs for r in checked)
    alpha, z_bound = _family_bound(oc.threshold, tests)
    telemetry.family_gate = {"k": tests, "alpha": alpha, "z_bound": z_bound}
    eid, rows = config.experiment_id, []
    for r in checked:
        bound = z_bound * r.unit if r.zs else r.bound
        rows.append(ResultRow(eid, r.mechanism, r.metric, r.value, r.stderr, oc.seed))
        if r.bound_metric is not None:
            rows.append(ResultRow(eid, r.mechanism, r.bound_metric, bound, None, oc.seed))
        if bound is not None and not abs(r.value) <= bound:
            telemetry.failed_checks.append((r.check or r.metric, float(abs(r.value)),
                                            float(bound)))
    return rows + [ResultRow(eid, "all", verdict, float(not telemetry.failed_checks), None,
                             oc.seed)]


def _cmd_verify(config: ExperimentConfig, telemetry: RunTelemetry) -> list[ResultRow]:
    oc = config.oracle
    setups = random_linear_setups(oc.configs, oc.seed)
    return _run_checks(config, telemetry, "verify_pass", [
        ("post_update_mc", partial(_noisy_step_rows, setups)),
        ("equivalence", partial(_equivalence_rows, setups)),
        ("trajectory", _trajectory_identity),
        ("step_expectation", _step_expectation),
        ("grad_checks", _grad_check_suite),
        ("moments_and_product_density", _moment_rows),
    ], {"post_update_mc": partial(_noisy_step_work, setups),
        "moments_and_product_density": _moment_work})


def _cmd_moments(config: ExperimentConfig, telemetry: RunTelemetry) -> list[ResultRow]:
    return _run_checks(config, telemetry, "moments_pass",
                       [("moments_and_product_density", _moment_rows)],
                       {"moments_and_product_density": _moment_work})


# The noise shapes of verify's noisy-step checks and equivalence residuals.
_NOISY_STEP_MODES = ("iid", "proportional")


def _noisy_step_rows(setups: list[LinearSetup], oc: OracleConfig) -> list[_CheckRow]:
    """The post-update loss and cross term checks: one check_noisy_step of
    every setup in both noise shapes, each clipped at the setup's clip_c,
    from the key (VERIFY_NOISY_STEP,), in one set of lanes
    (oracle.mc_lanes).  Rows go kind by kind, shape by shape, then setup by
    setup; every setup's cross term is written and gated."""
    per_setup = check_noisy_step(
        [(s.params, s.x, s.t, s.eta, tuple(NoiseSpec(mode=mode, sigma=s.sigma, clip_c=s.clip_c)
                                           for mode in _NOISY_STEP_MODES))
         for s in setups],
        oc.replicas, oc.seed, (VERIFY_NOISY_STEP,))
    rows = []
    for column in zip(*per_setup):
        for i, c in enumerate(column):
            rows.append(_CheckRow(c.label, f"{c.kind}_z", c.z, zs=1, check=f"{c.name}[{i}]"))
            if c.kind == "post_update_loss":
                rows.append(_CheckRow(c.label, "post_update_loss_mc", c.mean, c.stderr))
    return rows


def _noisy_step_work(setups: list[LinearSetup], oc: OracleConfig) -> _McWork:
    """_noisy_step_rows scores every setup's replicas in both noise shapes,
    all stepping on rows as wide as the widest setup."""
    return _McWork(mc_lanes(oc.replicas), len(_NOISY_STEP_MODES) * len(setups) * oc.replicas,
                   max(s.params.flat.size for s in setups) * oc.replicas)


def _equivalence_rows(setups: list[LinearSetup], oc: OracleConfig) -> list[_CheckRow]:
    """Analytic noisy-minus-clean gap equals the matching penalty: the
    worst residual over the setups, per noise shape."""
    residuals = [equivalence_chain_residuals(s) for s in setups]
    return [_CheckRow(mode, "equivalence_residual", _worst([r[k] for r in residuals]),
                      bound=1e-12, check=f"equivalence_residual[{mode}]")
            for k, mode in enumerate(_NOISY_STEP_MODES)]


def _moment_rows(oc: OracleConfig) -> list[_CheckRow]:
    """The moment checks, sigma j drawing from the key (VERIFY_MOMENTS, j),
    and the product density, whose 2 * bins bin z-scores join the family
    through their largest |z|, each check in lanes of its own
    (oracle.mc_lanes)."""
    rows = [_CheckRow(f"gaussian({c.label})", f"{c.kind}_z", c.z, zs=1, check=c.name)
            for j, sigma in enumerate(oc.sigmas)
            for c in check_moment_identities(sigma, oc.replicas, oc.seed, (VERIFY_MOMENTS, j))]
    density = check_product_density(1.0, 1.0, oc.product_replicas, oc.bins, oc.seed)
    mech = "product(sigma_x=1,sigma_y=1)"
    return rows + [
        _CheckRow(mech, "product_density_max_abs_z", density.max_abs_z, zs=2 * oc.bins),
        _CheckRow(mech, "product_density_chi2", density.chi2),
        _CheckRow(mech, "product_density_symmetry_max_z", _worst(density.symmetry_z)),
    ]


def _moment_work(oc: OracleConfig) -> _McWork:
    """_moment_rows draws one normal per moment replica of each sigma and
    two, X and Y, per product replica."""
    moments = len(oc.sigmas) * oc.replicas
    return _McWork(max(mc_lanes(oc.replicas), mc_lanes(oc.product_replicas)),
                   moments + oc.product_replicas, moments + 2 * oc.product_replicas)


def _trajectory_identity(oc: OracleConfig) -> list[_CheckRow]:
    """Train with and without the input-only penalty; compare trajectories.
    Both runs draw from the same streams, keyed VERIFY_TRAJECTORY, so
    only the penalty may tell them apart."""
    key = (VERIFY_TRAJECTORY,)
    data = generate_dataset("noisy_linear", 100, 5, 0.2, oc.seed, key)
    spec = ModelSpec(layer_sizes=(5, 1), activation="identity", include_bias=True)
    base = TrainConfig(eta=0.05, batch_size=10, epochs=oc.trajectory_epochs,
                       seed=oc.seed, record_gradients=True)
    shift = RegSpec(input_kappa=0.7)
    plain, shifted = (train(spec, data, replace(base, reg=reg), key=key)
                      for reg in (RegSpec(), shift))

    param_diff = _worst(plain.final_params.flat - shifted.final_params.flat)
    record_diff = _worst(np.concatenate([
        diff for a, b in zip(plain.records, shifted.records)
        for diff in (a.clean - b.clean, a.noisy - b.noisy, a.batch_indices - b.batch_indices)]))
    mean_input_sq = float(np.mean(add_penalties(shift, np.zeros(len(data)), plain.final_params,
                                                data.x, 0.0)))
    shift_residual = _worst([(s - p) - mean_input_sq
                             for p, s in zip(plain.epoch_losses, shifted.epoch_losses)])
    return [_CheckRow("input_penalty", f"trajectory_{metric}", value, bound=bound)
            for metric, value, bound in (("param_diff", param_diff, 0.0),
                                         ("record_diff", record_diff, 0.0),
                                         ("loss_shift_residual", shift_residual, 1e-9))]


def _step_expectation(oc: OracleConfig) -> list[_CheckRow]:
    """Mean of many noisy steps vs the clean step, all from one start.

    The clean step is one full batch of the data in stored order; the
    noisy steps are the same batch with each of n rows of one noise block,
    taken as one mechanism_step on the block's (P, n) transpose.  The data,
    the start and the noise are keyed VERIFY_STEP_EXPECTATION.  Each
    coordinate of the mean step is off the clean one by eta * sigma *
    mean(z_i), so the worst error joins the family as one z-score per
    coordinate, in units of eta * sigma / sqrt(n).
    """
    eta, sigma, key = 0.1, 0.3, (VERIFY_STEP_EXPECTATION,)
    data = generate_dataset("noisy_linear", 8, 3, 0.1, oc.seed, key)
    spec = ModelSpec(layer_sizes=(3, 1), activation="identity", include_bias=False)
    init = initial_params_for(spec, oc.seed, key)
    noise = NoiseSpec(mode="iid", sigma=sigma)
    clean = mechanism_step(init, data.x, data.t, eta, noise, RegSpec()).params

    n, width = oc.expectation_replicas, spec.n_params
    z = RngStream(oc.seed, *key, TRAIN_NOISE).normal(1.0, n * width).reshape(n, width)
    noisy = mechanism_step(init, data.x, data.t, eta, noise, RegSpec(),
                           np.ascontiguousarray(z.T)).params
    return [_CheckRow("iid", "step_expectation_err", _worst(noisy.sum(axis=1) / n - clean),
                      zs=width, unit=eta * sigma / math.sqrt(n),
                      bound_metric="step_expectation_bound")]


# Bound on each gradient's worst relative error against finite differences.
_GRAD_BOUNDS = {"l2": 1e-8, "pdp": 1e-8, "combined": 1e-8, "dp_input": 1e-10,
                "backprop": 1e-6}


def _grad_check_suite(oc: OracleConfig) -> list[_CheckRow]:
    """Penalty gradients and backprop against finite differences of their
    losses: each penalty row is one RegSpec, the combined row weight decay
    and the product term together."""
    rng = RngStream(oc.seed, VERIFY_GRAD_CHECK, 0)
    errors = {kind: [] for kind in _GRAD_BOUNDS}
    for _ in range(20):
        d = 2 + int(rng.uniform(1)[0] * 5)
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=False)
        params = ParameterSet(spec, rng.normal(1.0, d))
        x = rng.normal(1.0, d)
        lam = float(rng.uniform(1)[0] * 0.2)
        kappa = float(rng.uniform(1)[0] * 0.2)
        for kind, reg in (("l2", RegSpec(lam=lam)), ("pdp", RegSpec(kappa=kappa)),
                          ("dp_input", RegSpec(input_kappa=kappa)),
                          ("combined", RegSpec(lam=lam, kappa=kappa))):
            errors[kind].append(penalty_grad_error(reg, params, x))

    spec = ModelSpec(layer_sizes=(4, 6, 1), activation="tanh", include_bias=True)
    init_rng = RngStream(oc.seed, VERIFY_GRAD_CHECK, 1)
    for _ in range(5):
        params = init_params(spec, init_rng)
        x = rng.normal(1.0, 4)
        t = rng.normal(1.0, 1)
        errors["backprop"].append(backprop_grad_error(params, x, t))

    return [_CheckRow("gradients", f"grad_check_{kind}_max_rel_err", _worst(errors[kind]),
                      bound=bound) for kind, bound in _GRAD_BOUNDS.items()]


def _cmd_attack(config: ExperimentConfig, telemetry: RunTelemetry) -> list[ResultRow]:
    ac = config.attack
    with telemetry.phase("load_data"):
        data = _load_data(config, "attack")
    with telemetry.phase("sweep"):
        reports = leakage_sweep(config.model, data, list(ac.mechanisms), ac.trials,
                                ac.seed, eta=ac.eta, iters=ac.iters, step=ac.step,
                                restarts=ac.restarts)
    eid = config.experiment_id
    rows = []
    for rep in reports:
        values = [("cosine", cos) for cos in rep.cosine.tolist()] + [
            ("cosine_median", np.median(rep.cosine)), ("cosine_mean", np.mean(rep.cosine)),
            ("mse_median", np.median(rep.mse)), ("mse_mean", np.mean(rep.mse)),
            ("success_rate", np.mean(rep.cosine >= COSINE_SUCCESS))]
        for metric, value in values:
            rows.append(ResultRow(eid, rep.mechanism, f"{rep.attack}_{metric}", float(value),
                                  None, ac.seed))

    if ac.membership:
        with telemetry.phase("membership"):
            rows.extend(_membership_rows(config, data, telemetry))
    return rows


def _membership_rows(config: ExperimentConfig, data: Dataset,
                     telemetry: RunTelemetry) -> list[ResultRow]:
    ac = config.attack
    half = len(data) // 2
    members = Dataset(data.x[:half], data.t[:half])
    fresh = Dataset(data.x[half:2 * half], data.t[half:2 * half])
    rows = []
    for noise, reg in ac.mechanisms:
        label = mechanism_label(noise, reg)
        train_config = TrainConfig(eta=ac.eta, batch_size=min(8, half), epochs=50,
                                   seed=ac.seed, noise=noise, reg=reg)
        report = train(config.model, members, train_config, key=(ATTACK_MEMBERSHIP,))
        telemetry.count("membership", **_train_work(len(members), train_config))
        auc = membership_inference(report.final_params, members, fresh)
        rows.append(ResultRow(config.experiment_id, label, "membership_auc", auc,
                              None, ac.seed))
    return rows


def _cmd_report(config: ExperimentConfig, telemetry: RunTelemetry) -> list[ResultRow]:
    groups: dict[tuple[str, str, str], list[ResultRow]] = {}
    with telemetry.phase("read_inputs"):
        for i, path in enumerate(config.report.inputs):
            for row in read_result_rows(path, f"report.inputs[{i}]"):
                groups.setdefault((row.experiment_id, row.mechanism, row.metric),
                                  []).append(row)
    rows = []
    with telemetry.phase("aggregate"):
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
    return rows


@dataclass(frozen=True)
class Command:
    """A subcommand: the config sections it requires, the function that
    runs it, and its line of CLI help."""

    sections: tuple[str, ...]
    run: Callable[[ExperimentConfig, RunTelemetry], list[ResultRow]]
    help: str


COMMANDS = {
    "train": Command(("model", "data", "train", "output"), _cmd_train,
                     "train one model per the config and record losses"),
    "verify": Command(("oracle", "output"), _cmd_verify,
                      "run every statistical and algebraic identity check"),
    "attack": Command(("model", "data", "attack", "output"), _cmd_attack,
                      "run the gradient-leakage sweep over mechanisms"),
    "moments": Command(("oracle", "output"), _cmd_moments,
                       "run the Gaussian moment and product-density checks"),
    "report": Command(("report", "output"), _cmd_report,
                      "aggregate result CSVs into a summary table"),
}


# ---------------------------------------------------------------------------
# orchestration


def _write_manifest(path: Path, config: ExperimentConfig, command: str,
                    telemetry: RunTelemetry, rows: int) -> None:
    """The run's record beside its CSV: config hash, seeds, versions, the
    CSV's row count, and telemetry (seconds per phase, lanes per phase run
    in lanes, units of work per phase, the family gate,
    the process's peak RSS so far, failed checks), which only the manifest
    carries.  It is strict JSON: a failed check's non-finite value
    or bound is written as the string "nan", "inf" or "-inf"."""
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    manifest = {
        "experiment_id": config.experiment_id,
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seeds": {name: s.seed for name, s in _seeded_sections(config).items()},
        "versions": {
            "privreg": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "rows": rows,
        "timings": telemetry.timings,
        "lanes": telemetry.lanes,
        "work": telemetry.work,
        "family_gate": telemetry.family_gate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_checks": [[name, *(v if math.isfinite(v) else str(v) for v in numbers)]
                          for name, *numbers in telemetry.failed_checks],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _failure_message(command: str, failed: list[tuple[str, float, float]],
                     directory: Path) -> str:
    """The first five failed checks by name; the manifest lists them all."""
    named = "; ".join(f"{name} = {value:.6g} > {bound:.6g}"
                      for name, value, bound in failed[:5])
    more = f"; and {len(failed) - 5} more" if len(failed) > 5 else ""
    return (f"{command} failed {len(failed)} check(s): {named}{more}; "
            f"all are listed in {directory / f'{command}_manifest.json'}")


def _error_report(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message}, sort_keys=True)


def _output_directory(out_dir: str | None, config: ExperimentConfig) -> Path:
    """Create the output directory run() picks; ConfigError names its source."""
    env_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir is not None:
        source, name = "--out", out_dir
    elif env_dir:
        source, name = f"${OUT_DIR_ENV}", env_dir
    else:
        source, name = "field 'output.directory'", config.output.directory
    if not name:
        raise ConfigError(f"{source}: the output directory must not be empty")
    directory = Path(name)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot create output directory {str(directory)!r}: "
                          f"{exc.strerror or exc}") from None
    return directory


def run(command: str, config_path: str | Path, out_dir: str | None = None,
        seed_override: int | None = None) -> int:
    """Execute one subcommand from a config file.

    Exit codes: 0 success (all checks passed where applicable), 1 runtime
    or verification failure, 2 config error.  Output directory precedence:
    --out argument, then $PRIVREG_OUT, then output.directory.
    """
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        config = parse_config(raw, command)
        if seed_override is not None:
            config = apply_seed_override(config, seed_override)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(_error_report(type(exc).__name__, str(exc)), file=sys.stderr)
        return 2

    try:
        directory = _output_directory(out_dir, config)
        telemetry = RunTelemetry()
        rows = COMMANDS[command].run(config, telemetry)
        write_result_rows(directory / f"{command}_results.csv", rows)
        _write_manifest(directory / f"{command}_manifest.json", config, command, telemetry,
                        len(rows))
    except Exception as exc:  # noqa: BLE001  (boundary: report and signal failure)
        print(_error_report(type(exc).__name__, str(exc)), file=sys.stderr)
        # A ConfigError here names the output directory or an input file.
        return 2 if isinstance(exc, ConfigError) else 1
    if telemetry.failed_checks:
        print(_error_report("VerificationFailure",
                            _failure_message(command, telemetry.failed_checks, directory)),
              file=sys.stderr)
        return 1
    return 0
