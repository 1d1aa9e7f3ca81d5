"""SGD and its privacy-motivated variants.

Four mechanisms share one loop:

* plain SGD                     noise mode "none", no penalties
* clip-and-noise SGD            optional per-example clipping, then one
                                Gaussian draw of scale sigma added to the
                                averaged batch gradient
* proportional-noise SGD        per-coordinate noise of scale theta_i*sigma,
                                using the pre-update parameter values
* penalty-based SGD             weight decay and/or the parameter-input
                                product term folded into each per-example
                                gradient, no noise required; the product
                                term needs a single linear output unit

Order per batch (_StepPlan): one forward/backward pass over the batch's
(B, d) rows gives the (B, P) per-example loss gradients; the penalty
gradients are added row by row (regularizers._add_factor_gradients, on
factors made once per run), each row is clipped by its norm, the rows
are averaged, then one optional noise draw and the step.  Penalties
belong to the loss, so they come before the privacy mechanics.  Every
row is computed exactly as the example would be on its own (see
privreg.model), so batch size never changes an example's gradient bits.
train() builds one plan per batch size, mechanism_step one per call, and
block_stepper one per stepper, so every caller steps through one path.
train() and the attacks pass one (P,) noise vector per step.
block_stepper is the one home of many noisy steps from one start: it
checks, plans and takes the clean gradient once, hands out the noiseless
step, then writes each (P, R) block of R noise columns, the parameter
axis first so that each broadcast over P runs along R, into one fresh
(P, R) array of steps.  That is how the oracle samples its noisy steps,
one block at a time, and verify's step expectation its mean step.
dataset_loss, which train() reports per epoch, adds the same terms to the
losses (regularizers.add_penalties) at the same kappa, so the loss
reported is the loss the steps descend.

A run is deterministic given its seed and its key prefix (see
privreg.numerics): it draws its init, its epoch permutations and its
gradient noise from the keys (*prefix, TRAIN_INIT), (*prefix,
TRAIN_SHUFFLE) and (*prefix, TRAIN_NOISE).  A run on its own takes the
empty prefix; a caller that trains for a purpose of its own (an attack
trial, verify's trajectory check) passes its key.  train() draws its
noise in blocks of about NOISE_BLOCK normals, one call per block rather
than one per step; draws compose at any size, so step s gets the bits it
would get from the s-th of one draw per step.

At batch 1 a step costs its numpy calls' fixed overhead, not arithmetic,
so train() keeps that overhead low without changing a bit: it permutes
the data and penalty factors once per epoch and steps on slices of them,
a one-row batch as its (d,) example, with float targets, through the
model's one-example pass; it writes each step into one ParameterSet's
flat vector in place (its layer views follow, see privreg.model); its
plans reuse their buffers and clip in place; eta, sigma and 2 * lam reach
the ufuncs as 0-d arrays, which need no per-call conversion; it checks
the parameters once per epoch.  A batch-1 step takes about 3.8 us on a
(5, 1) unit without bias (plain SGD) to 13 us on a (5, 16, 1) tanh net
(clip and noise), against 5.2 and 16 us before (2-core x86-64, BENCH_32.json).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .model import (Dataset, ModelSpec, ParameterSet, _backward, _check_batch, _ExamplePass,
                    _forward, _layer_views, forward, init_params, quadratic_loss)
from .numerics import TRAIN_INIT, TRAIN_NOISE, TRAIN_SHUFFLE, RngStream
from .regularizers import RegSpec, _add_factor_gradients, _gradient_factors, add_penalties

NOISE_MODES = ("none", "iid", "proportional")

# Standard normals per block of train()'s noise draws: a block holds
# NOISE_BLOCK // P whole (P,) rows (at least one), so a run makes one
# RngStream.normal call per block instead of one per step.
NOISE_BLOCK = 1 << 12


@dataclass(frozen=True)
class NoiseSpec:
    """Gradient noise mode, scale, and optional per-example clip threshold."""

    mode: str = "none"
    sigma: float = 0.0
    clip_c: float | None = None

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be a finite number >= 0, got {self.sigma!r}")
        if self.clip_c is not None and not (math.isfinite(self.clip_c) and self.clip_c > 0):
            raise ValueError(f"clip_c must be a finite number > 0, got {self.clip_c!r}")

    @property
    def adds_noise(self) -> bool:
        """Whether a step draws and adds noise: mode "none" and sigma 0 do not."""
        return self.mode != "none" and self.sigma > 0


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the model and the data.

    eta is the one fixed learning rate of the run: the penalty weight that
    stands in for the noise, kappa = eta^2 * sigma^2, needs a constant eta.
    """

    eta: float
    batch_size: int = 1
    epochs: int = 1
    seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    reg: RegSpec = RegSpec()
    record_gradients: bool = False

    def __post_init__(self):
        if not (isinstance(self.eta, numbers.Real) and math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be a finite number > 0, got {self.eta!r}")
        for name, low in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class GradientRecord:
    """One step's averaged batch gradient before and after the privacy mechanism."""

    clean: np.ndarray
    noisy: np.ndarray
    batch_indices: np.ndarray


@dataclass
class TrainReport:
    epoch_losses: list[float]
    final_params: ParameterSet
    records: list[GradientRecord] | None


class TrainingDivergedError(ArithmeticError):
    """Training produced non-finite parameters or a non-finite epoch loss."""


def mechanism_label(noise: NoiseSpec, reg: RegSpec) -> str:
    label = f"noise={noise.mode}:sigma={noise.sigma:g}"
    if noise.clip_c is not None:
        label += f":clip={noise.clip_c:g}"
    kappa = "derived" if reg.kappa_mode == "derived" else f"{reg.kappa:g}"
    label += f"|l2={reg.lam:g}|pdp={kappa}"
    if reg.input_kappa > 0:
        label += f"|input={reg.input_kappa:g}"
    return label


def clip_gradient(g: np.ndarray, c: float) -> np.ndarray:
    """Rescale each gradient (the last axis; one per row of a (B, P) batch)
    to norm at most c, preserving direction: g / max(1, |g|/c)."""
    if not c > 0:
        raise ValueError(f"clip threshold must be positive, got {c}")
    g = np.asarray(g, dtype=np.float64)
    norm = np.sqrt(np.vecdot(g, g))
    return g / np.maximum(1.0, norm / c)[..., None]


class Step(NamedTuple):
    """One step of a mechanism: the (P,) averaged batch gradient before and
    after the noise, and the (P,) parameters it steps to."""

    clean: np.ndarray
    noisy: np.ndarray
    params: np.ndarray


class _StepPlan:
    """A mechanism's step on batches of B examples from `params`, with what
    never changes within a run worked out once and the buffers each call
    writes.  plan(x, t, factor, noise), unchecked, gives (clean, noisy) for
    a (B, d) batch with (B, k) targets, or at B = 1 for one (d,) example
    with k float targets (model._ExamplePass); factor is the batch's
    product-term factor (regularizers._gradient_factors) or None, noise one
    (P,) row as _noise_rows draws it or None: noisy is (P,), clean itself
    for None.  Either may be a buffer the next call overwrites; a (P, R)
    block of noise is block_stepper's."""

    def __init__(self, params: ParameterSet, batch: int, noise: NoiseSpec,
                 lam: np.ndarray | None):
        spec = params.spec
        self.params, self.clip_c, self.batch, self.lam = params, noise.clip_c, batch, lam
        self.grads = np.empty(spec.n_params if batch == 1 else (batch, spec.n_params))
        self.term = np.empty_like(self.grads)
        if batch == 1:
            self.gradients = _ExamplePass(params, self.grads)
        else:
            self.mean, views = np.empty(spec.n_params), _layer_views(spec, self.grads)
            self.gradients = lambda x, t: _backward(params, _forward(params, x), t, views)
        self.noisy, self.scale = np.empty(spec.n_params), np.empty(spec.n_params)
        self.sigma = np.array(noise.sigma) if noise.mode == "proportional" else None

    def __call__(self, x: np.ndarray, t, factor: np.ndarray | None,
                 noise: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        self.gradients(x, t)
        clean, flat = self.grads, self.params.flat
        if self.lam is not None or factor is not None:
            _add_factor_gradients(clean, flat, self.lam, factor, clean, self.term)
        if self.batch > 1:
            if self.clip_c is not None:
                clean = clip_gradient(clean, self.clip_c)
            # np.mean's sum and division, without its per-call overhead
            clean = np.add.reduce(clean, axis=0, out=self.mean)
            clean /= self.batch
        elif self.clip_c is not None:
            # clip_gradient's g / max(1, |g|/c), in place, NaN included
            q = math.sqrt(clean.dot(clean)) / self.clip_c
            if not q <= 1.0:
                clean /= q
        if noise is None:
            return clean, clean
        if self.sigma is not None:  # z scaled by sigma * theta, theta pre-update
            noise = np.multiply(np.multiply(self.sigma, flat, out=self.scale), noise,
                                out=self.noisy)
        return clean, np.add(noise, clean, out=self.noisy)


def _drawn_std(noise: NoiseSpec) -> float:
    """The scale a plan's noise rows are drawn at: sigma (iid), or 1 for the
    standard normals that the plan scales by sigma * theta (proportional)."""
    return noise.sigma if noise.mode == "iid" else 1.0


def _checked_batch(params: ParameterSet, x: np.ndarray, t: np.ndarray,
                   eta: float) -> tuple[int, np.ndarray, object]:
    """mechanism_step's checks of eta and of the batch; then the batch size
    and the batch as a plan takes it, a one-row batch as its (d,) example
    with its targets as floats."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    x = _check_batch(params.spec, x, t)
    if len(x) == 1:
        return 1, x[0], np.asarray(t[0], dtype=np.float64).tolist()
    return len(x), x, t


def _descend(theta: np.ndarray, eta: float, noisy: np.ndarray,
             out: np.ndarray | None) -> np.ndarray:
    """theta - eta * noisy, into `out` (noisy itself, for a step in place)
    or a fresh array.  Elementwise, so column j of a (P, R) block gets the
    bits of the (P,) step on column j alone."""
    stepped = np.multiply(eta, noisy, out=out)
    return np.subtract(theta, stepped, out=stepped)


def mechanism_step(params: ParameterSet, x: np.ndarray, t: np.ndarray, eta: float,
                   noise: NoiseSpec, reg: RegSpec, z: np.ndarray | None = None) -> Step:
    """One step of the configured mechanism on a batch of examples.

    x is a (B, d) batch with (B, k) targets t.  Each example's loss
    gradient gets the penalty gradients and is clipped by its norm; the
    batch is averaged; the noise sigma * z (mode "iid") or sigma * theta * z
    (mode "proportional", theta pre-update) is added, z being one (P,)
    vector of standard normals, or None for a noiseless step; then
    theta - eta * g.  A z of any other shape raises ValueError: many noise
    vectors from one start are block_stepper's.  Every example's gradient
    is computed exactly as on its own (see privreg.model), so batch size
    never changes its bits.  train() takes this step too (_StepPlan), but
    on buffers it reuses.
    """
    batch, x, t = _checked_batch(params, x, t, eta)
    if z is not None:
        if noise.mode == "none":
            raise ValueError("noise mode 'none' takes no noise rows")
        if z.shape != params.flat.shape:
            raise ValueError(f"noise of shape {z.shape} does not match "
                             f"parameters {params.flat.shape}: give (P,)")
        z = _drawn_std(noise) * z
    lam, factor = _gradient_factors(reg, params.spec, x, reg.effective_kappa(eta, noise.sigma))
    clean, noisy = _StepPlan(params, batch, noise, lam)(x, t, factor, z)
    return Step(clean, noisy, _descend(params.flat, eta, noisy, None))


def block_stepper(params: ParameterSet, x: np.ndarray, t: np.ndarray, eta: float,
                  noise: NoiseSpec, reg: RegSpec
                  ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """mechanism_step's parameters from one batch, one noise block at a time.

    Checks what mechanism_step checks, refuses mode "none", builds one
    step plan and takes the batch's clean gradient once, then returns
    (clean, step).  clean is the (P,) noiseless step, theta - eta * g, the
    bits of mechanism_step(params, x, t, eta, noise, reg).params.  step(z),
    for a (P, R) block z of standard normals, gives in one fresh (P, R)
    array theta - eta * (g + scale * z), scale being sigma or the column
    sigma * theta: column j holds mechanism_step's parameters on z[:, j]
    alone, to the bit, the same IEEE operations elementwise in one order.
    A z that is not (P, R) raises ValueError.  The stepper keeps its own
    copies of theta and of the clean gradient, so steppers share nothing
    that a step writes, and a later change to params does not reach it.
    """
    batch, x, t = _checked_batch(params, x, t, eta)
    if noise.mode == "none":
        raise ValueError("noise mode 'none' takes no noise rows")
    lam, factor = _gradient_factors(reg, params.spec, x, reg.effective_kappa(eta, noise.sigma))
    grad = _StepPlan(params, batch, noise, lam)(x, t, factor, None)[0]
    clean = _descend(params.flat, eta, grad, None)
    theta, grad = params.flat[:, None].copy(), grad[:, None].copy()
    scale = noise.sigma * theta if noise.mode == "proportional" else noise.sigma

    def step(z: np.ndarray) -> np.ndarray:
        if z.ndim != 2 or z.shape[0] != len(theta):
            raise ValueError(f"noise of shape {z.shape} does not match "
                             f"parameters {params.flat.shape}: give (P, R)")
        noisy = np.multiply(scale, z)
        noisy += grad
        return _descend(theta, eta, noisy, noisy)

    return clean, step


def initial_params_for(spec: ModelSpec, seed: int, key: tuple[int, ...] = ()) -> ParameterSet:
    """The parameter vector train() starts from under this seed and key prefix."""
    return init_params(spec, RngStream(seed, *key, TRAIN_INIT))


def dataset_loss(params: ParameterSet, data: Dataset, reg: RegSpec,
                 kappa: float) -> float:
    """Mean per-example loss over the dataset, penalties included
    (regularizers.add_penalties), with `kappa` the weight of the
    parameter-input product term."""
    losses = quadratic_loss(forward(params, data.x)[-1], data.t)
    return float(np.mean(add_penalties(reg, losses, params, data.x, kappa)))


def _noise_rows(noise: NoiseSpec, rng: RngStream, steps: int,
                width: int) -> Iterator[np.ndarray | None]:
    """train()'s noise, one (width,) row per step, or None per step when
    the mechanism adds none (mode "none" or sigma 0) and so draws nothing.
    Row s holds the bits of the s-th of `steps` rng.normal(std, width)
    calls, std being _drawn_std(noise).  The rows are drawn lazily, k rows
    of about NOISE_BLOCK normals in one call, which draws what k calls of
    `width` would."""
    if not noise.adds_noise:
        return itertools.repeat(None, steps)
    per_block = max(1, NOISE_BLOCK // width)
    blocks = (min(per_block, steps - start) for start in range(0, steps, per_block))
    return itertools.chain.from_iterable(
        rng.normal(_drawn_std(noise), k * width).reshape(k, width) for k in blocks)


# Divergence is raised naming where it happened; numpy's overflow warnings
# on the way there, and on an epoch's steps past it, would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(spec: ModelSpec, data: Dataset, config: TrainConfig,
          init: ParameterSet | None = None,
          key: tuple[int, ...] = ()) -> TrainReport:
    """Run the configured mechanism at config.eta; report per-epoch losses.

    Deterministic given config.seed and the key prefix `key`: one full
    shuffle per epoch from the shuffle stream, the last partial batch kept,
    and one (P,) noise row per batch applied to the averaged gradient
    (drawn in blocks, with the bits of one draw per batch).  Proportional
    noise scales with the pre-update parameters.  The epoch losses take
    the kappa the steps take (RegSpec.effective_kappa).  Pass `init`,
    built for `spec`, to start from explicit parameters instead of the
    seeded default.  Raises TrainingDivergedError, naming the epoch, step
    and mechanism, when the parameters or an epoch loss stop being finite.
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    if data.dim != spec.input_dim:
        raise ValueError(f"dataset dimension {data.dim} does not match model input {spec.input_dim}")
    _check_batch(spec, data.x, data.t)
    if config.batch_size > len(data):
        raise ValueError("batch_size exceeds dataset size")
    if init is not None and init.spec != spec:
        raise ValueError(f"init was built for {init.spec}, not for the model {spec}")
    # theta - eta * g keeps a non-finite coordinate non-finite, so a run
    # checks its parameters at each epoch's end; one that diverged replays
    # from the same streams and start, checked at every step, to name it.
    return (_train_run(spec, data, config, init, key, False)
            or _train_run(spec, data, config, init, key, True))


def _train_run(spec: ModelSpec, data: Dataset, config: TrainConfig, init: ParameterSet | None,
               key: tuple[int, ...], every_step: bool) -> TrainReport | None:
    """train()'s run, or None if an epoch ends on parameters that are not
    finite; with every_step, the first such step raises, named."""
    noise, reg, eta, n, size = config.noise, config.reg, config.eta, len(data), config.batch_size
    kappa = reg.effective_kappa(eta, noise.sigma)
    # the penalty gradients' factors of theta, for every example at once
    lam, factors = _gradient_factors(reg, spec, data.x, kappa)
    shuffle_rng = RngStream(config.seed, *key, TRAIN_SHUFFLE)
    noise_rows = _noise_rows(noise, RngStream(config.seed, *key, TRAIN_NOISE),
                             config.epochs * -(-n // size), spec.n_params)
    # One ParameterSet for the run: each step is written into its flat
    # vector in place, so its layer views (see privreg.model) stay current.
    params = init.copy() if init is not None else initial_params_for(spec, config.seed, key)
    flat, stepped, rate = params.flat, np.empty(spec.n_params), np.array(eta)
    # The parameters are finite iff their dot with zeros is: 0 * inf and
    # 0 * nan are nan, 0 * x is 0 for every finite x, so no large finite
    # value can overflow it.  One dot costs less than isfinite().all().
    zeros = np.zeros(spec.n_params)
    # A plan per batch size; a one-row batch steps as its (d,) example
    plans = {b: _StepPlan(params, b, noise, lam) for b in {size, n % size} - {0}}
    batches = []
    for start in range(0, n, size):
        plan, span = plans[min(size, n - start)], slice(start, start + size)
        batches.append((plan, start if plan.batch == 1 else span, span))

    def diverged(epoch: int, step: int, what: str) -> TrainingDivergedError:
        return TrainingDivergedError(
            f"training diverged in epoch {epoch + 1} of {config.epochs} at step "
            f"{step} under {mechanism_label(noise, reg)}: {what} became non-finite")

    records: list[GradientRecord] | None = [] if config.record_gradients else None
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        # One permuted copy per epoch: each batch is then a slice of it
        xs, ts = data.x[order], data.t[order]
        fs = None if factors is None else factors[order]
        # and a one-example plan's targets, as floats
        floats = ts.tolist() if 1 in plans else None
        for plan, rows, span in batches:
            t = ts[rows] if plan.batch > 1 else floats[rows]
            clean, noisy = plan(xs[rows], t, None if fs is None else fs[rows], next(noise_rows))
            if records is not None:
                records.append(GradientRecord(clean=clean.copy(), noisy=noisy.copy(),
                                              batch_indices=order[span].copy()))
            np.subtract(flat, np.multiply(rate, noisy, out=stepped), out=flat)
            if every_step and not math.isfinite(flat.dot(zeros)):
                raise diverged(epoch, step, "the parameters")
            step += 1

        if not math.isfinite(flat.dot(zeros)):
            return None
        loss = dataset_loss(params, data, reg, kappa)
        if not math.isfinite(loss):
            raise diverged(epoch, step - 1, "the epoch loss")
        epoch_losses.append(loss)

    return TrainReport(epoch_losses=epoch_losses, final_params=params, records=records)
