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

Order per batch (mechanism_step): one forward/backward pass over the
batch's (B, d) rows gives the (B, P) per-example loss gradients; penalty
gradients are added row by row, each row is clipped by its norm, the rows
are averaged, then one optional noise draw and the step.  Penalties
belong to the loss, so they come before the privacy mechanics.  Every row
is computed exactly as the example would be on its own (see
privreg.model), so batch size never changes an example's gradient bits.
mechanism_step also takes R noise rows at once: that is how the oracle
samples many noisy steps from one starting point, one block of rows at a
time, stepping each block once per noise shape.

A run is deterministic given its seed.  Three fixed substreams are used:
STREAM_INIT for parameter init, STREAM_SHUFFLE for epoch permutations,
STREAM_NOISE for gradient noise.  train() draws its noise in blocks of
about NOISE_BLOCK normals, one call per block rather than one per step;
_noise_rows pads each row as a per-step call would, so step s gets the
bits it would get from the s-th of one draw per step.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .model import (Dataset, ModelSpec, ParameterSet, backward, forward,
                    init_params, quadratic_loss)
from .numerics import RngStream
from .regularizers import (RegSpec, dp_input_penalty, l2_grad, l2_penalty,
                           pdp_grad, pdp_penalty)

NOISE_MODES = ("none", "iid", "proportional")

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_NOISE = 2

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
    """One step of a mechanism: the averaged batch gradient before and after
    the noise, and the parameters it steps to.  With R noise rows, `noisy`
    and `params` hold one (P,) row per noise row."""

    clean: np.ndarray
    noisy: np.ndarray
    params: np.ndarray


def mechanism_step(params: ParameterSet, x: np.ndarray, t: np.ndarray, eta: float,
                   noise: NoiseSpec, reg: RegSpec, z: np.ndarray | None = None) -> Step:
    """One step of the configured mechanism on a batch of examples.

    x is a (B, d) batch with (B, k) targets t.  Each example's loss
    gradient gets the penalty gradients and is clipped by its norm; the
    batch is averaged; the noise sigma * z (mode "iid") or sigma * theta * z
    (mode "proportional", theta pre-update) is added, z being standard
    normals, one (P,) row or R of them as (R, P), or None for a noiseless
    step; then theta - eta * g.  Every example's gradient is computed
    exactly as on its own (see privreg.model), so batch size never changes
    its bits.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    x = np.asarray(x, dtype=np.float64)
    grads = backward(params, x, t)
    kappa = reg.effective_kappa(eta, noise.sigma)
    if reg.lam > 0:
        grads = grads + l2_grad(params, reg.lam)
    if kappa > 0:
        grads = grads + pdp_grad(params, x, kappa)
    if noise.clip_c is not None:
        grads = clip_gradient(grads, noise.clip_c)
    # np.mean's sum and division, without its per-call overhead
    clean = np.add.reduce(grads, axis=0)
    clean /= len(grads)

    if z is None:
        noisy = clean
    else:
        if noise.mode == "none":
            raise ValueError("noise mode 'none' takes no noise rows")
        if z.shape[-1:] != params.flat.shape:
            raise ValueError(f"noise rows of shape {z.shape} do not match "
                             f"parameters {params.flat.shape}")
        scale = noise.sigma * params.flat if noise.mode == "proportional" else noise.sigma
        # In place, as fresh (R, P) temporaries cost more than the arithmetic;
        # addition commutes, so these are the bits of clean + scale * z and
        # of theta - eta * noisy.
        noisy = scale * z
        noisy += clean
    stepped = np.multiply(eta, noisy)
    np.subtract(params.flat, stepped, stepped)
    return Step(clean, noisy, stepped)


def initial_params_for(spec: ModelSpec, seed: int) -> ParameterSet:
    """The parameter vector train() starts from under this seed."""
    return init_params(spec, RngStream(seed, STREAM_INIT))


def dataset_loss(params: ParameterSet, data: Dataset, reg: RegSpec,
                 kappa: float) -> float:
    """Mean per-example loss over the dataset, penalties included, with
    `kappa` the weight of the parameter-input product term."""
    losses = quadratic_loss(forward(params, data.x)[-1], data.t)
    if reg.lam > 0:
        losses = losses + l2_penalty(params, reg.lam)
    if kappa > 0:
        losses = losses + pdp_penalty(params, data.x, kappa)
    if reg.input_kappa > 0:
        losses = losses + dp_input_penalty(data.x, reg.input_kappa)
    return float(np.mean(losses))


def _noise_rows(noise: NoiseSpec, rng: RngStream, steps: int,
                width: int) -> Iterator[np.ndarray | None]:
    """train()'s noise, one (width,) row per step, or None per step when
    the mechanism adds none (mode "none" or sigma 0) and so draws nothing.
    Row s holds the bits of the s-th of `steps` rng.normal(1.0, width)
    calls.  The rows are drawn lazily, k rows of about NOISE_BLOCK normals
    in one call: each row is drawn width + width % 2 wide, as a call of
    that width draws, and the pad column is dropped."""
    if not noise.adds_noise:
        return itertools.repeat(None, steps)
    per_block = max(1, NOISE_BLOCK // width)
    blocks = (min(per_block, steps - start) for start in range(0, steps, per_block))
    padded = width + width % 2
    return itertools.chain.from_iterable(
        rng.normal(1.0, k * padded).reshape(k, padded)[:, :width] for k in blocks)


# Divergence is raised naming where it happened; numpy's overflow warnings
# on the way there would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(spec: ModelSpec, data: Dataset, config: TrainConfig,
          init: ParameterSet | None = None) -> TrainReport:
    """Run the configured mechanism at config.eta; report per-epoch losses.

    Deterministic given config.seed: one full shuffle per epoch from the
    shuffle stream, the last partial batch kept, and one (P,) noise row per
    batch applied to the averaged gradient (drawn in blocks, with the bits
    of one draw per batch).  Proportional noise scales with the pre-update
    parameters.  The epoch losses take the kappa the steps take
    (RegSpec.effective_kappa).  Pass `init`, built for `spec`, to start
    from explicit parameters instead of the seeded default.  Raises
    TrainingDivergedError, naming the epoch, step and mechanism, when the
    parameters or an epoch loss stop being finite.
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    if data.dim != spec.input_dim:
        raise ValueError(f"dataset dimension {data.dim} does not match model input {spec.input_dim}")
    if config.batch_size > len(data):
        raise ValueError("batch_size exceeds dataset size")
    if init is not None and init.spec != spec:
        raise ValueError(f"init was built for {init.spec}, not for the model {spec}")

    noise = config.noise
    reg = config.reg
    eta = config.eta
    kappa = reg.effective_kappa(eta, noise.sigma)
    n = len(data)
    shuffle_rng = RngStream(config.seed, STREAM_SHUFFLE)
    noise_rows = _noise_rows(noise, RngStream(config.seed, STREAM_NOISE),
                             config.epochs * -(-n // config.batch_size), spec.n_params)
    # One ParameterSet for the run, its flat vector rebound after each step.
    params = init.copy() if init is not None else initial_params_for(spec, config.seed)

    def diverged(epoch: int, step: int, what: str) -> TrainingDivergedError:
        return TrainingDivergedError(
            f"training diverged in epoch {epoch + 1} of {config.epochs} at step "
            f"{step} under {mechanism_label(noise, reg)}: {what} became non-finite")

    records: list[GradientRecord] | None = [] if config.record_gradients else None
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            taken = mechanism_step(params, data.x[batch_idx], data.t[batch_idx],
                                   eta, noise, reg, next(noise_rows))
            if records is not None:
                records.append(GradientRecord(clean=taken.clean.copy(),
                                              noisy=taken.noisy.copy(),
                                              batch_indices=batch_idx.copy()))
            if not np.isfinite(taken.params).all():
                raise diverged(epoch, step, "the parameters")
            params.flat = taken.params
            step += 1

        loss = dataset_loss(params, data, reg, kappa)
        if not math.isfinite(loss):
            raise diverged(epoch, step - 1, "the epoch loss")
        epoch_losses.append(loss)

    return TrainReport(epoch_losses=epoch_losses, final_params=params, records=records)
