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
                                gradient, no noise required

Order per batch: one forward/backward pass over the batch's (B, d) rows
gives the (B, P) per-example loss gradients; penalty gradients are added
row by row, each row is clipped by its norm, the rows are averaged, then
one optional noise draw and the step.  Penalties belong to the loss, so
they come before the privacy mechanics.  Every row is computed exactly as
the example would be on its own (see privreg.model), so batch size never
changes an example's gradient bits.

A run is deterministic given its seed.  Three fixed substreams are used:
STREAM_INIT for parameter init, STREAM_SHUFFLE for epoch permutations,
STREAM_NOISE for gradient noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (Dataset, ModelSpec, NonFiniteParametersError, ParameterSet,
                    backward, forward, init_params, quadratic_loss)
from .numerics import RngStream
from .regularizers import (RegSpec, dp_input_penalty, l2_grad, l2_penalty,
                           pdp_grad, pdp_penalty)

NOISE_MODES = ("none", "iid", "proportional")

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_NOISE = 2


@dataclass(frozen=True)
class NoiseSpec:
    """Gradient noise mode, scale, and optional per-example clip threshold."""

    mode: str = "none"
    sigma: float = 0.0
    clip_c: float | None = None

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.clip_c is not None and not self.clip_c > 0:
            raise ValueError(f"clip_c must be positive, got {self.clip_c}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the model and the data.

    eta may be a positive float or a callable step -> eta_t for schedules.
    """

    eta: float | Callable[[int], float]
    batch_size: int = 1
    epochs: int = 1
    seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    reg: RegSpec = RegSpec()
    record_gradients: bool = False
    record_cap: int = 128

    def __post_init__(self):
        if not callable(self.eta) and not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.record_cap < 0:
            raise ValueError("record_cap must be nonnegative")

    def eta_at(self, step: int) -> float:
        eta = self.eta(step) if callable(self.eta) else self.eta
        if not eta > 0:
            raise ValueError(f"learning rate must stay positive, got {eta} at step {step}")
        return float(eta)


@dataclass
class GradientRecord:
    """Averaged batch gradient before and after the privacy mechanism."""

    step: int
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


def add_iid_noise(g: np.ndarray, sigma: float, rng: RngStream) -> np.ndarray:
    """g plus one N(0, sigma^2) draw per coordinate."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    g = np.asarray(g, dtype=np.float64)
    if sigma == 0:
        return g.copy()
    return g + rng.normal(0.0, sigma, g.size)


def add_proportional_noise(g: np.ndarray, params: ParameterSet, sigma: float,
                           rng: RngStream) -> np.ndarray:
    """g plus per-coordinate noise of standard deviation |theta_i| * sigma.

    Coordinates with theta_i = 0 receive exactly zero noise.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match parameters {params.flat.shape}"
        )
    if sigma == 0:
        return g.copy()
    z = rng.normal(0.0, 1.0, g.size)
    return g + sigma * params.flat * z


def sgd_step(params: ParameterSet, g_tilde: np.ndarray, eta: float) -> ParameterSet:
    """theta - eta * g_tilde as a new ParameterSet."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    g = np.asarray(g_tilde, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match parameters {params.flat.shape}"
        )
    return ParameterSet(params.spec, params.flat - eta * g)


def initial_params_for(spec: ModelSpec, config: TrainConfig) -> ParameterSet:
    """The parameter vector train() starts from under this config."""
    return init_params(spec, RngStream(config.seed, STREAM_INIT))


def dataset_loss(spec: ModelSpec, params: ParameterSet, data: Dataset,
                 reg: RegSpec = RegSpec(), kappa: float | None = None) -> float:
    """Mean per-example loss over the dataset, penalties included."""
    k = reg.kappa if kappa is None else kappa
    trace = forward(spec, params, data.x)
    losses = quadratic_loss(trace.output, data.t)
    if reg.lam > 0:
        losses = losses + l2_penalty(params, reg.lam)
    if k > 0:
        losses = losses + pdp_penalty(params, data.x, k, trace)
    if reg.input_kappa > 0:
        losses = losses + dp_input_penalty(data.x, reg.input_kappa)
    return float(np.mean(losses))


def _batched(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    return [order[i:i + batch_size] for i in range(0, order.size, batch_size)]


# Divergence is raised naming where it happened; numpy's overflow warnings
# on the way there would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(spec: ModelSpec, data: Dataset, config: TrainConfig,
          init: ParameterSet | None = None) -> TrainReport:
    """Run the configured mechanism and report per-epoch losses.

    Deterministic given config.seed: one full shuffle per epoch from the
    shuffle stream, the last partial batch kept, and one noise draw per
    batch applied to the averaged gradient.  Proportional noise scales
    with the pre-update parameters.  Pass `init` to start from explicit
    parameters instead of the seeded default.  Raises
    TrainingDivergedError, naming the epoch, step and mechanism, when the
    parameters or an epoch loss stop being finite.
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    if data.dim != spec.input_dim:
        raise ValueError(f"dataset dimension {data.dim} does not match model input {spec.input_dim}")
    if config.batch_size > len(data):
        raise ValueError("batch_size exceeds dataset size")

    noise = config.noise
    reg = config.reg
    shuffle_rng = RngStream(config.seed, STREAM_SHUFFLE)
    noise_rng = RngStream(config.seed, STREAM_NOISE)
    params = init.copy() if init is not None else initial_params_for(spec, config)

    def diverged(epoch: int, step: int, what: str) -> TrainingDivergedError:
        return TrainingDivergedError(
            f"training diverged in epoch {epoch + 1} of {config.epochs} at step "
            f"{step} under {mechanism_label(noise, reg)}: {what} became non-finite")

    records: list[GradientRecord] | None = [] if config.record_gradients else None
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(data))
        for batch_idx in _batched(order, config.batch_size):
            eta = config.eta_at(step)
            kappa = reg.kappa
            if reg.kappa_mode == "derived":
                kappa = eta * eta * noise.sigma * noise.sigma

            x = data.x[batch_idx]
            trace = forward(spec, params, x)
            grads = backward(spec, params, trace, data.t[batch_idx])
            if reg.lam > 0:
                grads = grads + l2_grad(params, reg.lam)
            if kappa > 0:
                grads = grads + pdp_grad(params, x, kappa, trace)
            if noise.clip_c is not None:
                grads = clip_gradient(grads, noise.clip_c)
            g_clean = grads.mean(axis=0)

            if noise.mode == "iid":
                g_tilde = add_iid_noise(g_clean, noise.sigma, noise_rng)
            elif noise.mode == "proportional":
                g_tilde = add_proportional_noise(g_clean, params, noise.sigma, noise_rng)
            else:
                g_tilde = g_clean

            if records is not None and len(records) < config.record_cap:
                records.append(GradientRecord(step=step, clean=g_clean.copy(),
                                              noisy=g_tilde.copy(),
                                              batch_indices=batch_idx.copy()))
            try:
                params = sgd_step(params, g_tilde, eta)
            except NonFiniteParametersError:
                raise diverged(epoch, step, "the parameters") from None
            step += 1

        kappa = reg.kappa
        if reg.kappa_mode == "derived":
            kappa = config.eta_at(step) ** 2 * noise.sigma ** 2
        loss = dataset_loss(spec, params, data, reg, kappa)
        if not math.isfinite(loss):
            raise diverged(epoch, step - 1, "the epoch loss")
        epoch_losses.append(loss)

    return TrainReport(epoch_losses=epoch_losses, final_params=params, records=records)
