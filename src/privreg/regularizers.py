"""Penalty terms and their exact parameter gradients.

Four terms appear in training losses here:

* classic weight decay        lam * sum_i theta_i^2
* input-only term             kappa * sum_i x_i^2        (parameter gradient: zero)
* parameter-input product     kappa * sum_i theta_i^2 * x_i^2
* the combination, whose gradient is base + 2*(lam + kappa*x_i^2)*theta_i

The input-only term is what adding homogeneous Gaussian gradient noise of
variance sigma^2 does to the expected loss of a linear neuron trained with
learning rate eta (with kappa = eta^2 * sigma^2): it shifts loss values
but, being independent of the parameters, steers nothing.  The
parameter-input product is the analogous expected-loss shift when the
per-coordinate noise scale is theta_i * sigma, and that one does steer.

Both identities hold for one linear output unit only.  Off it the shift
is, to second order, (1/2) * kappa * sum_i theta_i^2 * H_ii (proportional)
or (1/2) * kappa * sum_i H_ii (iid), H the loss Hessian: on a (3, 4, 1)
tanh net the parameter-input product is ~22x the Monte Carlo shift.  The
terms are still computed there, each weight paired with its own incoming
activation (biases with the constant 1).  The pairing vector is treated
as fixed when differentiating, mirroring how the noise mechanism scales
with the current parameter values without being differentiated through.

The input-dependent terms work on a (B, d) batch, one value or one (P,)
gradient row per example; a single input is a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace, ModelSpec, ParameterSet, forward, layout, n_params

KAPPA_MODES = ("explicit", "derived")


@dataclass(frozen=True)
class RegSpec:
    """Coefficients for the penalty terms added to a training loss.

    kappa_mode "derived" replaces kappa with eta_t^2 * sigma^2 at every
    step, using the active learning rate and noise scale; "explicit" uses
    kappa as given.  input_kappa weights the input-only term, which shifts
    reported losses but never the trajectory.
    """

    lam: float = 0.0
    kappa: float = 0.0
    kappa_mode: str = "explicit"
    input_kappa: float = 0.0

    def __post_init__(self):
        if self.lam < 0 or self.kappa < 0 or self.input_kappa < 0:
            raise ValueError("penalty coefficients must be nonnegative")
        if self.kappa_mode not in KAPPA_MODES:
            raise ValueError(f"unknown kappa_mode {self.kappa_mode!r}")


def l2_penalty(params: ParameterSet, lam: float) -> float:
    """lam * sum(theta^2)."""
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return float(lam * np.dot(params.flat, params.flat))


def l2_grad(params: ParameterSet, lam: float) -> np.ndarray:
    """Coordinate-wise 2 * lam * theta."""
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return 2.0 * lam * params.flat


def dp_input_penalty(x: np.ndarray, kappa: float) -> np.ndarray:
    """kappa * sum(x^2) over the last axis, one value per row of a batch.
    Constant in the parameters, so its parameter gradient is identically
    zero."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    x = np.asarray(x, dtype=np.float64)
    return kappa * np.vecdot(x, x)


def paired_input_squares(spec: ModelSpec, trace: ForwardTrace) -> np.ndarray:
    """Squared incoming activation for every parameter coordinate, (B, P).

    Weight (i, j) of a layer gets the square of that layer's j-th input
    activation; bias coordinates get 1.  For a one-layer model each row is
    x^2 tiled across output units.
    """
    batch = trace.inputs[0].shape[0]
    squares = np.empty((batch, n_params(spec)))
    for layer, ls in enumerate(layout(spec)):
        a = trace.inputs[layer]
        squares[:, ls.weights] = np.tile(a * a, (1, ls.fan_out))
        if ls.bias is not None:
            squares[:, ls.bias] = 1.0
    return squares


def _squares(params: ParameterSet, x: np.ndarray,
             trace: ForwardTrace | None) -> np.ndarray:
    if trace is None:
        trace = forward(params.spec, params, x)
    return paired_input_squares(params.spec, trace)


def pdp_penalty(params: ParameterSet, x: np.ndarray, kappa: float,
                trace: ForwardTrace | None = None) -> np.ndarray:
    """kappa * sum_i theta_i^2 * x_i^2 per row of the (B, d) batch x,
    biases paired with constant 1.  Pass a trace from forward() on the same
    (params, x) to avoid recomputing it."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    theta = params.flat
    return kappa * np.vecdot(theta * theta, _squares(params, x, trace))


def pdp_grad(params: ParameterSet, x: np.ndarray, kappa: float,
             trace: ForwardTrace | None = None) -> np.ndarray:
    """Coordinate-wise 2 * kappa * x_i^2 * theta_i (2 * kappa * theta_i on
    biases), one (P,) row per row of the batch x."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    return 2.0 * kappa * _squares(params, x, trace) * params.flat


def combined_grad(params: ParameterSet, x: np.ndarray, lam: float, kappa: float,
                  base_grad: np.ndarray,
                  trace: ForwardTrace | None = None) -> np.ndarray:
    """base_grad + 2 * (lam + kappa * x_i^2) * theta_i per coordinate, one
    row per row of the batch x."""
    if lam < 0 or kappa < 0:
        raise ValueError("penalty coefficients must be nonnegative")
    base = np.asarray(base_grad, dtype=np.float64)
    if base.shape[-1:] != params.flat.shape:
        raise ValueError(
            f"base gradient shape {base.shape} does not match parameters {params.flat.shape}"
        )
    return base + 2.0 * (lam + kappa * _squares(params, x, trace)) * params.flat
