"""Penalty terms and their exact parameter gradients.

Three terms appear in training losses here:

* classic weight decay        lam * sum_i theta_i^2
* input-only term             kappa * sum_i x_i^2        (parameter gradient: zero)
* parameter-input product     kappa * sum_i theta_i^2 * x_i^2

The input-only term is what adding homogeneous Gaussian gradient noise of
variance sigma^2 does to the expected loss of a linear neuron trained with
learning rate eta (with kappa = eta^2 * sigma^2): it shifts loss values
but, being independent of the parameters, steers nothing.  The
parameter-input product is the analogous expected-loss shift when the
per-coordinate noise scale is theta_i * sigma, and that one does steer.
The bias pairs with the constant 1 feature.

Both identities hold for one linear output unit only.  Off it the shift
is, to second order, (1/2) * kappa * sum_i theta_i^2 * H_ii (proportional)
or (1/2) * kappa * sum_i H_ii (iid), H the loss Hessian: on a (3, 4, 1)
tanh net the parameter-input product is ~22x the Monte Carlo shift.  So
pdp_penalty and pdp_grad raise ValueError on any other model.  The
input-only term steers nothing and stays accepted everywhere.

The input-dependent terms work on a (B, d) batch, one value or one (P,)
gradient row per example; a single input is a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterSet, linear_unit_features

KAPPA_MODES = ("explicit", "derived")


@dataclass(frozen=True)
class RegSpec:
    """Coefficients for the penalty terms added to a training loss.

    kappa_mode "derived" replaces kappa with eta^2 * sigma^2, from the
    run's fixed learning rate and noise scale; "explicit" uses kappa as
    given.  input_kappa weights the input-only term, which shifts
    reported losses but never the trajectory.
    """

    lam: float = 0.0
    kappa: float = 0.0
    kappa_mode: str = "explicit"
    input_kappa: float = 0.0

    def __post_init__(self):
        for name in ("lam", "kappa", "input_kappa"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.kappa_mode not in KAPPA_MODES:
            raise ValueError(f"unknown kappa_mode {self.kappa_mode!r}")

    def effective_kappa(self, eta: float, sigma: float) -> float:
        """The product-term weight of a run at rate eta and noise scale sigma."""
        return eta * eta * sigma * sigma if self.kappa_mode == "derived" else self.kappa


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


def pdp_penalty(params: ParameterSet, x: np.ndarray, kappa: float) -> np.ndarray:
    """kappa * sum_i theta_i^2 * x_i^2 per row of the (B, d) batch x,
    biases paired with constant 1.  Raises ValueError unless the model is
    a single linear output unit."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    f = linear_unit_features(params.spec, x)
    theta = params.flat
    return kappa * np.vecdot(theta * theta, f * f)


def pdp_grad(params: ParameterSet, x: np.ndarray, kappa: float) -> np.ndarray:
    """Coordinate-wise 2 * kappa * x_i^2 * theta_i (2 * kappa * theta_i on
    the bias), one (P,) row per row of the batch x.  Raises ValueError
    unless the model is a single linear output unit."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    f = linear_unit_features(params.spec, x)
    return 2.0 * kappa * (f * f) * params.flat
