"""The penalty terms of a training loss and their exact parameter gradients.

This module is the one home of the penalized loss: add_penalties adds a
RegSpec's terms to per-example losses and add_gradients their gradients
to per-example loss gradients, in this order:

* classic weight decay        lam * sum_i theta_i^2
* parameter-input product     kappa * sum_i theta_i^2 * x_i^2
* input-only term             input_kappa * sum_i x_i^2   (parameter gradient: zero)

The input-only term is what adding homogeneous Gaussian gradient noise of
variance sigma^2 does to the expected loss of a linear neuron trained with
learning rate eta (with weight eta^2 * sigma^2): it shifts loss values
but, being independent of the parameters, steers nothing.  The
parameter-input product is the analogous expected-loss shift when the
per-coordinate noise scale is theta_i * sigma, and that one does steer.
The bias pairs with the constant 1 feature.

Both identities hold for one linear output unit only.  Off it the shift
is, to second order, (1/2) * kappa * sum_i theta_i^2 * H_ii (proportional)
or (1/2) * kappa * sum_i H_ii (iid), H the loss Hessian: on a (3, 4, 1)
tanh net the parameter-input product is ~22x the Monte Carlo shift.  So
the product term raises ValueError on any other model.  The input-only
term steers nothing and stays accepted everywhere.

The terms work on a (B, d) batch, one value or one (P,) gradient row per
example; add_gradients also takes one (d,) example with its (P,) gradient.
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


def add_penalties(reg: RegSpec, losses: np.ndarray, params: ParameterSet, x: np.ndarray,
                  kappa: float) -> np.ndarray:
    """`losses`, one per row of the (B, d) batch x, plus reg's penalty
    terms: lam * sum(theta^2), then kappa * sum_i theta_i^2 * x_i^2
    (biases paired with constant 1; raises ValueError unless the model is
    a single linear output unit), then input_kappa * sum(x^2).  kappa is
    the run's product-term weight (RegSpec.effective_kappa); a term whose
    weight is 0 is not added."""
    if reg.lam > 0:
        losses = losses + reg.lam * np.dot(params.flat, params.flat)
    if kappa > 0:
        f = linear_unit_features(params.spec, x)
        losses = losses + kappa * np.vecdot(params.flat * params.flat, f * f)
    if reg.input_kappa > 0:
        x = np.asarray(x, dtype=np.float64)
        losses = losses + reg.input_kappa * np.vecdot(x, x)
    return losses


def add_gradients(reg: RegSpec, grads: np.ndarray, params: ParameterSet, x: np.ndarray,
                  kappa: float) -> np.ndarray:
    """`grads`, one (P,) row per row of the (B, d) batch x, plus the
    parameter gradients of add_penalties' terms: 2 * lam * theta, then
    2 * kappa * x_i^2 * theta_i (2 * kappa * theta_i on the bias).  The
    input-only term has none."""
    if reg.lam > 0:
        grads = grads + 2.0 * reg.lam * params.flat
    if kappa > 0:
        f = linear_unit_features(params.spec, x)
        grads = grads + 2.0 * kappa * (f * f) * params.flat
    return grads
