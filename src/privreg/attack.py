"""Gradient-leakage and membership-inference harnesses.

The attacker model is an honest-but-curious aggregator: it observes the
post-mechanism gradient g_tilde of a batch-1 step together with the
current parameters, and tries to reconstruct the training input.  Both
attacks run inside leakage_sweep, on one linear output unit with a bias.
The unit's clean gradient is (2*(y-t)*x, 2*(y-t)), so x falls out of one
division; the iterative attack instead descends on
||grad_model(x_hat, t_hat) - g_tilde||^2, whose value and gradient have
closed forms for such a unit.  Every (mechanism, trial) of a sweep is a
row of one gradient array, inverted in closed form by one division, and
every (mechanism, trial, restart) is a row of one batched descent that
reproduces the one-restart-at-a-time loop bit for bit.

Nothing here assumes which training mechanism leaks least; the sweep just
measures reconstruction quality per mechanism under fixed seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelSpec, ParameterSet, forward, quadratic_loss
from .numerics import (ATTACK_RESTART, ATTACK_TRIAL, TRAIN_NOISE, TRAIN_SHUFFLE,
                       RngStream)
from .optimizers import NoiseSpec, initial_params_for, mechanism_label, mechanism_step
from .regularizers import RegSpec

COSINE_SUCCESS = 0.99
NO_LEAKAGE_EPS = 1e-12
DIVERGENCE_PATIENCE = 100


class NoLeakageError(RuntimeError):
    """The observed gradient carries no recoverable input (bias gradient ~ 0)."""


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row of a with the same row of b (along the last
    axis), 0 where either row is all zero.  np.vecdot sums a row as
    np.dot and np.linalg.norm do, so a row gets the bits it would alone."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b))
    zero = (na == 0) | (nb == 0)
    return np.where(zero, 0.0, np.vecdot(a, b) / np.where(zero, 1.0, na * nb))


def _require_linear_with_bias(spec: ModelSpec):
    if not spec.is_linear_unit:
        raise ValueError("closed-form inversion needs a single linear output unit")
    if not spec.include_bias:
        raise ValueError("closed-form inversion needs a bias term")


def invert_linear_gradient(g: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Recover the inputs of batch-1 linear-neuron steps from their gradients.

    g holds one (d + 1,) gradient per row.  With g_w = 2*(y-t)*x and
    g_b = 2*(y-t), each input is g_w / g_b; exact on clean gradients
    whenever the example is off the loss minimum.
    """
    _require_linear_with_bias(spec)
    g = np.asarray(g, dtype=np.float64)
    d = spec.input_dim
    if g.shape[-1] != d + 1:
        raise ValueError(f"gradient has {g.shape[-1]} coordinates, expected {d + 1}")
    g_bias = g[..., d:]
    if (np.abs(g_bias) < NO_LEAKAGE_EPS).any():
        raise NoLeakageError("bias gradient is numerically zero: the example sits at "
                             "the loss minimum and its gradient reveals nothing")
    return g[..., :d] / g_bias


def _objective_and_gradient(theta: np.ndarray, bias: np.ndarray,
                            target: np.ndarray, x: np.ndarray, t: np.ndarray):
    """Per row, J(x, t) = ||grad_model(x, t; theta, bias) - target||^2 and
    its gradient (gx, gt), for one linear output unit with a bias.

    Rows of theta and x are (R, d); bias and t are (R,); target is
    (R, d + 1).  With r = theta.x + bias - t the model gradient is
    (2r*x, 2r), so diff = grad_model - target is formed once and serves
    both J and its gradient.  Every dot product goes through np.vecdot,
    which sums a row in the same order as np.dot on that row, so each row
    is bit-identical to evaluating it on its own.
    """
    d = x.shape[1]
    r = (np.vecdot(theta, x) + bias) - t
    two_r = 2.0 * r
    diff = np.empty_like(target)
    diff[:, :d] = two_r[:, None] * x - target[:, :d]
    diff[:, d] = db = two_r - target[:, d]
    dw = diff[:, :d]
    xdw = np.vecdot(x, dw)
    gx = (4.0 * xdw)[:, None] * theta + (4.0 * r)[:, None] * dw + (4.0 * db)[:, None] * theta
    gt = -4.0 * xdw - 4.0 * db
    return np.vecdot(diff, diff), gx, gt


def _descend(theta: np.ndarray, bias: np.ndarray, target: np.ndarray,
             x: np.ndarray, t: np.ndarray, iters: int, step: float):
    """Fixed-step descent on J for every row at once.

    Each row keeps the semantics of a lone restart: it stops when J turns
    non-finite or worsens DIVERGENCE_PATIENCE steps in a row (diverged),
    or when J drops below 1e-26; its best iterate is the first one with
    the lowest J.  Stopped rows leave the working arrays, so each step
    costs only the rows still running.

    Returns per row the best J (inf if none was finite) and its x.
    """
    n, d = x.shape
    best_obj = np.full(n, math.inf)
    best_x = np.zeros((n, d))
    rows = np.arange(n)
    streak = np.zeros(n, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        obj, gx, gt = _objective_and_gradient(theta, bias, target, x, t)
        better = obj < best_obj
        best_obj[better], best_x[better] = obj[better], x[better]
        for _ in range(iters):
            if rows.size == 0:
                break
            x = x - step * gx
            t = t - step * gt
            new_obj, gx, gt = _objective_and_gradient(theta, bias, target, x, t)
            finite = np.isfinite(new_obj)
            better = finite & (new_obj < best_obj[rows])
            won = rows[better]
            best_obj[won], best_x[won] = new_obj[better], x[better]
            streak = np.where(new_obj > obj, streak + 1, 0)
            obj = new_obj
            done = ~finite | (streak >= DIVERGENCE_PATIENCE) | (obj < 1e-26)
            if done.any():
                keep = ~done
                rows, x, t, gx, gt, obj, streak, theta, bias, target = (
                    a[keep] for a in (rows, x, t, gx, gt, obj, streak,
                                      theta, bias, target))
    return best_obj, best_x


def _restart_starts(seed: int, trial: int, restarts: int,
                    d: int) -> tuple[np.ndarray, np.ndarray]:
    """The descent's starting (x, t) for the restarts r < restarts of a
    trial: x is one normal(1, d) call of RngStream(seed, ATTACK_RESTART,
    trial, r), t one draw after it."""
    rngs = [RngStream(seed, ATTACK_RESTART, trial, r) for r in range(restarts)]
    x0 = np.array([rng.normal(1.0, d) for rng in rngs])
    return x0, np.array([rng.normal(1.0, 1)[0] for rng in rngs])


def _invert_records(theta: np.ndarray, bias: np.ndarray, target: np.ndarray,
                    x0: np.ndarray, t0: np.ndarray, iters: int, step: float) -> np.ndarray:
    """Gradient matching for N records in one descent of N * R rows.

    Record i has parameters theta[i], bias[i], observed gradient target[i]
    and R restarts from x0[i] (R, d) and t0[i] (R,).  Returns per record
    the best x (N, d), the restart with the lowest J winning (the first on
    a tie); a record whose restarts all diverged still has its best x.
    """
    n, restarts, d = x0.shape
    best_obj, best_x = _descend(
        np.repeat(theta, restarts, axis=0), np.repeat(bias, restarts),
        np.repeat(target, restarts, axis=0), x0.reshape(-1, d), t0.reshape(-1),
        iters, step)
    pick = np.arange(n) * restarts + np.argmin(best_obj.reshape(n, restarts), axis=1)
    return best_x[pick]


def membership_inference(params: ParameterSet, members: Dataset,
                         non_members: Dataset) -> float:
    """The AUC of -loss as a score of members against non-members: the
    share of (member, non-member) pairs in which the member scores higher,
    a tie counting one half, so constant scores give exactly 0.5.  Each
    member's count comes from a sorted search of the non-member scores.
    A NaN score anywhere makes the AUC NaN.
    """
    if len(members) == 0 or len(non_members) == 0:
        raise ValueError("member and non-member sets must be nonempty")
    if len(members) != len(non_members):
        raise ValueError("member and non-member sets must have equal size")

    def scores(data: Dataset) -> np.ndarray:
        return -quadratic_loss(forward(params, data.x)[-1], data.t)

    s_mem = scores(members)
    s_non = np.sort(scores(non_members))
    if np.isnan(s_mem).any() or np.isnan(s_non).any():
        return math.nan
    below = np.searchsorted(s_non, s_mem, "left")
    tied = np.searchsorted(s_non, s_mem, "right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (s_mem.size * s_non.size))


@dataclass
class LeakageReport:
    """Reconstruction quality of one attack against one mechanism, one
    entry per trial."""

    mechanism: str
    attack: str
    mse: np.ndarray
    cosine: np.ndarray


def leakage_sweep(spec: ModelSpec, data: Dataset,
                  mechanisms: list[tuple[NoiseSpec, RegSpec]], trials: int,
                  seed: int, *, eta: float, iters: int, step: float,
                  restarts: int) -> list[LeakageReport]:
    """Per (mechanism, trial), take the first step of a batch-1 train() run
    (its first shuffled example, first noise row and starting
    parameters), attack its gradient with both inverters, and aggregate.

    Trial k's step is that of train() under the key prefix (ATTACK_TRIAL,
    k), and its descent restarts start from (ATTACK_RESTART, k, r).  Each
    is drawn once, and every mechanism steps from them: identical
    mechanism entries produce identical reports and different mechanisms
    see the same data order and underlying noise draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _require_linear_with_bias(spec)
    if iters < 1 or restarts < 1:
        raise ValueError("iters and restarts must be >= 1")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")

    d = spec.input_dim
    params0 = [initial_params_for(spec, seed, (ATTACK_TRIAL, k)) for k in range(trials)]
    shuffles = [RngStream(seed, ATTACK_TRIAL, k, TRAIN_SHUFFLE) for k in range(trials)]
    first = np.array([rng.permutation(len(data))[:1] for rng in shuffles])
    z = [RngStream(seed, ATTACK_TRIAL, k, TRAIN_NOISE).normal(1.0, spec.n_params)
         for k in range(trials)]
    starts = [_restart_starts(seed, k, restarts, d) for k in range(trials)]
    x0, t0 = np.array([x for x, _ in starts]), np.array([t for _, t in starts])
    target = np.array([
        mechanism_step(params0[k], data.x[first[k]], data.t[first[k]], eta, noise, reg,
                       z[k] if noise.adds_noise else None).noisy
        for noise, reg in mechanisms for k in range(trials)])

    # Row i * trials + k is mechanism i on trial k.
    m = len(mechanisms)
    x_true = np.tile(data.x[first[:, 0]], (m, 1))
    x_cf = invert_linear_gradient(target, spec)
    x_it = _invert_records(
        np.tile([p.weights(0).ravel() for p in params0], (m, 1)),
        np.tile([p.bias(0)[0] for p in params0], m), target,
        np.tile(x0, (m, 1, 1)), np.tile(t0, (m, 1)), iters, step)

    reports = []
    for i, (noise, reg) in enumerate(mechanisms):
        label = mechanism_label(noise, reg)
        rows = slice(i * trials, (i + 1) * trials)
        for name, x_hat in (("closed_form", x_cf), ("iterative", x_it)):
            reports.append(LeakageReport(
                mechanism=label, attack=name,
                mse=np.mean((x_hat[rows] - x_true[rows]) ** 2, axis=1),
                cosine=cosine_similarity(x_hat[rows], x_true[rows])))
    return reports


def _median(values: np.ndarray) -> float:
    """np.median's bits from np.sort, without the numpy.ma import of its NaN
    check (about 8 ms a run): NaN if any value is, else the middle value or
    the mean of the middle two, a mean whose sum starts from 0.0."""
    s, m = np.sort(values), len(values) // 2
    if math.isnan(s[-1]):  # np.sort puts NaN last
        return math.nan
    return float(s[m] + 0.0 if len(s) % 2 else (s[m - 1] + s[m] + 0.0) / 2)
