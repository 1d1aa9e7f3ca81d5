"""Monte Carlo and closed-form verification of the noise/regularization identities.

The central facts checked here, all for a single linear neuron y = theta.x
updated once by theta' = theta - eta * (g + eps):

* with homogeneous noise eps_i ~ N(0, sigma^2), the expected post-update
  loss is (y_clean' - t)^2 + eta^2 * sigma^2 * sum_i x_i^2;
* with parameter-proportional noise eps_i ~ N(0, (theta_i*sigma)^2) it is
  (y_clean' - t)^2 + eta^2 * sigma^2 * sum_i theta_i^2 * x_i^2;
* the cross term 2*(y-t)*eta*(eps.x) has expectation zero;
* for X ~ N(0, sigma^2): E[X^2] = sigma^2, E[X^4] = 3*sigma^4,
  Var[X^2] = 2*sigma^4; and the product of two independent centered
  normals has density K0(|u|/(sx*sy)) / (pi*sx*sy).

The post-update loss and the cross term are two functionals of the same
noisy step, so one Monte Carlo pass (check_noisy_step) checks both, for
every case it is given at once.  It runs the trainer's own step
(gradient, clip, mean, noise, step) once per replica, case and noise
shape, through one optimizers.block_stepper per case and shape, built
once and called on each block of noise, and scores the stepped
parameters against the stepper's own noiseless step, so a trainer bug
in the noise scale or its centre, in which theta scales proportional
noise, in bias handling or in clipping fails the check.
All cases step on the same noise rows (common random numbers), each
case on as many of a row's leading normals as it has parameters, so a
block of rows is drawn once for every case rather than once per case.
The block is transposed once, parameter axis first, so each case steps
on a contiguous (P, rows) block (see optimizers.block_stepper).
The closed forms are written out independently, with the bias folded in
as a constant-1 feature and the clean gradient clipped when noise.clip_c
is set; the product density's bin masses need only math.erfc.

Every Monte Carlo check runs on one engine (_block_sums): its rows come
in blocks of MC_CHUNK_ROWS, each block drawn once, from streams keyed by
the check and the block, and reduced to a short vector (power sums of the
rows' deviations from a value near their mean, or histogram counts), and
the block vectors are added in block order.  The blocks of one check are
split among lanes (threads), each lane opening its own blocks' streams,
so the estimates have the same bits at any lane count, and no check holds
an array as long as its replicas.

Monte Carlo estimates are z-scored against the closed forms, and every
gradient is compared to central finite differences of its loss by one
grad_check; the caller (experiments._run_checks) decides what passes.
Every sampler is seeded, and a check draws from the stream key prefix its
caller passes (see privreg.numerics), so each value is reproducible.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (ModelSpec, ParameterSet, backward, forward, linear_unit_features,
                    quadratic_loss)
from .numerics import VERIFY_PRODUCT_DENSITY, VERIFY_SETUPS, RngStream
from .optimizers import NoiseSpec, block_stepper, clip_gradient, mechanism_step
from .regularizers import RegSpec, add_gradients, add_penalties


@dataclass(frozen=True)
class IdentityEstimate:
    """The Monte Carlo mean and standard error of identity `kind`
    (post_update_loss, ...) under `label` (the noise shape, or sigma=s), and
    z, their distance from the identity's analytic value in standard errors.
    The caller decides what |z| passes."""

    kind: str
    label: str
    mean: float
    stderr: float
    z: float

    @property
    def name(self) -> str:
        return f"{self.kind}[{self.label}]"


def _estimate(kind: str, label: str, analytic: float, mean: float,
              stderr: float) -> IdentityEstimate:
    if stderr == 0:
        z = 0.0 if mean == analytic else float("inf")
    else:
        z = (mean - analytic) / stderr
    return IdentityEstimate(kind, label, mean, stderr, z)


def _linear_neuron_vectors(params: ParameterSet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, x) with the bias folded in as a constant-1 feature.

    The closed forms hold for one linear output unit only.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    return params.flat, linear_unit_features(params.spec, x[None, :])[0]


def _scalar_target(t) -> float:
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.shape != (1,):
        raise ValueError("closed forms need a scalar target")
    return float(t[0])


# Replicas per block of a Monte Carlo check.  2**14 rows keep a block's
# temporaries in cache; each block draws from streams of its own, so the
# block size is part of what pins a check's draws.
MC_CHUNK_ROWS = 1 << 14


def mc_lanes(replicas: int) -> int:
    """Lanes that a Monte Carlo check of `replicas` rows runs in: one per
    CPU this process may run on, at most one per MC_CHUNK_ROWS block.
    Where the platform has no sched_getaffinity (macOS, Windows), every
    CPU counts."""
    blocks = -(-replicas // MC_CHUNK_ROWS)
    if hasattr(os, "sched_getaffinity"):
        return min(blocks, len(os.sched_getaffinity(0)))
    return min(blocks, os.cpu_count() or 1)


def _in_lanes(jobs: list[Callable[[], object]]) -> list:
    """Every job's result, in job order, from jobs run side by side, one
    per lane: job 0 on the calling thread, every other job on a worker
    thread of its own.

    The jobs mapped here share no state, draw from their own seeded
    streams and spend their time in numpy loops that release the GIL, so
    they overlap and return the bits a serial run would.  Every job runs
    to its end, and the error raised is that of the lowest-numbered failed
    job: the error a serial run meets.

    The calling thread runs a job, rather than only waiting on a pool, to
    keep peak memory down: glibc gives each thread its own malloc arena,
    and memory freed on the calling thread is reused by the serial phases
    after it.
    """
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def lane(i: int) -> None:
        try:
            results[i] = jobs[i]()
        except BaseException as error:  # raised on the calling thread, in job order
            errors[i] = error

    workers = [threading.Thread(target=lane, args=(i,)) for i in range(1, len(jobs))]
    for worker in workers:
        worker.start()
    lane(0)
    for worker in workers:
        worker.join()
    for error in filter(None, errors):
        raise error
    return results


def _require_replicas(replicas: int) -> None:
    if isinstance(replicas, bool) or not isinstance(replicas, numbers.Integral) \
            or replicas < 2:
        raise ValueError(f"replicas must be an integer >= 2, got {replicas!r}")


def _block_sums(summarise: Callable[[list[np.ndarray]], np.ndarray], replicas: int,
                seed: int, key: tuple[int, ...], stds: tuple[float, ...],
                width: int) -> np.ndarray:
    """The sum over the MC_CHUNK_ROWS blocks of `replicas` rows of
    summarise(draws), draws[i] being block b's rows, flat, of the stream
    RngStream(seed, *key, i, b): `width` normals of std stds[i] per row.

    summarise reduces a block's rows to a short vector (_power_sums, or
    histogram counts), so only a block's rows and one short vector per
    block are ever held.  The draws list is summarise's own, kept nowhere
    else, so summarise may pop a block's draws and free them as soon as it
    is done with them.  The blocks are split into mc_lanes(replicas) runs
    of consecutive blocks, one per lane (_in_lanes); every block opens its
    own streams, so it draws the same bits in whichever lane runs it.  The
    block vectors are added in block order, not lane by lane, so the sum
    has the same bits at any lane count.
    """
    blocks, lanes = -(-replicas // MC_CHUNK_ROWS), mc_lanes(replicas)
    # Every block allocates and frees the same few arrays (its draws; in
    # the noisy-step check, their transposed copy, then per case and shape
    # one (P, rows) array of steps and the (rows,) residuals scored off it).
    # glibc's malloc returns freed heap to the OS once its free top passes
    # twice the largest mmap-backed array freed so far, and a block's
    # arrays add up to more than twice its largest, so each block would
    # fault its pages in afresh.  Freeing one array of four blocks' draws
    # (never written, so it maps no page) lifts that bound above a block's
    # arrays for the rest of the process.
    np.empty(4 * MC_CHUNK_ROWS * width * len(stds))

    def lane(first: int, stop: int) -> list[np.ndarray]:
        sums = []
        for block in range(first, stop):
            rows = min(MC_CHUNK_ROWS, replicas - block * MC_CHUNK_ROWS)
            sums.append(summarise([RngStream(seed, *key, i, block).normal(std, rows * width)
                                   for i, std in enumerate(stds)]))
        return sums

    bounds = [blocks * k // lanes for k in range(lanes + 1)]
    per_lane = _in_lanes([partial(lane, first, stop) for first, stop in zip(bounds, bounds[1:])])
    return reduce(np.add, chain.from_iterable(per_lane))


def _power_sums(values: np.ndarray) -> np.ndarray:
    """[n, sum v, sum v^2, sum v^3, sum v^4] over the n `values` of a block."""
    squares = values * values
    return np.array([values.size, values.sum(), squares.sum(),
                     (squares * values).sum(), (squares * squares).sum()])


def _raw_moments(sums: np.ndarray) -> tuple[float, float, float, float, float]:
    """(n, m1, m2, m3, m4), mk the mean of v^k, from the _power_sums of n
    values v."""
    n = float(sums[0])
    return n, *(float(s) / n for s in sums[1:])


def _square_estimate(c: float, n: float, m1: float, m2: float, m3: float,
                     m4: float) -> tuple[float, float]:
    """Mean and standard error of y^2 over n rows y = c + v, from the raw
    moments of v (_raw_moments): y^2 = c^2 + (2cv + v^2), whose variance
    (ddof 1) is that of the bracket, E[(2cv + v^2)^2] - E[2cv + v^2]^2.

    Each check shifts its rows by a value near their mean, so v is centred
    near 0 and the variance is no small difference of large sums: these
    are the shifted power sums of Chan, Golub & LeVeque (1983,
    Am. Statistician 37(3):242-247).
    """
    var = (4.0 * c * c * m2 + 4.0 * c * m3 + m4 - (2.0 * c * m1 + m2) ** 2) * n / (n - 1)
    return c * c + (2.0 * c * m1 + m2), math.sqrt(max(var, 0.0) / n)


def _noise_moves_output(noise: NoiseSpec, theta: np.ndarray, xv: np.ndarray) -> bool:
    """Whether noise of this shape reaches the output theta'.x of a linear
    neuron: the noise sigma*z_i (iid) or sigma*theta_i*z_i (proportional)
    on parameter i moves the output through feature x_i."""
    if not noise.adds_noise:
        return False
    return bool(np.any(theta * xv if noise.mode == "proportional" else xv))


def _noisy_step_estimates(clean: float, sums: np.ndarray
                          ) -> tuple[tuple[float, float], tuple[float, float]]:
    """(mean, standard error) of the squared residual r^2, then of the
    cross term 2*(y-t)*eta*(eps.x), read off each row as 2c(c - r) = -2ce,
    from the _power_sums of e = r - c over the rows, c = `clean` being the
    residual after the noiseless step (so e = -eta*(eps.x) is centred)."""
    n, m1, m2, m3, m4 = _raw_moments(sums)
    cross_stderr = 2.0 * abs(clean) * math.sqrt(max(m2 - m1 * m1, 0.0) / (n - 1))
    return _square_estimate(clean, n, m1, m2, m3, m4), (-2.0 * clean * m1, cross_stderr)


def analytic_post_update_loss(params: ParameterSet, x: np.ndarray, t,
                              eta: float, noise: NoiseSpec) -> float:
    """Closed-form expected post-update loss for one noisy linear-neuron step.

    (y_clean' - t)^2 plus eta^2*sigma^2*sum(x^2) for homogeneous noise, or
    plus eta^2*sigma^2*sum(theta^2*x^2) for parameter-proportional noise
    (theta taken pre-update).  Mode "none" returns the clean value.  The
    clean step uses the gradient clipped to noise.clip_c when that is set:
    the noise comes after the clip, so the identity holds with the clipped
    gradient (Abadi et al. 2016).
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    theta, xv = _linear_neuron_vectors(params, x)
    t = _scalar_target(t)
    g = 2.0 * (float(theta @ xv) - t) * xv
    if noise.clip_c is not None:
        g = clip_gradient(g, noise.clip_c)
    clean = (float((theta - eta * g) @ xv) - t) ** 2
    scale = eta * eta * noise.sigma * noise.sigma
    if noise.mode == "iid":
        return clean + scale * float(xv @ xv)
    if noise.mode == "proportional":
        return clean + scale * float((theta * theta) @ (xv * xv))
    return clean


class _SteppedCase(NamedTuple):
    """A case of check_noisy_step as it steps: per noise shape the closed
    form of the post-update loss; the scalar target t and the input vector
    xv with the bias feature; per noise shape the residual of the
    noiseless step; and per shape whose noise moves the output, by its
    index, the step of its block stepper."""

    analytic: list[float]
    t: float
    xv: np.ndarray
    cleans: list[float]
    steps: dict[int, Callable[[np.ndarray], np.ndarray]]


def _stepped_case(params: ParameterSet, x: np.ndarray, t, eta: float,
                  noises: tuple[NoiseSpec, ...]) -> _SteppedCase:
    analytic = [analytic_post_update_loss(params, x, t, eta, noise) for noise in noises]
    theta, xv = _linear_neuron_vectors(params, x)
    t = _scalar_target(t)
    batch, target, reg = xv[None, :params.spec.input_dim], np.array([[t]]), RegSpec()
    cleans, steps = [], {}
    for k, noise in enumerate(noises):
        if _noise_moves_output(noise, theta, xv):
            clean, steps[k] = block_stepper(params, batch, target, eta, noise, reg)
        else:
            clean = mechanism_step(params, batch, target, eta, noise, reg).params
        cleans.append(float(clean @ xv) - t)
    return _SteppedCase(analytic, t, xv, cleans, steps)


def check_noisy_step(cases: Sequence[tuple[ParameterSet, np.ndarray, float, float,
                                           tuple[NoiseSpec, ...]]],
                     replicas: int, seed: int,
                     key: tuple[int, ...] = ()) -> list[list[IdentityEstimate]]:
    """Monte Carlo estimates of one noisy step of a linear neuron, per case
    (params, x, t, eta, noises) of `cases`: per noise shape in noises, the
    expected post-update loss E[(y_tilde' - t)^2] z-scored against its
    closed form (analytic_post_update_loss), then per shape the cross term
    2*(y-t)*eta*(eps.x) z-scored against zero.

    The cross term is the middle term of the expanded loss, which drops out
    because the noise is centered, so both estimates read the same noisy
    steps.  A replica is one step of the trainer's mechanism from the
    case's params, scored by its post-update residual r: each case and
    shape whose noise moves the output gets one optimizers.block_stepper,
    built before the first block, with its own plan and clean gradient,
    which every block and lane steps through, and whose noiseless step
    gives the shape's clean residual.  Every case and shape steps
    on the same noise rows, drawn once per block by one _block_sums: W
    normals a row from stream 0 of `key` at `seed`, W being the largest
    parameter count of the cases, of which a case of P parameters steps on
    the first P.  Each block is transposed once into a contiguous (W, rows)
    array, the drawn rows freed as it is made, and a case's steppers step
    on its first P rows as one (P, rows) noise block, each into one fresh
    (P, rows) array, scored as xv @ theta'.  The rows are summed per case
    and shape as the power sums of r minus the clean residual
    (_noisy_step_estimates).  The cases' estimates thus share their draws
    (common random numbers); with one case, W is that case's own parameter
    count.  A shape whose noise cannot move the output
    (_noise_moves_output) steps on no rows: every row holds its clean
    value, the residual of a noiseless optimizers.mechanism_step.
    eta <= 0 is refused.
    """
    _require_replicas(replicas)
    # One stepper per case and moved shape, each with its own plan and
    # clean gradient, shared by every block in every lane
    stepped = [_stepped_case(*case) for case in cases]
    width = max((case[0].flat.size for case in cases), default=0)

    def summarise(draws: list[np.ndarray]) -> np.ndarray:
        # One contiguous (W, rows) copy of the block, the drawn rows freed
        # as it is made: each case steps on its leading P rows
        zt = np.ascontiguousarray(draws.pop().reshape(-1, width).T)
        sums = []
        for (params, *_), case in zip(cases, stepped):
            z = zt[:params.flat.size]
            for k, step in case.steps.items():
                e = case.xv @ step(z)
                e -= case.t
                e -= case.cleans[k]
                sums.append(_power_sums(e))
        return np.stack(sums)

    moved_sums = iter(_block_sums(summarise, replicas, seed, key, (1.0,), width)
                      if any(case.steps for case in stepped) else ())
    checks = []
    for (*_, noises), case in zip(cases, stepped):
        sums = np.zeros((len(noises), 5))
        sums[:, 0] = replicas
        for k in case.steps:
            sums[k] = next(moved_sums)
        estimates = [_noisy_step_estimates(c, shape_sums)
                     for c, shape_sums in zip(case.cleans, sums)]
        checks.append([_estimate("post_update_loss", noise.mode, value, *squares)
                       for noise, value, (squares, _) in zip(noises, case.analytic, estimates)]
                      + [_estimate("cross_term", noise.mode, 0.0, *cross)
                         for noise, (_, cross) in zip(noises, estimates)])
    return checks


def check_moment_identities(sigma: float, replicas: int, seed: int,
                            key: tuple[int, ...] = ()) -> list[IdentityEstimate]:
    """E[X^2] = sigma^2, E[X^4] = 3*sigma^4, Var[X^2] = 2*sigma^4 for
    X ~ N(0, sigma^2), each a z-scored Monte Carlo estimate, from the power sums
    of v = X^2 - sigma^2 over the draws of `key` at `seed` (_block_sums)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    _require_replicas(replicas)
    s2, s4 = sigma ** 2, sigma ** 4

    def summarise(draws: list[np.ndarray]) -> np.ndarray:
        [x] = draws
        np.multiply(x, x, out=x)
        x -= s2
        return _power_sums(x)

    n, m1, m2, m3, m4 = _raw_moments(_block_sums(summarise, replicas, seed, key, (sigma,), 1))
    # Var[s^2_W] ~ (mu4_W - var_W^2*(n-3)/(n-1)) / n for W = X^2, moments
    # estimated in-sample; mu4_W is W's central fourth moment.
    var_w = max(m2 - m1 * m1, 0.0) * n / (n - 1)
    mu4_w = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 ** 4
    stderr = math.sqrt(max(mu4_w - var_w ** 2 * (n - 3) / (n - 1), 0.0) / n)

    label = f"sigma={sigma:g}"
    return [
        _estimate("second_moment", label, s2, s2 + m1, math.sqrt(var_w / n)),
        _estimate("fourth_moment", label, 3.0 * s4, *_square_estimate(s2, n, m1, m2, m3, m4)),
        _estimate("variance_of_square", label, 2.0 * s4, var_w, stderr),
    ]


@dataclass
class ProductDensityReport:
    """Histogram of X*Y against the bin-integrated K0 density."""

    max_abs_z: float           # max over bins of |count - n*p| / sqrt(n*p*(1-p))
    chi2: float
    symmetry_z: np.ndarray     # mirror-bin (pos - neg)/sqrt(pos + neg)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _bin_masses(sigma_x: float, sigma_y: float, pos_edges: np.ndarray) -> np.ndarray:
    """Mass of the K0 product density on each interval of the positive,
    increasing `pos_edges`: the difference of the tails at its edges.

    For u > 0, P(XY > u) = int_0^inf erfc(u / (sqrt(2) sx sy y)) phi(y) dy,
    phi the standard normal density (given |Y| = y, X passes u/y on one
    side with probability erfc(...)/2, and Y takes either sign).  On
    y = e^v the integrand decays double-exponentially at both ends, so the
    trapezoid rule converges exponentially in 1/h (Trefethen & Weideman
    2014).  It peaks at y^2 = u/(sx sy) with width (1/2) sqrt(sx sy / u) in
    v, and the step h is at most 0.8 widths at the largest edge.  Nodes run
    over v in [-30, 4.5]: phi(e^4.5) underflows to 0, and below e^-30 a
    tail loses at most phi(0) e^-30 < 4e-14.  Each mass is within 1e-13
    relative of adaptive quadrature of K0 at any scale from sx*sy = 0.02
    to 10, far-tail bins included.
    """
    scale = sigma_x * sigma_y
    h = min(0.1, 0.4 * math.sqrt(scale / pos_edges[-1]))
    y = np.exp(np.arange(math.floor(-30.0 / h), math.ceil(4.5 / h) + 1) * h)
    weight = y * np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)  # phi(y) dy/dv
    arg = pos_edges[:, None] / (math.sqrt(2.0) * scale * y)
    tails = np.trapezoid(_erfc(arg).astype(np.float64) * weight, dx=h, axis=1)
    return tails[:-1] - tails[1:]


def check_product_density(sigma_x: float, sigma_y: float, replicas: int,
                          bins: int, seed: int) -> ProductDensityReport:
    """Compare samples of X*Y, keyed VERIFY_PRODUCT_DENSITY, to the K0
    product-of-normals density.

    `bins` intervals of |u| over [0.05, 4] are mirrored into signed bins,
    each expected to hold its closed-form mass (_bin_masses).  The range
    excludes zero, where the density has a log singularity.
    """
    if not (sigma_x > 0 and sigma_y > 0):
        raise ValueError("sigmas must be positive")
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    _require_replicas(replicas)

    pos_edges = np.linspace(0.05, 4.0, bins + 1)
    pos_mass = _bin_masses(sigma_x, sigma_y, pos_edges)
    expected = np.concatenate([pos_mass[::-1], pos_mass])
    edges = np.concatenate([-pos_edges[::-1], pos_edges])

    def summarise(draws: list[np.ndarray]) -> np.ndarray:
        x, y = draws
        x *= y
        return np.histogram(x, bins=edges)[0]

    # X from stream 0, Y from stream 1; integer counts add exactly
    raw_counts = _block_sums(summarise, replicas, seed, (VERIFY_PRODUCT_DENSITY,),
                             (sigma_x, sigma_y), 1)
    counts = np.delete(raw_counts, bins).astype(np.float64)  # drop the (-lo, lo) gap

    mean_counts = replicas * expected
    z = (counts - mean_counts) / np.sqrt(mean_counts * (1.0 - expected))
    chi2 = float(((counts - mean_counts) ** 2 / mean_counts).sum())

    pos_counts = counts[bins:]
    neg_counts = counts[:bins][::-1]
    totals = pos_counts + neg_counts
    with np.errstate(invalid="ignore", divide="ignore"):
        sym = np.where(totals > 0, (pos_counts - neg_counts) / np.sqrt(totals), 0.0)

    return ProductDensityReport(max_abs_z=float(np.abs(z).max()), chi2=chi2, symmetry_z=sym)


def finite_difference_gradient(f: Callable[[np.ndarray], float], theta: np.ndarray,
                               h_scale: float) -> np.ndarray:
    """Central differences with per-coordinate step h_scale * max(1, |theta_i|)."""
    if not h_scale > 0:
        raise ValueError(f"h_scale must be positive, got {h_scale}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = h_scale * max(1.0, abs(theta[i]))
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        grad[i] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def grad_check(loss: Callable[[ParameterSet], float], grad: np.ndarray,
               params: ParameterSet, h_scale: float) -> float:
    """Worst relative error of `grad`, the gradient of `loss` at `params`,
    against central differences of `loss` (finite_difference_gradient):
    max_i |grad_i - fd_i| / max(1, |grad_i|, |fd_i|)."""
    fd = finite_difference_gradient(lambda theta: loss(ParameterSet(params.spec, theta)),
                                    params.flat, h_scale)
    denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
    return float(np.max(np.abs(grad - fd) / denom))


def penalty_grad_error(reg: RegSpec, params: ParameterSet, x: np.ndarray) -> float:
    """grad_check of reg's penalty gradient at the one input x, both as the
    trainer adds them (regularizers.add_gradients, add_penalties), with the
    product term at reg's explicit kappa."""
    row = x[None, :]
    return grad_check(lambda p: add_penalties(reg, np.zeros(1), p, row, reg.kappa)[0],
                      add_gradients(reg, np.zeros((1, params.flat.size)), params, row,
                                    reg.kappa)[0],
                      params, 1e-5)


def backprop_grad_error(params: ParameterSet, x: np.ndarray, t: np.ndarray) -> float:
    """grad_check of backward's gradient at the one example (x, t) against
    its quadratic loss."""
    row, target = x[None, :], t[None, :]
    return grad_check(lambda p: quadratic_loss(forward(p, row)[-1], target)[0],
                      backward(params, row, target)[0], params, 1e-6)


@dataclass(frozen=True)
class LinearSetup:
    """One randomly drawn linear-neuron configuration for the identity
    suite, with the clip threshold of its noisy steps (None: no clip)."""

    params: ParameterSet
    x: np.ndarray
    t: float
    eta: float
    sigma: float
    clip_c: float | None = None


def random_linear_setups(n: int, seed: int) -> list[LinearSetup]:
    """Seeded setups for the randomized suite, drawn one after another
    from one stream, each in turn: dimension 2..6, theta, x, t, eta in
    [0.02, 0.3), sigma in [0.05, 0.5), a bias with probability 1/2 (the
    unit's bias, drawn N(0, 1)) and a clip with probability 1/2 (clip_c in
    [0.5, 5), which the clean gradient's norm passes in about two clipped
    setups of three)."""
    rng = RngStream(seed, VERIFY_SETUPS)
    setups = []
    for _ in range(n):
        d = min(int(2 + rng.uniform(1)[0] * 5), 6)
        theta = rng.normal(1.0, d)
        x = rng.normal(1.0, d)
        t = float(rng.normal(1.0, 1)[0])
        eta = float(0.02 + rng.uniform(1)[0] * (0.3 - 0.02))
        sigma = float(0.05 + rng.uniform(1)[0] * (0.5 - 0.05))
        include_bias = bool(rng.uniform(1)[0] < 0.5)
        if include_bias:
            theta = np.append(theta, rng.normal(1.0, 1))
        clip_c = None
        if rng.uniform(1)[0] < 0.5:
            clip_c = float(0.5 + rng.uniform(1)[0] * (5.0 - 0.5))
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity",
                         include_bias=include_bias)
        setups.append(LinearSetup(params=ParameterSet(spec, theta), x=x, t=t,
                                  eta=eta, sigma=sigma, clip_c=clip_c))
    return setups


def equivalence_chain_residuals(setup: LinearSetup) -> tuple[float, float]:
    """|analytic(noisy) - analytic(clean) - penalty| for both noise shapes,
    each step clipped at the setup's clip_c.

    The homogeneous-noise gap must equal the input-only penalty with
    kappa = eta^2*sigma^2 (RegSpec's derived kappa, the weight the trainer
    uses); the proportional-noise gap must equal the parameter-input
    product penalty with the same kappa.  Both penalties are the trainer's
    own terms (regularizers.add_penalties); the input-only term is taken of
    the neuron's input vector, the bias's constant 1 included, since the
    noise on the bias shifts the loss too.
    """
    reg = RegSpec(kappa_mode="derived")
    kappa = reg.effective_kappa(setup.eta, setup.sigma)
    clean, iid_loss, prop_loss = (
        analytic_post_update_loss(setup.params, setup.x, setup.t, setup.eta,
                                  NoiseSpec(mode=mode, sigma=sigma, clip_c=setup.clip_c))
        for mode, sigma in (("none", 0.0), ("iid", setup.sigma), ("proportional", setup.sigma)))
    _, xv = _linear_neuron_vectors(setup.params, setup.x)
    base = np.zeros(1)
    input_term = add_penalties(RegSpec(input_kappa=kappa), base, setup.params, xv[None, :],
                               0.0)[0]
    iid_resid = abs((iid_loss - clean) - input_term)
    prop_resid = abs((prop_loss - clean) - add_penalties(reg, base, setup.params,
                                                         setup.x[None, :], kappa)[0])
    return float(iid_resid), float(prop_resid)
