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
noisy step, so one Monte Carlo pass (check_noisy_step) checks both.  It
runs the trainer's own step (optimizers.mechanism_step: gradient, clip,
mean, noise, step) once per replica and noise shape, and scores the
stepped parameters, so a trainer bug in the noise scale or its centre, in
which theta scales proportional noise, in bias handling or in clipping
fails the check.  The closed forms are written out independently, with
the bias folded in as a constant-1 feature and the clean gradient clipped
when noise.clip_c is set; the product density's bin masses need only
math.erfc.

Every Monte Carlo check runs on one engine (_block_sums): its rows come
in blocks of MC_CHUNK_ROWS, each block drawn once and reduced to a short
vector (power sums of the rows' deviations from a value near their mean,
or histogram counts), and the block vectors are added in block order.
The blocks of one check are split among lanes (threads), each lane
jumping its streams ahead to its first block, so the estimates have the
same bits at any lane count, and no check holds an array as long as its
replicas.

Monte Carlo estimates are z-scored against the closed forms, gradients
compared to central finite differences; the caller (experiments._run_checks)
decides what passes.  Every sampler is seeded, so each value is reproducible.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from typing import Callable

import numpy as np

from .model import ModelSpec, ParameterSet, linear_unit_features
from .numerics import RngStream
from .optimizers import NoiseSpec, clip_gradient, mechanism_step
from .regularizers import (RegSpec, dp_input_penalty, l2_grad, l2_penalty,
                           pdp_grad, pdp_penalty)


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
# temporaries in cache, and an even row count makes every block start at an
# even offset of its streams, so the blocks together draw exactly what one
# call for all the rows would (see RngStream.normal), and a lane can skip to
# any block (RngStream.skip).
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
    if len(jobs) == 1:
        return [jobs[0]()]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(jobs) - 1) as pool:
        others = [pool.submit(job) for job in jobs[1:]]
        first = jobs[0]()
        return [first] + [future.result() for future in others]


def _require_replicas(replicas: int) -> None:
    if isinstance(replicas, bool) or not isinstance(replicas, numbers.Integral) \
            or replicas < 2:
        raise ValueError(f"replicas must be an integer >= 2, got {replicas!r}")


def _block_sums(summarise: Callable[..., np.ndarray], replicas: int, seed: int,
                stds: tuple[float, ...], width: int) -> np.ndarray:
    """The sum over the MC_CHUNK_ROWS blocks of `replicas` rows of
    summarise(*draws), draws[i] being the block's rows of stream i of
    `seed`, flat: `width` normals of std stds[i] per row.

    summarise reduces a block's rows to a short vector (_power_sums, or
    histogram counts), so only a block's rows and one short vector per
    block are ever held.  The blocks are split into mc_lanes(replicas) runs
    of consecutive blocks, one per lane (_in_lanes), and a lane skips its
    streams to its first block (RngStream.skip), so every block draws the
    bits it would in one serial pass.  The block vectors are added in
    block order, not lane by lane, so the sum has the same bits at any
    lane count.
    """
    blocks, lanes = -(-replicas // MC_CHUNK_ROWS), mc_lanes(replicas)
    # Every block allocates and frees the same few arrays.  glibc's malloc
    # returns freed heap to the OS once its free top passes twice the
    # largest mmap-backed array freed so far, and a block's arrays add up
    # to more than twice its largest, so each block would fault its pages
    # in afresh.  Freeing one array of four blocks' draws (never written,
    # so it maps no page) lifts that bound above a block's arrays for the
    # rest of the process.
    np.empty(4 * MC_CHUNK_ROWS * width * len(stds))

    def lane(first: int, stop: int) -> list[np.ndarray]:
        rngs = [RngStream(seed, i) for i in range(len(stds))]
        for rng in rngs:
            rng.skip(first * MC_CHUNK_ROWS * width)
        sums = []
        for block in range(first, stop):
            rows = min(MC_CHUNK_ROWS, replicas - block * MC_CHUNK_ROWS)
            sums.append(summarise(*(rng.normal(std, rows * width)
                                    for rng, std in zip(rngs, stds))))
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


def check_noisy_step(params: ParameterSet, x: np.ndarray, t, eta: float,
                     noises: tuple[NoiseSpec, ...], replicas: int,
                     seed: int) -> list[IdentityEstimate]:
    """Monte Carlo estimates of one noisy step of a linear neuron: per noise
    shape in `noises`, the expected post-update loss E[(y_tilde' - t)^2]
    z-scored against its closed form (analytic_post_update_loss), then per
    shape the cross term 2*(y-t)*eta*(eps.x) z-scored against zero.

    The cross term is the middle term of the expanded loss, which drops out
    because the noise is centered, so both estimates read the same noisy
    steps.  A replica is one step of the trainer's mechanism
    (mechanism_step) from `params`, scored by its post-update residual r;
    every shape steps on the same noise rows, stream 0 of `seed`, each
    block drawn once (_block_sums) and summed per shape as the power sums
    of r minus the clean residual (_noisy_step_estimates).  A shape whose
    noise cannot move the output (_noise_moves_output) steps on no rows:
    every row holds its clean value.  mechanism_step refuses eta <= 0.
    """
    _require_replicas(replicas)
    analytic = [analytic_post_update_loss(params, x, t, eta, noise) for noise in noises]
    theta, xv = _linear_neuron_vectors(params, x)
    t = _scalar_target(t)
    batch, target, reg = xv[None, :params.spec.input_dim], np.array([[t]]), RegSpec()
    cleans = [float(mechanism_step(params, batch, target, eta, noise, reg).params @ xv) - t
              for noise in noises]
    moved = [k for k, noise in enumerate(noises) if _noise_moves_output(noise, theta, xv)]

    def summarise(z: np.ndarray) -> np.ndarray:
        z = z.reshape(-1, theta.size)
        sums = []
        for k in moved:
            e = mechanism_step(params, batch, target, eta, noises[k], reg, z).params @ xv
            e -= t
            e -= cleans[k]
            sums.append(_power_sums(e))
        return np.stack(sums)

    sums = np.zeros((len(noises), 5))
    sums[:, 0] = replicas
    if moved:
        sums[moved] = _block_sums(summarise, replicas, seed, (1.0,), theta.size)
    estimates = [_noisy_step_estimates(c, shape_sums) for c, shape_sums in zip(cleans, sums)]
    post_update = [_estimate("post_update_loss", noise.mode, value, *squares)
                   for noise, value, (squares, _) in zip(noises, analytic, estimates)]
    cross_term = [_estimate("cross_term", noise.mode, 0.0, *cross)
                  for noise, (_, cross) in zip(noises, estimates)]
    return post_update + cross_term


def check_moment_identities(sigma: float, replicas: int,
                            seed: int) -> list[IdentityEstimate]:
    """E[X^2] = sigma^2, E[X^4] = 3*sigma^4, Var[X^2] = 2*sigma^4 for
    X ~ N(0, sigma^2), each a z-scored Monte Carlo estimate, from the power sums
    of v = X^2 - sigma^2 (_block_sums)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    _require_replicas(replicas)
    s2, s4 = sigma ** 2, sigma ** 4

    def summarise(draws: np.ndarray) -> np.ndarray:
        np.multiply(draws, draws, out=draws)
        draws -= s2
        return _power_sums(draws)

    n, m1, m2, m3, m4 = _raw_moments(_block_sums(summarise, replicas, seed, (sigma,), 1))
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
    """Compare samples of X*Y to the K0 product-of-normals density.

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

    def summarise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x *= y
        return np.histogram(x, bins=edges)[0]

    # X from stream 0, Y from stream 1; integer counts add exactly
    raw_counts = _block_sums(summarise, replicas, seed, (sigma_x, sigma_y), 1)
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


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


PENALTY_KINDS = ("l2", "pdp", "dp_input", "combined")


def grad_check(kind: str, params: ParameterSet, x: np.ndarray,
               lam: float = 0.0, kappa: float = 0.0) -> float:
    """Worst relative error of a penalty gradient against central differences.

    Kind "combined" checks l2_grad + pdp_grad, the sum mechanism_step adds.
    """
    if kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}")
    spec = params.spec

    row = np.asarray(x, dtype=np.float64)[None, :]

    if kind == "l2":
        f = lambda th: l2_penalty(ParameterSet(spec, th), lam)
        analytic = l2_grad(params, lam)
    elif kind == "pdp":
        f = lambda th: pdp_penalty(ParameterSet(spec, th), row, kappa)[0]
        analytic = pdp_grad(params, row, kappa)[0]
    elif kind == "dp_input":
        f = lambda th: dp_input_penalty(x, kappa)
        analytic = np.zeros_like(params.flat)
    else:
        f = lambda th: (l2_penalty(ParameterSet(spec, th), lam)
                        + pdp_penalty(ParameterSet(spec, th), row, kappa)[0])
        analytic = l2_grad(params, lam) + pdp_grad(params, row, kappa)[0]

    fd = finite_difference_gradient(f, params.flat, 1e-5)
    return _max_rel_err(analytic, fd)


def backprop_grad_check(params: ParameterSet, x: np.ndarray, t) -> float:
    """Worst relative error of backward() against central differences of the loss."""
    from .model import backward, forward, quadratic_loss

    row = np.asarray(x, dtype=np.float64)[None, :]
    target = np.atleast_1d(np.asarray(t, dtype=np.float64))[None, :]

    def loss_at(th: np.ndarray) -> float:
        p = ParameterSet(params.spec, th)
        return quadratic_loss(forward(p, row)[-1], target)[0]

    analytic = backward(params, row, target)[0]
    fd = finite_difference_gradient(loss_at, params.flat, 1e-6)
    return _max_rel_err(analytic, fd)


@dataclass(frozen=True)
class LinearSetup:
    """One randomly drawn linear-neuron configuration for the identity suite."""

    params: ParameterSet
    x: np.ndarray
    t: float
    eta: float
    sigma: float


def random_linear_setups(n: int, seed: int) -> list[LinearSetup]:
    """Seeded draws of (theta, x, t, eta, sigma) for the randomized suite:
    dimension 2..6, eta in [0.02, 0.3), sigma in [0.05, 0.5)."""
    rng = RngStream(seed, 0)
    setups = []
    for _ in range(n):
        d = min(int(2 + rng.uniform(1)[0] * 5), 6)
        theta = rng.normal(1.0, d)
        x = rng.normal(1.0, d)
        t = float(rng.normal(1.0, 1)[0])
        eta = float(0.02 + rng.uniform(1)[0] * (0.3 - 0.02))
        sigma = float(0.05 + rng.uniform(1)[0] * (0.5 - 0.05))
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=False)
        setups.append(LinearSetup(params=ParameterSet(spec, theta), x=x, t=t,
                                  eta=eta, sigma=sigma))
    return setups


def equivalence_chain_residuals(setup: LinearSetup) -> tuple[float, float]:
    """|analytic(noisy) - analytic(clean) - penalty| for both noise shapes.

    The homogeneous-noise gap must equal the input-only penalty with
    kappa = eta^2*sigma^2 (RegSpec's derived kappa, the weight the trainer
    uses); the proportional-noise gap must equal the parameter-input
    product penalty with the same kappa.
    """
    kappa = RegSpec(kappa_mode="derived").effective_kappa(setup.eta, setup.sigma)
    clean = analytic_post_update_loss(setup.params, setup.x, setup.t, setup.eta,
                                      NoiseSpec(mode="none"))
    _, xv = _linear_neuron_vectors(setup.params, setup.x)
    iid_gap = analytic_post_update_loss(setup.params, setup.x, setup.t, setup.eta,
                                        NoiseSpec(mode="iid", sigma=setup.sigma)) - clean
    prop_gap = analytic_post_update_loss(setup.params, setup.x, setup.t, setup.eta,
                                         NoiseSpec(mode="proportional", sigma=setup.sigma)) - clean
    iid_resid = abs(iid_gap - dp_input_penalty(xv, kappa))
    prop_resid = abs(prop_gap - pdp_penalty(setup.params, setup.x[None, :], kappa)[0])
    return float(iid_resid), float(prop_resid)
