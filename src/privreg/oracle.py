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

The post-update and cross-term Monte Carlo runs the trainer's own step
(optimizers.mechanism_step: gradient, clip, mean, noise, step) once per
replica, R noise rows at a time, and scores the stepped parameters, so a
trainer bug in the noise scale, in which theta scales proportional noise,
in bias handling or in clipping fails the check.  The closed forms are
written out independently, with the bias folded in as a constant-1 feature
and the clean gradient clipped when noise.clip_c is set.

Monte Carlo estimates are compared to the closed forms through z-scores;
gradients are compared to central finite differences.  Every sampler is
seeded, so a check either passes forever or fails forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelSpec, ParameterSet, linear_unit_features
from .numerics import RngStream
from .optimizers import NoiseSpec, clip_gradient, gradient_noise, mechanism_step
from .regularizers import (RegSpec, dp_input_penalty, l2_grad, l2_penalty,
                           pdp_grad, pdp_penalty)

DEFAULT_Z_THRESHOLD = 3.0


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    replicas: int
    seed: int

    def __post_init__(self):
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class IdentityCheck:
    """One analytic value against one Monte Carlo estimate."""

    name: str
    analytic: float
    estimate: McEstimate
    z: float
    passed: bool
    threshold: float = DEFAULT_Z_THRESHOLD


def _z_score(mc_mean: float, stderr: float, analytic: float) -> float:
    if stderr == 0:
        return 0.0 if mc_mean == analytic else float("inf")
    return (mc_mean - analytic) / stderr


def _check(name: str, analytic: float, mean: float, stderr: float,
           replicas: int, seed: int, threshold: float) -> IdentityCheck:
    z = _z_score(mean, stderr, analytic)
    return IdentityCheck(name=name, analytic=analytic,
                         estimate=McEstimate(mean, stderr, replicas, seed),
                         z=z, passed=abs(z) <= threshold, threshold=threshold)


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


# Replicas per pass of a Monte Carlo loop (noise rows stepped, or product
# draws binned).  2**14 rows keep a pass's temporaries in cache, and an even
# row count makes every pass but the last draw an even number of normals, so
# the passes together draw exactly what one call for all the rows would (see
# RngStream.normal).
MC_CHUNK_ROWS = 1 << 14


def _noisy_step_residuals(params: ParameterSet, x: np.ndarray, t, eta: float,
                          noise: NoiseSpec, replicas: int,
                          seed: int) -> tuple[float, np.ndarray]:
    """y' - t after the trainer's noiseless step, and after each of
    `replicas` noisy steps from the same parameters.

    The noise rows come from stream 0 of `seed`, MC_CHUNK_ROWS at a time,
    and each pass scores its rows into one preallocated (replicas,) vector.
    mechanism_step refuses eta <= 0 for both callers.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    theta, xv = _linear_neuron_vectors(params, x)
    t = _scalar_target(t)
    batch, target, reg = xv[None, :params.spec.input_dim], np.array([[t]]), RegSpec()
    residuals = np.empty(replicas)
    clean = float(mechanism_step(params, batch, target, eta, noise, reg).params @ xv)
    rng = RngStream(seed, 0)
    for start in range(0, replicas, MC_CHUNK_ROWS):
        rows = residuals[start:start + MC_CHUNK_ROWS]
        z = gradient_noise(noise, rng, (rows.size, theta.size))
        if z is None:
            residuals.fill(clean)
            break
        step = mechanism_step(params, batch, target, eta, noise, reg, z)
        np.matmul(step.params, xv, out=rows)
    residuals -= t
    return clean - t, residuals


def _mean_and_var(values: np.ndarray) -> tuple[np.float64, np.float64]:
    """values.mean() and values.var(ddof=1), bit for bit, computed in place.

    The steps are those of numpy's _mean and _var (sum over n; deviations
    from that mean, squared, summed over n - 1), but the deviations are
    formed in `values` itself rather than in a fresh (n,) temporary, so
    `values` is left holding the squared deviations.
    """
    n = values.size
    mean = np.add.reduce(values) / n
    values -= mean
    np.square(values, out=values)
    return mean, np.add.reduce(values) / (n - 1)


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """values.mean() and values.std(ddof=1) / sqrt(n), bit for bit; `values`
    is overwritten (see _mean_and_var)."""
    mean, var = _mean_and_var(values)
    return float(mean), float(np.sqrt(var) / np.sqrt(values.size))


def mc_post_update_loss(params: ParameterSet, x: np.ndarray, t, eta: float,
                        noise: NoiseSpec, replicas: int, seed: int) -> McEstimate:
    """Sampled E[(y_tilde' - t)^2] after one noisy update of a linear neuron.

    Each replica is one step of the trainer's mechanism (mechanism_step)
    with fresh gradient noise, scored by its post-update output against
    the target.
    """
    _, residuals = _noisy_step_residuals(params, x, t, eta, noise, replicas, seed)
    mean, stderr = _mean_and_stderr(np.square(residuals, out=residuals))
    return McEstimate(mean=mean, stderr=stderr, replicas=replicas, seed=seed)


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


def check_post_update_loss(params: ParameterSet, x: np.ndarray, t, eta: float,
                           noise: NoiseSpec, replicas: int, seed: int,
                           threshold: float = DEFAULT_Z_THRESHOLD) -> IdentityCheck:
    """Monte Carlo (mc_post_update_loss) against closed-form
    (analytic_post_update_loss) expected loss after one noisy step."""
    analytic = analytic_post_update_loss(params, x, t, eta, noise)
    est = mc_post_update_loss(params, x, t, eta, noise, replicas, seed)
    return _check(f"post_update_loss[{noise.mode}]", analytic, est.mean, est.stderr,
                  replicas, seed, threshold)


def check_cross_term_vanishes(params: ParameterSet, x: np.ndarray, t, eta: float,
                              noise: NoiseSpec, replicas: int, seed: int,
                              threshold: float = DEFAULT_Z_THRESHOLD) -> IdentityCheck:
    """Zero-mean check of the cross term 2*(y-t)*eta*(eps.x).

    Because the noise is centered, the expansion of the expected
    post-update loss drops this term; its Monte Carlo mean must sit
    within `threshold` standard errors of zero.  Each replica is one step
    of the trainer's mechanism, and eta*(eps.x) is read off as the clean
    post-update output minus the noisy one.
    """
    clean, residuals = _noisy_step_residuals(params, x, t, eta, noise, replicas, seed)
    values = np.subtract(clean, residuals, out=residuals)
    values *= 2.0 * clean
    mean, stderr = _mean_and_stderr(values)
    return _check(f"cross_term[{noise.mode}]", 0.0, mean, stderr, replicas, seed, threshold)


def check_moment_identities(sigma: float, replicas: int, seed: int,
                            threshold: float = DEFAULT_Z_THRESHOLD) -> list[IdentityCheck]:
    """E[X^2] = sigma^2, E[X^4] = 3*sigma^4, Var[X^2] = 2*sigma^4 for
    X ~ N(0, sigma^2), each as a z-scored sample check."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    n = replicas
    s2, s4 = sigma ** 2, sigma ** 4
    # Two (n,) buffers in all: the draws, squared in place into w, and one
    # scratch buffer, each summarised in place with numpy's bits.
    w = RngStream(seed, 0).normal(0.0, sigma, n)
    np.multiply(w, w, out=w)
    scratch = np.multiply(w, w)
    fourth_mean, fourth_stderr = _mean_and_stderr(scratch)
    # Var[s^2_W] ~ (mu4_W - var_W^2*(n-3)/(n-1)) / n, moments estimated in-sample.
    # mu4_W is the mean of (w - w.mean()) ** 4, which differs in its bits
    # from squaring the squared deviations, so it is taken first.
    centered = np.subtract(w, np.add.reduce(w) / n, out=scratch)
    mu4_w = float(np.add.reduce(np.power(centered, 4, out=centered)) / n)
    mean_w, var_w = _mean_and_var(w)
    var_w = float(var_w)
    stderr = float(np.sqrt(max(mu4_w - var_w ** 2 * (n - 3) / (n - 1), 0.0) / n))

    return [
        _check(f"second_moment[sigma={sigma:g}]", s2, float(mean_w),
               float(np.sqrt(var_w) / np.sqrt(n)), n, seed, threshold),
        _check(f"fourth_moment[sigma={sigma:g}]", 3.0 * s4, fourth_mean, fourth_stderr,
               n, seed, threshold),
        _check(f"variance_of_square[sigma={sigma:g}]", 2.0 * s4, var_w, stderr,
               n, seed, threshold),
    ]


@dataclass
class ProductDensityReport:
    """Histogram of X*Y against the bin-integrated K0 density."""

    edges: np.ndarray          # signed bin edges, negative side then positive
    counts: np.ndarray         # observed count per signed bin
    expected: np.ndarray       # expected probability mass per signed bin
    max_abs_z: float           # max over bins of |count - n*p| / sqrt(n*p*(1-p))
    chi2: float
    symmetry_z: np.ndarray     # mirror-bin (pos - neg)/sqrt(pos + neg)
    replicas: int
    seed: int


def check_product_density(sigma_x: float, sigma_y: float, replicas: int,
                          bins: int, seed: int,
                          support: tuple[float, float] = (0.05, 4.0)) -> ProductDensityReport:
    """Compare samples of X*Y to the K0 product-of-normals density.

    `bins` intervals of |u| over `support` are mirrored into signed bins;
    the support must exclude zero, where the density has a log
    singularity.  A bin's expected mass is the difference of F(|u|/(sx*sy))/pi
    at its edges, F(v) = int_0^v K0 = (pi*v/2)(K0 L_-1 + K1 L_0)(v) with L
    the modified Struve function (Abramowitz & Stegun 11.1.8).  Each mass
    is within 3e-13 absolute: <= 1e-12 relative at sx*sy ~ 1, looser in
    far-tail bins at small scales (1.8e-6 on a 5e-9 bin at sx*sy = 0.25).
    A bin whose mass comes out nonpositive raises ValueError.
    """
    if not (sigma_x > 0 and sigma_y > 0):
        raise ValueError("sigmas must be positive")
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins}")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    lo, hi = float(support[0]), float(support[1])
    if not (0 < lo < hi):
        raise ValueError(f"degenerate bins: support must satisfy 0 < lo < hi, got {support}")

    from scipy import special  # slow to import; only this check needs it

    pos_edges = np.linspace(lo, hi, bins + 1)
    v = pos_edges / (sigma_x * sigma_y)
    cumulative = (0.5 * v) * (special.k0(v) * special.modstruve(-1, v)  # F(v) / pi
                              + special.k1(v) * special.modstruve(0, v))
    pos_mass = np.diff(cumulative)
    if not (pos_mass > 0).all():
        cut = pos_edges[np.argmin(pos_mass > 0)]
        raise ValueError(f"the bin from |u| = {cut:.4g} holds less mass than the closed form "
                         "resolves; narrow the support")
    expected = np.concatenate([pos_mass[::-1], pos_mass])

    # X and Y are drawn and binned MC_CHUNK_ROWS at a time: every call but
    # the last draws an even number of normals, so the calls together draw
    # what one call of `replicas` would, and the integer counts add exactly.
    x_rng, y_rng = RngStream(seed, 0), RngStream(seed, 1)
    edges = np.concatenate([-pos_edges[::-1], pos_edges])
    raw_counts = np.zeros(edges.size - 1, dtype=np.intp)
    for start in range(0, replicas, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, replicas - start)
        u = x_rng.normal(0.0, sigma_x, rows)
        u *= y_rng.normal(0.0, sigma_y, rows)
        raw_counts += np.histogram(u, bins=edges)[0]
    counts = np.delete(raw_counts, bins).astype(np.float64)  # drop the (-lo, lo) gap

    mean_counts = replicas * expected
    z = (counts - mean_counts) / np.sqrt(mean_counts * (1.0 - expected))
    chi2 = float(((counts - mean_counts) ** 2 / mean_counts).sum())

    pos_counts = counts[bins:]
    neg_counts = counts[:bins][::-1]
    totals = pos_counts + neg_counts
    with np.errstate(invalid="ignore", divide="ignore"):
        sym = np.where(totals > 0, (pos_counts - neg_counts) / np.sqrt(totals), 0.0)

    return ProductDensityReport(
        edges=edges, counts=counts, expected=expected, max_abs_z=float(np.abs(z).max()),
        chi2=chi2, symmetry_z=sym, replicas=replicas, seed=seed,
    )


def finite_difference_gradient(f: Callable[[np.ndarray], float], theta: np.ndarray,
                               h_scale: float = 1e-5) -> np.ndarray:
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
               lam: float = 0.0, kappa: float = 0.0,
               h_scale: float = 1e-5) -> float:
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

    fd = finite_difference_gradient(f, params.flat, h_scale)
    return _max_rel_err(analytic, fd)


def backprop_grad_check(params: ParameterSet, x: np.ndarray, t,
                        h_scale: float = 1e-6) -> float:
    """Worst relative error of backward() against central differences of the loss."""
    from .model import backward, forward, quadratic_loss

    row = np.asarray(x, dtype=np.float64)[None, :]
    target = np.atleast_1d(np.asarray(t, dtype=np.float64))[None, :]

    def loss_at(th: np.ndarray) -> float:
        p = ParameterSet(params.spec, th)
        return quadratic_loss(forward(p, row).output, target)[0]

    analytic = backward(forward(params, row), target)[0]
    fd = finite_difference_gradient(loss_at, params.flat, h_scale)
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
        theta = rng.normal(0.0, 1.0, d)
        x = rng.normal(0.0, 1.0, d)
        t = float(rng.normal(0.0, 1.0, 1)[0])
        eta = float(0.02 + rng.uniform(1)[0] * (0.3 - 0.02))
        sigma = float(0.05 + rng.uniform(1)[0] * (0.5 - 0.05))
        spec = ModelSpec(layer_sizes=(d, 1), activation="identity", include_bias=False)
        setups.append(LinearSetup(params=ParameterSet(spec, theta), x=x, t=t,
                                  eta=eta, sigma=sigma))
    return setups


def equivalence_chain_residuals(setup: LinearSetup) -> tuple[float, float]:
    """|analytic(noisy) - analytic(clean) - penalty| for both noise shapes.

    The homogeneous-noise gap must equal the input-only penalty with
    kappa = eta^2*sigma^2; the proportional-noise gap must equal the
    parameter-input product penalty with the same kappa.
    """
    kappa = setup.eta ** 2 * setup.sigma ** 2
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
