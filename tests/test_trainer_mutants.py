"""Power of today's checks against broken trainers.

Each mutant breaks one rule of optimizers.mechanism_step or of the kappa
formula, and must fail the check that covers that rule on every seed of
ORACLE_SEEDS, far outside its gate: a z-scored check by |z| >= MIN_Z on
at least one of its rows.  The noise and kappa mutants run verify's own
rows on verify's random setups; those setups have neither a bias nor a
clip, so the bias and clip mutants call check_noisy_step directly on a
unit that has them.  A later change to the gates keeps its power if these
still fail.
"""

from dataclasses import replace

import numpy as np
import pytest

from privreg import oracle
from privreg.experiments import (OracleConfig, _equivalence_rows,
                                 _noisy_step_rows)
from privreg.model import ModelSpec, ParameterSet
from privreg.optimizers import NoiseSpec, Step, clip_gradient
from privreg.oracle import check_noisy_step, random_linear_setups
from privreg.regularizers import RegSpec

ORACLE_SEEDS = (101, 202, 303)
SETUPS = 10
REPLICAS = 200_000
MIN_Z = 5.0

real_step = oracle.mechanism_step


def doubled_noise(params, x, t, eta, noise, reg, z=None):
    return real_step(params, x, t, eta, noise, reg, None if z is None else 2 * z)


def noise_scaled_by_stepped_theta(params, x, t, eta, noise, reg, z=None):
    """Proportional noise scaled by the noiseless step's theta', not theta."""
    if z is None or noise.mode != "proportional":
        return real_step(params, x, t, eta, noise, reg, z)
    moved = real_step(params, x, t, eta, noise, reg)
    noisy = moved.clean + noise.sigma * moved.params * z
    return Step(moved.clean, noisy, params.flat - eta * noisy)


def no_noise_on_the_bias(params, x, t, eta, noise, reg, z=None):
    if z is not None:
        z = z.copy()
        z[..., params.spec.layout[-1].bias] = 0.0
    return real_step(params, x, t, eta, noise, reg, z)


def clip_after_the_noise(params, x, t, eta, noise, reg, z=None):
    unclipped = real_step(params, x, t, eta, replace(noise, clip_c=None), reg, z)
    noisy = clip_gradient(unclipped.noisy, noise.clip_c)
    return Step(clip_gradient(unclipped.clean, noise.clip_c), noisy,
                params.flat - eta * noisy)


def worst_post_update_z(seed: int) -> dict[str, float]:
    """The largest |z| of verify's gated post_update_loss rows at this
    seed, per noise shape."""
    rows = _noisy_step_rows(random_linear_setups(SETUPS, seed),
                            OracleConfig(seed=seed, replicas=REPLICAS))
    worst = {}
    for mode in ("iid", "proportional"):
        z = [r for r in rows if r.metric == "post_update_loss_z" and r.mechanism == mode]
        assert len(z) == SETUPS and all(r.bound == 3.0 for r in z)
        worst[mode] = max(abs(r.value) for r in z)
    return worst


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_doubled_noise_fails_the_post_update_loss(monkeypatch, seed):
    monkeypatch.setattr(oracle, "mechanism_step", doubled_noise)
    assert min(worst_post_update_z(seed).values()) >= MIN_Z


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_noise_scaled_by_stepped_theta_fails_the_post_update_loss(monkeypatch, seed):
    monkeypatch.setattr(oracle, "mechanism_step", noise_scaled_by_stepped_theta)
    assert worst_post_update_z(seed)["proportional"] >= MIN_Z


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_kappa_eta_sigma_squared_fails_the_equivalence_residual(monkeypatch, seed):
    monkeypatch.setattr(RegSpec, "effective_kappa", lambda self, eta, sigma: (
        eta * sigma * sigma if self.kappa_mode == "derived" else self.kappa))
    rows = _equivalence_rows(random_linear_setups(SETUPS, seed), OracleConfig(seed=seed))
    assert [r.mechanism for r in rows] == ["iid", "proportional"]
    assert all(r.value > 1e6 * r.bound for r in rows)


BIASED = ParameterSet(ModelSpec(layer_sizes=(2, 1), include_bias=True),
                      np.array([0.5, -1.0, 0.3]))
X = np.array([2.0, 1.0])


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_no_noise_on_the_bias_fails_the_iid_post_update_loss(monkeypatch, seed):
    monkeypatch.setattr(oracle, "mechanism_step", no_noise_on_the_bias)
    check = check_noisy_step(BIASED, X, 0.3, 0.15, (NoiseSpec(mode="iid", sigma=0.4),),
                             REPLICAS, seed)[0]
    assert check.name == "post_update_loss[iid]"
    assert abs(check.z) >= MIN_Z


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_clip_after_the_noise_fails_every_check(monkeypatch, seed):
    monkeypatch.setattr(oracle, "mechanism_step", clip_after_the_noise)
    noises = tuple(NoiseSpec(mode=mode, sigma=0.4, clip_c=0.5)
                   for mode in ("iid", "proportional"))
    checks = check_noisy_step(BIASED, X, 1.3, 0.15, noises, REPLICAS, seed)
    assert len(checks) == 4 and all(abs(c.z) >= MIN_Z for c in checks)
