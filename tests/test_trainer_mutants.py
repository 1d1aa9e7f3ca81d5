"""Power of today's checks against broken trainers.

Each mutant breaks one rule of the trainer's noisy step or of the kappa
formula, and must fail the check that covers that rule on every seed of
ORACLE_SEEDS, outside its gate: a z-scored check by |z| >= MIN_Z on at
least one of its rows, MIN_Z being above the family bound that verify
gates configs/verify.json's 292 z-scores at.  Every mutant runs verify's
own rows on verify's random setups, which have a bias or a clip at
random: the noise mutants through the one check_noisy_step call that
steps every setup, each a wrapper of the real block stepper
(optimizers.block_stepper) that the call steps each noise block through,
the kappa mutant through the equivalence residuals.
A later change to the gates keeps its power if these still fail.
"""

from dataclasses import replace

import pytest

from privreg import oracle
from privreg.experiments import (OracleConfig, _equivalence_rows, _family_bound,
                                 _noisy_step_rows)
from privreg.optimizers import clip_gradient
from privreg.oracle import random_linear_setups
from privreg.regularizers import RegSpec

ORACLE_SEEDS = (101, 202, 303)
SETUPS = 10
REPLICAS = 200_000
MIN_Z = 5.0


def test_min_z_is_outside_the_shipped_family_gate():
    assert _family_bound(3.0, 292)[1] < MIN_Z


def test_every_seeds_setups_have_both_a_bias_and_a_clip():
    # so that the bias and clip mutants meet the rule they break
    for seed in ORACLE_SEEDS:
        setups = random_linear_setups(SETUPS, seed)
        assert any(s.params.spec.include_bias for s in setups)
        assert any(s.clip_c is not None for s in setups)


real = oracle.block_stepper


def doubled_noise(*args):
    clean, step = real(*args)
    return clean, lambda z: step(2 * z)


def noise_scaled_by_stepped_theta(params, x, t, eta, noise, reg):
    """Proportional noise scaled by the noiseless step's theta', not theta."""
    if noise.mode != "proportional":
        return real(params, x, t, eta, noise, reg)
    clean, iid = real(params, x, t, eta, replace(noise, mode="iid"), reg)
    return clean, lambda z: iid(clean[:, None] * z)


def no_noise_on_the_bias(params, x, t, eta, noise, reg):
    clean, step = real(params, x, t, eta, noise, reg)
    if not params.spec.include_bias:
        return clean, step

    def unbiased(z):
        z = z.copy()
        z[params.spec.layout[-1].bias] = 0.0
        return step(z)

    return clean, unbiased


def clip_after_the_noise(params, x, t, eta, noise, reg):
    """Each noisy gradient clipped, rather than the clean one before the
    noise; the noiseless step is the same either way."""
    if noise.clip_c is None:
        return real(params, x, t, eta, noise, reg)
    clean, _ = real(params, x, t, eta, noise, reg)
    _, unclipped = real(params, x, t, eta, replace(noise, clip_c=None), reg)
    theta = params.flat[:, None].copy()

    def step(z):
        noisy = (theta - unclipped(z)) / eta  # each (P,) column of z
        return theta - eta * clip_gradient(noisy.T, noise.clip_c).T

    return clean, step


def worst_z(seed: int, metric: str) -> dict[str, float]:
    """The largest |z| of verify's gated `metric` rows (post_update_loss_z
    or cross_term_z) at this seed, per noise shape."""
    rows = _noisy_step_rows(random_linear_setups(SETUPS, seed),
                            OracleConfig(seed=seed, replicas=REPLICAS))
    worst = {}
    for mode in ("iid", "proportional"):
        z = [r for r in rows if r.metric == metric and r.mechanism == mode]
        assert len(z) == SETUPS and all(r.zs == 1 and r.unit == 1.0 for r in z)
        worst[mode] = max(abs(r.value) for r in z)
    return worst


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_doubled_noise_fails_the_post_update_loss(monkeypatch, seed):
    monkeypatch.setattr(oracle, "block_stepper", doubled_noise)
    assert min(worst_z(seed, "post_update_loss_z").values()) >= MIN_Z


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_noise_scaled_by_stepped_theta_fails_the_post_update_loss(monkeypatch, seed):
    monkeypatch.setattr(oracle, "block_stepper", noise_scaled_by_stepped_theta)
    assert worst_z(seed, "post_update_loss_z")["proportional"] >= MIN_Z


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_kappa_eta_sigma_squared_fails_the_equivalence_residual(monkeypatch, seed):
    monkeypatch.setattr(RegSpec, "effective_kappa", lambda self, eta, sigma: (
        eta * sigma * sigma if self.kappa_mode == "derived" else self.kappa))
    rows = _equivalence_rows(random_linear_setups(SETUPS, seed), OracleConfig(seed=seed))
    assert [r.mechanism for r in rows] == ["iid", "proportional"]
    assert all(r.value > 1e6 * r.bound for r in rows)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_no_noise_on_the_bias_fails_the_iid_post_update_loss(monkeypatch, seed):
    monkeypatch.setattr(oracle, "block_stepper", no_noise_on_the_bias)
    assert worst_z(seed, "post_update_loss_z")["iid"] >= MIN_Z


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_clip_after_the_noise_fails_every_check(monkeypatch, seed):
    monkeypatch.setattr(oracle, "block_stepper", clip_after_the_noise)
    worst = [*worst_z(seed, "post_update_loss_z").values(),
             *worst_z(seed, "cross_term_z").values()]
    assert min(worst) >= MIN_Z
