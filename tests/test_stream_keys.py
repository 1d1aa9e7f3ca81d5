"""No two draws of a run, and no two runs at neighbouring seeds, share a
stream.

Every RngStream built during one cut-down run each of train, verify,
attack and moments is recorded with its (seed, key) and its call path:
the chain of package frames that built it.  A key built on two call paths
is one stream serving two purposes, and a (seed, key) built by the runs at
seeds s and s + 1 ties the two runs' draws together.  The direct checks
after them name three collisions that such keys once caused.
"""

import json
import os
import sys

import numpy as np
import pytest

import privreg
from privreg import attack, optimizers
from privreg.attack import leakage_sweep
from privreg.experiments import generate_dataset, run
from privreg.model import ModelSpec, ParameterSet
from privreg.numerics import VERIFY_NOISY_STEP, RngStream
from privreg.optimizers import NoiseSpec, TrainConfig, mechanism_step, train
from privreg.regularizers import RegSpec

PACKAGE = os.path.dirname(os.path.abspath(privreg.__file__))
SEED = 7001

CONFIGS = {
    "train": {
        "model": {"layer_sizes": [3, 1], "include_bias": False},
        "data": {"kind": "noisy_linear", "n": 30, "d": 3, "noise_level": 0.2, "seed": 0},
        "train": {"eta": 0.05, "batch_size": 10, "epochs": 2, "seed": 0,
                  "noise": {"mode": "iid", "sigma": 0.3}},
    },
    "verify": {
        "oracle": {"seed": 0, "replicas": 20_000, "configs": 3, "sigmas": [0.5, 1.0],
                   "bins": 10, "product_replicas": 20_000, "expectation_replicas": 200,
                   "trajectory_epochs": 2},
    },
    "attack": {
        "model": {"layer_sizes": [3, 1], "include_bias": True},
        "data": {"kind": "noisy_linear", "n": 12, "d": 3, "noise_level": 0.3, "seed": 0},
        "attack": {"seed": 0, "trials": 3, "iters": 20, "step": 0.01, "restarts": 3,
                   "membership": True,
                   "mechanisms": [{"noise": {"mode": "none"}},
                                  {"noise": {"mode": "iid", "sigma": 0.5}}]},
    },
    "moments": {
        "oracle": {"seed": 0, "replicas": 40_000, "sigmas": [0.5, 1.0], "bins": 10,
                   "product_replicas": 20_000},
    },
}


def _call_path(frame) -> tuple[tuple[str, int], ...]:
    """(file, line) of each package frame on the stack, innermost first."""
    path = []
    while frame is not None:
        if os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == PACKAGE:
            path.append((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        frame = frame.f_back
    return tuple(path)


def _keys_of_run(directory, command: str, seed: int) -> dict[tuple, set]:
    """(seed, key) -> the call paths that built it, for every RngStream
    that `command` builds when run at `seed`."""
    built: dict[tuple, set] = {}
    init = RngStream.__init__

    def recording(self, stream_seed, *key):
        stream = (int(stream_seed), tuple(int(part) for part in key))
        built.setdefault(stream, set()).add(_call_path(sys._getframe(1)))
        init(self, stream_seed, *key)

    config = {"experiment_id": "keys", **CONFIGS[command],
              "output": {"directory": str(directory / "out")}}
    (directory / "cfg.json").write_text(json.dumps(config))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RngStream, "__init__", recording)
        assert run(command, directory / "cfg.json", seed_override=seed) == 0
    return built


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    return {(command, seed): _keys_of_run(tmp_path_factory.mktemp(f"{command}{seed}"),
                                          command, seed)
            for command in CONFIGS for seed in (SEED, SEED + 1)}


@pytest.mark.parametrize("command", CONFIGS)
def test_no_key_is_built_on_two_call_paths(keys, command):
    for seed in (SEED, SEED + 1):
        shared = {stream: sorted(paths) for stream, paths in keys[command, seed].items()
                  if len(paths) > 1}
        assert keys[command, seed] and not shared, (
            f"{command} at seed {seed} builds these keys on more than one call path: "
            f"{shared}")


@pytest.mark.parametrize("command", CONFIGS)
def test_runs_at_neighbouring_seeds_share_no_stream(keys, command):
    shared = keys[command, SEED].keys() & keys[command, SEED + 1].keys()
    assert not shared, f"{command} at seeds {SEED} and {SEED + 1} share {sorted(shared)}"


def test_verify_steps_every_setup_on_one_stream_per_noise_block(keys):
    # 20,000 replicas are two blocks: every setup's noisy steps read the
    # same two streams, (VERIFY_NOISY_STEP, 0, b), built on one call path
    for seed in (SEED, SEED + 1):
        noisy = [(key, paths) for (_, key), paths in keys["verify", seed].items()
                 if key[:1] == (VERIFY_NOISY_STEP,)]
        assert sorted(key for key, _ in noisy) == [(VERIFY_NOISY_STEP, 0, b) for b in range(2)]
        assert all(len(paths) == 1 for _, paths in noisy)


def test_hidden_weights_are_not_the_first_noise_row():
    # train --seed s generates its data and trains at the same seed.  One
    # full-batch step from zero with sigma 1 gives the first noise row as
    # -theta'/eta - g, and noiseless data give w* by least squares.
    n, d, eta = 40, 3, 0.5
    data = generate_dataset("noisy_linear", n, d, 0.0, SEED)
    w_star = np.linalg.lstsq(data.x, data.t[:, 0], rcond=None)[0]
    zero = ParameterSet(ModelSpec(layer_sizes=(d, 1), include_bias=False), np.zeros(d))
    config = TrainConfig(eta=eta, batch_size=n, epochs=1, seed=SEED,
                         noise=NoiseSpec(mode="iid", sigma=1.0))
    stepped = train(zero.spec, data, config, init=zero).final_params.flat
    clean = mechanism_step(zero, data.x, data.t, eta, NoiseSpec(), RegSpec()).clean
    assert not np.allclose(-stepped / eta - clean, w_star, rtol=0, atol=1e-6)


def test_no_restart_starts_at_its_trials_noise(monkeypatch):
    spec = ModelSpec(layer_sizes=(3, 1), include_bias=True)
    data = generate_dataset("noisy_linear", 12, 3, 0.3, SEED)
    noise_rows, starts = [], []
    real_step, real_invert = attack.mechanism_step, attack._invert_records

    def step(params, x, t, eta, noise, reg, z=None):
        noise_rows.append(z)
        return real_step(params, x, t, eta, noise, reg, z)

    def invert(theta, bias, target, x0, t0, iters, step):
        starts.append(x0)
        return real_invert(theta, bias, target, x0, t0, iters, step)

    monkeypatch.setattr(attack, "mechanism_step", step)
    monkeypatch.setattr(attack, "_invert_records", invert)
    leakage_sweep(spec, data, [(NoiseSpec(mode="iid", sigma=0.5), RegSpec())], trials=3,
                  seed=SEED, eta=0.1, iters=5, step=0.01, restarts=4)
    [x0] = starts
    assert len(noise_rows) == x0.shape[0] == 3
    for k, z in enumerate(noise_rows):
        for r in range(x0.shape[1]):
            assert not np.array_equal(x0[k, r], z[:3]), f"restart {r} of trial {k}"


def test_membership_training_starts_at_no_trials_start(tmp_path, monkeypatch):
    trial_starts, member_starts = [], []
    real_step, real_init = attack.mechanism_step, optimizers.initial_params_for

    def step(params, *args):
        trial_starts.append(params.flat.copy())
        return real_step(params, *args)

    def init(*args):
        params = real_init(*args)
        member_starts.append(params.flat.copy())
        return params

    monkeypatch.setattr(attack, "mechanism_step", step)
    monkeypatch.setattr(optimizers, "initial_params_for", init)  # what train() calls
    config = {"experiment_id": "keys", **CONFIGS["attack"],
              "output": {"directory": str(tmp_path / "out")}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run("attack", tmp_path / "cfg.json", seed_override=SEED) == 0
    assert len(member_starts) == 2 and len(trial_starts) == 2 * 3
    assert not any(np.array_equal(m, t) for m in member_starts for t in trial_starts)
