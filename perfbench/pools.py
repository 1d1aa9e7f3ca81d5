"""Rebuild the seed pools that verify-mc and attack-sweep draw from.

    PYTHONPATH=src python3 perfbench/pools.py verify 12    # ~15 s per verify run
    PYTHONPATH=src python3 perfbench/pools.py attack 16    # ~4 s per attack run

Prints the pool to paste into workloads.py.  A verify candidate is kept
when its ten randomized setups have the same dimensions in total (40) and
at most (6) as every other kept seed, so each op draws the same number of
normals and peaks at the same memory, and when the op passes: verify's
3-sigma gates fail a correct program on about one seed in eight.  An
attack candidate is kept when every descent restart runs all its
iterations, so each op does the same work; no restart converges or
diverges early.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import workloads
from pass_child import run_ops
from tracer import Tracer

VERIFY_DIMS = (40, 6)    # sum and max of the setups' dimensions


def _verify_pool(size: int) -> list[int]:
    from privreg.oracle import random_linear_setups
    rng = random.Random("verify-mc oracle seeds")
    pool = []
    while len(pool) < size:
        seed = rng.randrange(1, 2 ** 31)
        dims = [s.x.size for s in random_linear_setups(workloads.VERIFY_CONFIG["configs"], seed)]
        if (sum(dims), max(dims)) != VERIFY_DIMS:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            op = workloads.verify_op(Path(tmp), "op000", seed)
            result = run_ops([op], Path(tmp))[0]
        print(seed, result["reason"] or "passed", file=sys.stderr)
        if result["reason"] is None:
            pool.append(seed)
    return pool


def _attack_pool(size: int) -> list[tuple[int, int]]:
    rng = random.Random("attack-sweep op seeds")
    pool, full = [], 0
    while len(pool) < size:
        seeds = rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31)
        with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer:
            op = workloads.attack_op(Path(tmp), "op000", *seeds)
            result = run_ops([op], Path(tmp))[0]
        examples = tracer.counters()["model.examples"]
        print(seeds, examples, result["reason"] or "passed", file=sys.stderr)
        if result["reason"] is not None or examples < full:
            continue
        if examples > full:      # every earlier keeper stopped some restart early
            pool, full = [], examples
        pool.append(seeds)
    return pool


if __name__ == "__main__":
    kind, size = sys.argv[1], int(sys.argv[2])
    print((_verify_pool if kind == "verify" else _attack_pool)(size))
