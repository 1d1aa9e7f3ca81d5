"""privreg benchmark: one workload, closed loop, one client, fresh processes.

    python3 perfbench/run.py --workload train-mix --seed 1 --seconds 42 --trace 0

Run it from the root of a privreg checkout.  A run repeats the workload's
fixed op sequence (a pass) while another pass should end within
--seconds, each pass in a fresh child interpreter started one at a time
(pass_child.py), so set-up time and peak RSS are never inherited.  Each op
is one call to ``privreg.experiments.run``, the function the CLI calls,
and its output is checked after its timer stops.

--trace 0 reports the end-to-end metrics:

    setup_s      fresh interpreter to the first op: import privreg.cli and
                 write the pass's configs (median over at least 3 children)
    wall_s       wall time of one pass, the sum of its ops' times, averaged
                 over the run's passes: the host's speed drifts over tens of
                 seconds, and the mean of a few passes spreads less than
                 their median
    op_p50_s     median op time
    peak_rss_mb  ru_maxrss of a pass's child (median over passes)

and prints beside them the work count, op_tail_s (the highest percentile
with at least ten ops beyond it, on runs of at least 20 ops) and
error_rate (failed / attempted ops), which the result line carries as
``failed`` and ``attempted``.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py), per pass, plus
trace.overhead_ratio, the traced pass wall over the untraced one.  The
spans of the last traced run of each workload are kept in
.perfbench_out/<workload>/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0      # a run must end within 180 s; a child past this is killed


class BenchmarkError(RuntimeError):
    """The benchmark could not measure; no result line is printed."""


def _spawn(root: Path, work: Path, args, pass_index: int, mode: str,
           deadline: float) -> tuple[float, dict | None]:
    """Start one child; return its set-up time and its result."""
    name = f"pass{pass_index:03d}"
    result = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "pass_child.py"), str(root), args.workload,
           str(args.seed), str(pass_index), str(work / name), mode, str(result)]
    started = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        setup = perf_counter() - started
        try:
            code = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"{name} ({mode}) ran past the {RUN_LIMIT_S:.0f} s limit")
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"{name} ({mode}) exited with code {code}")
    shutil.rmtree(work / name, ignore_errors=True)
    return setup, None if mode == "setup" else json.loads(result.read_text())


def _pass_wall(data: dict) -> float:
    return sum(op["wall_s"] for op in data["ops"])


def _tail(walls: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten ops beyond it."""
    n = len(walls)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(walls)[n - 11]


def failures(ops: list[dict]) -> tuple[float, list[str]]:
    """Error rate over attempted ops, and one line per failed op."""
    failed = [f"failed {op['op']} ({op['command']}): {op['reason']}"
              for op in ops if op["reason"] is not None]
    return len(failed) / len(ops), failed


def end_to_end(setups: list[float], passes: list[dict]) -> tuple[dict, list[str]]:
    walls = [op["wall_s"] for p in passes for op in p["ops"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.mean(_pass_wall(p) for p in passes), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"mean of {len(passes)} passes: "
                  + ", ".join(f"{_pass_wall(p):.3f}" for p in passes),
        "op_p50_s": f"n={len(walls)} ops",
        "peak_rss_mb": f"median of {len(passes)} children",
    }
    lines = [f"{name:<14} {value:>12.6g} {unit:<3} ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    tail = _tail(walls)
    lines.append(f"{'op_tail_s':<14} " + (
        f"{tail[1]:>12.6g} s   (p{tail[0]}, n={len(walls)} ops)" if tail
        else f"{'n/a':>12}     (fewer than 20 ops)"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-pass layer metrics from the traced passes.

    ``<layer>.calls`` counts calls entering the layer from another layer;
    the work units (draws, examples, example-steps, replicas, restarts) are
    read where the work is done (see tracer.UNITS).  oracle and attack sit
    idle on two of the three workloads, where a time per unit would be
    undefined and a self time would read 0 on every run, so they report
    rates and their share of the traced op wall instead.
    """
    n = len(traced)
    c: dict[str, float] = {}
    for p in traced:
        for key, value in p["trace"]["counters"].items():
            c[key] = c.get(key, 0) + value / n
    self_s = {layer: sum(p["trace"]["self_ns"][layer] for p in traced) / n / 1e9
              for layer in LAYERS}
    traced_wall = statistics.mean(_pass_wall(p) for p in traced)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    metrics = {
        "numerics.normal_calls": (c.get("numerics.RngStream.normal.calls", 0), "count"),
        "numerics.normal_draws": (c.get("numerics.normal_draws", 0), "count"),
        "numerics.ns_per_draw": (ratio(c.get("numerics.RngStream.normal.ns", 0),
                                       c.get("numerics.normal_draws", 0)), "ns"),
        "numerics.stream_inits": (c.get("numerics.stream_inits", 0), "count"),
        "numerics.us_per_stream_init": (ratio(c.get("numerics.RngStream.__init__.ns", 0),
                                              c.get("numerics.stream_inits", 0), 1e-3), "us"),
        "numerics.self_s": (self_s["numerics"], "s"),
        "model.calls": (c.get("model.calls", 0), "count"),
        "model.examples": (c.get("model.examples", 0), "count"),
        "model.ns_per_example": (ratio(self_s["model"], c.get("model.examples", 0), 1e9), "ns"),
        "model.self_s": (self_s["model"], "s"),
        "regularizers.calls": (c.get("regularizers.calls", 0), "count"),
        "regularizers.self_s": (self_s["regularizers"], "s"),
        "optimizers.train_calls": (c.get("optimizers.train.calls", 0), "count"),
        "optimizers.example_steps": (c.get("optimizers.example_steps", 0), "count"),
        "optimizers.us_per_example_step": (ratio(c.get("optimizers.train.ns", 0),
                                                 c.get("optimizers.example_steps", 0), 1e-3), "us"),
        "optimizers.self_s": (self_s["optimizers"], "s"),
        "oracle.mc_replicas": (c.get("oracle.mc_replicas", 0), "count"),
        "oracle.replicas_per_s": (ratio(c.get("oracle.mc_replicas", 0), sum(
            c.get(f"oracle.{f}.ns", 0) for f in (
                "mc_post_update_loss", "check_cross_term_vanishes",
                "check_moment_identities", "check_product_density")), 1e9), "1/s"),
        "oracle.checks": (c.get("oracle.checks", 0), "count"),
        "oracle.checks_failed": (c.get("oracle.checks_failed", 0), "count"),
        "oracle.self_share": (ratio(self_s["oracle"], traced_wall, 100), "%"),
        "attack.inversions": (c.get("attack.invert_gradient_iterative.calls", 0), "count"),
        "attack.restarts": (c.get("attack.restarts", 0), "count"),
        "attack.inversions_per_s": (ratio(c.get("attack.invert_gradient_iterative.calls", 0),
                                          c.get("attack.invert_gradient_iterative.ns", 0),
                                          1e9), "1/s"),
        "attack.convergence_failures": (ratio(
            c.get("attack.invert_gradient_iterative.failures", 0),
            c.get("attack.invert_gradient_iterative.calls", 0)), "ratio"),
        "attack.self_share": (ratio(self_s["attack"], traced_wall, 100), "%"),
        "experiments.ops": (statistics.mean(len(p["ops"]) for p in traced), "count"),
        "experiments.rows_written": (statistics.mean(
            sum(op["rows"] for op in p["ops"]) for p in traced), "count"),
        "experiments.self_s": (self_s["experiments"], "s"),
        "trace.overhead_ratio": (ratio(traced_wall, statistics.mean(
            _pass_wall(p) for p in untraced)), "ratio"),
    }
    lines = [f"{name:<32} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    root_s = sum(p["trace"]["root_ns"] for p in traced) / n / 1e9
    lines.append("self time per pass: " + ", ".join(
        f"{layer} {self_s[layer]:.4g} s" for layer in LAYERS))
    if c.get("oracle.mc_replicas"):
        lines.append(f"oracle.ns_per_replica (children included): "
                     f"{1e9 / metrics['oracle.replicas_per_s'][0]:.6g} ns")
    if c.get("attack.invert_gradient_iterative.calls"):
        lines.append(f"attack.ms_per_inversion (children included): "
                     f"{1e3 / metrics['attack.inversions_per_s'][0]:.6g} ms")
    lines.append(f"accounting per traced pass: op wall {traced_wall:.4f} s = layer self "
                 f"{sum(self_s.values()):.4f} s + untraced remainder "
                 f"{traced_wall - root_s:.4f} s (benchmark code around run())")
    missing = traced[0]["trace"]["missing_units"]
    if missing:
        lines.append(f"warning: unit functions not found: {', '.join(missing)}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def measure(root: Path, args) -> tuple[dict, list[str], int, list[str]]:
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    k = 0
    try:
        # Start another pass only while one of average length ends within --seconds.
        while k < (2 if args.trace else 1) or (
                (perf_counter() - started) * (k + 1) / k <= args.seconds):
            mode = "trace" if args.trace and k % 2 else "run"
            setup, data = _spawn(root, work, args, k, mode, deadline)
            setups.append(setup)
            (traced if mode == "trace" else untraced).append(data)
            if mode == "trace":
                out = root / ".perfbench_out" / args.workload
                if len(traced) == 1:
                    shutil.rmtree(out, ignore_errors=True)
                    out.mkdir(parents=True)
                shutil.move(str(work / f"pass{k:03d}.spans.csv.gz"),
                            str(out / f"pass{k:03d}.spans.csv.gz"))
            k += 1
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(_spawn(root, work, args, k, "setup", deadline)[0])
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    first = passes[0]
    lines = [f"versions: python {first['versions']['python']}, numpy "
             f"{first['versions']['numpy']}, scipy {first['versions']['scipy']}, "
             f"{first['versions']['blas']}; nproc {first['versions']['nproc']}",
             "work per pass: " + ", ".join(f"{v:,} {k}" for k, v in first["work"].items())]
    if args.trace:
        metrics, more = per_layer(untraced, traced)
    else:
        metrics, more = end_to_end(setups, untraced)
    lines += more
    ops = [op for p in passes for op in p["ops"]]
    error_rate, failed = failures(ops)
    lines.append(f"{'error_rate':<14} {error_rate:>12.6g} ratio "
                 f"({len(failed)} failed of {len(ops)} attempted)")
    return metrics, lines + failed, len(ops), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "privreg" / "__init__.py").is_file():
        print("error: run from the root of a privreg checkout (src/privreg not found)",
              file=sys.stderr)
        return 2
    print(f"privreg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}", flush=True)
    try:
        metrics, lines, attempted, failed = measure(root, args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
