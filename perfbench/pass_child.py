"""One pass of a workload, in a fresh interpreter.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/pass_child.py ROOT WORKLOAD SEED PASS DIR MODE RESULT

It imports ``privreg.cli`` from ROOT/src, writes the pass's inputs into DIR
and prints ``ready``: that much is set-up.  MODE ``setup`` stops there.
MODE ``run`` or ``trace`` then runs the ops one after another, times each
call to ``privreg.experiments.run``, checks each op's output after its
timer stops, and writes a JSON result to RESULT.  ``trace`` does the same
under the tracer and also writes the spans next to RESULT.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

import workloads


def run_ops(ops, directory: Path, tracer=None) -> list[dict]:
    """Run each op once, in order; never drop or retry a failed op."""
    from privreg import experiments
    results = []
    for op in ops:
        out_dir = directory / "out" / op.op_id
        if tracer is not None:
            tracer.start_op()
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            started = perf_counter()
            exit_code = experiments.run(op.command, directory / op.config, str(out_dir))
            wall = perf_counter() - started
        rows, reason = workloads.check_output(op, exit_code, out_dir)
        if reason is not None and stderr.getvalue():
            reason += f": {stderr.getvalue().strip()[:300]}"
        results.append({"op": op.op_id, "command": op.command, "wall_s": wall,
                        "rows": len(rows), "reason": reason})
    return results


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0))}


def main(argv: list[str]) -> int:
    root, workload, seed, pass_index, directory, mode, result_path = argv
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import privreg.cli  # noqa: F401  (the import every CLI call pays)
    import privreg
    if src not in Path(privreg.__file__).resolve().parents:
        print(f"privreg was imported from {privreg.__file__}, not {src}", file=sys.stderr)
        return 2
    directory = Path(directory).resolve()
    ops = workloads.generate(workload, int(seed), int(pass_index), directory)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    os.chdir(directory)  # train-mix configs name their CSV data relative to it

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        with tracer:
            op_results = run_ops(ops, directory, tracer)
    else:
        op_results = run_ops(ops, directory)
    result = {"ops": op_results, "versions": _versions(),
              "work": workloads.work_count(ops, directory),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(Path(result_path).with_suffix(".spans.csv.gz"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
