#!/usr/bin/env python3
"""Benchmark of the ctgs command line, run in process as a closed loop.

    python3 bench/run.py --workload plan-enum --seed 1 --seconds 25 --trace 0

One client in one process sends ops through ``ctgs.cli.run(argv)``; each
op starts only after the previous one returned. An op is one CLI command
on one generated problem file (see workloads.py). A run:

1. imports ctgs and sets up five times (generate and write the problems,
   run one op of each command), reporting the median plus the import time
   as ``setup_s``;
2. runs every op once as its warm-up and checks that output;
3. with ``--trace 0``, cycles through the ops for ``--seconds`` seconds and
   then runs the nine with the fastest warm-up as fresh ``python -m ctgs.cli``
   processes; with ``--trace 1``, runs every op once more untraced and once
   traced, and writes the spans to bench/out/;
4. requires every output to be byte-identical to the op's warm-up output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, the sample counts and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
COLD_OPS = 9
COLD_TIMEOUT_S = 120
# BLAS threads would only add scheduling noise to one client's closed loop.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("plan-enum", "sim-periodic", "sim-sinc")   # defined in workloads.py

# Before anything imports numpy: the ctgs sources, and one BLAS thread.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
for _key, _value in THREAD_ENV.items():
    os.environ.setdefault(_key, _value)


def run_op(cli, argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed op, never raised
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def timed_ops(cli, pool, ops, run=run_op):
    """Run ops in order; returns [(op index, seconds, output)]."""
    results = []
    for i in ops:
        argv = pool.argv(pool.ops[i])
        start = time.perf_counter()
        output = run(cli, argv)
        results.append((i, time.perf_counter() - start, output))
    return results


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cold_runs(pool, ops):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    results = []
    for i in ops:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ctgs.cli", *pool.argv(pool.ops[i])],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=COLD_TIMEOUT_S)
        results.append((i, time.perf_counter() - start, (proc.returncode, proc.stdout, proc.stderr)))
    return results


def set_up(cli, workload, seed, work_dir, shapes, repeats):
    """Generate and write the problems and warm up, ``repeats`` times."""
    from workloads import build_pool

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        pool = build_pool(workload, seed, str(work_dir), shapes)
        for op in pool.first_of_each_command():
            run_op(cli, pool.argv(op))
        times.append(time.perf_counter() - start)
    return pool, times


def traced_pass(cli, pool, trace_path, extra):
    """Every op once untraced and once traced; returns (metrics, results, table)."""
    from spans import Tracer, per_n_table

    untraced = timed_ops(cli, pool, range(len(pool.ops)))
    tracer = Tracer()
    with tracer:
        traced = timed_ops(cli, pool, range(len(pool.ops)),
                           run=lambda c, argv: tracer.run_op(run_op, c, argv))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (sum(t for _, t, _ in traced) - sum(t for _, t, _ in untraced), "s")
    breakdown = tracer.op_breakdown()
    rows = [(pool.workload.name, pool.ops[i].command, pool.instances[pool.ops[i].instance].n,
             breakdown[op_id]) for op_id, (i, _, _) in enumerate(traced)]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, {**extra, "layers": {k: v for k, (v, _) in metrics.items()},
                              "per_n": rows})
    return metrics, traced, per_n_table(rows)


def timed_loop(cli, pool, seconds):
    """Cycle through the ops until ``seconds`` have passed; returns (results, wall)."""
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        results.extend(timed_ops(cli, pool, [i % len(pool.ops)]))
        i += 1
        if time.perf_counter() >= deadline:
            return results, time.perf_counter() - start


def run(workload_name, seed, seconds, trace, shapes=None, setup_repeats=SETUP_REPEATS,
        cold_ops=COLD_OPS):
    """One benchmark run; returns (result object, human-readable lines)."""
    start = time.perf_counter()
    from ctgs import cli
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS, check_output

    work_dir = OUT / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    lines = []
    try:
        pool, setup_times = set_up(cli, WORKLOADS[workload_name], seed, work_dir, shapes,
                                   setup_repeats)
        warmup = timed_ops(cli, pool, range(len(pool.ops)))
        references = [output for _, _, output in warmup]
        problems = [check_output(pool, pool.ops[i], *output) for i, _, output in warmup]
        lines.extend(f"check failed: op {i} ({pool.ops[i].command} on instance "
                     f"{pool.ops[i].instance}): {problem}"
                     for i, found in enumerate(problems) for problem in found)

        if trace:
            trace_path = OUT / f"trace-{workload_name}-seed{seed}.json"
            ops = [[op.command, op.instance, pool.instances[op.instance].n, *op.args]
                   for op in pool.ops]
            metrics, measured, table = traced_pass(
                cli, pool, trace_path, {"workload": workload_name, "seed": seed, "ops": ops})
            lines += [table, f"trace written to {trace_path.relative_to(ROOT)}"]
        else:
            loop, wall = timed_loop(cli, pool, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # The cheapest ops, so that start-up, import and CLI glue dominate.
            fastest = sorted(range(len(warmup)), key=lambda i: (warmup[i][1], i))[:cold_ops]
            cold = cold_runs(pool, sorted(fastest))
            op_times = [t for _, t, _ in loop]
            metrics = {
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "op_s.p50": (percentile(op_times, 50), "s"),
                "op_s.p90": (percentile(op_times, 90), "s"),
                "ops_per_s": (len(loop) / wall, "1/s"),
                "cli_cold_s": (statistics.median(t for _, t, _ in cold), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            measured = loop + cold
            lines.append(f"samples: op_s.p50 and op_s.p90 over {len(loop)} ops "
                         f"({len(pool.ops)} distinct), cli_cold_s over {len(cold)}, "
                         f"setup_s over {len(setup_times)} set-ups")
        attempted = len(measured)
        failed = sum(1 for i, _, output in measured if problems[i] or output != references[i])
        lines.extend(f"{name} = {value} {unit}" for name, (value, unit) in metrics.items())
        lines.append(f"failed_frac = {failed / attempted} ({failed} of {attempted} ops)")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ctgs" / "__init__.py").is_file():
        print(f"ctgs sources not found under {SRC}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
