#!/usr/bin/env python3
"""Digests of every benchmark op's output, for byte-for-byte comparisons.

    python3 scripts/output_digests.py --seeds 1 2 > digests.txt

Builds the pools of the three benchmark workloads (bench/workloads.py) for
each seed in a temporary directory and runs each op once in process, as the
benchmark's warm-up does. Prints one line per op: workload, seed, op index,
command and arguments, exit code, the sha256 of its standard output, and
its standard error as JSON. Two checkouts print the same lines exactly when
every op's output is the same, so one ``diff`` of two such files compares
them. Reads bench/ and writes nothing under it.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the ctgs sources on the path, one BLAS thread)
from workloads import WORKLOADS, build_pool  # noqa: E402

from ctgs import cli  # noqa: E402


def digest_lines(seed, directory):
    """One line per op of every workload's pool at ``seed``."""
    for name in run.WORKLOAD_NAMES:
        pool = build_pool(WORKLOADS[name], seed, str(Path(directory) / name))
        for i, op in enumerate(pool.ops):
            code, out, err = run.run_op(cli, pool.argv(op))
            args = " ".join((op.command, f"instance={op.instance}", *op.args))
            yield (f"{name} seed={seed} op={i} {args} exit={code} "
                   f"stdout={hashlib.sha256(out.encode()).hexdigest()} "
                   f"stderr={json.dumps(err)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        for seed in args.seeds:
            for line in digest_lines(seed, directory):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
