#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr 14 --parent HEAD --workloads sim-sinc \\
        --seeds 1 2 3 --seconds 25 --claim sim-sinc:ops_per_s

Exports the parent revision with ``git archive`` into a temporary directory.
For each workload and seed it runs
``python3 bench/run.py --workload W --seed N --seconds S --trace 0`` once in
that export and once in the working tree; successive pairs swap which side
runs first. It reads bench/ in both trees and writes nothing under either
(bench/run.py keeps its own scratch files under bench/out/ and removes them).

BENCH_<pr>.json, at the root of the working tree, follows BENCH_11.json: for
every pair the seed, the order, each side's end-to-end metrics (the
``end_to_end`` names of BENCHMARK.json) and failed and attempted op counts;
for every metric each side's median and numpy's linear quartiles over the
pairs, how many pairs the change won, the relative change of the median,
whether that change is within the metric's bound, and whether the medians
lie further apart than the parent's interquartile range. With ``--claim W:M``
metric M of workload W also records ``claim_met``, see ``summarize``. The file is
rewritten after every pair, so an interrupted run keeps the pairs it made.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export_revision(revision, directory):
    """The files of ``revision``, extracted under ``directory``."""
    archive = Path(directory) / "parent.tar"
    subprocess.run(["git", "archive", "--output", str(archive), revision],
                   cwd=ROOT, check=True)
    tree = Path(directory) / "parent"
    with tarfile.open(archive) as handle:
        handle.extractall(tree, filter="data")
    archive.unlink()
    return tree


def bench_once(tree, workload, seed, seconds):
    """The result object bench/run.py prints last, run in ``tree``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs, metrics, claimed=None):
    """Per metric: both sides' medians and quartiles, and the pair verdicts.

    The ``claimed`` metric also gets ``claim_met``: the change won at least
    nine tenths of the pairs (a tie counts for neither side) and its median
    is better than the parent's by more than the parent's interquartile
    range."""
    summary = {}
    for metric in metrics:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        values = {side: np.array([pair[side][name] for pair in pairs]) for side in SIDES}
        stats = {side: {"median": float(np.median(v)),
                        "q1": float(np.percentile(v, 25)),
                        "q3": float(np.percentile(v, 75))} for side, v in values.items()}
        wins = int(np.sum(values["change"] < values["parent"] if lower
                          else values["change"] > values["parent"]))
        before, after = stats["parent"]["median"], stats["change"]["median"]
        relative = (after - before) / before if before else 0.0
        worsening = relative if lower else -relative
        gap_exceeds_iqr = abs(after - before) > stats["parent"]["q3"] - stats["parent"]["q1"]
        summary[name] = {
            **stats,
            "change_better_in": f"{wins} of {len(pairs)} pairs",
            "relative_change_of_median": relative,
            "within_bound": worsening <= bound,
            "median_gap_exceeds_parent_iqr": gap_exceeds_iqr,
        }
        if name == claimed:
            summary[name]["claim_met"] = bool(
                10 * wins >= 9 * len(pairs) and worsening < 0 and gap_exceeds_iqr)
    return summary


def host():
    return (f"{os.cpu_count()}-CPU {platform.machine()} host, Python "
            f"{platform.python_version()}, numpy {np.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", help="the claimed WORKLOAD:METRIC, if any")
    parser.add_argument("--note", default="", help="appended to the description")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    seeds = " ".join(map(str, args.seeds))
    doc = {
        "description": (
            f"Parent (commit {commit}) against this change, in alternating pairs of "
            f"`python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0` "
            f"for seeds {seeds}; each pair records which side ran first. Quartiles are "
            f"numpy's linear 25th and 75th percentiles over the pairs' runs; a bound is the "
            f"relative worsening of the median BENCHMARK.json allows. {args.note}").strip(),
        "host": host(),
    }
    claimed = {}
    if args.claim:
        workload, metric = args.claim.split(":")
        claimed[workload] = metric
        doc["claimed"] = {"workload": workload, "metric": metric}
    doc["workloads"] = {}
    out_path = ROOT / f"BENCH_{args.pr}.json"
    with tempfile.TemporaryDirectory() as directory:
        trees = {"parent": export_revision(args.parent, directory), "change": ROOT}
        for workload in args.workloads:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                results = {side: bench_once(trees[side], workload, seed, args.seconds)
                           for side in order}
                pairs.append({
                    "seed": seed,
                    "order": "-".join(order),
                    **{side: {m["name"]: results[side]["metrics"][m["name"]]["value"]
                              for m in metrics} for side in SIDES},
                    "failed": {side: results[side]["failed"] for side in SIDES},
                    "attempted": {side: results[side]["attempted"] for side in SIDES},
                })
                doc["workloads"][workload] = {
                    "pairs": pairs, "summary": summarize(pairs, metrics, claimed.get(workload))}
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pairs[-1][side]['ops_per_s']:.1f} ops/s" for side in SIDES),
                    flush=True)
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
