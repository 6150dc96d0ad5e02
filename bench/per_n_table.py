#!/usr/bin/env python3
"""Per-n cost table over all workloads, from one traced run of each.

    python3 bench/per_n_table.py --seed 1

Prints, for each workload and instance size n, the median per-op time spent
in build_filtration, find_admissible_sequence and recover, and in
everything else, measured as in ROADMAP's open-items table.
"""

from __future__ import annotations

import argparse
import json

import run
from spans import per_n_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows = []
    for name in run.WORKLOAD_NAMES:
        result, _ = run.run(name, args.seed, seconds=0, trace=1)
        if not result["correct"]:
            print(f"{name}: {result['failed']} of {result['attempted']} ops failed their checks")
        with open(run.OUT / f"trace-{name}-seed{args.seed}.json", encoding="utf-8") as handle:
            rows.extend(json.load(handle)["per_n"])
    print(per_n_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
