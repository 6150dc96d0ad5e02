#!/usr/bin/env python3
"""Planning cost against graph size.

    PYTHONPATH=src python3 scripts/scale_table.py --nmax 120

For n = 20, 40, ... up to --nmax, takes the first plannable random instance
drawn with seed n from the tests/helpers.py generators, and prints the
filtration depth, the wall time of one ``plan_problem`` call and the numbers
of ``np.linalg.svd`` and ``np.linalg.solve`` calls it makes. The counts do
not depend on the hardware.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

import ctgs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import plannable_at  # noqa: E402


def _counted(name, calls):
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return original, counted


def measure(n):
    """(depth, seconds, SVD calls, solve calls) of one plan_problem at size n."""
    spectrum, profile = plannable_at(n, seed=n)
    calls = {"svd": 0, "solve": 0}
    originals = {}
    for name in calls:
        originals[name], counted = _counted(name, calls)
        setattr(np.linalg, name, counted)
    try:
        start = time.perf_counter()
        _, _, filtration, _, _ = ctgs.plan_problem(spectrum, profile)
        seconds = time.perf_counter() - start
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
    return filtration.depth, seconds, calls["svd"], calls["solve"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=120, help="largest n (default 120)")
    args = parser.parse_args(argv)
    print(f"{'n':>5} {'depth':>6} {'plan_problem':>13} {'SVDs':>7} {'solves':>7}")
    for n in range(20, args.nmax + 1, 20):
        depth, seconds, svds, solves = measure(n)
        print(f"{n:>5} {depth:>6} {seconds:>12.3f}s {svds:>7} {solves:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
