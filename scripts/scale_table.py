#!/usr/bin/env python3
"""Planning cost against graph size.

    PYTHONPATH=src python3 scripts/scale_table.py --nmax 120

For n = 20, 40, ... up to --nmax, takes the first plannable random instance
drawn with seed n from the tests/helpers.py generators, and prints the
filtration depth, the wall time of one ``plan_problem`` call, the seconds of
the ``build_filtration`` and ``find_admissible_sequence`` (sequence and
verifier) calls inside it, and the numbers of ``np.linalg.svd`` and
``np.linalg.solve`` calls it makes. The counts do not depend on the hardware.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

import ctgs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import plannable_at  # noqa: E402


WRAPPED = ((np.linalg, "svd"), (np.linalg, "solve"),
           (ctgs.planner, "build_filtration"), (ctgs.planner, "find_admissible_sequence"))


def _wrapped(original, stats):
    """``original`` adding its calls and seconds to ``stats``."""
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            stats[0] += 1
            stats[1] += time.perf_counter() - start

    return wrapped


def measure(n):
    """(depth, seconds, {name: [calls, seconds]}) of one plan_problem at
    size n, the dict holding the functions of ``WRAPPED``."""
    spectrum, profile = plannable_at(n, seed=n)
    stats = {name: [0, 0.0] for _, name in WRAPPED}
    originals = [(module, name, getattr(module, name)) for module, name in WRAPPED]
    for module, name, original in originals:
        setattr(module, name, _wrapped(original, stats[name]))
    try:
        start = time.perf_counter()
        _, _, filtration, _, _ = ctgs.plan_problem(spectrum, profile)
        seconds = time.perf_counter() - start
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    return filtration.depth, seconds, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=120, help="largest n (default 120)")
    args = parser.parse_args(argv)
    print(f"{'n':>5} {'depth':>6} {'plan_problem':>13} {'build_filtration':>17} "
          f"{'sequence':>9} {'SVDs':>7} {'solves':>7}")
    for n in range(20, args.nmax + 1, 20):
        depth, seconds, stats = measure(n)
        print(f"{n:>5} {depth:>6} {seconds:>12.3f}s {stats['build_filtration'][1]:>16.3f}s "
              f"{stats['find_admissible_sequence'][1]:>8.3f}s {stats['svd'][0]:>7} "
              f"{stats['solve'][0]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
