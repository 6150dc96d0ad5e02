#!/usr/bin/env python3
"""Does the total sampling rate depend on how ties among the smallest finite
frequency bounds are broken?

The planner always peels the lowest-index frequency among the tied minima.
This study enumerates every tie-resolution path on random instances with
forced duplicate bounds and compares the resulting totals. Discrepancies
are reported, not asserted away.
"""

import argparse
from fractions import Fraction

import numpy as np

import ctgs
from ctgs.numerics import INF, is_inf
from ctgs.planner import quotient_bound


def tied_minima(freq_bw):
    finite = [(c, i) for i, c in enumerate(freq_bw) if c != 0 and not is_inf(c)]
    if not finite:
        return []
    low = min(c for c, _ in finite)
    return [i for c, i in finite if c == low]


def all_path_totals(spectrum, profile, memo=None):
    """Set of 2*(base + sum of quotient bounds) over all tie paths.

    Paths that peel the same frequencies in another order meet at the same
    child profile, so totals are memoized by frequency bounds.
    """
    memo = {} if memo is None else memo
    if profile.freq_bw in memo:
        return memo[profile.freq_bw]
    choices = tied_minima(profile.freq_bw)
    if not choices:
        lam0 = profile.lambda0()
        _, base_rate = ctgs.greedy_minimal_vertex_set(spectrum, lam0, profile.vertex_bw)
        totals = {base_rate}
    else:
        totals = set()
        for lam in choices:
            b, _, _ = quotient_bound(spectrum, profile, lam)
            child = profile.with_freq_zeroed(lam)
            totals |= {t + 2 * b for t in all_path_totals(spectrum, child, memo)}
    memo[profile.freq_bw] = totals
    return totals


def random_instance(rng, n):
    edges = [[int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))] for v in range(1, n)]
    graph = ctgs.GraphModel.create(n, edges)
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    bw_pool = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    vertex_bw = [bw_pool[int(rng.integers(0, 4))] for _ in range(n)]
    # force duplicated finite bounds so ties actually occur
    c_pool = [Fraction(2), Fraction(2), Fraction(3), Fraction(0), INF]
    freq_bw = [c_pool[int(rng.integers(0, len(c_pool)))] for _ in range(n)]
    return spectrum, ctgs.BandwidthProfile.create(vertex_bw, freq_bw)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nmax", type=int, default=6)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    with_ties = 0
    discrepancies = []
    for trial in range(args.trials):
        n = int(rng.integers(2, args.nmax + 1))
        spectrum, profile = random_instance(rng, n)
        if len(tied_minima(profile.freq_bw)) > 1:
            with_ties += 1
        totals = all_path_totals(spectrum, profile)
        if len(totals) > 1:
            discrepancies.append((trial, sorted(totals)))

    print(f"{args.trials} instances, {with_ties} with a genuine tie at the first peel")
    if discrepancies:
        print(f"{len(discrepancies)} instances where the total depends on the tie path:")
        for trial, totals in discrepancies[:20]:
            print(f"  trial {trial}: totals {[str(t) for t in totals]}")
    else:
        print("no instance produced tie-dependent totals")


if __name__ == "__main__":
    main()
