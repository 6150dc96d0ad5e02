"""Shared generators and brute-force oracles for randomized suites."""

from fractions import Fraction
from itertools import combinations

import numpy as np

import ctgs
from ctgs.dependence import x_support

B_POOL = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
          Fraction(5, 2), Fraction(3), Fraction(4), Fraction(5)]
C_FINITE_POOL = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
                 Fraction(4), Fraction(6)]


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges, random weights (simple spectra)."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append([u, v, float(rng.uniform(0.5, 2.0))])
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key not in present:
            present.add(key)
            edges.append([key[0], key[1], float(rng.uniform(0.5, 2.0))])
    return ctgs.GraphModel.create(n, edges)


def random_spectrum(rng, n, unit_weights=False):
    """Laplacian spectrum of a random connected graph. Unit weights give
    eigenvectors with exact zeros, so x-vectors lose support entries."""
    graph = random_connected_graph(rng, n)
    if unit_weights:
        graph = ctgs.GraphModel.create(n, [[i, j] for i, j, _ in graph.edges])
    return ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))


def random_profile(rng, n, allow_zero_c=True):
    vertex_bw = [B_POOL[int(rng.integers(0, len(B_POOL)))] for _ in range(n)]
    freq_bw = []
    for _ in range(n):
        roll = rng.random()
        if allow_zero_c and roll < 0.25:
            freq_bw.append(Fraction(0))
        elif roll < 0.6:
            freq_bw.append(C_FINITE_POOL[int(rng.integers(0, len(C_FINITE_POOL)))])
        else:
            freq_bw.append(ctgs.INF)
    return ctgs.BandwidthProfile.create(vertex_bw, freq_bw)


def random_lambda0(rng, n):
    size = int(rng.integers(0, n))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))


def plannable_instances(master_seed, count, n_max=7, max_attempts_factor=8):
    """Yield (spectrum, profile, bundle) for problems that admit a plan."""
    rng = np.random.default_rng(master_seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > max_attempts_factor * count:
            raise AssertionError(f"only {produced}/{count} plannable instances found")
        n = int(rng.integers(2, n_max + 1))
        spectrum = random_spectrum(rng, n)
        profile = random_profile(rng, n)
        try:
            bundle = ctgs.plan_problem(spectrum, profile)
        except ctgs.InfeasibleProblemError:
            continue
        produced += 1
        yield spectrum, profile, bundle


def independence(spectrum, lambda0, vset):
    """Set independence in the dependence matroid (definition-level)."""
    vset = tuple(sorted(vset))
    return all(
        not ctgs.is_dependent(spectrum, lambda0, [u for u in vset if u != v], v)
        for v in vset
    )


def quotient_bound_bruteforce(spectrum, profile, lambda_star):
    """Oracle for the quotient bound: the minimum over every uniqueness set
    of the largest vertex bound on the support of its x-vector, capped by
    the peeled frequency's own bound."""
    lam0 = profile.lambda0()
    best = None
    for cand in ctgs.enumerate_uniqueness_sets(spectrum, lam0):
        support = x_support(ctgs.x_vector(spectrum, lam0, cand, lambda_star))
        bound = max(Fraction(profile.vertex_bw[v])
                    for v, hit in zip(cand.vertices, support) if hit)
        if best is None or bound < best:
            best = bound
    return min(best, Fraction(profile.freq_bw[lambda_star]))


def check_uniform_exhaustive(spectrum, profile):
    """Oracle for the uniformity test with infinite vertex bounds:
    (is_uniform, witness frequencies, bound). Every frequency subset of
    matching size is tried in lexicographic order; the first one with an
    invertible block and the least finitization bound wins."""
    v_inf = [v for v, b in enumerate(profile.vertex_bw) if ctgs.numerics.is_inf(b)]
    finite_b = [b for b in profile.vertex_bw if not ctgs.numerics.is_inf(b)]
    finite_freqs = [f for f, c in enumerate(profile.freq_bw) if not ctgs.numerics.is_inf(c)]
    best = None
    for cand in combinations(finite_freqs, len(v_inf)):
        if ctgs.numerics.svd_rank(spectrum.submatrix(cand, v_inf)) == len(v_inf):
            bound = max(finite_b + [profile.freq_bw[f] for f in cand])
            if best is None or bound < best[1]:
                best = (cand, bound)
    if best is None:
        return False, None, ctgs.INF
    return True, best[0], best[1]


def trig_design_per_harmonic(times, cutoff, period):
    """Oracle for ``signals.trig_design``: one cos and one sin column per
    harmonic, stacked in [1, cos 1, sin 1, cos 2, ...] order."""
    times = np.asarray(times, dtype=float)
    if cutoff < 0:
        return np.zeros((len(times), 0))
    cols = [np.ones_like(times)]
    for k in range(1, cutoff + 1):
        arg = 2.0 * np.pi * k * times / period
        cols.append(np.cos(arg))
        cols.append(np.sin(arg))
    return np.stack(cols, axis=1)


def membership_violations_loop(spectrum, profile, signal, tol=ctgs.numerics.COEFF_TOL):
    """Oracle for ``signals.membership_violations``: each constrained row is
    scanned harmonic by harmonic up to its first coefficient beyond tol."""
    from ctgs.numerics import harmonic_cutoff, is_inf

    period = signal.domain
    scale = max(1.0, float(np.max(np.abs(signal.coeffs))) if signal.coeffs.size else 1.0)
    transformed = spectrum.basis @ signal.coeffs
    rows = [("vertex", v, signal.coeffs[v], harmonic_cutoff(b, period))
            for v, b in enumerate(profile.vertex_bw) if not is_inf(b)]
    rows += [("frequency", f, transformed[f], harmonic_cutoff(c, period) if c > 0 else -1)
             for f, c in enumerate(profile.freq_bw) if not is_inf(c)]
    bad = []
    for kind, index, row, limit in rows:
        for k in range(limit + 1, signal.cutoff + 1):
            lo, hi = (0, 1) if k == 0 else (2 * k - 1, 2 * k + 1)
            if np.any(np.abs(row[lo:hi]) > tol * scale):
                bad.append((kind, index, k))
                break
    return bad
