"""Shared generators and brute-force oracles for randomized suites."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np

import ctgs
from ctgs import BandwidthProfile, GraphSignal, SamplingPlan, Spectrum
from ctgs.dependence import top_supported, x_support
from ctgs.errors import ReconstructionError
from ctgs.numerics import (COEFF_TOL, harmonic_cutoff, is_inf, least_period, n_trig_coeffs,
                           null_space)
from ctgs.sampling import build_sample_set, recover, sample_signal
from ctgs.signals import (_per_harmonic_constraints, assemble, draw_contents,
                          membership_violations, pad_coeffs)

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


def plannable_problems(master_seed, count, n_max=7, max_attempts_factor=8):
    """Yield (graph, spectrum, profile, bundle) for problems that admit a plan."""
    rng = np.random.default_rng(master_seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > max_attempts_factor * count:
            raise AssertionError(f"only {produced}/{count} plannable instances found")
        n = int(rng.integers(2, n_max + 1))
        graph = random_connected_graph(rng, n)
        spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
        profile = random_profile(rng, n)
        try:
            bundle = ctgs.plan_problem(spectrum, profile)
        except ctgs.InfeasibleProblemError:
            continue
        produced += 1
        yield graph, spectrum, profile, bundle


def plannable_instances(master_seed, count, n_max=7, max_attempts_factor=8):
    """Yield (spectrum, profile, bundle) for problems that admit a plan."""
    for _, spectrum, profile, bundle in plannable_problems(master_seed, count, n_max,
                                                           max_attempts_factor):
        yield spectrum, profile, bundle


def problem_document(graph, profile):
    """The problem file of a Laplacian problem on ``graph``."""
    def bound(value):
        return "inf" if is_inf(value) else str(Fraction(value))

    return {"n": graph.n_vertices, "edges": [list(edge) for edge in graph.edges],
            "B": [bound(b) for b in profile.vertex_bw],
            "C": [bound(c) for c in profile.freq_bw]}


def plannable_at(n, seed, max_attempts=100):
    """(spectrum, profile) of the first draw at size ``n`` from ``seed`` whose
    problem plans."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        spectrum = random_spectrum(rng, n)
        profile = random_profile(rng, n)
        try:
            ctgs.plan_problem(spectrum, profile)
        except ctgs.InfeasibleProblemError:
            continue
        return spectrum, profile
    raise AssertionError(f"no plannable instance at n = {n} in {max_attempts} draws")


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
        support = x_support(ctgs.x_vector(spectrum, lam0, cand.vertices, lambda_star))
        bound = max(Fraction(profile.vertex_bw[v])
                    for v, hit in zip(cand.vertices, support) if hit)
        if best is None or bound < best:
            best = bound
    return min(best, Fraction(profile.freq_bw[lambda_star]))


def tighten_bruteforce(spectrum, profile):
    """Oracle for ``bandwidth.tighten``: the pointwise max of the prefix
    profiles of every uniqueness set that stay below ``profile``. In a
    set's profile each outside vertex takes the bound of the last vertex of
    its minimal dependent prefix in ascending (bandwidth, index) order, or 0
    when it depends on the empty set."""
    lambda0 = profile.lambda0()
    bw = profile.vertex_bw
    union = None
    for cand in ctgs.enumerate_uniqueness_sets(spectrum, lambda0):
        ordered = sorted(cand.vertices, key=lambda v: (bw[v], v))
        closures = [ctgs.dependence.dependent_mask(spectrum, lambda0, ordered[:k])
                    for k in range(len(ordered) + 1)]
        candidate = list(bw)
        for v in cand.complement:
            k = next(k for k, closure in enumerate(closures) if closure[v])
            candidate[v] = Fraction(0) if k == 0 else bw[ordered[k - 1]]
        if all(a <= b for a, b in zip(candidate, bw)):
            union = candidate if union is None else [max(a, b) for a, b in zip(union, candidate)]
    return profile.with_vertex_bw(union)


def counting_density(spectrum, profile):
    """Oracle for the minimal total rate of a finitized profile: the density
    D = 2 * sum_j nu(t_j) * (t_{j+1} - t_j) of the constrained space, whose
    dimension at period T tends to D * T. The t_j are the sorted distinct
    values of {0}, the vertex bounds and the finite frequency bounds; nu(t)
    is the nullity of the eigenrows {f : C_f <= t} over the vertices
    {v : t < B_v}, one null space per breakpoint; past the last one no
    vertex is active."""
    bw, freq_bw = profile.vertex_bw, profile.freq_bw
    points = sorted({Fraction(0), *map(Fraction, bw),
                     *(Fraction(c) for c in freq_bw if not is_inf(c))})
    density = Fraction(0)
    for lo, hi in zip(points, points[1:]):
        active = [v for v, b in enumerate(bw) if lo < b]
        rows = [f for f, c in enumerate(freq_bw) if c <= lo]
        nullity = ctgs.numerics.null_space(spectrum.submatrix(rows, active)).shape[1]
        density += nullity * (hi - lo)
    return 2 * density


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


# --- signal-space and round-trip oracles -------------------------------------

def PeriodicSignal(period, coeffs) -> GraphSignal:
    """Periodic signal from its n x (2K+1) trig-coefficient matrix.

    The one trig block is labelled with bandwidth (K+1)/T, the largest
    whose harmonics (strictly below it) stop at K.
    """
    period = Fraction(period)
    coeffs = np.asarray(coeffs, dtype=float)
    return GraphSignal("periodic", period, coeffs,
                       (Fraction((coeffs.shape[1] + 1) // 2) / period,))


def random_member(spectrum: Spectrum, profile: BandwidthProfile, period, seed) -> GraphSignal:
    """Uniform-ish random element of the constrained space (oracle sampler)."""
    period = Fraction(period)
    rng = np.random.default_rng(seed)
    top = max((harmonic_cutoff(b, period) for b in profile.vertex_bw), default=-1)
    coeffs = np.zeros((spectrum.n, n_trig_coeffs(top)))
    for k in range(0, top + 1):
        active, rows = _per_harmonic_constraints(spectrum, profile, period, k)
        if not active:
            continue
        basis = null_space(spectrum.submatrix(rows, active))
        if basis.shape[1] == 0:
            continue
        if k == 0:
            coeffs[active, 0] = basis @ rng.standard_normal(basis.shape[1])
        else:
            coeffs[active, 2 * k - 1] = basis @ rng.standard_normal(basis.shape[1])
            coeffs[active, 2 * k] = basis @ rng.standard_normal(basis.shape[1])
    return PeriodicSignal(period, coeffs)


def verify_membership(spectrum, profile, signal, tol: float = COEFF_TOL) -> bool:
    return not membership_violations(spectrum, profile, signal, tol)


def quotient_witness(spectrum: Spectrum, profile: BandwidthProfile, step, period) -> GraphSignal:
    """Signal whose peeled transform has support reaching the quotient bound.

    Construction from the tightness argument: full-bandwidth content at the
    level's carrier, which contributes to the peeled transform, zero
    elsewhere on the level's basis.
    """
    period = Fraction(period)
    cutoff = harmonic_cutoff(step.b_star, period)
    if profile.vertex_bw[step.carrier] < step.b_star:
        raise AssertionError("carrier bandwidth below the quotient bound; chain inconsistent")
    coeffs = np.zeros(n_trig_coeffs(cutoff))
    if cutoff >= 0:
        coeffs[0 if cutoff == 0 else 2 * cutoff - 1] = 1.0
    full = np.outer(step.column, coeffs)
    return PeriodicSignal(period, full)


def level_bases_oracle(spectrum, profile, filtration):
    """Oracle for the filtration's bottom-up chain: at every level, a fresh
    greedy minimal-rate basis and its extension map under the level's zero
    bounds give (V_i, b_i, carrier column), the carrier being the one vertex
    of V_i - V_{i-1}, for levels 1..k."""
    bw = profile.vertex_bw
    levels = filtration.levels
    prev, _ = ctgs.greedy_minimal_vertex_set(spectrum, levels[0].lambda0, bw)
    out = []
    for level in range(1, len(levels)):
        lam0 = levels[level].lambda0
        (lam,) = set(levels[level - 1].lambda0) - set(lam0)
        basis, _ = ctgs.greedy_minimal_vertex_set(spectrum, lam0, bw)
        extension = ctgs.extension_matrix(spectrum, lam0, basis.vertices)
        top = top_supported(basis.vertices, spectrum.row(lam) @ extension, bw)
        b_star = min(Fraction(bw[top]), Fraction(levels[level].freq_bw[lam]))
        (carrier,) = set(basis.vertices) - set(prev.vertices)
        out.append((basis.vertices, b_star, extension[:, basis.vertices.index(carrier)]))
        prev = basis
    return out


def plan_roundtrip_ok(plan: SamplingPlan, spectrum: Spectrum, seed: int = 0,
                      tol: float = 1e-8) -> bool:
    """Cheap self-test: a random plan-parameterized signal survives the
    sample/recover round trip at the plan's least valid period."""
    period = least_period([g.rate for g in plan.grids])
    truth = assemble(plan, "periodic", period, draw_contents(plan, "periodic", period, seed))
    sset = build_sample_set(plan, "periodic", period)
    try:
        result = recover(sample_signal(truth, sset), plan, spectrum, sset)
    except ReconstructionError:
        return False
    top = max(truth.cutoff, result.recovered.cutoff)
    diff = pad_coeffs(truth.coeffs, top) - pad_coeffs(result.recovered.coeffs, top)
    scale = max(1.0, float(np.max(np.abs(truth.coeffs))) if truth.coeffs.size else 1.0)
    return float(np.max(np.abs(diff))) <= tol * scale


def unknowns_to_signal(plan: SamplingPlan, blocks, vector: np.ndarray,
                       period) -> GraphSignal:
    """Interpret a coefficient vector of the sampling operator as a signal."""
    contents = {unknown: vector[lo:lo + cols] for unknown, lo, cols in blocks}
    return assemble(plan, "periodic", Fraction(period), contents)


def gft(spectrum: Spectrum, snapshot: np.ndarray, frequency: int) -> float:
    """Graph Fourier transform of one snapshot at one frequency: u_lambda . f."""
    snapshot = np.asarray(snapshot, dtype=float)
    if snapshot.shape != (spectrum.n,):
        raise ValueError(f"snapshot must have length {spectrum.n}")
    return float(spectrum.row(frequency) @ snapshot)


# --- per-candidate oracles for the greedy scans ------------------------------

def _by_bw(n, vertex_bw):
    return sorted(range(n), key=lambda v: (vertex_bw[v], v))


def greedy_vertex_set_loop(spectrum, lambda0, vertex_bw):
    """Oracle for ``greedy_minimal_vertex_set``: vertices in ascending
    (bandwidth, index) order, each kept unless it depends on the vertices
    kept before it (one dependence test per vertex)."""
    target = spectrum.n - len(set(lambda0))
    chosen = []
    for v in _by_bw(spectrum.n, vertex_bw):
        if len(chosen) == target:
            break
        if not ctgs.is_dependent(spectrum, lambda0, chosen, v):
            chosen.append(v)
    return tuple(sorted(chosen))


def _rank_loop(spectrum, freqs, v_inf):
    chosen = []
    for f in freqs:
        if len(chosen) == len(v_inf):
            break
        if ctgs.numerics.svd_rank(spectrum.submatrix(chosen + [f], v_inf)) > len(chosen):
            chosen.append(f)
    return chosen


def check_uniform_loop(spectrum, profile):
    """Oracle for ``check_uniform`` with infinite vertex bounds:
    (is_uniform, witness frequencies, bound), each frequency decided by one
    rank test of the eigenrow block over the infinite-bound vertices."""
    v_inf = [v for v, b in enumerate(profile.vertex_bw) if is_inf(b)]
    finite_freqs = [f for f, c in enumerate(profile.freq_bw) if not is_inf(c)]
    cheapest = _rank_loop(spectrum, sorted(finite_freqs, key=lambda f: (profile.freq_bw[f], f)),
                          v_inf)
    if len(cheapest) < len(v_inf):
        return False, None, ctgs.INF
    bound = max([b for b in profile.vertex_bw if not is_inf(b)]
                + [profile.freq_bw[f] for f in cheapest])
    witness = _rank_loop(spectrum, [f for f in finite_freqs if profile.freq_bw[f] <= bound], v_inf)
    return True, tuple(witness), bound


def _level_candidates(spectrum, profile, filtration, level, current):
    """Vertices v outside ``current`` that pass the level's per-candidate
    tests: current + v is a uniqueness set (one SVD) and the peeled
    coefficient at v does not vanish (one solve)."""
    step = filtration.step_at(level)
    lam = filtration.levels[level].lambda0
    for v in _by_bw(spectrum.n, profile.vertex_bw):
        if v in current:
            continue
        trial = tuple(sorted(current + (v,)))
        if not ctgs.is_uniqueness_set(spectrum, lam, trial):
            continue
        if abs(ctgs.x_vector(spectrum, lam, trial, step.lambda_star)[trial.index(v)]) <= 1e-8:
            continue
        yield v, trial


def greedy_sequence_loop(spectrum, profile, filtration):
    """Oracle for the greedy admissible sequence: (v_sets, added), each level
    adding its first candidate in (bandwidth, index) order; None when a
    level has none."""
    current = greedy_vertex_set_loop(spectrum, filtration.levels[0].lambda0, profile.vertex_bw)
    v_sets, added = [current], []
    for level in range(1, filtration.depth + 1):
        choice = next(_level_candidates(spectrum, profile, filtration, level, current), None)
        if choice is None:
            return None
        added.append(choice[0])
        current = choice[1]
        v_sets.append(current)
    return tuple(v_sets), tuple(added)


def backtrack_sequence_loop(spectrum, profile, filtration):
    """Exhaustive search for an admissible sequence: (v_sets, added) or
    None. Level 0 tries the minimal-rate uniqueness sets in lexicographic
    order; each
    candidate is also tested for its own bandwidth and for the bandwidths
    of the outside vertices that do not depend on the previous set."""
    bw = profile.vertex_bw
    lam00 = filtration.levels[0].lambda0

    def rate(vertices):
        return 2 * sum((Fraction(bw[v]) for v in vertices), Fraction(0))

    def extend(v_sets, added, level):
        if level > filtration.depth:
            return tuple(v_sets), tuple(added)
        b = filtration.step_at(level).b_star
        lam = filtration.levels[level].lambda0
        current = v_sets[-1]
        for v, trial in _level_candidates(spectrum, profile, filtration, level, current):
            if Fraction(bw[v]) < b:
                continue
            if not ctgs.planner._outside_bw_ok(spectrum, bw, lam, current, trial, b):
                continue
            result = extend(v_sets + [trial], added + [v], level + 1)
            if result is not None:
                return result
        return None

    bases = ctgs.enumerate_uniqueness_sets(spectrum, lam00)
    best = min(rate(c.vertices) for c in bases)
    for cand in bases:
        if rate(cand.vertices) == best:
            result = extend([cand.vertices], [], 1)
            if result is not None:
                return result
    return None


def carrier_groups_loop(spectrum, lambda0, vertex_bw, v0, v_star):
    """Oracle for ``planner._carrier_groups``: each spread vertex joins the
    group of the last base vertex of its minimal dependent prefix, found by
    one dependence test per prefix."""
    ordered = sorted(v0, key=lambda v: (vertex_bw[v], v))
    groups = [[w] for w in ordered]
    for u in v_star:
        if u in v0:
            continue
        k = next(k for k in range(1, len(ordered) + 1)
                 if ctgs.is_dependent(spectrum, lambda0, ordered[:k], u))
        groups[k - 1].append(u)
    return [(w, tuple(sorted(g))) for w, g in zip(ordered, groups)]



# --- oracles for plan assembly -----------------------------------------------

def decollide_phases_loop(grids):
    """Oracle for split placement: each grid in order, halving a shift off
    the lattice of the grids already at its vertex until no sample time is
    shared (the per-vertex de-collision loop the spread placement replaced)."""
    placed = {}
    out = []
    for g in grids:
        prev = placed.setdefault(g.vertex, [])
        phase = g.phase
        if g.rate > 0 and prev:
            lattice = Fraction(1, g.rate)
            for rate_p, _ in prev:
                lattice = ctgs.planner._rational_gcd(lattice, Fraction(1, rate_p))
            k = 1
            while any(ctgs.planner._grids_collide(g.rate, phase, r, p) for r, p in prev):
                phase = g.phase + lattice / (2 ** k)
                k += 1
                if k > 64:
                    raise AssertionError("phase de-collision failed to converge")
        prev.append((g.rate, phase))
        out.append(ctgs.planner.Grid(grid_id=g.grid_id, vertex=g.vertex, rate=g.rate,
                                     phase=phase))
    return tuple(out)


def split_grids_loop(plan, donor, acceptor, amount):
    """Oracle for the grids of ``split_rate_transform``: the acceptor's level
    grid keeps its rate less 2 * amount, the donated grid starts at the
    interleaving phase, and ``decollide_phases_loop`` places them in order."""
    level = next(step.level for step in plan.levels if step.carrier == acceptor)
    level_id = f"level:{level}"
    amount = Fraction(amount)
    kept = plan.grid(level_id).rate - 2 * amount
    grids = [replace(g, rate=kept) if g.grid_id == level_id else g
             for g in plan.grids if g.grid_id != level_id or kept > 0]
    grids.append(ctgs.planner.Grid(f"{level_id}:donated:{donor}", donor, 2 * amount,
                                   ctgs.planner._interleaving_phase(kept, 2 * amount)))
    return decollide_phases_loop(grids)


def compute_stages_loop(plan):
    """Oracle for ``planner._compute_stages``: per-unknown stages, and after
    every merge the scan restarts from stage 0 until no stage's grids see an
    unknown that is neither solved before it nor its own."""
    from ctgs.planner import VISIBILITY_TOL, Stage

    stages = [Stage(unknowns=(("base", w),), grid_ids=tuple(gids))
              for w, gids in plan.base_stages]
    for step in plan.levels:
        prefix = f"level:{step.level}"
        stages.append(Stage(unknowns=(("level", step.level),),
                            grid_ids=tuple(g.grid_id for g in plan.grids
                                           if g.grid_id == prefix
                                           or g.grid_id.startswith(prefix + ":"))))
    changed = True
    while changed:
        changed = False
        solved = set()
        for idx, stage in enumerate(stages):
            members = set(stage.unknowns)
            contaminating = set()
            for gid in stage.grid_ids:
                vertex = plan.grid(gid).vertex
                for other in stages[idx + 1:]:
                    for unk in other.unknowns:
                        if unk in members or unk in solved:
                            continue
                        if abs(plan.visibility(unk, vertex)) > VISIBILITY_TOL:
                            contaminating.add(unk)
            if contaminating:
                merged_unknowns = list(stage.unknowns)
                merged_grids = list(stage.grid_ids)
                rest = []
                for other in stages[idx + 1:]:
                    if any(u in contaminating for u in other.unknowns):
                        merged_unknowns.extend(other.unknowns)
                        merged_grids.extend(other.grid_ids)
                    else:
                        rest.append(other)
                stages = stages[:idx] + [Stage(tuple(merged_unknowns), tuple(merged_grids))] + rest
                changed = True
                break
            solved |= members
    return tuple(stages)


def spread_set(spectrum, plan):
    """The plan's base set plus, in index order, every vertex that keeps the
    spread set valid."""
    v_star = list(plan.base_vertices)
    for v in range(plan.n):
        if v in v_star:
            continue
        try:
            ctgs.planner.validate_spread_set(spectrum, plan.base_lambda0, plan.base_vertices,
                                             v_star + [v])
        except ctgs.ProblemFormatError:
            continue
        v_star.append(v)
    return tuple(sorted(v_star))


def validate_spread_set_loop(spectrum, lambda0, v0, v_star):
    """Oracle for ``planner.validate_spread_set``: one ``is_uniqueness_set``
    per |V0|-subset of V*, in ``combinations`` order, stopping at the first
    that fails. Returns (sorted v0, sorted v_star)."""
    v0, v_star = tuple(sorted(set(v0))), tuple(sorted(set(v_star)))
    if not v0:
        raise ctgs.ProblemFormatError(
            "the base uniqueness set is empty; there is no base load to spread")
    if not set(v0) <= set(v_star):
        raise ctgs.ProblemFormatError("the spread set must contain the base uniqueness set")
    for sub in combinations(v_star, len(v0)):
        if not ctgs.is_uniqueness_set(spectrum, lambda0, sub):
            raise ctgs.ProblemFormatError(f"spread set invalid: {sub} is not a uniqueness set")
    return v0, v_star


def recover_dense(observation, plan, sample_set):
    """Oracle for ``sampling.recover``: each stage's real system, built
    densely over every sample, minus the solved blocks, solved by one
    ``np.linalg.lstsq``. Returns (contents, stage diagnostics), or raises
    ``ReconstructionError`` with recover's message and diagnostics when a
    stage is rank deficient or inconsistent."""
    from ctgs.sampling import (RESIDUAL_TOL, _bases, _design_rows, _GridDesigns,
                               _layout)

    bws, bases = _bases(plan, sample_set.mode, sample_set.domain)
    grids = {g.grid_id: g for g in sample_set.grids}
    sampled = dict(zip((g.grid_id for g in observation.grids), observation.values))
    contents, stages = {}, []
    for stage in plan.stages:
        blocks, total_cols = _layout(stage.unknowns, bws, bases)
        rows_a, rows_y = [], []
        for gid in stage.grid_ids:
            grid = grids[gid]
            designs = _GridDesigns(bases, grid.float_times)
            values = sampled.get(gid, np.zeros(0))
            for solved, coeffs in contents.items():
                scale = plan.visibility(solved, grid.vertex)
                if scale != 0.0:
                    values = values - scale * (designs[bws[solved]] @ coeffs)
            rows_a.append(_design_rows(plan, blocks, total_cols, bws, designs, grid.vertex))
            rows_y.append(values)
        if total_cols == 0:
            contents.update((u, np.zeros(0)) for u, _, _ in blocks)
            continue
        a, y = np.vstack(rows_a), np.concatenate(rows_y)
        solution, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < total_cols:
            raise ctgs.ReconstructionError(
                "rank-deficient reconstruction system",
                {"unknowns": stage.unknowns, "rank": int(rank), "columns": total_cols})
        residual = float(np.max(np.abs(a @ solution - y)))
        if residual > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(y)))):
            raise ctgs.ReconstructionError(
                "observations are inconsistent with the signal model",
                {"unknowns": stage.unknowns, "residual": residual})
        stages.append({"unknowns": stage.unknowns, "rows": len(y), "columns": total_cols,
                       "residual": residual})
        contents.update((u, solution[lo:lo + cols]) for u, lo, cols in blocks)
    return contents, stages


def unchecked_split(plan, donor, acceptor, amount):
    """``split_rate_transform``'s plan without its recoverability check: the
    oracle grids of ``split_grids_loop``, restaged."""
    return replace(plan, grids=split_grids_loop(plan, donor, acceptor, amount))


def redistribute_placement_only(spectrum, lambda0, vertex_bw, v0, v_star, sample_set):
    """Oracle for ``sampling.redistribute``: the lower-eccentricity spread
    construction (spread A on a tie), placed alone on its vertices and
    realized on ``sample_set``'s domain, with no recoverability check."""
    planner = ctgs.planner
    v0 = tuple(sorted(set(v0)))
    by_vertex = {g.vertex: g for g in sample_set.grids}
    if set(by_vertex) - set(v0):
        raise ctgs.ProblemFormatError("sample set has grids outside the base uniqueness set")
    for w, grid in by_vertex.items():
        if grid.rate != 2 * Fraction(vertex_bw[w]):
            raise ctgs.ProblemFormatError(
                f"grid at vertex {w} has rate {grid.rate}, expected 2*{vertex_bw[w]}")
    _, valid = planner.validate_spread_set(spectrum, lambda0, v0, v_star)
    args = (ctgs.UniquenessSet(spectrum, v0, lambda0), vertex_bw)
    spread_grids, _ = min(
        [planner._prefix_spread_grids(*args, valid), planner._level_spread_grids(*args, valid)],
        key=lambda opt: max(planner.rates_by_vertex(opt[0]).values(), default=Fraction(0)))
    spread = build_sample_set(
        SimpleNamespace(n=sample_set.n, grids=planner._place_spread_grids(spread_grids, ())),
        sample_set.mode, sample_set.domain)
    if ctgs.sample_rate(spread) != ctgs.sample_rate(sample_set):
        raise AssertionError("redistribution changed the sample rate")
    return spread


def trig_values_exact(signal, vertex, times):
    """A periodic signal's values at Fraction ``times``, each harmonic's
    angle reduced mod one period exactly before it is rounded: the
    reference for the rounding of ``eval`` and of FFT sampling."""
    period, row = Fraction(signal.domain), signal.coeffs[vertex]
    out = []
    for t in times:
        turns = np.array([float(k * t / period % 1) for k in range(1, signal.cutoff + 1)])
        angles = 2 * np.pi * turns
        out.append(row[0] + row[1::2] @ np.cos(angles) + row[2::2] @ np.sin(angles))
    return np.array(out)


def fresh_design(signal, times):
    """A signal's design at ``times`` from freshly built scalar bases."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    blocks = [ctgs.signals.scalar_basis(signal.mode, signal.domain, b)[1](times)
              for b in signal.bands]
    return np.hstack(blocks) if blocks else np.zeros((len(times), 0))


def sinc_recovery_error_two_designs(truth, recovered, window, n):
    """``recovery_error``'s sinc quadrature with each signal's design
    evaluated separately in every block, as one row product per vertex."""
    t0, t1 = float(window[0]), float(window[1])
    span = t1 - t0
    lo, hi = t0 + span / 4.0, t1 - span / 4.0
    rate = 2.0 * float(max(truth.bands + recovered.bands, default=0))
    count = max(64, int((hi - lo) * rate * ctgs.sampling.OVERSAMPLE))
    times = np.linspace(lo, hi, count)
    ref_sq = np.zeros(truth.coeffs.shape[0])
    err_sq = np.zeros(truth.coeffs.shape[0])
    step = ctgs.sampling.QUADRATURE_BLOCK - 1
    for start in range(0, count - 1, step):
        block = times[start:start + step + 1]
        values = []
        for signal in (truth, recovered):
            design = fresh_design(signal, block)
            values.append(np.stack([design @ row for row in signal.coeffs]))
        ref_vals, err_vals = values[0], values[0] - values[1]
        ref_sq += np.trapezoid(ref_vals ** 2, block, axis=1)
        err_sq += np.trapezoid(err_vals ** 2, block, axis=1)
    refs, errs = np.sqrt(ref_sq).tolist(), np.sqrt(err_sq).tolist()
    return {v: {"error": errs[v] / refs[v], "relative": True} if refs[v] > 0
            else {"error": errs[v], "relative": False} for v in range(n)}
