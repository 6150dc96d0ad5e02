from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import ctgs
from ctgs.numerics import INF, least_period
from ctgs.spectral import Spectrum

from helpers import (
    backtrack_sequence_loop,
    carrier_groups_loop,
    compute_stages_loop,
    counting_density,
    greedy_sequence_loop,
    greedy_vertex_set_loop,
    level_bases_oracle,
    plan_roundtrip_ok,
    plannable_at,
    plannable_instances,
    plannable_problems,
    quotient_bound_bruteforce,
    random_member,
    random_profile,
    random_spectrum,
    split_grids_loop,
    spread_set,
    unchecked_split,
    validate_spread_set_loop,
)

LAM0_W0 = (0, 1, 2)


def _path3_setup():
    graph = ctgs.GraphModel.create(3, [[0, 1], [1, 2]])
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    profile = ctgs.BandwidthProfile.create([1, 3, 3], [0, 2, "inf"])
    return spectrum, profile


def test_select_lambda_star_worked(worked_profile):
    assert ctgs.select_lambda_star(worked_profile.freq_bw) == 1


def test_select_lambda_star_simple_none():
    assert ctgs.select_lambda_star((Fraction(0), INF, INF)) is None


def test_select_lambda_star_skips_zero():
    assert ctgs.select_lambda_star((Fraction(9), Fraction(0), Fraction(5), INF, INF)) == 2


def test_select_lambda_star_tie_breaks_by_index():
    assert ctgs.select_lambda_star((Fraction(5), Fraction(5), INF)) == 0


def test_reduction_first_step(worked_bundle):
    filtration = worked_bundle[2]
    step = filtration.step_at(3)
    assert step.lambda_star == 1
    assert filtration.levels[3].lambda0 == ()
    assert step.vertices == tuple(range(5))
    assert step.b_star == 2


def test_reduction_second_step(worked_bundle):
    filtration = worked_bundle[2]
    step = filtration.step_at(2)
    assert step.lambda_star == 2
    assert filtration.levels[2].lambda0 == (1,)
    assert step.b_star == 5


def test_reduction_third_step(worked_spectrum, worked_profile, worked_bundle):
    filtration = worked_bundle[2]
    step = filtration.step_at(1)
    assert step.lambda_star == 0
    assert filtration.levels[1].lambda0 == (1, 2)
    # the transform vector vanishes at one vertex of the best sets, so the
    # bound drops to 4 there; a larger pinned value would contradict the
    # admissibility conditions (the level-1 carrier has bandwidth 4)
    assert step.b_star == 4
    assert step.vertices in ((1, 2, 4), (2, 3, 4))
    x_vec = ctgs.x_vector(worked_spectrum, filtration.levels[1].lambda0, step.vertices, 0)
    support = [v for v, x in zip(step.vertices, x_vec) if abs(x) > 1e-8]
    bw = worked_profile.vertex_bw
    assert max(bw[v] for v in support) == 4


def test_quotient_bound_matches_bruteforce_oracle():
    """At every level of 200 random filtrations with n <= 8, the greedy
    basis attains the quotient bound the enumeration of uniqueness sets finds.
    Half the graphs have unit weights, where x-vectors lose support entries."""
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 9))
        spectrum = random_spectrum(rng, n, unit_weights=checked % 2 == 0)
        profile = random_profile(rng, n)
        filtration = ctgs.build_filtration(spectrum, profile)
        if filtration.depth == 0:
            continue
        for step in filtration.steps:
            level = filtration.levels[step.level]
            current = ctgs.BandwidthProfile(profile.vertex_bw, level.freq_bw)
            assert step.b_star == quotient_bound_bruteforce(spectrum, current, step.lambda_star)
            assert ctgs.is_uniqueness_set(spectrum, level.lambda0, step.vertices)
        checked += 1


def test_filtration_matches_per_level_bases_oracle():
    """The bottom-up chain has every level's fresh greedy basis, quotient
    bound and carrier column (to 1e-10 relative) on 200 random filtrations
    with n <= 40, half on unit-weight graphs, and on the n = 200 instance,
    whose depth is 81."""
    rng = np.random.default_rng(4040)
    cases = []
    while len(cases) < 200:
        n = int(rng.integers(2, 41))
        spectrum = random_spectrum(rng, n, unit_weights=len(cases) % 2 == 0)
        profile = random_profile(rng, n)
        if ctgs.select_lambda_star(profile.freq_bw) is not None:
            cases.append((spectrum, profile))
    spectrum, profile = plannable_at(200, 200)
    cases.append((spectrum, ctgs.plan_problem(spectrum, profile)[1]))
    for spectrum, profile in cases:
        filtration = ctgs.build_filtration(spectrum, profile)
        oracle = level_bases_oracle(spectrum, profile, filtration)
        for step, (vertices, b_star, column) in zip(
                [filtration.step_at(i) for i in range(1, filtration.depth + 1)], oracle):
            assert (step.vertices, step.b_star) == (vertices, b_star)
            assert np.max(np.abs(step.column - column)) <= 1e-10 * np.max(np.abs(column))
    assert filtration.depth == 81


def test_worked_filtration(worked_spectrum, worked_bundle):
    _, _, filtration, _, _ = worked_bundle
    assert filtration.depth == 3
    assert filtration.lambda_star_order == (1, 2, 0)
    assert tuple(s.b_star for s in filtration.steps) == (2, 5, 4)
    assert filtration.quotient_bandwidths == (4, 5, 2)
    assert filtration.levels[0].freq_bw == (0, 0, 0, INF, INF)
    assert filtration.levels[0].lambda0 == LAM0_W0


def test_filtration_lambda0_chain(worked_bundle):
    _, _, filtration, _, _ = worked_bundle
    chain = [set(level.lambda0) for level in filtration.levels]
    for lower, higher in zip(chain[1:], chain[:-1]):
        assert lower < higher
        assert len(higher - lower) == 1


def test_filtration_already_simple(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 5], [0, "inf"])
    filtration = ctgs.build_filtration(two_path_spectrum, profile)
    assert filtration.depth == 0
    assert len(filtration.levels) == 1


def test_filtration_two_path_single_step(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 5], [1, "inf"])
    filtration = ctgs.build_filtration(two_path_spectrum, profile)
    assert filtration.depth == 1
    assert filtration.levels[0].freq_bw == (0, INF)
    assert filtration.quotient_bandwidths == (Fraction(1),)


def test_b_star_capped_by_peeled_bound(worked_bundle):
    _, finite, filtration, _, _ = worked_bundle
    for step in filtration.steps:
        parent = filtration.levels[step.level].freq_bw
        assert step.b_star <= parent[step.lambda_star]
        assert step.b_star <= max(finite.vertex_bw)


def test_worked_admissible_sequence(worked_bundle):
    _, _, _, seq, _ = worked_bundle
    assert seq.v_sets == ((2, 3), (2, 3, 4), (0, 2, 3, 4), (0, 1, 2, 3, 4))
    assert seq.added == (4, 0, 1)
    assert seq.base_rate == 10
    assert seq.quotient_rates == (Fraction(8), Fraction(10), Fraction(4))


def test_worked_sequence_verifies(worked_spectrum, worked_bundle):
    _, finite, filtration, seq, _ = worked_bundle
    assert ctgs.verify_admissible_sequence(worked_spectrum, finite, filtration, seq) == []


def test_verifier_rejects_tampered_sequence(worked_spectrum, worked_bundle):
    _, finite, filtration, seq, _ = worked_bundle
    bad = ctgs.AdmissibleSequence(
        v_sets=(seq.v_sets[0], (1, 2, 3)) + seq.v_sets[2:],
        added=(1,) + seq.added[1:],
        base_rate=seq.base_rate,
        quotient_rates=seq.quotient_rates)
    assert ctgs.verify_admissible_sequence(worked_spectrum, finite, filtration, bad)


def test_make_plan_refuses_a_sequence_off_the_chain(worked_spectrum, worked_bundle):
    """A plan reads each level's extension column from its filtration step,
    so a sequence whose vertices are not the steps' carriers is refused."""
    _, finite, filtration, seq, _ = worked_bundle
    swapped = replace(seq, added=(seq.added[0], seq.added[2], seq.added[1]))
    with pytest.raises(AssertionError, match="carriers"):
        ctgs.make_plan(worked_spectrum, finite, filtration, swapped)


def test_verifier_flags_costlier_level0_set():
    """Swapping a costlier vertex into V_0 keeps it a uniqueness set but
    breaks rate minimality, and the verifier says so."""
    flagged = 0
    for spectrum, _, bundle in plannable_instances(master_seed=606, count=20):
        _, finite, filtration, seq, _ = bundle
        v0, bw = set(seq.v_sets[0]), finite.vertex_bw
        lam00 = filtration.levels[0].lambda0
        swaps = [tuple(sorted(v0 - {w} | {u})) for w in sorted(v0)
                 for u in range(spectrum.n) if u not in v0 and bw[u] > bw[w]]
        swaps = [s for s in swaps if ctgs.is_uniqueness_set(spectrum, lam00, s)]
        if not swaps:
            continue
        bad = ctgs.AdmissibleSequence(v_sets=(swaps[0],) + seq.v_sets[1:], added=seq.added,
                                      base_rate=seq.base_rate,
                                      quotient_rates=seq.quotient_rates)
        problems = ctgs.verify_admissible_sequence(spectrum, finite, filtration, bad)
        assert any("is not minimal" in p for p in problems), problems
        flagged += 1
    assert flagged >= 5


def test_sequence_trivial_when_simple(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 5], [0, "inf"])
    filtration = ctgs.build_filtration(two_path_spectrum, profile)
    seq = ctgs.find_admissible_sequence(two_path_spectrum, profile, filtration)
    assert seq.v_sets == ((0,),)
    assert seq.added == ()
    assert seq.base_rate == 6


def test_random_sequences_pass_verifier():
    for spectrum, profile, bundle in plannable_instances(master_seed=101, count=15):
        _, finite, filtration, seq, _ = bundle
        assert ctgs.verify_admissible_sequence(spectrum, finite, filtration, seq) == []


def test_greedy_sequence_matches_per_candidate_oracle():
    """The filtration's chain of greedy bases adds at each level the vertex
    that one uniqueness test and one peeled-coefficient test per candidate
    pick, on 200 random filtrations with n <= 10, half on unit-weight
    graphs."""
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 11))
        spectrum = random_spectrum(rng, n, unit_weights=checked % 2 == 0)
        profile = random_profile(rng, n)
        filtration = ctgs.build_filtration(spectrum, profile)
        if filtration.depth == 0:
            continue
        seq = ctgs.find_admissible_sequence(spectrum, profile, filtration)
        assert (seq.v_sets, seq.added) == greedy_sequence_loop(spectrum, profile, filtration)
        checked += 1


def test_greedy_chain_is_admissible_whenever_any_sequence_is(worked_spectrum, worked_bundle):
    """Wherever the exhaustive backtracking oracle finds an admissible
    sequence, the filtration's chain of greedy bases verifies and has the
    same total rate: the worked example and 60 random instances with n <= 8,
    half on unit-weight graphs."""
    cases = [(worked_spectrum, worked_bundle[1], worked_bundle[2])]
    rng = np.random.default_rng(1010)
    while len(cases) < 61:
        n = int(rng.integers(2, 9))
        spectrum = random_spectrum(rng, n, unit_weights=len(cases) % 2 == 0)
        profile = random_profile(rng, n)
        cert = ctgs.check_uniform(spectrum, profile)
        if not cert.is_uniform:
            continue
        finite = ctgs.finitize(spectrum, profile, cert)
        cases.append((spectrum, finite, ctgs.build_filtration(spectrum, finite)))
    for spectrum, finite, filtration in cases:
        found = backtrack_sequence_loop(spectrum, finite, filtration)
        assert found is not None
        found_rate = 2 * sum((Fraction(finite.vertex_bw[v]) for v in found[0][0]), Fraction(0)) \
            + 2 * sum(filtration.quotient_bandwidths, Fraction(0))
        seq = ctgs.find_admissible_sequence(spectrum, finite, filtration)
        assert ctgs.verify_admissible_sequence(spectrum, finite, filtration, seq) == []
        assert seq.base_rate + sum(seq.quotient_rates) == found_rate


def test_carrier_groups_match_per_prefix_oracle():
    """One dependence mask per base prefix groups the spread vertices as one
    dependence test per (vertex, prefix) does, on 200 random spread sets
    with n <= 10, half on unit-weight graphs."""
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 11))
        spectrum = random_spectrum(rng, n, unit_weights=checked % 2 == 0)
        profile = random_profile(rng, n)
        lam0, bw = profile.lambda0(), profile.vertex_bw
        v0 = greedy_vertex_set_loop(spectrum, lam0, bw)
        if not v0:
            continue
        extra = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
        v_star = tuple(sorted(set(v0) | set(extra)))
        assert ctgs.planner._carrier_groups(ctgs.UniquenessSet(spectrum, v0, lam0), bw, v_star) \
            == carrier_groups_loop(spectrum, lam0, bw, v0, v_star)
        checked += 1


def _counted(monkeypatch, name):
    """The argument shapes of every ``np.linalg.<name>`` call from now on."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_plan_n60_svd_count(monkeypatch):
    """The greedy scans make no SVD, so one plan_problem at n = 60 makes
    2 per filtration level plus 3: the verifier's uniqueness test and null
    space per level, and one uniqueness check for each of the filtration's
    and the verifier's level-0 greedy bases and for the verifier's V_0. The
    sequence reads the filtration's level-0 basis."""
    spectrum, profile = plannable_at(60, seed=60)
    calls = _counted(monkeypatch, "svd")
    _, _, filtration, _, _ = ctgs.plan_problem(spectrum, profile)
    assert filtration.depth >= 10
    assert len(calls) <= 2 * filtration.depth + 3


def test_plan_n60_solve_count(monkeypatch):
    """The filtration solves its level-0 extension map once and grows it by
    rank-one updates, so one plan_problem at n = 60 makes 1 solve per level
    (the verifier's x-test) plus 1."""
    spectrum, profile = plannable_at(60, seed=60)
    calls = _counted(monkeypatch, "solve")
    _, _, filtration, _, _ = ctgs.plan_problem(spectrum, profile)
    assert filtration.depth >= 10
    assert len(calls) <= filtration.depth + 1


def test_filtration_n60_makes_one_svd_and_one_solve(monkeypatch):
    """At any depth the filtration makes one greedy scan, whose uniqueness
    check is its one SVD, and one solve, the level-0 extension map."""
    spectrum, profile = plannable_at(60, seed=60)
    finite = ctgs.plan_problem(spectrum, profile)[1]
    svds, solves = _counted(monkeypatch, "svd"), _counted(monkeypatch, "solve")
    filtration = ctgs.build_filtration(spectrum, finite)
    assert filtration.depth >= 10
    assert (len(svds), len(solves)) == (1, 1)


def test_spread_validation_matches_per_subset_oracle():
    """The batched full-spark check gives the per-subset loop's verdict and
    message, naming the same first failing subset, on the spread sets grown
    one random vertex at a time from the base sets of 120 random plans
    (n <= 9), half of them on unit-weight graphs."""
    from ctgs.planner import validate_spread_set

    rng = np.random.default_rng(31)
    verdicts = {"valid": 0, "invalid": 0}
    plans = 0
    while plans < 120:
        n = int(rng.integers(2, 10))
        spectrum = random_spectrum(rng, n, unit_weights=plans % 2 == 0)
        try:
            plan = ctgs.plan_problem(spectrum, random_profile(rng, n))[4]
        except ctgs.InfeasibleProblemError:
            continue
        plans += 1
        others = [v for v in rng.permutation(n).tolist() if v not in plan.base_vertices]
        for size in range(len(others) + 1):
            args = (spectrum, plan.base_lambda0, plan.base_vertices,
                    plan.base_vertices + tuple(others[:size]))
            outcomes = []
            for check in (validate_spread_set, validate_spread_set_loop):
                try:
                    outcomes.append(check(*args))
                except ctgs.ProblemFormatError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            verdicts["invalid" if isinstance(outcomes[0], str) else "valid"] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_plan_stages_make_no_solve(worked_spectrum, worked_profile, monkeypatch):
    """The plan's base is the filtration's level-0 basis, whose extension
    map the filtration solved, so the recovery schedule reads it without
    solving again."""
    for spectrum, profile in [(worked_spectrum, worked_profile), plannable_at(60, seed=60)]:
        plan = ctgs.plan_problem(spectrum, profile)[4]
        solves = _counted(monkeypatch, "solve")
        assert plan.stages
        assert solves == []
        monkeypatch.undo()


def test_redistribute_solves_the_base_map_once(worked_spectrum, worked_profile, monkeypatch):
    """Spreading groups the carriers with the plan's own base extension map,
    which the recoverability certificate reads too; the filtration solved
    it, so spreading makes no solve."""
    plan = ctgs.plan_problem(worked_spectrum, worked_profile)[4]
    solves = _counted(monkeypatch, "solve")
    ctgs.redistribute_plan(plan, (1, 2, 3))
    assert len(solves) == 0


def test_plan_sorts_the_vertices_once():
    """Every greedy scan of one plan, and the filtration's carrier search,
    read the vertices in one (B, index) order, sorted once for the plan's
    bandwidth vector: the filtration reads it twice and the verifier once;
    the sequence reads the filtration's level-0 basis."""
    spectrum, profile = plannable_at(60, seed=60)
    order = ctgs.dependence._bandwidth_order
    order.cache_clear()
    _, finite, filtration, _, _ = ctgs.plan_problem(spectrum, profile)
    info = order.cache_info()
    assert filtration.depth >= 10
    assert (info.misses, info.hits) == (1, 2)
    assert order(finite.vertex_bw) == tuple(
        sorted(range(spectrum.n), key=lambda v: (finite.vertex_bw[v], v)))


def test_total_rate_equals_counting_density():
    """Every plan's total rate is the density of its finitized space, the
    least rate any recovering sampling set can have."""
    for spectrum, _, bundle in plannable_instances(13, 300):
        assert bundle[-1].total_rate == counting_density(spectrum, bundle[1])


def test_relabelling_vertices_changes_nothing():
    """Relabelling the vertices moves the edges and B; C stays, since the
    frequencies are ordered by eigenvalue. With distinct eigenvalues each
    eigenvector only moves its entries (and may flip sign), so the rate,
    the quotient bandwidths and the counting density stay."""
    rng = np.random.default_rng(23)
    checked = 0
    for graph, spectrum, profile, bundle in plannable_problems(23, 200, n_max=9):
        if spectrum.has_repeated_eigenvalues:
            continue
        n = graph.n_vertices
        perm = rng.permutation(n)   # vertex v becomes perm[v]
        moved = ctgs.GraphModel.create(
            n, [[int(perm[i]), int(perm[j]), w] for i, j, w in graph.edges])
        vertex_bw = [None] * n
        for v, b in enumerate(profile.vertex_bw):
            vertex_bw[perm[v]] = b
        moved_spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(moved, "laplacian"))
        _, moved_finite, moved_filtration, _, moved_plan = ctgs.plan_problem(
            moved_spectrum, ctgs.BandwidthProfile.create(vertex_bw, profile.freq_bw))
        _, finite, filtration, _, plan = bundle
        assert moved_plan.total_rate == plan.total_rate
        assert moved_filtration.quotient_bandwidths == filtration.quotient_bandwidths
        assert counting_density(moved_spectrum, moved_finite) \
            == counting_density(spectrum, finite)
        checked += 1
    assert checked > 150


def _family_graph(kind, n):
    if kind == "cycle":
        return ctgs.GraphModel.create(n, [[v, (v + 1) % n] for v in range(n)])
    if kind == "star":
        return ctgs.GraphModel.create(n, [[0, v] for v in range(1, n)])
    return ctgs.GraphModel.create(n, [[u, v] for u in range(n) for v in range(u + 1, n)])


def test_rotating_repeated_eigenspaces_changes_nothing():
    """Cycles, stars and complete graphs have repeated eigenvalues. With C
    constant on each multiplicity group the space depends on the eigenspaces
    only, so rotating each group's rows by a random orthogonal matrix keeps
    the rate, the counting density and the quotient bandwidths as a
    multiset. Their order by level may move with the basis."""
    rng = np.random.default_rng(29)
    for trial in range(120):
        n = int(rng.integers(4, 9))
        graph = _family_graph(("cycle", "star", "complete")[trial % 3], n)
        spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
        draw = random_profile(rng, n)
        groups = spectrum.multiplicity_groups
        profile = ctgs.BandwidthProfile.create(
            draw.vertex_bw, [draw.freq_bw[group[0]] for group in groups for _ in group])
        rotated = spectrum.basis.copy()
        for group in groups:
            q, _ = np.linalg.qr(rng.standard_normal((len(group), len(group))))
            rotated[list(group)] = q @ spectrum.basis[list(group)]
        turned = Spectrum(spectrum.eigenvalues, rotated, groups)
        _, finite, filtration, _, plan = ctgs.plan_problem(spectrum, profile)
        _, turned_finite, turned_filtration, _, turned_plan = ctgs.plan_problem(turned, profile)
        assert turned_plan.total_rate == plan.total_rate
        assert counting_density(turned, turned_finite) == counting_density(spectrum, finite)
        assert sorted(turned_filtration.quotient_bandwidths) \
            == sorted(filtration.quotient_bandwidths)


def test_total_rate_equals_counting_density_n200():
    spectrum, profile = plannable_at(200, 200)
    _, finite, _, _, plan = ctgs.plan_problem(spectrum, profile)
    assert plan.total_rate == counting_density(spectrum, finite)


def test_excess_samples_per_period_count_the_grids():
    """At 2 and 4 times the least period, a plan takes one sample per grid
    more than the space's dimension: rate * T - dim(T) = number of grids."""
    for spectrum, _, bundle in plannable_instances(14, 100):
        finite, plan = bundle[1], bundle[-1]
        period = least_period([g.rate for g in plan.grids])
        for multiple in (2, 4):
            t = multiple * period
            assert plan.total_rate * t - ctgs.space_dimension(spectrum, finite, t) \
                == len(plan.grids)


def test_n40_problem_plans_and_round_trips():
    """Past the enumeration guard: a random n = 40 problem plans, its
    sequence verifies, and a periodic round trip recovers it."""
    rng = np.random.default_rng(40)
    spectrum = random_spectrum(rng, 40)
    profile = random_profile(rng, 40)
    _, finite, filtration, seq, plan = ctgs.plan_problem(spectrum, profile)
    assert filtration.depth > 0
    assert ctgs.verify_admissible_sequence(spectrum, finite, filtration, seq) == []
    period = least_period([g.rate for g in plan.grids])
    sset = ctgs.build_sample_set(plan, "periodic", period)
    truth = ctgs.synthesize_signal(spectrum, finite, 0, "periodic", period, plan=plan)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, spectrum, sset)
    errors = ctgs.recovery_error(truth, result.recovered, "periodic", period, 40)
    assert max(e["error"] for e in errors.values()) < 1e-8


def test_worked_plan_rates(worked_bundle):
    _, _, _, _, plan = worked_bundle
    assert plan.total_rate == 32
    rates = plan.per_vertex_rates
    assert rates == {2: Fraction(2), 3: Fraction(8), 4: Fraction(8),
                     0: Fraction(10), 1: Fraction(4)}


def test_make_plan_plans_pass_the_certificate(worked_spectrum, worked_bundle):
    """Every plan ``make_plan`` builds has full-rank stages at its least
    period, on the worked example and 150 random plans."""
    assert ctgs.sampling.rank_deficient_stages(worked_bundle[4]) == []
    for _, _, bundle in plannable_instances(11, 150):
        assert ctgs.sampling.rank_deficient_stages(bundle[4]) == []


def test_single_vertex_plan():
    graph = ctgs.GraphModel.create(1, [])
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    profile = ctgs.BandwidthProfile.create([Fraction(7, 2)], ["inf"])
    _, _, _, _, plan = ctgs.plan_problem(spectrum, profile)
    assert plan.total_rate == 7


def test_simple_profile_plan_rate(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 5], [0, "inf"])
    _, _, _, _, plan = ctgs.plan_problem(two_path_spectrum, profile)
    assert plan.total_rate == 6
    assert plan.per_vertex_rates == {0: Fraction(6)}


def test_stage_visibility_invariant(worked_bundle):
    _, _, _, _, plan = worked_bundle
    solved = set()
    for stage in plan.stages:
        for gid in stage.grid_ids:
            vertex = plan.grid(gid).vertex
            for other_stage in plan.stages:
                for unknown in other_stage.unknowns:
                    if unknown in solved or unknown in stage.unknowns:
                        continue
                    assert abs(plan.visibility(unknown, vertex)) < 1e-10
        solved.update(stage.unknowns)


# --- split transform --------------------------------------------------------

def test_stages_follow_the_grids(worked_bundle):
    """A plan's stages derive from its grids: keeping only the base grids
    leaves no stage naming a level grid the plan no longer holds."""
    plan = worked_bundle[-1]
    base = replace(plan, grids=tuple(g for g in plan.grids if g.grid_id.startswith("base")))
    held = {g.grid_id for g in base.grids}
    assert {gid for stage in base.stages for gid in stage.grid_ids} == held
    assert base.stages == compute_stages_loop(base)


def test_split_amount_zero_is_identity(worked_bundle):
    _, _, _, _, plan = worked_bundle
    assert ctgs.split_rate_transform(plan, donor=1, acceptor=4, amount=0) is plan


def test_split_moves_load_and_preserves_rate():
    spectrum, profile = _path3_setup()
    _, finite, filtration, seq, plan = ctgs.plan_problem(spectrum, profile)
    assert plan.per_vertex_rates == {0: Fraction(2), 1: Fraction(4)}
    moved = ctgs.split_rate_transform(plan, donor=2, acceptor=1, amount=1)
    assert moved.per_vertex_rates == {0: Fraction(2), 1: Fraction(2), 2: Fraction(2)}
    assert moved.total_rate == plan.total_rate

    sset = ctgs.build_sample_set(moved, "periodic", 1)
    truth = random_member(spectrum, finite, 1, 3)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), moved, spectrum, sset)
    errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 3)
    assert max(e["error"] for e in errors.values()) < 1e-9


def test_split_on_worked_plan_recovers(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    moved = ctgs.split_rate_transform(plan, donor=1, acceptor=4, amount=1)
    assert moved.total_rate == plan.total_rate
    assert moved.per_vertex_rates[4] == Fraction(6)
    assert moved.per_vertex_rates[1] == Fraction(6)
    sset = ctgs.build_sample_set(moved, "periodic", 1)
    truth = random_member(worked_spectrum, finite, 1, 8)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), moved, worked_spectrum, sset)
    errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 5)
    assert max(e["error"] for e in errors.values()) < 1e-9


def test_split_rejects_blind_donor(worked_bundle):
    # the level carried by vertex 0 extends with a zero coefficient at
    # vertex 1, so vertex 1 samples carry no information about it
    _, _, _, _, plan = worked_bundle
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.split_rate_transform(plan, donor=1, acceptor=0, amount=1)


def test_split_validates_inputs(worked_bundle):
    _, _, _, _, plan = worked_bundle
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.split_rate_transform(plan, donor=1, acceptor=2, amount=1)  # base vertex
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.split_rate_transform(plan, donor=4, acceptor=4, amount=1)
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.split_rate_transform(plan, donor=1, acceptor=4, amount=100)


def test_repeated_split_reads_the_level_grid_rate(worked_bundle):
    """A second split of one level is bounded by the level grid's current
    rate, not by its quotient bandwidth, and cannot duplicate a grid id."""
    _, _, _, _, plan = worked_bundle
    once = ctgs.split_rate_transform(plan, donor=1, acceptor=4, amount=1)
    assert once.grid("level:1").rate == 6
    with pytest.raises(ctgs.ProblemFormatError, match="already holds"):
        ctgs.split_rate_transform(once, donor=1, acceptor=4, amount=1)
    with pytest.raises(ctgs.ProblemFormatError, match="exceeds"):
        ctgs.split_rate_transform(once, donor=1, acceptor=4, amount=4)
    # draining level 1 onto vertex 1 leaves its merged stage rank deficient
    with pytest.raises(ctgs.ProblemFormatError, match="unrecoverable"):
        ctgs.split_rate_transform(plan, donor=1, acceptor=4, amount=4)
    # the first random plan with a recoverable full drain: instance 1,
    # level 1 (b = 5/2 at vertex 2) drained onto vertex 3
    _, _, bundle = list(plannable_instances(11, 2))[1]
    plan = bundle[4]
    drained = ctgs.split_rate_transform(plan, donor=3, acceptor=2, amount=Fraction(5, 2))
    assert all(g.grid_id != "level:1" for g in drained.grids)
    with pytest.raises(ctgs.ProblemFormatError, match="exceeds"):
        ctgs.split_rate_transform(drained, donor=0, acceptor=2, amount=1)


def test_split_refuses_exactly_the_unrecoverable_splits():
    """Every single half-split of the levels of 150 random plans (seed 11,
    n <= 7) is refused exactly when its plan fails the sample/recover round
    trip at its least period; 77 of the 463 do."""
    splits, refused = 0, 0
    for spectrum, _, bundle in plannable_instances(11, 150):
        plan = bundle[4]
        for step in plan.levels:
            half = step.b_star / 2
            for donor in range(plan.n):
                if donor == step.carrier or abs(plan.visibility(("level", step.level),
                                                                donor)) <= 1e-10:
                    continue
                splits += 1
                recoverable = plan_roundtrip_ok(
                    unchecked_split(plan, donor, step.carrier, half), spectrum)
                try:
                    moved = ctgs.split_rate_transform(plan, donor, step.carrier, half)
                except ctgs.ProblemFormatError as exc:
                    assert not recoverable and "unrecoverable" in str(exc)
                    refused += 1
                    continue
                assert recoverable and plan_roundtrip_ok(moved, spectrum)
    assert (refused, splits) == (77, 463)


def test_plans_match_placement_and_stage_oracles():
    """Split grids go through the spread placement, and stages merge in one
    forward pass; on random plans both agree with the per-vertex
    de-collision loop and the restart-until-fixed-point merge. Covers
    single splits, double splits (the second one donating all that is left
    of a level grid, the split one included) and redistributed plans; many
    of them merge stages, so the stage comparison is not vacuous."""
    compared = merged = repeated = 0

    def check(plan):
        nonlocal compared, merged
        assert plan.stages == compute_stages_loop(plan)
        compared += 1
        merged += len(plan.stages) < len(plan.unknowns)

    for spectrum, _, bundle in plannable_instances(11, 80, n_max=7):
        plan = bundle[-1]
        check(plan)
        try:
            check(ctgs.redistribute_plan(plan, spread_set(spectrum, plan)))
        except ctgs.ProblemFormatError:
            pass
        for step in plan.levels:
            for donor in range(plan.n):
                half = step.b_star / 2
                try:
                    once = ctgs.split_rate_transform(plan, donor, step.carrier, half)
                except ctgs.ProblemFormatError:
                    continue
                assert once.grids == split_grids_loop(plan, donor, step.carrier, half)
                check(once)
                for other in plan.levels:
                    rest = sum(g.rate for g in once.grids
                               if g.grid_id == f"level:{other.level}") / 2
                    if not rest:
                        continue
                    for donor2 in range(plan.n):
                        try:
                            twice = ctgs.split_rate_transform(once, donor2, other.carrier, rest)
                        except ctgs.ProblemFormatError:
                            continue
                        assert twice.grids == split_grids_loop(once, donor2, other.carrier, rest)
                        check(twice)
                        repeated += other is step
    assert repeated > 0
    assert merged > compared // 2, (merged, compared)
