from fractions import Fraction

import numpy as np
import pytest

import ctgs
from ctgs.sampling import RealizedGrid

from helpers import plannable_instances


def _base_only(sample_set):
    return ctgs.SampleSet(n=sample_set.n, mode=sample_set.mode, period=sample_set.period,
                          window=sample_set.window,
                          grids=tuple(g for g in sample_set.grids
                                      if g.grid_id.startswith("base")))


@pytest.fixture()
def worked_sets(worked_bundle):
    _, _, _, _, plan = worked_bundle
    full = ctgs.build_sample_set(plan, "periodic", 1)
    return plan, full, _base_only(full)


def test_worked_grid_sizes(worked_sets):
    _, full, base = worked_sets
    assert full.n_points() == 32
    counts = {}
    for g in full.grids:
        counts[g.vertex] = counts.get(g.vertex, 0) + len(g.times)
    assert counts == {2: 2, 3: 8, 4: 8, 0: 10, 1: 4}
    assert base.n_points() == 10


def test_sample_rate_values(worked_sets):
    _, full, base = worked_sets
    assert ctgs.sample_rate(full) == 32
    assert ctgs.sample_rate(base) == 10


def test_sample_rate_additive_over_disjoint_vertices(worked_sets):
    _, full, base = worked_sets
    rest = ctgs.SampleSet(n=full.n, mode=full.mode, period=full.period, window=full.window,
                          grids=tuple(g for g in full.grids if not g.grid_id.startswith("base")))
    assert ctgs.sample_rate(base) + ctgs.sample_rate(rest) == ctgs.sample_rate(full)


def test_empty_set_rate_and_eccentricity():
    empty = ctgs.SampleSet(n=3, mode="periodic", period=Fraction(1), window=None, grids=())
    assert ctgs.sample_rate(empty) == 0
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.eccentricity(empty)


def test_eccentricity_values(worked_sets):
    _, _, base = worked_sets
    assert ctgs.eccentricity(base) == 4


def test_eccentricity_balanced():
    grids = tuple(RealizedGrid(f"g{v}", v, Fraction(2), Fraction(0),
                               (Fraction(0), Fraction(1, 2))) for v in range(5))
    balanced = ctgs.SampleSet(n=5, mode="periodic", period=Fraction(1), window=None, grids=grids)
    assert ctgs.eccentricity(balanced) == 1


def test_periodic_integrality_check(worked_bundle):
    _, _, _, _, plan = worked_bundle
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.build_sample_set(plan, "periodic", Fraction(1, 3))


def test_redistribute_worked(worked_spectrum, worked_bundle, worked_sets):
    _, finite, _, _, plan = worked_bundle
    _, _, base = worked_sets
    spread = ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                               plan.base_vertices, (1, 2, 3), base)
    assert spread.per_vertex_rates() == {2: Fraction(2), 1: Fraction(4), 3: Fraction(4)}
    assert ctgs.sample_rate(spread) == 10
    assert ctgs.eccentricity(spread) == 2
    bound = ctgs.prop_bound_eccentricity(5, [1, 4], 3, 10)
    assert ctgs.eccentricity(spread) <= bound


def test_redistribute_identity_on_base_set(worked_spectrum, worked_bundle, worked_sets):
    _, finite, _, _, plan = worked_bundle
    _, _, base = worked_sets
    same = ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                             plan.base_vertices, plan.base_vertices, base)
    assert same.per_vertex_rates() == base.per_vertex_rates()


def test_redistribute_rejects_bad_spread_set(worked_spectrum, worked_bundle, worked_sets):
    _, finite, _, _, plan = worked_bundle
    _, _, base = worked_sets
    # (2, 4) is not a uniqueness set, so a spread set containing both fails
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                          plan.base_vertices, (2, 3, 4), base)


def test_prop_bound_floor_value():
    bound = ctgs.prop_bound_eccentricity(5, [1, 4], 3, 10)
    assert bound == Fraction(5, 2)


def test_redistribute_random_instances_respect_bound():
    """Spreading preserves the rate, stays within the eccentricity bound, and
    the spread base problem still recovers exactly."""
    from itertools import combinations

    checked = 0
    for spectrum, profile, bundle in plannable_instances(master_seed=505, count=30):
        _, finite, filtration, _, plan = bundle
        v0 = plan.base_vertices
        if not v0 or all(finite.vertex_bw[v] == 0 for v in v0):
            continue
        extras = [v for v in range(spectrum.n) if v not in v0]
        v_star = tuple(sorted(v0 + tuple(extras[:2])))
        if len(v_star) == len(v0):
            continue
        if not all(ctgs.is_uniqueness_set(spectrum, plan.base_lambda0, sub)
                   for sub in combinations(v_star, len(v0))):
            continue
        spread_grids, _ = ctgs.planner.choose_spread(
            spectrum, plan.base_lambda0, finite.vertex_bw, v0, v_star)
        period = ctgs.numerics.least_period(
            [g.rate for g in plan.grids] + [g.rate for g in spread_grids])
        full = ctgs.build_sample_set(plan, "periodic", period)
        base = _base_only(full)
        spread = ctgs.redistribute(spectrum, plan.base_lambda0, finite.vertex_bw,
                                   v0, v_star, base)
        assert ctgs.sample_rate(spread) == ctgs.sample_rate(base)
        sorted_bw = sorted(Fraction(finite.vertex_bw[v]) for v in v0)
        bound = ctgs.prop_bound_eccentricity(spectrum.n, sorted_bw, len(v_star),
                                             ctgs.sample_rate(base))
        assert ctgs.eccentricity(spread) <= bound

        # spreading the base problem (its simple-bandwidth space) recovers
        simple = ctgs.BandwidthProfile(finite.vertex_bw, filtration.levels[0].freq_bw)
        _, _, _, _, base_plan = ctgs.plan_problem(spectrum, simple)
        spread_plan = ctgs.redistribute_plan(base_plan, spectrum, v_star)
        sp_period = ctgs.numerics.least_period([g.rate for g in spread_plan.grids])
        sset = ctgs.build_sample_set(spread_plan, "periodic", sp_period)
        truth = ctgs.random_member(spectrum, simple, sp_period, checked)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), spread_plan, spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", sp_period, spectrum.n)
        assert max(e["error"] for e in errors.values()) < 1e-9
        checked += 1
    assert checked >= 5


def test_redistributed_plan_recovery(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    spread = ctgs.redistribute_plan(plan, worked_spectrum, (1, 2, 3))
    assert spread.total_rate == plan.total_rate
    sset = ctgs.build_sample_set(spread, "periodic", 1)
    for seed in range(3):
        truth = ctgs.random_member(worked_spectrum, finite, 1, seed)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), spread, worked_spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 5)
        assert max(e["error"] for e in errors.values()) < 1e-9


def test_sample_signal_values(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    zero = ctgs.PeriodicSignal(period=Fraction(1), coeffs=np.zeros((5, 1)))
    obs = ctgs.sample_signal(zero, sset)
    assert len(obs.entries) == 32
    assert all(v == 0.0 for _, _, _, v in obs.entries)


def test_constant_signal_two_samples(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([1, 1], [0, "inf"])
    _, finite, _, _, plan = ctgs.plan_problem(two_path_spectrum, profile)
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    coeffs = np.array([[2.5], [-2.5]])
    signal = ctgs.PeriodicSignal(period=Fraction(1), coeffs=coeffs)
    obs = ctgs.sample_signal(signal, sset)
    values = [v for _, _, _, v in obs.entries]
    assert len(values) == 2
    assert values[0] == values[1] == 2.5


def test_recover_zero_observations(worked_spectrum, worked_bundle):
    _, _, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    zero = ctgs.PeriodicSignal(period=Fraction(1), coeffs=np.zeros((5, 1)))
    result = ctgs.recover(ctgs.sample_signal(zero, sset), plan, worked_spectrum, sset)
    assert np.max(np.abs(result.recovered.coeffs)) < 1e-12


def test_recover_two_path_level0(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 3], [0, "inf"])
    _, finite, _, _, plan = ctgs.plan_problem(two_path_spectrum, profile)
    assert plan.per_vertex_rates == {0: Fraction(6)}
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    truth = ctgs.random_member(two_path_spectrum, finite, 1, 4)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, two_path_spectrum, sset)
    times = np.linspace(0, 1, 13)
    assert np.allclose(result.recovered.eval(1, times), -result.recovered.eval(0, times))
    errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 2)
    assert max(e["error"] for e in errors.values()) < 1e-9


def test_recover_components_sum(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    truth = ctgs.random_member(worked_spectrum, finite, 1, 5)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, worked_spectrum, sset)
    times = np.linspace(0, 1, 11)
    for v in range(5):
        total = sum(c.eval(v, times) for c in result.components)
        assert np.allclose(total, result.recovered.eval(v, times), atol=1e-10)


def test_recover_detects_missing_observations(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    truth = ctgs.random_member(worked_spectrum, finite, 1, 6)
    obs = ctgs.sample_signal(truth, sset)
    clipped = ctgs.Observation(entries=obs.entries[:-1])
    with pytest.raises(ctgs.ReconstructionError):
        ctgs.recover(clipped, plan, worked_spectrum, sset)


def test_recover_detects_inconsistent_observations(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    # a vertex-bandwidth violation: content at vertex 2 beyond its bound
    coeffs = np.zeros((5, 7))
    coeffs[2, 5] = 1.0
    alien = ctgs.PeriodicSignal(period=Fraction(1), coeffs=coeffs)
    with pytest.raises(ctgs.ReconstructionError):
        ctgs.recover(ctgs.sample_signal(alien, sset), plan, worked_spectrum, sset)


def test_recovery_error_self_and_zero(worked_spectrum, worked_bundle):
    _, finite, _, _, _ = worked_bundle
    truth = ctgs.random_member(worked_spectrum, finite, 1, 7)
    zero = ctgs.PeriodicSignal(period=Fraction(1), coeffs=np.zeros((5, 1)))
    self_err = ctgs.recovery_error(truth, truth, "periodic", 1, 5)
    assert all(e["error"] == 0 for e in self_err.values())
    vs_zero = ctgs.recovery_error(truth, zero, "periodic", 1, 5)
    assert all(e["error"] == pytest.approx(1.0) and e["relative"] for e in vs_zero.values())
    flagged = ctgs.recovery_error(zero, truth, "periodic", 1, 5)
    assert all(not e["relative"] for e in flagged.values())


def test_sinc_error_quadrature_matches_dense_reference(worked_spectrum, worked_bundle):
    """recovery_error's sinc quadrature, on a grid 32 times as dense as the
    highest block rate, agrees with a 10x denser trapezoid rule."""
    _, finite, _, _, plan = worked_bundle
    window = (Fraction(-20), Fraction(20))
    truth = ctgs.synthesize_signal(worked_spectrum, finite, 3, "sinc", window, plan=plan)
    noise = 1e-3 * np.random.default_rng(0).standard_normal(truth.coeffs.shape)
    perturbed = ctgs.GraphSignal("sinc", truth.domain, truth.coeffs + noise, truth.bands)
    errors = ctgs.recovery_error(truth, perturbed, "sinc", window, 5)
    # inner half window, ten times the density recovery_error uses
    rate = 2 * float(max(truth.bands))
    times = np.linspace(-10.0, 10.0, 10 * int(20.0 * rate * 32))
    ref_sq, err_sq = [], []
    for chunk in np.array_split(times, 20):
        design = truth.design(chunk)   # both signals share the basis blocks
        ref_sq.append((design @ truth.coeffs.T) ** 2)
        err_sq.append((design @ noise.T) ** 2)
    refs = np.sqrt(np.trapezoid(np.vstack(ref_sq), times, axis=0))
    errs = np.sqrt(np.trapezoid(np.vstack(err_sq), times, axis=0))
    for v in range(5):
        assert errors[v]["relative"]
        assert errors[v]["error"] == pytest.approx(errs[v] / refs[v], rel=1e-6)


def test_roundtrip_small_random():
    for spectrum, profile, bundle in plannable_instances(master_seed=404, count=10):
        _, finite, filtration, seq, plan = bundle
        period = ctgs.numerics.least_period([g.rate for g in plan.grids])
        sset = ctgs.build_sample_set(plan, "periodic", period)
        truth = ctgs.synthesize_signal(spectrum, finite, 9, "periodic", period, plan=plan)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", period, spectrum.n)
        assert max(e["error"] for e in errors.values()) < 1e-9


def test_oracle_members_recoverable(worked_spectrum, worked_bundle):
    """Recovery works on the whole space, not just synthesized signals."""
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    for seed in range(5):
        truth = ctgs.random_member(worked_spectrum, finite, 1, seed + 50)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, worked_spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 5)
        assert max(e["error"] for e in errors.values()) < 1e-9


# --- sampling-operator analysis ---------------------------------------------

def test_single_deletions_keep_uniqueness(worked_bundle):
    """Every grid has exactly one sample per period of slack, so removing any
    single point leaves the observation map injective."""
    _, _, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    matrix, blocks, _ = ctgs.sampling_operator(plan, sset)
    dim = sum(cols for _, _, cols in blocks)
    assert np.linalg.matrix_rank(matrix) == dim
    for row in range(matrix.shape[0]):
        kept = np.delete(matrix, row, axis=0)
        assert np.linalg.matrix_rank(kept) == dim


def test_six_deletions_break_uniqueness(worked_spectrum, worked_bundle):
    """Slack is five points per period in total (one per grid): removing six
    always yields a distinct consistent signal, and the null direction is a
    genuine member of the space."""
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    matrix, blocks, _ = ctgs.sampling_operator(plan, sset)
    dim = sum(cols for _, _, cols in blocks)
    rng = np.random.default_rng(2)
    for _ in range(5):
        omit = rng.choice(matrix.shape[0], size=6, replace=False)
        kept = np.delete(matrix, omit, axis=0)
        assert np.linalg.matrix_rank(kept) < dim
        _, _, vt = np.linalg.svd(kept, full_matrices=True)
        null_vec = vt[-1]
        assert np.max(np.abs(kept @ null_vec)) < 1e-8
        witness = ctgs.sampling.unknowns_to_signal(plan, blocks, null_vec, 1)
        assert ctgs.verify_membership(worked_spectrum, finite, witness)
        assert np.max(np.abs(witness.coeffs)) > 1e-6
