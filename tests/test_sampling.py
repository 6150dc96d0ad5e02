import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import ctgs
import ctgs.reports
from ctgs.sampling import RealizedGrid

from helpers import (PeriodicSignal, plan_roundtrip_ok, plannable_instances, random_member,
                     recover_dense, redistribute_placement_only,
                     sinc_recovery_error_two_designs, spread_set, trig_values_exact,
                     unchecked_split, unknowns_to_signal, verify_membership)


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
    grids = tuple(RealizedGrid(f"g{v}", v, Fraction(2), Fraction(0), range(2))
                  for v in range(5))
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


def test_redistribute_refuses_spread_sets_without_full_spark(worked_spectrum, worked_bundle,
                                                            worked_sets, monkeypatch):
    """V* = (2, 3, 4), (1, 2, 3, 4) and (0, 1, 2, 3, 4) each hold a
    |V0|-subset that is not a uniqueness set and are refused. The
    recoverability certificate alone would accept all three, at
    eccentricities 4, 2 and 2 against bounds 5/2, 3/2 and 5/4: the bound
    needs the full-spark premise the subset enumeration checks."""
    _, finite, _, _, plan = worked_bundle
    _, _, base = worked_sets
    spread_sets = ((2, 3, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4))
    for v_star in spread_sets:
        with pytest.raises(ctgs.ProblemFormatError, match="spread set invalid"):
            ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                              plan.base_vertices, v_star, base)
    monkeypatch.setattr(ctgs.planner, "validate_spread_set",
                        lambda spectrum, lambda0, v0, v_star: (tuple(v0), tuple(v_star)))
    sorted_bw = sorted(Fraction(finite.vertex_bw[v]) for v in plan.base_vertices)
    # the rate-2 base grid shared by three carriers needs a period of 3
    base = _base_only(ctgs.build_sample_set(plan, "periodic", 3))
    for v_star, ecc in zip(spread_sets, (4, 2, 2)):
        spread = ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                                   plan.base_vertices, v_star, base)
        bound = ctgs.prop_bound_eccentricity(5, sorted_bw, len(v_star), 10)
        assert ctgs.eccentricity(spread) == ecc > bound


def test_redistribute_rejects_bad_base_input(worked_spectrum, worked_bundle, worked_sets):
    """The base set must be a uniqueness set, and the base sample set needs
    one grid per positive-bandwidth base vertex: a missing grid and a
    doubled one are both input errors."""
    _, finite, _, _, plan = worked_bundle
    _, _, base = worked_sets
    with pytest.raises(ctgs.ProblemFormatError, match="not a uniqueness set"):
        ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                          (2,), (1, 2, 3), base)
    grid = next(g for g in base.grids if g.grid_id == "base:2")
    for grids in ((grid,), (grid, grid)):
        bad = ctgs.SampleSet(n=base.n, mode=base.mode, period=base.period, window=None,
                             grids=grids)
        with pytest.raises(ctgs.ProblemFormatError, match="one grid per positive-bandwidth"):
            ctgs.redistribute(worked_spectrum, plan.base_lambda0, finite.vertex_bw,
                              plan.base_vertices, (1, 2, 3), bad)


def test_redistribute_matches_placement_only_oracle():
    """On the base sets of the oracle-sweep plans and their maximal spread
    sets, the library spread (the base plan through ``redistribute_plan``)
    realizes the same grids as the placement-only oracle."""
    checked = 0
    for spectrum, _, bundle in plannable_instances(11, 150):
        plan = bundle[4]
        if not plan.base_vertices:
            continue
        v_star = spread_set(spectrum, plan)
        ranked = ctgs.planner.choose_spread(plan.base, plan.vertex_bw, v_star)
        period = ctgs.numerics.least_period(
            [g.rate for g in plan.grids] + [g.rate for opt in ranked for g in opt[0]])
        base = _base_only(ctgs.build_sample_set(plan, "periodic", period))
        args = (spectrum, plan.base_lambda0, plan.vertex_bw, plan.base_vertices, v_star, base)
        got, want = ctgs.redistribute(*args), redistribute_placement_only(*args)
        assert [(g.vertex, g.rate, g.phase, g.times) for g in got.grids] \
            == [(g.vertex, g.rate, g.phase, g.times) for g in want.grids]
        checked += 1
    assert checked > 100


def _first_recoverable_spread(plan, spectrum, v_star):
    """Oracle for ``redistribute_plan``: both constructions, ranked by top
    per-vertex rate (spread A on a tie), the first that round-trips."""
    planner = ctgs.planner
    args = (plan.base, plan.vertex_bw)
    _, valid = planner.validate_spread_set(spectrum, plan.base_lambda0, plan.base_vertices, v_star)
    options = sorted([planner._prefix_spread_grids(*args, valid),
                      planner._level_spread_grids(*args, valid)],
                     key=lambda opt: max(planner.rates_by_vertex(opt[0]).values()))
    for option in options:
        candidate = planner._spread_plan(plan, option, v_star)
        if plan_roundtrip_ok(candidate, spectrum):
            return candidate
    return None


def test_redistribute_plan_falls_back_to_runner_up(monkeypatch):
    """Where the best spread fails its round trip, the runner-up is the one
    returned, and the spread set is validated once per plan."""
    planner = ctgs.planner
    validations = []
    original = planner.validate_spread_set

    def counted(*args):
        validations.append(args)
        return original(*args)

    fallbacks = set()
    for spectrum, _, bundle in plannable_instances(master_seed=1, count=15):
        plan = bundle[4]
        if not plan.base_vertices:   # no base load to spread
            continue
        v_star = list(plan.base_vertices)
        for v in range(spectrum.n):
            if v in v_star:
                continue
            try:
                original(spectrum, plan.base_lambda0, plan.base_vertices, v_star + [v])
            except ctgs.ProblemFormatError:
                continue
            v_star.append(v)
        want = _first_recoverable_spread(plan, spectrum, v_star)
        best = planner.choose_spread(plan.base, plan.vertex_bw, v_star)[0]
        best_plan = planner._spread_plan(plan, best, v_star)
        if want is not None and want.grids != best_plan.grids:
            fallbacks.add("B" if any(":inc:" in g.grid_id for g in want.grids) else "A")
        validations.clear()
        monkeypatch.setattr(planner, "validate_spread_set", counted)
        if want is None:
            unknowns, rank, columns = ctgs.sampling.rank_deficient_stages(best_plan)[0]
            refusal = (f"the stage of {list(unknowns)} unrecoverable: "
                       f"rank {rank} of {columns} columns")
            with pytest.raises(ctgs.ProblemFormatError, match=re.escape(refusal)):
                ctgs.redistribute_plan(plan, v_star)
        else:
            assert ctgs.redistribute_plan(plan, v_star).grids == want.grids
        monkeypatch.setattr(planner, "validate_spread_set", original)
        assert len(validations) == 1
    # runner-ups of both kinds were returned
    assert fallbacks == {"A", "B"}


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
        ranked = ctgs.planner.choose_spread(plan.base, finite.vertex_bw, v_star)
        period = ctgs.numerics.least_period(
            [g.rate for g in plan.grids] + [g.rate for opt in ranked for g in opt[0]])
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
        spread_plan = ctgs.redistribute_plan(base_plan, v_star)
        sp_period = ctgs.numerics.least_period([g.rate for g in spread_plan.grids])
        sset = ctgs.build_sample_set(spread_plan, "periodic", sp_period)
        truth = random_member(spectrum, simple, sp_period, checked)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), spread_plan, spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", sp_period, spectrum.n)
        assert max(e["error"] for e in errors.values()) < 1e-9
        checked += 1
    assert checked >= 5


def test_spread_b_meets_the_eccentricity_bound():
    """Whenever ``redistribute_plan`` returns spread B (grids ``base:inc:``)
    over a maximal spread set of a random plan, its base grids' eccentricity
    is at most ``prop_bound_eccentricity``."""
    checked = 0
    for spectrum, _, bundle in plannable_instances(11, 150):
        plan = bundle[4]
        if not plan.base_vertices:
            continue
        v_star = spread_set(spectrum, plan)
        try:
            spread = ctgs.redistribute_plan(plan, v_star)
        except ctgs.ProblemFormatError:
            continue
        base = [g for g in spread.grids if g.grid_id.startswith("base")]
        if not any(g.grid_id.startswith("base:inc:") for g in base):
            continue
        total = sum((g.rate for g in base), Fraction(0))
        eccentricity = plan.n * max(ctgs.planner.rates_by_vertex(base).values()) / total
        sorted_bw = sorted(Fraction(plan.vertex_bw[v]) for v in plan.base_vertices)
        assert eccentricity <= ctgs.prop_bound_eccentricity(plan.n, sorted_bw, len(v_star), total)
        checked += 1
    assert checked >= 10


def test_redistributed_plan_recovery(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    spread = ctgs.redistribute_plan(plan, (1, 2, 3))
    assert spread.total_rate == plan.total_rate
    sset = ctgs.build_sample_set(spread, "periodic", 1)
    for seed in range(3):
        truth = random_member(worked_spectrum, finite, 1, seed)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), spread, worked_spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 5)
        assert max(e["error"] for e in errors.values()) < 1e-9


def test_sample_signal_values(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    zero = PeriodicSignal(period=Fraction(1), coeffs=np.zeros((5, 1)))
    obs = ctgs.sample_signal(zero, sset)
    assert len(obs.entries) == 32
    assert all(v == 0.0 for _, _, _, v in obs.entries)


def test_constant_signal_two_samples(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([1, 1], [0, "inf"])
    _, finite, _, _, plan = ctgs.plan_problem(two_path_spectrum, profile)
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    coeffs = np.array([[2.5], [-2.5]])
    signal = PeriodicSignal(period=Fraction(1), coeffs=coeffs)
    obs = ctgs.sample_signal(signal, sset)
    values = [v for _, _, _, v in obs.entries]
    assert len(values) == 2
    assert values[0] == values[1] == 2.5


def test_recover_zero_observations(worked_spectrum, worked_bundle):
    _, _, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    zero = PeriodicSignal(period=Fraction(1), coeffs=np.zeros((5, 1)))
    result = ctgs.recover(ctgs.sample_signal(zero, sset), plan, worked_spectrum, sset)
    assert np.max(np.abs(result.recovered.coeffs)) < 1e-12


def test_recover_two_path_level0(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 3], [0, "inf"])
    _, finite, _, _, plan = ctgs.plan_problem(two_path_spectrum, profile)
    assert plan.per_vertex_rates == {0: Fraction(6)}
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    truth = random_member(two_path_spectrum, finite, 1, 4)
    result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, two_path_spectrum, sset)
    times = np.linspace(0, 1, 13)
    assert np.allclose(result.recovered.eval(1, times), -result.recovered.eval(0, times))
    errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 2)
    assert max(e["error"] for e in errors.values()) < 1e-9


def test_recover_detects_missing_observations(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    truth = random_member(worked_spectrum, finite, 1, 6)
    obs = ctgs.sample_signal(truth, sset)
    clipped = ctgs.Observation(grids=obs.grids,
                               values=obs.values[:-1] + (obs.values[-1][:-1],))
    with pytest.raises(ctgs.ReconstructionError):
        ctgs.recover(clipped, plan, worked_spectrum, sset)


def test_recover_refuses_another_lattice(worked_spectrum, worked_bundle):
    """Values sampled on other lattices, of the same lengths, are refused:
    a grid of another phase or another first index."""
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    obs = ctgs.sample_signal(random_member(worked_spectrum, finite, 1, 6), sset)
    last = obs.grids[-1]
    moved = last.indices.start + 1, last.indices.stop + 1
    for other in (replace(last, phase=last.phase + Fraction(1, 7)),
                  replace(last, indices=range(*moved))):
        shifted = ctgs.Observation(grids=obs.grids[:-1] + (other,), values=obs.values)
        with pytest.raises(ctgs.ReconstructionError, match="does not cover grid"):
            ctgs.recover(shifted, plan, worked_spectrum, sset)


def _sampled_variants(spectrum, plan):
    """``plan``, a half split of its first splittable level (phases off the
    kept grid's lattice) and its spread over ``spread_set``, when they exist."""
    variants = [plan]
    for step in plan.levels:
        donors = [d for d in range(plan.n) if d != step.carrier
                  and abs(plan.visibility(("level", step.level), d)) > 1e-10]
        if donors:
            variants.append(unchecked_split(plan, donors[0], step.carrier, step.b_star / 2))
            break
    if plan.base_vertices:
        try:
            variants.append(ctgs.redistribute_plan(plan, spread_set(spectrum, plan)))
        except ctgs.ProblemFormatError:
            pass
    return variants


def test_fft_sampling_matches_eval():
    """Periodic sampling takes each grid from one inverse FFT. On 200 random
    plans, their split and spread variants, at 1, 4 and 32 times the least
    period, it matches ``GraphSignal.eval`` at the grid's times to 1e-12 of
    the vertex's coefficient l1 norm (the largest value its row can take),
    for the synthesized signal and for a dense random series of 12
    harmonics, which some grids sample with fewer points than harmonics."""
    rng = np.random.default_rng(28)
    seen = {"split": 0, "spread": 0, "folded": 0}
    for spectrum, _, bundle in plannable_instances(28, 200):
        finite, plan = bundle[1], bundle[4]
        for variant in _sampled_variants(spectrum, plan):
            seen["split"] += any(g.phase for g in variant.grids)
            seen["spread"] += any(":carrier:" in g.grid_id or ":inc:" in g.grid_id
                                  for g in variant.grids)
            period = ctgs.numerics.least_period([g.rate for g in variant.grids])
            signals = (ctgs.synthesize_signal(spectrum, finite, 5, "periodic", period, plan=plan),
                       PeriodicSignal(period, rng.standard_normal((plan.n, 25))))
            for multiple in (1, 4, 32):
                sset = ctgs.build_sample_set(variant, "periodic", multiple * period)
                for signal in signals:
                    obs = ctgs.sample_signal(signal, sset)
                    assert obs.grids == sset.grids
                    for g, values in zip(obs.grids, obs.values):
                        want = signal.eval(g.vertex, g.float_times)
                        scale = float(np.abs(signal.coeffs[g.vertex]).sum())
                        assert np.abs(values - want).max(initial=0.0) <= 1e-12 * scale
                        seen["folded"] += 0 < len(g.indices) < signal.cutoff + 1
    assert min(seen.values()) > 50, seen


def test_fft_sampling_rounds_better_than_eval():
    """At 32 times the least period ``eval``'s angles k * t / T grow large;
    the FFT reduces each harmonic's turn mod one exactly. Against values
    with exactly reduced angles the FFT stays within 1e-14 of the largest
    value, and within ``eval``'s own error."""
    rng = np.random.default_rng(29)
    fft_error = eval_error = 0.0
    for spectrum, _, bundle in plannable_instances(29, 20):
        plan = bundle[4]
        for variant in _sampled_variants(spectrum, plan):
            period = ctgs.numerics.least_period([g.rate for g in variant.grids])
            signal = PeriodicSignal(period, rng.standard_normal((plan.n, 25)))
            sset = ctgs.build_sample_set(variant, "periodic", 32 * period)
            obs = ctgs.sample_signal(signal, sset)
            exact = [trig_values_exact(signal, g.vertex, g.times) for g in obs.grids]
            top = max((float(np.abs(v).max(initial=0.0)) for v in exact), default=1.0)
            for g, values, want in zip(obs.grids, obs.values, exact):
                fft_error = max(fft_error, np.abs(values - want).max(initial=0.0) / top)
                eval_error = max(eval_error, np.abs(signal.eval(g.vertex, g.float_times)
                                                    - want).max(initial=0.0) / top)
    assert fft_error <= 1e-14
    assert fft_error <= eval_error


def test_sample_signal_refuses_a_period_mismatch(worked_bundle):
    """A periodic set samples a signal whose period divides its own."""
    _, _, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 2)
    signal = PeriodicSignal(period=Fraction(4, 3), coeffs=np.ones((5, 3)))
    with pytest.raises(ValueError, match="period 2 is not a whole multiple of the "
                                         "signal's period 4/3"):
        ctgs.sample_signal(signal, sset)
    half = PeriodicSignal(period=Fraction(1, 2), coeffs=np.ones((5, 3)))
    assert len(ctgs.sample_signal(half, sset).entries) == sset.n_points()


def test_recover_detects_inconsistent_observations(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    # a vertex-bandwidth violation: content at vertex 2 beyond its bound
    coeffs = np.zeros((5, 7))
    coeffs[2, 5] = 1.0
    alien = PeriodicSignal(period=Fraction(1), coeffs=coeffs)
    with pytest.raises(ctgs.ReconstructionError):
        ctgs.recover(ctgs.sample_signal(alien, sset), plan, worked_spectrum, sset)


def test_recovery_error_self_and_zero(worked_spectrum, worked_bundle):
    _, finite, _, _, _ = worked_bundle
    truth = random_member(worked_spectrum, finite, 1, 7)
    zero = PeriodicSignal(period=Fraction(1), coeffs=np.zeros((5, 1)))
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


def test_sinc_error_blocks_match_one_block(worked_spectrum, worked_bundle, monkeypatch):
    """Blocked sinc quadrature adds up to the one-block trapezoid rule."""
    _, finite, _, _, plan = worked_bundle
    window = (Fraction(-20), Fraction(20))
    truth = ctgs.synthesize_signal(worked_spectrum, finite, 3, "sinc", window, plan=plan)
    noise = 1e-3 * np.random.default_rng(1).standard_normal(truth.coeffs.shape)
    perturbed = ctgs.GraphSignal("sinc", truth.domain, truth.coeffs + noise, truth.bands)
    blocked = ctgs.recovery_error(truth, perturbed, "sinc", window, 5)
    monkeypatch.setattr(ctgs.sampling, "QUADRATURE_BLOCK", 10**9)
    whole = ctgs.recovery_error(truth, perturbed, "sinc", window, 5)
    for v in range(5):
        assert blocked[v]["error"] == pytest.approx(whole[v]["error"], rel=1e-12)


def test_sinc_recovery_error_matches_two_design_oracle():
    """One design per quadrature block for both signals gives the
    two-evaluation quadrature bit for bit, also for signals whose windows or
    bands differ."""
    rng = np.random.default_rng(14)
    kinds = set()
    for trial, (spectrum, _, bundle) in enumerate(plannable_instances(master_seed=414, count=12)):
        _, finite, _, _, plan = bundle
        half = int(rng.integers(2, 6))
        window = (Fraction(-half), Fraction(half))
        sset = ctgs.build_sample_set(plan, "sinc", window)
        truth = ctgs.synthesize_signal(spectrum, finite, trial, "sinc", window, plan=plan)
        recovered = ctgs.recover(ctgs.sample_signal(truth, sset), plan, spectrum, sset).recovered
        wider = ctgs.synthesize_signal(spectrum, finite, trial + 1, "sinc",
                                       (window[0] - 1, window[1]), plan=plan)
        pairs = [(truth, recovered, "shared"), (truth, wider, "windows"),
                 (wider, recovered, "windows")]
        if len(truth.bands) > 1:
            width = ctgs.signals.scalar_basis("sinc", window, truth.bands[0])[0]
            first = ctgs.GraphSignal("sinc", window, truth.coeffs[:, :width], truth.bands[:1])
            pairs += [(truth, first, "bands"), (first, recovered, "bands")]
        for a, b, kind in pairs:
            got = ctgs.recovery_error(a, b, "sinc", window, spectrum.n)
            assert got == sinc_recovery_error_two_designs(a, b, window, spectrum.n), (trial, kind)
            kinds.add(kind)
    assert kinds == {"shared", "windows", "bands"}


def test_sinc_recovery_error_evaluates_one_design_per_block(worked_spectrum, worked_bundle,
                                                            monkeypatch):
    """The quadrature and the plot data evaluate one design per block for a
    truth and its recovery, and one per signal otherwise."""
    _, finite, _, _, plan = worked_bundle
    window = (Fraction(-20), Fraction(20))
    sset = ctgs.build_sample_set(plan, "sinc", window)
    truth = ctgs.synthesize_signal(worked_spectrum, finite, 3, "sinc", window, plan=plan)
    recovered = ctgs.recover(ctgs.sample_signal(truth, sset), plan, worked_spectrum,
                             sset).recovered
    other = ctgs.synthesize_signal(worked_spectrum, finite, 4, "sinc", (-21, 20), plan=plan)
    designs = []
    original = ctgs.GraphSignal.design

    def counted(signal, times):
        designs.append(signal)
        return original(signal, times)

    monkeypatch.setattr(ctgs.GraphSignal, "design", counted)
    ctgs.recovery_error(truth, recovered, "sinc", window, 5)
    blocks = len(designs)
    assert blocks > 1 and all(s is truth for s in designs)
    designs.clear()
    ctgs.recovery_error(truth, other, "sinc", window, 5)
    assert designs == [truth, other] * blocks
    designs.clear()
    ctgs.reports.plotdata_csv(truth, recovered, 5, -20.0, 20.0)
    assert designs == [truth]


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
        truth = random_member(worked_spectrum, finite, 1, seed + 50)
        result = ctgs.recover(ctgs.sample_signal(truth, sset), plan, worked_spectrum, sset)
        errors = ctgs.recovery_error(truth, result.recovered, "periodic", 1, 5)
        assert max(e["error"] for e in errors.values()) < 1e-9


def _oracle_sweep():
    """150 random plans (seed 11, n <= 7) at 1, 2, 3, 4, 8 and 32 times their
    least period, and every single half-split of their levels, unchecked,
    at 1 and 2 times theirs."""
    for _, _, bundle in plannable_instances(11, 150):
        plan = bundle[4]
        yield plan, (1, 2, 3, 4, 8, 32)
        for step in plan.levels:
            unknown = ("level", step.level)
            for donor in range(plan.n):
                if donor != step.carrier and abs(plan.visibility(unknown, donor)) > 1e-10:
                    yield unchecked_split(plan, donor, step.carrier, step.b_star / 2), (1, 2)


def test_recover_matches_dense_lstsq_oracle():
    """Per-class recovery gives the dense per-stage lstsq's verdict, stage
    rows and columns, rank when deficient, and coefficients to 1e-8."""
    recoveries = deficient = 0
    for plan, multiples in _oracle_sweep():
        least = ctgs.numerics.least_period([g.rate for g in plan.grids])
        for multiple in multiples:
            period = multiple * least
            truth = ctgs.signals.assemble(
                plan, "periodic", period, ctgs.signals.draw_contents(plan, "periodic", period, 0))
            sset = ctgs.build_sample_set(plan, "periodic", period)
            obs = ctgs.sample_signal(truth, sset)
            recoveries += 1
            try:
                want, stages = recover_dense(obs, plan, sset)
            except ctgs.ReconstructionError as exc:
                with pytest.raises(ctgs.ReconstructionError) as got:
                    ctgs.recover(obs, plan, None, sset)
                assert str(got.value) == str(exc)
                assert got.value.diagnostics.get("rank") == exc.diagnostics.get("rank")
                assert got.value.diagnostics.get("columns") == exc.diagnostics.get("columns")
                deficient += "rank" in exc.diagnostics
                continue
            result = ctgs.recover(obs, plan, None, sset)
            assert ([(s["unknowns"], s["rows"], s["columns"]) for s in result.diagnostics["stages"]]
                    == [(s["unknowns"], s["rows"], s["columns"]) for s in stages])
            for unknown, coeffs in want.items():
                got = result.per_level_contents[unknown]
                assert got.shape == coeffs.shape
                if coeffs.size:
                    scale = max(1.0, float(np.max(np.abs(coeffs))))
                    assert np.max(np.abs(got - coeffs)) <= 1e-8 * scale
    assert recoveries == 1826
    assert deficient > 0


def test_periodic_recover_makes_one_svd_per_block_shape(worked_spectrum, worked_bundle,
                                                        monkeypatch):
    """At 32 times the least period the worked example recovers with no
    lstsq and at most one SVD per (stage, block shape)."""
    _, finite, _, _, plan = worked_bundle
    period = 32 * ctgs.numerics.least_period([g.rate for g in plan.grids])
    sset = ctgs.build_sample_set(plan, "periodic", period)
    obs = ctgs.sample_signal(
        ctgs.synthesize_signal(worked_spectrum, finite, 3, "periodic", period, plan=plan), sset)
    shapes = 0
    grids = {g.grid_id: g for g in sset.grids}
    for stage in plan.stages:
        m = math.gcd(*(len(grids[gid].times) for gid in stage.grid_ids))
        cutoffs = [ctgs.numerics.harmonic_cutoff(plan.unknown_bandwidth(u), period)
                   for u in stage.unknowns]
        k = np.concatenate([np.arange(-c, c + 1) for c in cutoffs])
        sizes = np.bincount(k % m, minlength=m)[:m // 2 + 1]
        shapes += len(set(sizes.tolist()) - {0})
    calls = {"svd": 0, "lstsq": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    result = ctgs.recover(obs, plan, worked_spectrum, sset)
    assert calls["lstsq"] == 0
    assert 0 < calls["svd"] <= shapes
    assert sum(s["rows"] for s in result.diagnostics["stages"]) == sset.n_points()


def test_spread_certificate_matches_round_trip():
    """On maximal spread sets of the oracle-sweep plans, a spread
    construction passes the rank certificate exactly when it survives the
    sample/recover round trip; many constructions fail both."""
    planner = ctgs.planner
    checked = failed = 0
    for spectrum, _, bundle in plannable_instances(11, 150):
        plan = bundle[4]
        if not plan.base_vertices:
            continue
        v_star = spread_set(spectrum, plan)
        args = (plan.base, plan.vertex_bw)
        _, valid = planner.validate_spread_set(spectrum, plan.base_lambda0, plan.base_vertices,
                                               v_star)
        for option in (planner._prefix_spread_grids(*args, valid),
                       planner._level_spread_grids(*args, valid)):
            candidate = planner._spread_plan(plan, option, v_star)
            certified = not ctgs.sampling.rank_deficient_stages(candidate)
            assert certified == plan_roundtrip_ok(candidate, spectrum)
            checked += 1
            failed += not certified
    assert checked > 200 and failed > checked // 2


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
        witness = unknowns_to_signal(plan, blocks, null_vec, 1)
        assert verify_membership(worked_spectrum, finite, witness)
        assert np.max(np.abs(witness.coeffs)) > 1e-6


def test_grid_times_exact_as_fractions_and_floats():
    """Each grid time is phase + j/rate exactly, and its float is the
    correctly rounded float of that Fraction."""
    from ctgs.sampling import _periodic_grid_times, _sinc_grid_times

    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(300):
        rate = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        phase = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 30)))
        if rng.random() < 0.5:
            period = Fraction(int(rng.integers(1, 5)) * rate.denominator, rate.numerator)
            times = _periodic_grid_times(rate, phase, period)
            indices = range(int(rate * period))
        else:
            t0 = Fraction(int(rng.integers(-40, 0)), int(rng.integers(1, 7)))
            t1 = t0 + Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 7)))
            times = _sinc_grid_times(rate, phase, (t0, t1))
            lo = math.ceil((t0 - phase) * rate)   # first grid index inside the window
            indices = range(lo, lo + len(times))
            assert all(t0 <= t <= t1 for t in times)
            assert phase + Fraction(lo + len(times), rate) > t1
        assert times == tuple(phase + Fraction(j, rate) for j in indices)
        grid = RealizedGrid("g", 0, rate, phase, indices)
        assert grid.times == times
        assert grid.float_times.dtype == np.float64
        assert grid.float_times.tolist() == [float(t) for t in times]
        checked += len(times)
    assert checked > 1000


@pytest.mark.parametrize("mode, domain", [("periodic", 2), ("sinc", (-5, 5))])
def test_sample_point_guard_counts_exactly(worked_bundle, monkeypatch, mode, domain):
    """The guard counts exactly the points the set would hold: a set of
    exactly ``MAX_SAMPLE_POINTS`` is built, one more is refused."""
    _, _, _, _, plan = worked_bundle
    points = ctgs.build_sample_set(plan, mode, domain).n_points()
    monkeypatch.setattr(ctgs.sampling, "MAX_SAMPLE_POINTS", points)
    assert ctgs.build_sample_set(plan, mode, domain).n_points() == points
    monkeypatch.setattr(ctgs.sampling, "MAX_SAMPLE_POINTS", points - 1)
    with pytest.raises(ctgs.ProblemFormatError, match="more than the"):
        ctgs.build_sample_set(plan, mode, domain)


@pytest.mark.parametrize("mode, domain", [("periodic", 1), ("sinc", (-3, 3))])
def test_recover_evaluates_each_grid_basis_once(worked_spectrum, worked_bundle, monkeypatch,
                                               mode, domain):
    _, _, _, _, plan = worked_bundle
    sset = ctgs.build_sample_set(plan, mode, domain)
    truth = ctgs.synthesize_signal(worked_spectrum, worked_bundle[1], 3, mode, domain, plan=plan)
    obs = ctgs.sample_signal(truth, sset)
    evaluations = []
    original = ctgs.sampling.scalar_basis

    def counted_basis(mode, domain, bw):
        width, design = original(mode, domain, bw)

        def counted(times):
            evaluations.append((bw, tuple(times)))
            return design(times)
        return width, counted

    monkeypatch.setattr(ctgs.sampling, "scalar_basis", counted_basis)
    windows = []
    original_window = ctgs.sampling._first_window_design

    def counted_window(times, freqs):
        windows.append(times.tolist())
        return original_window(times, freqs)

    monkeypatch.setattr(ctgs.sampling, "_first_window_design", counted_window)
    result = ctgs.recover(obs, plan, worked_spectrum, sset)
    if mode == "periodic":
        # each stage builds one design, over its grids' first windows (the
        # samples of one least period of the stage's rates), each grid once
        grids = {g.grid_id: g for g in sset.grids}
        expected = []
        for stage in plan.stages:
            stage_grids = [grids[gid] for gid in stage.grid_ids]
            m = math.gcd(*(len(g.times) for g in stage_grids))
            expected.append([t for g in stage_grids
                             for t in g.float_times[:len(g.times) // m].tolist()])
        assert windows == expected
        assert sum(map(len, windows)) < sset.n_points()
        assert not evaluations
    else:
        grids_at = {}
        for g in sset.grids:
            key = tuple(g.float_times)
            grids_at[key] = grids_at.get(key, 0) + 1
        seen = {}
        for bw, times in evaluations:
            seen[bw, times] = seen.get((bw, times), 0) + 1
        # grids sharing their times may each evaluate; no grid evaluates twice
        assert all(count <= grids_at[times] for (_, times), count in seen.items())
        assert len(evaluations) <= len(sset.grids) * len({plan.unknown_bandwidth(u)
                                                          for u in plan.unknowns})
        assert len({bw for bw, _ in evaluations}) > 1
    monkeypatch.undo()
    assert result.diagnostics == ctgs.recover(obs, plan, worked_spectrum, sset).diagnostics
