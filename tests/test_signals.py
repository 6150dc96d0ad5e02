from fractions import Fraction

import numpy as np

import ctgs

from helpers import (
    PeriodicSignal,
    fresh_design,
    membership_violations_loop,
    plannable_instances,
    quotient_witness,
    random_member,
    random_profile,
    random_spectrum,
    trig_design_per_harmonic,
    verify_membership,
)


def test_worked_space_dimension(worked_spectrum, worked_bundle):
    _, finite, _, _, plan = worked_bundle
    dim = ctgs.space_dimension(worked_spectrum, finite, 1)
    assert dim == 27
    # the plan's unknown blocks parameterize the space exactly
    sset = ctgs.build_sample_set(plan, "periodic", 1)
    matrix, blocks, _ = ctgs.sampling_operator(plan, sset)
    assert sum(cols for _, _, cols in blocks) == dim
    assert np.linalg.matrix_rank(matrix) == dim


def test_random_member_is_member(worked_spectrum, worked_bundle):
    _, finite, _, _, _ = worked_bundle
    for seed in range(5):
        member = random_member(worked_spectrum, finite, 1, seed)
        assert verify_membership(worked_spectrum, finite, member)


def test_zero_space_flag(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([0, 0], ["inf", "inf"])
    member = random_member(two_path_spectrum, profile, 1, 0)
    assert member.zero_space
    assert not np.any(member.coeffs)


def test_synthesize_two_path_antisymmetry(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([3, 3], [0, "inf"])
    signal = ctgs.synthesize_signal(two_path_spectrum, profile, 5, "periodic", 1)
    times = np.linspace(0.0, 1.0, 17)
    assert np.allclose(signal.eval(0, times), -signal.eval(1, times), atol=1e-12)
    assert np.any(np.abs(signal.eval(0, times)) > 1e-3)


def test_synthesize_zero_bandwidths(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([0, 0], ["inf", "inf"])
    signal = ctgs.synthesize_signal(two_path_spectrum, profile, 5, "periodic", 1)
    assert signal.zero_space
    assert np.allclose(signal.eval(0, np.linspace(0, 1, 9)), 0.0)


def test_synthesized_membership_support(worked_spectrum, worked_bundle):
    _, finite, filtration, seq, plan = worked_bundle
    signal = ctgs.synthesize_signal(worked_spectrum, finite, 42, "periodic", 1, plan=plan)
    assert verify_membership(worked_spectrum, finite, signal)
    transformed = worked_spectrum.basis @ signal.coeffs
    # transform rows stay inside their frequency bounds: none at or above
    # harmonic index 2 for the bound-2 row, 5 for the bound-5 row
    scale = np.max(np.abs(signal.coeffs))
    for freq, bound in ((1, 2), (2, 5), (0, 9)):
        for k in range(bound, signal.cutoff + 1):
            lo = 0 if k == 0 else 2 * k - 1
            hi = 1 if k == 0 else 2 * k + 1
            assert np.max(np.abs(transformed[freq, lo:hi])) < 1e-9 * scale


def test_membership_detects_violation(worked_spectrum, worked_profile):
    coeffs = np.zeros((5, 5))
    coeffs[2, 3] = 1.0  # vertex with bound 1 carrying harmonic 2 content
    bad = PeriodicSignal(period=Fraction(1), coeffs=coeffs)
    violations = ctgs.membership_violations(worked_spectrum, worked_profile, bad)
    assert ("vertex", 2, 2) in violations


def test_quotient_witness_reaches_bound(worked_spectrum, worked_bundle):
    """Each peeled transform attains its computed bandwidth (tight image)."""
    _, finite, filtration, _, _ = worked_bundle
    period = Fraction(1)
    for step in filtration.steps:
        witness = quotient_witness(worked_spectrum, finite, step, period)
        level_profile = ctgs.BandwidthProfile(finite.vertex_bw,
                                              filtration.levels[step.level].freq_bw)
        assert verify_membership(worked_spectrum, level_profile, witness)
        image = worked_spectrum.basis[step.lambda_star] @ witness.coeffs
        top = ctgs.numerics.harmonic_cutoff(step.b_star, period)
        lo = 0 if top == 0 else 2 * top - 1
        assert np.max(np.abs(image[lo:lo + (1 if top == 0 else 2)])) > 1e-9


def test_quotient_witness_random_instances():
    for spectrum, profile, bundle in plannable_instances(master_seed=303, count=10):
        _, finite, filtration, _, _ = bundle
        for step in filtration.steps:
            if step.b_star == 0:
                continue
            witness = quotient_witness(spectrum, finite, step, Fraction(2))
            level_profile = ctgs.BandwidthProfile(finite.vertex_bw,
                                                  filtration.levels[step.level].freq_bw)
            assert verify_membership(spectrum, level_profile, witness)


def test_sinc_series_interpolates_nodes():
    # one rate-2 cardinal block on [-4, 4]: nodes at -4, -3.5, ..., 4
    series = ctgs.GraphSignal("sinc", (Fraction(-4), Fraction(4)),
                              np.arange(17, dtype=float)[None, :], (Fraction(1),))
    nodes = np.arange(-8, 9) / 2.0
    assert np.allclose(series.eval(0, nodes), series.coeffs[0], atol=1e-12)


def test_trig_design_matches_per_harmonic_oracle():
    rng = np.random.default_rng(6)
    for cutoff in range(-1, 41):
        for _ in range(3):
            times = rng.uniform(-50.0, 50.0, int(rng.integers(0, 200)))
            period = float(rng.uniform(0.05, 40.0))
            got = ctgs.signals.trig_design(times, cutoff, period)
            assert np.array_equal(got, trig_design_per_harmonic(times, cutoff, period)), \
                (cutoff, period)


def test_membership_violations_match_loop_oracle():
    rng = np.random.default_rng(16)
    verdicts = set()
    for trial in range(300):
        n = int(rng.integers(2, 7))
        spectrum = random_spectrum(rng, n)
        profile = random_profile(rng, n)
        period = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        signal = random_member(spectrum, profile, period, trial)
        if trial % 3 == 1:
            # a member with one coefficient moved
            coeffs = signal.coeffs.copy()
            if coeffs.size:
                coeffs[int(rng.integers(0, n)), int(rng.integers(0, coeffs.shape[1]))] += 1.0
            signal = PeriodicSignal(period, coeffs)
        elif trial % 3 == 2:
            # random rows, with whole columns zeroed so rows stop at random harmonics
            coeffs = rng.standard_normal((n, 2 * int(rng.integers(0, 10)) + 1))
            coeffs[:, rng.random(coeffs.shape[1]) < 0.5] = 0.0
            signal = PeriodicSignal(period, coeffs)
        want = membership_violations_loop(spectrum, profile, signal)
        assert ctgs.signals.membership_violations(spectrum, profile, signal) == want
        verdicts.add(bool(want))
    assert verdicts == {False, True}


def test_design_matches_fresh_scalar_basis():
    """The basis maps a signal builds once evaluate like freshly built ones,
    on every call."""
    rng = np.random.default_rng(24)
    modes = set()
    for trial, (spectrum, profile, bundle) in enumerate(plannable_instances(master_seed=424,
                                                                            count=12)):
        _, finite, _, _, plan = bundle
        if trial % 2:
            period = ctgs.numerics.least_period([g.rate for g in plan.grids])
            signal = random_member(spectrum, finite, period, trial)
        else:
            half = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 3)))
            signal = ctgs.synthesize_signal(spectrum, finite, trial, "sinc", (-half, half),
                                            plan=plan)
        for _ in range(3):
            times = rng.uniform(-10.0, 10.0, int(rng.integers(1, 40)))
            design = signal.design(times)
            assert np.array_equal(design, fresh_design(signal, times)), trial
            for v in range(spectrum.n):
                assert np.array_equal(signal.eval(v, times), design @ signal.coeffs[v])
        modes.add(signal.mode)
    assert modes == {"periodic", "sinc"}
