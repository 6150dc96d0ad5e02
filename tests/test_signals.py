from fractions import Fraction

import numpy as np

import ctgs

from helpers import plannable_instances


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
        member = ctgs.random_member(worked_spectrum, finite, 1, seed)
        assert ctgs.verify_membership(worked_spectrum, finite, member)


def test_zero_space_flag(two_path_spectrum):
    profile = ctgs.BandwidthProfile.create([0, 0], ["inf", "inf"])
    member = ctgs.random_member(two_path_spectrum, profile, 1, 0)
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
    assert ctgs.verify_membership(worked_spectrum, finite, signal)
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
    bad = ctgs.PeriodicSignal(period=Fraction(1), coeffs=coeffs)
    violations = ctgs.membership_violations(worked_spectrum, worked_profile, bad)
    assert ("vertex", 2, 2) in violations


def test_quotient_witness_reaches_bound(worked_spectrum, worked_bundle):
    """Each peeled transform attains its computed bandwidth (tight image)."""
    _, finite, filtration, _, _ = worked_bundle
    period = Fraction(1)
    for step in filtration.steps:
        witness = ctgs.quotient_witness(worked_spectrum, finite, step, period)
        level_profile = ctgs.BandwidthProfile(finite.vertex_bw,
                                              filtration.levels[step.level].freq_bw)
        assert ctgs.verify_membership(worked_spectrum, level_profile, witness)
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
            witness = ctgs.quotient_witness(spectrum, finite, step, Fraction(2))
            level_profile = ctgs.BandwidthProfile(finite.vertex_bw,
                                                  filtration.levels[step.level].freq_bw)
            assert ctgs.verify_membership(spectrum, level_profile, witness)


def test_sinc_series_interpolates_nodes():
    # one rate-2 cardinal block on [-4, 4]: nodes at -4, -3.5, ..., 4
    series = ctgs.GraphSignal("sinc", (Fraction(-4), Fraction(4)),
                              np.arange(17, dtype=float)[None, :], (Fraction(1),))
    nodes = np.arange(-8, 9) / 2.0
    assert np.allclose(series.eval(0, nodes), series.coeffs[0], atol=1e-12)
