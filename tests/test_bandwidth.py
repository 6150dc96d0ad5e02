from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctgs
from ctgs.numerics import INF

from helpers import (
    check_uniform_exhaustive,
    check_uniform_loop,
    plannable_instances,
    random_profile,
    random_spectrum,
    tighten_bruteforce,
)

LAM0_W0 = (0, 1, 2)


def _profile(b, c):
    return ctgs.BandwidthProfile.create(b, c)


# --- uniformity / finitization ---------------------------------------------

def test_all_finite_is_uniform(worked_spectrum, worked_profile):
    cert = ctgs.check_uniform(worked_spectrum, worked_profile)
    assert cert.is_uniform
    assert cert.v_infinity == ()


def test_uniform_with_infinite_vertices(two_path_spectrum):
    cert = ctgs.check_uniform(two_path_spectrum, _profile(["inf", "inf"], [1, 1]))
    assert cert.is_uniform
    assert cert.v_infinity == (0, 1)
    assert cert.witness_freqs == (0, 1)


def test_not_uniform_single_finite_row(two_path_spectrum):
    cert = ctgs.check_uniform(two_path_spectrum, _profile(["inf", "inf"], [0, "inf"]))
    assert not cert.is_uniform


def test_check_uniform_matches_exhaustive_oracle():
    """Verdict, witness frequencies and bound agree with the exhaustive
    search on 200 random instances with infinite vertex bounds."""
    rng = np.random.default_rng(4242)
    uniform = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        spectrum = random_spectrum(rng, n)
        drawn = random_profile(rng, n)
        v_inf = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 2)), replace=False).tolist())
        profile = ctgs.BandwidthProfile(
            tuple(INF if v in v_inf else b for v, b in enumerate(drawn.vertex_bw)),
            drawn.freq_bw)
        cert = ctgs.check_uniform(spectrum, profile)
        assert (cert.is_uniform, cert.witness_freqs, cert.bound) \
            == check_uniform_exhaustive(spectrum, profile)
        uniform += cert.is_uniform
    assert uniform >= 50


def test_check_uniform_matches_rank_loop_oracle():
    """Both scans keep the frequencies that one rank test per frequency
    keeps, on 200 random instances with n <= 12 and infinite vertex bounds,
    half on unit-weight graphs."""
    rng = np.random.default_rng(4343)
    uniform = 0
    for i in range(200):
        n = int(rng.integers(2, 13))
        spectrum = random_spectrum(rng, n, unit_weights=i % 2 == 0)
        drawn = random_profile(rng, n)
        v_inf = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 2)), replace=False).tolist())
        profile = ctgs.BandwidthProfile(
            tuple(INF if v in v_inf else b for v, b in enumerate(drawn.vertex_bw)),
            drawn.freq_bw)
        cert = ctgs.check_uniform(spectrum, profile)
        assert (cert.is_uniform, cert.witness_freqs, cert.bound) \
            == check_uniform_loop(spectrum, profile)
        uniform += cert.is_uniform
    assert uniform >= 50


def test_finitize_identity_on_finite(worked_spectrum, worked_profile):
    cert = ctgs.check_uniform(worked_spectrum, worked_profile)
    assert ctgs.finitize(worked_spectrum, worked_profile, cert) is worked_profile


def test_finitize_replacement_value(two_path_spectrum):
    profile = _profile(["inf", 3], [2, 5])
    cert = ctgs.check_uniform(two_path_spectrum, profile)
    assert cert.witness_freqs == (0,)
    finite = ctgs.finitize(two_path_spectrum, profile, cert)
    assert finite.vertex_bw == (Fraction(3), Fraction(3))


def test_finitize_all_infinite(two_path_spectrum):
    profile = _profile(["inf", "inf"], [2, 5])
    cert = ctgs.check_uniform(two_path_spectrum, profile)
    finite = ctgs.finitize(two_path_spectrum, profile, cert)
    assert finite.vertex_bw == (Fraction(5), Fraction(5))


def test_finitize_requires_uniformity(two_path_spectrum):
    profile = _profile(["inf", "inf"], [0, "inf"])
    cert = ctgs.check_uniform(two_path_spectrum, profile)
    with pytest.raises(ctgs.InfeasibleProblemError):
        ctgs.finitize(two_path_spectrum, profile, cert)


def test_finitize_idempotent_and_monotone(two_path_spectrum):
    smaller = _profile(["inf", 2], [2, 5])
    larger = _profile(["inf", 3], [2, 5])
    cert = ctgs.check_uniform(two_path_spectrum, larger)
    fin_small = ctgs.finitize(two_path_spectrum, smaller, cert)
    fin_large = ctgs.finitize(two_path_spectrum, larger, cert)
    assert all(a <= b for a, b in zip(fin_small.vertex_bw, fin_large.vertex_bw))
    cert2 = ctgs.check_uniform(two_path_spectrum, fin_large)
    assert ctgs.finitize(two_path_spectrum, fin_large, cert2) is fin_large


# --- tightness --------------------------------------------------------------

def test_two_path_equal_bandwidths_tight(two_path_spectrum):
    report = ctgs.is_tight(two_path_spectrum, _profile([3, 3], [0, "inf"]))
    assert report.tight


def test_two_path_unequal_bandwidths_not_tight(two_path_spectrum):
    report = ctgs.is_tight(two_path_spectrum, _profile([3, 5], [0, "inf"]))
    assert not report.tight
    assert (1, (0,), Fraction(3)) in report.violations


def test_worked_base_profile_not_tight(worked_spectrum):
    profile = _profile([5, 5, 1, 4, 4], [0, 0, 0, "inf", "inf"])
    report = ctgs.is_tight(worked_spectrum, profile)
    assert not report.tight
    assert any(v == 4 and prefix == (2,) and limit == 1
               for v, prefix, limit in report.violations)


def test_tighten_fixed_point(two_path_spectrum):
    profile = _profile([3, 3], [0, "inf"])
    assert ctgs.tighten(two_path_spectrum, profile).vertex_bw == profile.vertex_bw


def test_tighten_two_path(two_path_spectrum):
    tightened = ctgs.tighten(two_path_spectrum, _profile([3, 5], [0, "inf"]))
    assert tightened.vertex_bw == (Fraction(3), Fraction(3))


def test_tighten_worked_base_profile(worked_spectrum):
    profile = _profile([5, 5, 1, 4, 4], [0, 0, 0, "inf", "inf"])
    tightened = ctgs.tighten(worked_spectrum, profile)
    assert tightened.vertex_bw[4] == Fraction(1)
    assert tightened.vertex_bw == (Fraction(1), Fraction(4), Fraction(1), Fraction(4), Fraction(1))
    assert ctgs.is_tight(worked_spectrum, tightened).tight


def test_tighten_properties_random():
    rng = np.random.default_rng(91)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        spectrum = random_spectrum(rng, n)
        profile = random_profile(rng, n, allow_zero_c=True)
        simple = ctgs.BandwidthProfile(
            profile.vertex_bw,
            tuple(Fraction(0) if c == 0 else INF for c in profile.freq_bw))
        tightened = ctgs.tighten(spectrum, simple)
        assert all(a <= b for a, b in zip(tightened.vertex_bw, simple.vertex_bw))
        assert ctgs.is_tight(spectrum, tightened).tight
        again = ctgs.tighten(spectrum, tightened)
        assert again.vertex_bw == tightened.vertex_bw


def test_tighten_preserves_space_dimension():
    rng = np.random.default_rng(17)
    period = Fraction(2)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        spectrum = random_spectrum(rng, n)
        profile = random_profile(rng, n)
        simple = ctgs.BandwidthProfile(
            profile.vertex_bw,
            tuple(Fraction(0) if c == 0 else INF for c in profile.freq_bw))
        tightened = ctgs.tighten(spectrum, simple)
        assert (ctgs.space_dimension(spectrum, simple, period)
                == ctgs.space_dimension(spectrum, tightened, period))


def test_union_of_tight_profiles_is_tight():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        spectrum = random_spectrum(rng, n)
        freq = tuple(Fraction(0) if rng.random() < 0.4 else INF for _ in range(n))
        a = ctgs.tighten(spectrum, ctgs.BandwidthProfile(
            random_profile(rng, n).vertex_bw, freq))
        b = ctgs.tighten(spectrum, ctgs.BandwidthProfile(
            random_profile(rng, n).vertex_bw, freq))
        union = ctgs.profile_union(a, b)
        assert ctgs.is_tight(spectrum, union).tight


def test_tighten_matches_bruteforce_random():
    """The greedy basis's extension map gives the enumeration's tightened
    profile, on unit-weight graphs (eigenvectors with exact zeros) too."""
    rng = np.random.default_rng(18)
    lowered = 0
    for trial in range(600):
        n = int(rng.integers(2, 9))
        spectrum = random_spectrum(rng, n, unit_weights=trial % 2 == 1)
        profile = random_profile(rng, n)
        tightened = ctgs.tighten(spectrum, profile)
        assert tightened.vertex_bw == tighten_bruteforce(spectrum, profile).vertex_bw, trial
        lowered += tightened.vertex_bw != profile.vertex_bw
    assert lowered > 100


def test_tighten_matches_bruteforce_plannable():
    lowered = 0
    for spectrum, _, bundle in plannable_instances(18, 60, n_max=12):
        finite = bundle[1]
        tightened = ctgs.tighten(spectrum, finite)
        assert tightened.vertex_bw == tighten_bruteforce(spectrum, finite).vertex_bw
        lowered += tightened.vertex_bw != finite.vertex_bw
    assert lowered > 10


def test_tighten_n200_idempotent_and_dominated(monkeypatch):
    """Past the enumeration guard: one SVD and one solve tighten an n = 200
    profile to a fixed point below it."""
    rng = np.random.default_rng(200)
    spectrum = random_spectrum(rng, 200)
    profile = random_profile(rng, 200)
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("svd", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    tightened = ctgs.tighten(spectrum, profile)
    assert sorted(calls) == ["solve", "svd"]
    assert all(a <= b for a, b in zip(tightened.vertex_bw, profile.vertex_bw))
    assert tightened.vertex_bw != profile.vertex_bw
    assert ctgs.tighten(spectrum, tightened).vertex_bw == tightened.vertex_bw


# --- profile union ----------------------------------------------------------

def test_union_idempotent():
    p = _profile([1, 4], [0, "inf"])
    assert ctgs.profile_union(p, p).vertex_bw == p.vertex_bw


def test_union_pointwise_max():
    a = _profile([1, 4], [0, "inf"])
    b = _profile([3, 2], [0, "inf"])
    assert ctgs.profile_union(a, b).vertex_bw == (Fraction(3), Fraction(4))


def test_union_two_path_tight_pair(two_path_spectrum):
    a = _profile([3, 3], [0, "inf"])
    b = _profile([5, 5], [0, "inf"])
    union = ctgs.profile_union(a, b)
    assert union.vertex_bw == (Fraction(5), Fraction(5))
    assert ctgs.is_tight(two_path_spectrum, union).tight


def test_union_rejects_mismatched_freq_bw():
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.profile_union(_profile([1, 2], [0, "inf"]), _profile([1, 2], ["inf", 0]))


bw_values = st.integers(0, 6).map(Fraction)


@settings(max_examples=60)
@given(st.lists(bw_values, min_size=3, max_size=3),
       st.lists(bw_values, min_size=3, max_size=3),
       st.lists(bw_values, min_size=3, max_size=3))
def test_union_algebra(xs, ys, zs):
    freq = (Fraction(0), INF, INF)
    a = ctgs.BandwidthProfile(tuple(xs), freq)
    b = ctgs.BandwidthProfile(tuple(ys), freq)
    c = ctgs.BandwidthProfile(tuple(zs), freq)
    ab = ctgs.profile_union(a, b)
    assert ab.vertex_bw == ctgs.profile_union(b, a).vertex_bw
    assert (ctgs.profile_union(ab, c).vertex_bw
            == ctgs.profile_union(a, ctgs.profile_union(b, c)).vertex_bw)
    assert ctgs.profile_union(a, a).vertex_bw == a.vertex_bw


def test_profile_rejects_negative():
    with pytest.raises(ctgs.ProblemFormatError):
        _profile([-1, 2], [0, "inf"])
