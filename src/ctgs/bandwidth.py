"""Bandwidth profiles: uniformity, finitization, tightness and tightening."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dependence import (enumerate_uniqueness_sets, greedy_minimal_vertex_set, greedy_scan,
                         is_dependent, top_supported)
from .errors import InfeasibleProblemError, ProblemFormatError, ScaleLimitError
from .numerics import INF, as_bandwidth, is_inf
from .spectral import Spectrum

TIGHTEN_GUARD = 12


@dataclass(frozen=True)
class BandwidthProfile:
    """Per-vertex and per-frequency bandwidth bounds (extended reals)."""

    vertex_bw: tuple
    freq_bw: tuple

    @staticmethod
    def create(vertex_bw: Sequence, freq_bw: Sequence) -> "BandwidthProfile":
        return BandwidthProfile(
            vertex_bw=tuple(as_bandwidth(b, f"/B/{i}") for i, b in enumerate(vertex_bw)),
            freq_bw=tuple(as_bandwidth(c, f"/C/{i}") for i, c in enumerate(freq_bw)),
        )

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_bw)

    @property
    def n_frequencies(self) -> int:
        return len(self.freq_bw)

    def lambda0(self) -> tuple:
        """Frequencies whose bandwidth bound is exactly zero."""
        return tuple(i for i, c in enumerate(self.freq_bw) if c == 0)

    def all_vertex_finite(self) -> bool:
        return all(not is_inf(b) for b in self.vertex_bw)

    def with_freq_zeroed(self, frequency: int) -> "BandwidthProfile":
        freq = list(self.freq_bw)
        freq[frequency] = Fraction(0)
        return BandwidthProfile(self.vertex_bw, tuple(freq))

    def with_vertex_bw(self, vertex_bw: Sequence) -> "BandwidthProfile":
        return BandwidthProfile(tuple(vertex_bw), self.freq_bw)


def validate_profile(spectrum: Spectrum, profile: BandwidthProfile) -> None:
    if profile.n_vertices != spectrum.n:
        raise ProblemFormatError(f"B must list {spectrum.n} vertex bandwidths", "/B")
    if profile.n_frequencies != spectrum.n:
        raise ProblemFormatError(f"C must list {spectrum.n} frequency bandwidths", "/C")


@dataclass(frozen=True)
class UniformityCertificate:
    """Outcome of the uniform-bandlimitedness test.

    ``witness_freqs`` is the frequency subset certifying uniformity when
    some vertex bound is infinite; ``bound`` is the finite replacement value
    those vertices receive during finitization.
    """

    is_uniform: bool
    v_infinity: tuple
    witness_freqs: Optional[tuple]
    bound: object


def _replacement_bound(profile: BandwidthProfile, v_inf, freqs) -> object:
    finite_b = [profile.vertex_bw[v] for v in range(profile.n_vertices) if v not in v_inf]
    parts = list(finite_b) + [profile.freq_bw[f] for f in freqs]
    return max(parts) if parts else Fraction(0)


def check_uniform(spectrum: Spectrum, profile: BandwidthProfile) -> UniformityCertificate:
    """Decide whether every signal in the space has uniformly finite bandwidth.

    With infinite vertex bounds present, uniformity holds iff some subset of
    finite-bound frequencies of matching size has an invertible eigenrow
    block over those vertices. These subsets are the bases of the row matroid
    of the eigenrows restricted to those vertices, so two greedy scans
    (:func:`greedy_scan`) settle the rest: one in ascending (bound, index)
    order gives the least finitization bound (a bottleneck basis), and one
    in index order over the frequencies whose bound stays within it gives
    the lexicographically first witness attaining that bound.
    """
    validate_profile(spectrum, profile)
    v_inf = tuple(v for v, b in enumerate(profile.vertex_bw) if is_inf(b))
    if not v_inf:
        finite_max = max(profile.vertex_bw) if profile.vertex_bw else Fraction(0)
        return UniformityCertificate(True, (), None, finite_max)

    finite_freqs = [f for f, c in enumerate(profile.freq_bw) if not is_inf(c)]
    rows = spectrum.basis[:, list(v_inf)]
    cheapest = greedy_scan(rows, sorted(finite_freqs, key=lambda f: (profile.freq_bw[f], f)))
    if len(cheapest) < len(v_inf):
        return UniformityCertificate(False, v_inf, None, INF)
    bound = _replacement_bound(profile, set(v_inf), cheapest)
    witness = greedy_scan(rows, [f for f in finite_freqs if profile.freq_bw[f] <= bound])
    return UniformityCertificate(True, v_inf, tuple(witness), bound)


def finitize(spectrum: Spectrum, profile: BandwidthProfile,
             cert: UniformityCertificate) -> BandwidthProfile:
    """Replace infinite vertex bounds by the certificate bound.

    Finite entries are untouched; requires a positive uniformity verdict.
    """
    if not cert.is_uniform:
        raise InfeasibleProblemError("space not uniformly bandlimited")
    if not cert.v_infinity:
        return profile
    replaced = [cert.bound if is_inf(b) else b for b in profile.vertex_bw]
    return profile.with_vertex_bw(replaced)


@dataclass(frozen=True)
class TightnessReport:
    tight: bool
    violations: tuple  # ((vertex, prefix, max_bw), ...)


def _sorted_by_bw(vertices, vertex_bw):
    return sorted(vertices, key=lambda v: (vertex_bw[v], v))


def _minimal_prefix(spectrum, lambda0, ordered, v) -> int:
    """Smallest k with v dependent on the first k vertices of ``ordered``."""
    for k in range(len(ordered) + 1):
        if is_dependent(spectrum, lambda0, ordered[:k], v):
            return k
    raise AssertionError("vertex not dependent on a full uniqueness set")


def is_tight(spectrum: Spectrum, profile: BandwidthProfile) -> TightnessReport:
    """Tightness test: no vertex bound exceeds what its dependencies allow.

    Runs the dependence criterion over the closure-generating family: for
    every uniqueness set, vertices outside it are checked against their
    minimal dependent prefix in ascending-bandwidth order.
    """
    validate_profile(spectrum, profile)
    if not profile.all_vertex_finite():
        raise ProblemFormatError("tightness requires finite vertex bandwidths; finitize first")
    if spectrum.n > TIGHTEN_GUARD:
        raise ScaleLimitError(f"tightness testing is limited to n <= {TIGHTEN_GUARD}")
    lambda0 = profile.lambda0()
    bw = profile.vertex_bw
    violations = []
    seen = set()
    for cand in enumerate_uniqueness_sets(spectrum, lambda0):
        ordered = _sorted_by_bw(cand.vertices, bw)
        for v in cand.complement:
            k = _minimal_prefix(spectrum, lambda0, ordered, v)
            if k == 0:
                # dependent on the empty set: the signal is forced to zero
                limit = Fraction(0)
                prefix = ()
            else:
                limit = bw[ordered[k - 1]]
                prefix = tuple(ordered[:k])
            if bw[v] > limit:
                key = (v, prefix)
                if key not in seen:
                    seen.add(key)
                    violations.append((v, prefix, limit))
    return TightnessReport(tight=not violations, violations=tuple(violations))


def tighten(spectrum: Spectrum, profile: BandwidthProfile) -> BandwidthProfile:
    """Maximal tight profile below ``profile`` spanning the same signal space.

    A vertex's tightened bound is the least threshold b such that it depends
    on the vertices of bound at most b, capped by its own bound. The greedy
    minimal-rate basis in (B, index) order spans every such threshold set with
    its prefixes (Edmonds' greedy theorem on the dependence matroid), so its
    extension map answers every vertex with one solve: an outside vertex takes
    the bound of the basis's ``top_supported`` vertex on its extension row
    (0 for a zero row), and basis vertices keep their bounds.
    """
    validate_profile(spectrum, profile)
    if not profile.all_vertex_finite():
        raise ProblemFormatError("tighten requires finite vertex bandwidths; finitize first")
    bw = profile.vertex_bw
    basis, _ = greedy_minimal_vertex_set(spectrum, profile.lambda0(), bw)
    tightened = list(bw)
    for v in basis.complement:
        top = top_supported(basis.vertices, basis.extension[v], bw)
        tightened[v] = min(bw[v], Fraction(0) if top is None else bw[top])
    return profile.with_vertex_bw(tightened)


def profile_union(a: BandwidthProfile, b: BandwidthProfile) -> BandwidthProfile:
    """Pointwise max of vertex bounds; frequency bounds must agree."""
    if a.freq_bw != b.freq_bw:
        raise ProblemFormatError("profile union requires identical frequency bandwidths")
    if a.n_vertices != b.n_vertices:
        raise ProblemFormatError("profile union requires matching vertex counts")
    return BandwidthProfile(tuple(max(x, y) for x, y in zip(a.vertex_bw, b.vertex_bw)), a.freq_bw)
