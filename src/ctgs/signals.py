"""Continuous-time graph signals and their synthesis.

Every signal of a plan's space is a sum of terms, one per unknown of the
sampling plan: a vertex extension column times a scalar bandlimited series.
One type, :class:`GraphSignal`, holds that sum as a coefficient matrix over
shared scalar bases, in two realizations:

* periodic — trigonometric polynomials on a period T whose harmonic
  frequencies sit strictly inside (-B, B). Reconstruction from 2BT uniform
  samples per period is exact finite linear algebra, so "perfect recovery"
  is machine-checkable.
* sinc — truncated cardinal series on a finite window; evaluation-only,
  with edge effects assessed on an inner window.

The periodic model also admits a direct coefficient-space description of
the whole constrained signal space: its dimension, and the membership check
every synthesized periodic signal passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .bandwidth import BandwidthProfile
from .numerics import COEFF_TOL, harmonic_cutoff, is_inf, n_trig_coeffs, null_space
from .planner import SamplingPlan
from .spectral import Spectrum


def trig_design(times: np.ndarray, cutoff: int, period: float) -> np.ndarray:
    """Evaluation matrix of the trig basis [1, cos, sin, ...] at ``times``."""
    times = np.asarray(times, dtype=float)
    if cutoff < 0:
        return np.zeros((len(times), 0))
    # one cos and one sin over the times x harmonics outer product; the
    # argument keeps the rounding order of (2*pi*k) * t / period
    arg = times[:, None] * (2.0 * np.pi * np.arange(1, cutoff + 1)) / period
    design = np.empty((len(times), n_trig_coeffs(cutoff)))
    design[:, 0] = 1.0
    design[:, 1::2] = np.cos(arg)
    design[:, 2::2] = np.sin(arg)
    return design


def sinc_indices(rate: Fraction, phase: Fraction, window) -> tuple:
    """Integer index range of a rate-``rate`` grid inside ``window``."""
    t0, t1 = Fraction(window[0]), Fraction(window[1])
    lo = math.ceil((t0 - phase) * rate)
    hi = math.floor((t1 - phase) * rate)
    return lo, hi


def scalar_basis(mode: str, domain, bw) -> tuple:
    """Width of the scalar basis that carries bandwidth-``bw`` content, and
    its design map ``times -> len(times) x width``.

    Periodic: the trig polynomial [1, cos, sin, ...] with harmonics strictly
    below ``bw`` on period ``domain``. Sinc: the rate-2bw cardinal series
    whose nodes lie in the window ``domain``.
    """
    if mode == "periodic":
        cutoff = harmonic_cutoff(bw, domain)
        return n_trig_coeffs(cutoff), lambda times: trig_design(times, cutoff, float(domain))
    rate = 2 * Fraction(bw)
    lo, hi = sinc_indices(rate, Fraction(0), domain) if rate else (0, -1)
    nodes = np.arange(lo, hi + 1)
    return len(nodes), lambda times: np.sinc(float(rate) * np.asarray(times, float)[:, None]
                                             - nodes[None, :])


@dataclass(eq=False)
class GraphSignal:
    """A sum of (extension column) x (scalar series) terms, one per unknown,
    held as an n x P coefficient matrix over scalar basis blocks: one trig
    block in periodic mode, one cardinal-series block per bandwidth in sinc
    mode. ``bands`` lists each block's bandwidth in column order."""

    mode: str
    domain: object            # period (periodic) or window (t0, t1) (sinc)
    coeffs: np.ndarray        # n x P
    bands: tuple

    @property
    def zero_space(self) -> bool:
        return not np.any(self.coeffs)

    @property
    def cutoff(self) -> int:
        """Top harmonic of the trig block (periodic mode)."""
        return (self.coeffs.shape[1] - 1) // 2

    @cached_property
    def _basis_maps(self) -> tuple:
        """Each band's design map, built once per signal."""
        return tuple(scalar_basis(self.mode, self.domain, b)[1] for b in self.bands)

    def design(self, times) -> np.ndarray:
        """len(times) x P evaluation matrix of the basis blocks."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        blocks = [basis(times) for basis in self._basis_maps]
        return np.hstack(blocks) if blocks else np.zeros((len(times), 0))

    def eval(self, vertex: int, times) -> np.ndarray:
        return self.design(times) @ self.coeffs[vertex]

    def _apply(self, design: np.ndarray) -> np.ndarray:
        """n x len(times) values from a :meth:`design` of the same basis."""
        # one product per row keeps each row bit-identical to eval()
        return np.stack([design @ row for row in self.coeffs])


def eval_pair(first: GraphSignal, second: GraphSignal, times) -> tuple:
    """Both signals' n x len(times) values. Signals that share mode, domain
    and bands, as a simulated truth and its recovery from one plan do,
    share one design evaluation."""
    design = first.design(times)
    shared = (second.mode, second.domain, second.bands) == (first.mode, first.domain, first.bands)
    return first._apply(design), second._apply(design if shared else second.design(times))


def pad_coeffs(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    want = n_trig_coeffs(cutoff)
    if coeffs.shape[-1] >= want:
        return coeffs
    pad = [(0, 0)] * (coeffs.ndim - 1) + [(0, want - coeffs.shape[-1])]
    return np.pad(coeffs, pad)


# --- coefficient-space description (periodic) ------------------------------

def _per_harmonic_constraints(spectrum: Spectrum, profile: BandwidthProfile,
                              period: Fraction, k: int):
    """Active vertices and binding frequency rows for harmonic ``k``."""
    active = [v for v in range(spectrum.n)
              if is_inf(profile.vertex_bw[v]) or k < profile.vertex_bw[v] * period]
    rows = [f for f, c in enumerate(profile.freq_bw)
            if not is_inf(c) and k >= c * period]
    return active, rows


def space_dimension(spectrum: Spectrum, profile: BandwidthProfile, period) -> int:
    """Real dimension of the constrained space of T-periodic signals."""
    period = Fraction(period)
    finite = [b for b in profile.vertex_bw if not is_inf(b)]
    if len(finite) != spectrum.n:
        raise ValueError("space_dimension requires finite vertex bandwidths")
    top = max((harmonic_cutoff(b, period) for b in profile.vertex_bw), default=-1)
    dim = 0
    for k in range(0, top + 1):
        active, rows = _per_harmonic_constraints(spectrum, profile, period, k)
        if not active:
            continue
        basis = null_space(spectrum.submatrix(rows, active))
        dim += basis.shape[1] * (1 if k == 0 else 2)
    return dim


def _first_harmonics_beyond(coeffs: np.ndarray, limits: dict, cutoff: int, threshold) -> dict:
    """Row -> the first harmonic above its limit that has a coefficient
    beyond ``threshold``, for the rows in ``limits`` that have one."""
    big = np.abs(coeffs[:, :n_trig_coeffs(cutoff)]) > threshold
    # harmonic k >= 1 owns columns 2k-1 (cos) and 2k (sin)
    per_harmonic = np.hstack([big[:, :1], big[:, 1::2] | big[:, 2::2]])
    rows = list(limits)
    beyond = per_harmonic[rows] & (np.arange(cutoff + 1)[None, :]
                                   > np.array([limits[r] for r in rows])[:, None])
    return {r: int(np.argmax(hit)) for r, hit in zip(rows, beyond) if hit.any()}


def membership_violations(spectrum: Spectrum, profile: BandwidthProfile,
                          signal: GraphSignal, tol: float = COEFF_TOL) -> list:
    """Support checks: vertex rows within B, transformed rows within C.
    Lists each violating row once, with its first harmonic past the bound."""
    period = signal.domain
    scale = max(1.0, float(np.max(np.abs(signal.coeffs))) if signal.coeffs.size else 1.0)
    vertex_limits = {v: harmonic_cutoff(b, period)
                     for v, b in enumerate(profile.vertex_bw) if not is_inf(b)}
    freq_limits = {f: harmonic_cutoff(c, period) if c > 0 else -1
                   for f, c in enumerate(profile.freq_bw) if not is_inf(c)}
    bad = [("vertex", v, k) for v, k in _first_harmonics_beyond(
        signal.coeffs, vertex_limits, signal.cutoff, tol * scale).items()]
    transformed = spectrum.basis @ signal.coeffs
    bad += [("frequency", f, k) for f, k in _first_harmonics_beyond(
        transformed, freq_limits, signal.cutoff, tol * scale).items()]
    return bad


# --- synthesis -------------------------------------------------------------

def draw_contents(plan: SamplingPlan, mode: str, domain, seed) -> dict:
    """One standard-normal scalar content per plan unknown, drawn in plan order."""
    rng = np.random.default_rng(seed)
    return {u: rng.standard_normal(scalar_basis(mode, domain, plan.unknown_bandwidth(u))[0])
            for u in plan.unknowns}


def assemble(plan: SamplingPlan, mode: str, domain, contents: dict) -> GraphSignal:
    """Sum the extension images of per-unknown scalar contents.

    Periodic contents share the one trig block, shorter ones leaving its
    top harmonics zero; sinc contents add into the block of their bandwidth.
    """
    bws = {u: plan.unknown_bandwidth(u) for u in contents}
    if mode == "periodic":
        # trig bases nest: one block of the top bandwidth holds every content
        bands = (max(bws.values(), default=Fraction(0)),)
        bws = dict.fromkeys(bws, bands[0])
    else:
        bands = tuple(sorted(set(bws.values())))
    widths = [scalar_basis(mode, domain, b)[0] for b in bands]
    offsets = dict(zip(bands, np.cumsum([0] + widths)))
    coeffs = np.zeros((plan.n, sum(widths)))
    for u, content in contents.items():
        lo = offsets[bws[u]]
        coeffs[:, lo:lo + len(content)] += np.outer(plan.extension_column(u), content)
    return GraphSignal(mode, domain, coeffs, bands)


def synthesize_signal(spectrum: Spectrum, profile: BandwidthProfile, seed,
                      mode: str, period_or_window, plan: Optional[SamplingPlan] = None,
                      filtration=None) -> GraphSignal:
    """Random member of the signal space built from free base content plus
    one quotient witness per filtration level.

    When ``plan`` is omitted it is derived from the profile; ``filtration``
    is unread and kept for callers that pass it. Periodic-mode output is
    verified against the membership checker before being returned.
    """
    from .planner import plan_problem

    if plan is None:
        _, profile, _, _, plan = plan_problem(spectrum, profile)
    if mode == "periodic":
        domain = Fraction(period_or_window)
    elif mode == "sinc":
        domain = (Fraction(period_or_window[0]), Fraction(period_or_window[1]))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    signal = assemble(plan, mode, domain, draw_contents(plan, mode, domain, seed))
    if mode == "periodic":
        bad = membership_violations(spectrum, profile, signal)
        if bad:
            raise AssertionError(f"synthesized signal violates its own constraints: {bad}")
    return signal
