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
the whole constrained signal space (dimension, random members, membership
verification), which serves as the independent oracle for the planner and
the recovery pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bandwidth import BandwidthProfile
from .numerics import COEFF_TOL, harmonic_cutoff, is_inf, n_trig_coeffs, null_space
from .planner import SamplingPlan
from .spectral import Spectrum


def trig_design(times: np.ndarray, cutoff: int, period: float) -> np.ndarray:
    """Evaluation matrix of the trig basis [1, cos, sin, ...] at ``times``."""
    times = np.asarray(times, dtype=float)
    cols = [np.ones_like(times)]
    for k in range(1, cutoff + 1):
        arg = 2.0 * np.pi * k * times / period
        cols.append(np.cos(arg))
        cols.append(np.sin(arg))
    if cutoff < 0:
        return np.zeros((len(times), 0))
    return np.stack(cols, axis=1)


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

    def design(self, times) -> np.ndarray:
        """len(times) x P evaluation matrix of the basis blocks."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        blocks = [scalar_basis(self.mode, self.domain, b)[1](times) for b in self.bands]
        return np.hstack(blocks) if blocks else np.zeros((len(times), 0))

    def eval(self, vertex: int, times) -> np.ndarray:
        return self.design(times) @ self.coeffs[vertex]

    def eval_all(self, times) -> np.ndarray:
        """n x len(times) values; the basis is evaluated once for all vertices."""
        design = self.design(times)
        # one product per row keeps each row bit-identical to eval()
        return np.stack([design @ row for row in self.coeffs])


def PeriodicSignal(period, coeffs) -> GraphSignal:
    """Periodic signal from its n x (2K+1) trig-coefficient matrix.

    The one trig block is labelled with bandwidth (K+1)/T, the largest
    whose harmonics (strictly below it) stop at K.
    """
    period = Fraction(period)
    coeffs = np.asarray(coeffs, dtype=float)
    return GraphSignal("periodic", period, coeffs,
                       (Fraction((coeffs.shape[1] + 1) // 2) / period,))


def pad_coeffs(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    want = n_trig_coeffs(cutoff)
    if coeffs.shape[-1] >= want:
        return coeffs
    pad = [(0, 0)] * (coeffs.ndim - 1) + [(0, want - coeffs.shape[-1])]
    return np.pad(coeffs, pad)


# --- coefficient-space oracle (periodic) ----------------------------------

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


def membership_violations(spectrum: Spectrum, profile: BandwidthProfile,
                          signal: GraphSignal, tol: float = COEFF_TOL) -> list:
    """Support checks: vertex rows within B, transformed rows within C."""
    period = signal.domain
    scale = max(1.0, float(np.max(np.abs(signal.coeffs))) if signal.coeffs.size else 1.0)
    bad = []
    for v, b in enumerate(profile.vertex_bw):
        if is_inf(b):
            continue
        limit = harmonic_cutoff(b, period)
        for k in range(limit + 1, signal.cutoff + 1):
            lo, hi = (0, 1) if k == 0 else (2 * k - 1, 2 * k + 1)
            if np.any(np.abs(signal.coeffs[v, lo:hi]) > tol * scale):
                bad.append(("vertex", v, k))
                break
    transformed = spectrum.basis @ signal.coeffs
    for f, c in enumerate(profile.freq_bw):
        if is_inf(c):
            continue
        limit = harmonic_cutoff(c, period) if c > 0 else -1
        for k in range(limit + 1, signal.cutoff + 1):
            lo, hi = (0, 1) if k == 0 else (2 * k - 1, 2 * k + 1)
            if np.any(np.abs(transformed[f, lo:hi]) > tol * scale):
                bad.append(("frequency", f, k))
                break
    return bad


def verify_membership(spectrum, profile, signal, tol: float = COEFF_TOL) -> bool:
    return not membership_violations(spectrum, profile, signal, tol)


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
                      filtration=None, sequence=None) -> GraphSignal:
    """Random member of the signal space built from free base content plus
    one quotient witness per filtration level.

    When ``plan`` is omitted it is derived from the profile. Periodic-mode
    output is verified against the membership checker before being returned.
    """
    from .planner import plan_problem

    if plan is None:
        _, profile, filtration, sequence, plan = plan_problem(spectrum, profile)
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


def quotient_witness(spectrum: Spectrum, profile: BandwidthProfile, step, period) -> GraphSignal:
    """Signal whose peeled transform has support reaching the quotient bound.

    Construction from the tightness argument: full-bandwidth content at a
    contributing vertex of the optimal uniqueness set, zero elsewhere on it.
    """
    from .dependence import extension_matrix, x_support

    period = Fraction(period)
    x = step.x_vec
    support = x_support(x)
    cutoff = harmonic_cutoff(step.b_star, period)
    candidates = [v for v, hit in zip(step.chosen_v0, support) if hit
                  and profile.vertex_bw[v] >= step.b_star]
    if not candidates:
        raise AssertionError("no witness vertex; quotient bound computation inconsistent")
    vstar = candidates[0]
    coeffs = np.zeros(n_trig_coeffs(cutoff))
    if cutoff >= 0:
        coeffs[0 if cutoff == 0 else 2 * cutoff - 1] = 1.0
    m = extension_matrix(spectrum, step.lambda0, step.chosen_v0)
    col = step.chosen_v0.index(vstar)
    full = np.outer(m[:, col], coeffs)
    return PeriodicSignal(period, full)
