"""Discrete sample sets, rate/eccentricity, sampling and staged recovery."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from .dependence import UniquenessSet, is_uniqueness_set
from .errors import ProblemFormatError, ReconstructionError
from .numerics import least_period
from .planner import SamplingPlan, Stage, base_plan, rates_by_vertex, redistribute_plan
from .signals import (
    GraphSignal,
    assemble,
    eval_pair,
    pad_coeffs,
    scalar_basis,
    sinc_indices,
)
from .spectral import Spectrum

RESIDUAL_TOL = 1e-6
EPS = np.finfo(float).eps

# Most points a realized sample set may hold: about 800 times the largest
# set that the tests or the benchmark realize. Sets past it come from grid
# rates that share no short period, or from a far too long period or
# window; they run to 10^9 points and more, too many times to build.
MAX_SAMPLE_POINTS = 10 ** 6

# Time points per signal evaluation in sinc-mode error quadrature; bounds
# the memory of the times x columns cardinal-series design.
QUADRATURE_BLOCK = 1024
# Quadrature points per unit time, as a multiple of the highest basis-block
# rate of the two signals compared in sinc mode.
OVERSAMPLE = 32


@dataclass(frozen=True)
class RealizedGrid:
    """A uniform grid's sample times phase + j / rate, j in ``indices``:
    a lattice, held as its index range, not as one time per point."""

    grid_id: str
    vertex: int
    rate: Fraction
    phase: Fraction
    indices: range

    @cached_property
    def times(self) -> tuple:
        """The sample times as Fractions, for the analysis tools and tests."""
        return _grid_times(self.rate, self.phase, self.indices)

    @cached_property
    def float_times(self) -> np.ndarray:
        """The sample times as floats: (p*r + j*s*q) / (q*r) for phase p/q and
        rate r/s, each the correctly rounded float of its exact time. While
        every integer involved stays within 2^53 floats hold them exactly and
        one numpy division rounds like the true division of Python ints,
        which serves the rest."""
        p, q = self.phase.numerator, self.phase.denominator
        r, s = self.rate.numerator, self.rate.denominator
        offset, step, scale = p * r, s * q, q * r
        first, stop = self.indices.start, self.indices.stop
        if abs(offset) + step * max(abs(first), abs(stop)) <= 2 ** 53 and scale <= 2 ** 53:
            return (offset + step * np.arange(first, stop, dtype=float)) / scale
        return np.array([(offset + j * step) / scale for j in self.indices], dtype=float)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Countable discrete sampling set with uniform per-vertex grids."""

    n: int
    mode: str
    period: Optional[Fraction]
    window: Optional[tuple]
    grids: tuple

    @property
    def domain(self):
        """The period (periodic mode) or the window (sinc mode)."""
        return self.period if self.mode == "periodic" else self.window

    def per_vertex_rates(self) -> dict:
        return rates_by_vertex(self.grids)

    def n_points(self) -> int:
        return sum(len(g.indices) for g in self.grids)


def sample_rate(sample_set: SampleSet) -> Fraction:
    """Total rate: the per-vertex uniform-grid rates add up."""
    return sum((g.rate for g in sample_set.grids), Fraction(0))


def eccentricity(sample_set: SampleSet) -> Fraction:
    """|V| * (largest per-vertex rate) / (total rate)."""
    total = sample_rate(sample_set)
    if total == 0:
        raise ProblemFormatError("eccentricity undefined for a zero-rate sample set")
    top = max(sample_set.per_vertex_rates().values())
    return Fraction(sample_set.n) * top / total


def _periodic_indices(rate: Fraction, period: Fraction) -> range:
    count = rate * period
    if count.denominator != 1:
        raise ProblemFormatError(
            f"periodic mode needs integral samples per period; rate {rate} * T {period} = {count}")
    return range(int(count))


def _sinc_indices(rate: Fraction, phase: Fraction, window) -> range:
    lo, hi = sinc_indices(rate, phase, window)
    return range(lo, hi + 1)


def _grid_times(rate: Fraction, phase: Fraction, indices) -> tuple:
    """phase + j/rate for each j, each built as one Fraction from integers:
    with phase = p/q and rate = r/s it is (p*r + j*s*q) / (q*r)."""
    p, q = phase.numerator, phase.denominator
    r, s = rate.numerator, rate.denominator
    return tuple(Fraction(p * r + j * s * q, q * r) for j in indices)


def _periodic_grid_times(rate: Fraction, phase: Fraction, period: Fraction) -> tuple:
    return _grid_times(rate, phase, _periodic_indices(rate, period))


def _sinc_grid_times(rate: Fraction, phase: Fraction, window) -> tuple:
    return _grid_times(rate, phase, _sinc_indices(rate, phase, window))


def build_sample_set(plan: SamplingPlan, mode: str, period_or_window) -> SampleSet:
    """Realize the plan's grids as lattices of sample times on the domain.

    Counts the points first and refuses a set of more than
    ``MAX_SAMPLE_POINTS``.
    """
    if mode == "periodic":
        domain = Fraction(period_or_window)
        if domain <= 0:
            raise ProblemFormatError("period must be positive")
        indices = [_periodic_indices(g.rate, domain) for g in plan.grids]
    elif mode == "sinc":
        domain = (Fraction(period_or_window[0]), Fraction(period_or_window[1]))
        if domain[1] <= domain[0]:
            raise ProblemFormatError("window must be non-degenerate")
        indices = [_sinc_indices(g.rate, g.phase, domain) for g in plan.grids]
    else:
        raise ProblemFormatError(f"unknown mode {mode!r}")
    # ranges past sys.maxsize have no len()
    points = sum(max(0, r.stop - r.start) for r in indices)
    if points > MAX_SAMPLE_POINTS:
        raise ProblemFormatError(
            f"the sample set would hold about 10^{math.floor(math.log10(int(points)))} points, "
            f"more than the {MAX_SAMPLE_POINTS} a sample set may hold; choose a shorter "
            f"period or window")
    grids = tuple(RealizedGrid(g.grid_id, g.vertex, g.rate, g.phase, r)
                  for g, r in zip(plan.grids, indices))
    periodic = mode == "periodic"
    return SampleSet(n=plan.n, mode=mode, period=domain if periodic else None,
                     window=None if periodic else domain, grids=grids)


def redistribute(spectrum: Spectrum, lambda0: Sequence[int], vertex_bw: Sequence,
                 v0: Sequence[int], v_star: Sequence[int], sample_set: SampleSet) -> SampleSet:
    """Spread a base sampling set over ``v_star`` without changing its rate.

    ``sample_set`` holds one rate-2B grid per positive-bandwidth vertex of
    the base uniqueness set ``v0``. The base-level plan alone is spread by
    :func:`planner.redistribute_plan` and realized on ``sample_set``'s
    domain; a plan with quotient levels is spread by ``redistribute_plan``
    itself, as the CLI does.
    """
    if not is_uniqueness_set(spectrum, lambda0, v0):
        raise ProblemFormatError(f"the base set {tuple(sorted(set(v0)))} is not a uniqueness set")
    plan = base_plan(UniquenessSet(spectrum, v0, lambda0), vertex_bw)
    want = sorted((g.vertex, g.rate) for g in plan.grids)
    if sorted((g.vertex, g.rate) for g in sample_set.grids) != want:
        raise ProblemFormatError(
            "a base sample set holds one grid per positive-bandwidth base vertex, at rate 2B: "
            + (", ".join(f"rate {r} at vertex {v}" for v, r in want) or "none"))
    return build_sample_set(redistribute_plan(plan, v_star), sample_set.mode,
                            sample_set.domain)


def prop_bound_eccentricity(n: int, sorted_bw: Sequence, m_prime: int, total_rate) -> Fraction:
    """Eccentricity bound for spreading over a set of m' vertices.

    ``sorted_bw`` lists the base-set bandwidths in ascending order; the
    bracketed counts are the numbers of disjoint carrier groups available
    at each stage (integer floor).
    """
    m = len(sorted_bw)
    bw = [Fraction(b) for b in sorted_bw]
    total = Fraction(total_rate)
    if total == 0:
        raise ProblemFormatError("bound undefined for zero total rate")
    acc = 2 * n * bw[0] / (m_prime // m)
    for i in range(1, m):
        groups = (m_prime - i) // (m - i)
        acc += 2 * n * (bw[i] - bw[i - 1]) / groups
    return acc / total


class _Entries(Sequence):
    """An observation's (grid_id, vertex, time Fraction, value float) per
    sample, in grid order. Its length is counted from the grids; the
    tuples are built on first access."""

    def __init__(self, observation):
        self._observation = observation

    def __len__(self) -> int:
        return sum(len(values) for values in self._observation.values)

    def __getitem__(self, index):
        return self._all[index]

    @cached_property
    def _all(self) -> tuple:
        return tuple(entry for grid, values in zip(self._observation.grids,
                                                   self._observation.values)
                     for entry in zip(repeat(grid.grid_id), repeat(grid.vertex),
                                      grid.times, values.tolist()))


@dataclass(frozen=True, eq=False)
class Observation:
    """Sampled values: one array per sampled grid, in the grid's time order."""

    grids: tuple              # RealizedGrid
    values: tuple             # one float array per grid

    @property
    def entries(self) -> _Entries:
        return _Entries(self)


def _periodic_values(coeffs: np.ndarray, period: Fraction, grid: RealizedGrid,
                     periods: int) -> np.ndarray:
    """The trig series ``coeffs`` [a0, a1, b1, ...] of period ``period`` on
    ``grid``, whose N samples span ``periods`` periods: one length-N inverse
    FFT. Sample j lies at t_0 + j / rate, so harmonic k turns by
    k / (rate * period) = k * periods / N per sample: it lands in bin
    k * periods mod N with the factor exp(2 pi i k t_0 / period). Harmonics
    that share a bin, on a grid with fewer samples than harmonics, add up."""
    count = len(grid.indices)
    cutoff = (len(coeffs) - 1) // 2
    # a cos + b sin = Re((a - i b) e^{i theta})
    c = np.zeros(cutoff + 1, complex)
    c[:1] = coeffs[:1]
    c[1:] = coeffs[1::2] - 1j * coeffs[2::2]
    turn = (grid.phase + grid.indices.start / grid.rate) / period
    if turn:
        # k * t_0 / period mod 1, exactly, before it is rounded
        num, den = turn.numerator % turn.denominator, turn.denominator
        k = np.arange(cutoff + 1, dtype=np.int64 if cutoff * den < 2 ** 63 else object)
        c *= np.exp((2j * np.pi / den) * (k * num % den).astype(float))
    spectrum = np.zeros(count, complex)
    np.add.at(spectrum, np.arange(cutoff + 1) * (periods % count) % count, c)
    return np.fft.ifft(spectrum, norm="forward").real


def sample_signal(signal: GraphSignal, sample_set: SampleSet) -> Observation:
    """The signal's values on every grid of the set.

    On a periodic set each grid takes one inverse FFT of its vertex's trig
    coefficients (:func:`_periodic_values`), O(N log N + K) for N samples
    and K harmonics; the set's period must be a whole multiple of the
    signal's. On a sinc set each grid evaluates ``signal.eval``.
    """
    if sample_set.mode == "periodic":
        periods = (sample_set.period / Fraction(signal.domain)
                   if signal.mode == "periodic" else None)
        if periods is None or periods.denominator != 1:
            raise ValueError(f"the sample set's period {sample_set.period} is not a whole "
                             f"multiple of the signal's period {signal.domain}")
        values = [_periodic_values(signal.coeffs[g.vertex], signal.domain, g, periods.numerator)
                  if g.indices else np.zeros(0) for g in sample_set.grids]
    else:
        values = [signal.eval(g.vertex, g.float_times) for g in sample_set.grids]
    return Observation(grids=sample_set.grids, values=tuple(values))


# --- staged recovery -------------------------------------------------------
#
# Every stage goes through one block solver. A sinc stage is one real block.
# A periodic stage's grids repeat every T0 = least_period(their rates), so at
# period T = m * T0 each grid's samples are m shifts of its first-window
# samples. An m-point FFT along the shifts splits the stage system into m
# harmonic classes: class rho holds the complex harmonics k = rho (mod m) of
# every unknown, seen at the first-window times only. Class m - rho is the
# conjugate of class rho, so classes 0..m//2 are solved. A one-grid stage
# folds into 1-row blocks: the sampling theorem's DFT reconstruction.

def _bases(plan: SamplingPlan, mode: str, domain) -> tuple:
    """Each plan unknown's bandwidth, and the scalar basis (width, design
    map) of each distinct bandwidth."""
    bws = {u: plan.unknown_bandwidth(u) for u in plan.unknowns}
    return bws, {b: scalar_basis(mode, domain, b) for b in set(bws.values())}


def _layout(unknowns, bws, bases) -> tuple:
    """Column blocks (unknown, first column, width) and the total width."""
    blocks, total = [], 0
    for u in unknowns:
        width = bases[bws[u]][0]
        blocks.append((u, total, width))
        total += width
    return blocks, total


class _GridDesigns(dict):
    """bandwidth -> its scalar basis design at one grid's times, evaluated
    on first use and then shared by every block of that bandwidth."""

    def __init__(self, bases: dict, times: np.ndarray):
        super().__init__()
        self.bases, self.times = bases, times

    def __missing__(self, bw):
        design = self[bw] = self.bases[bw][1](self.times)
        return design


def _design_rows(plan, blocks, total, bws, designs, vertex) -> np.ndarray:
    """Observation rows at ``vertex``: each visible block's scaled design."""
    rows = np.zeros((len(designs.times), total))
    for u, lo, cols in blocks:
        scale = plan.visibility(u, vertex)
        if scale != 0.0 and cols:
            rows[:, lo:lo + cols] = scale * designs[bws[u]]
    return rows


def _harmonics(bases: dict, period) -> np.ndarray:
    """2 pi i k / T for k = -top..top, top the largest cutoff among ``bases``."""
    top = max((width // 2 for width, _ in bases.values()), default=0)
    return (2j * np.pi / float(period)) * np.arange(-top, top + 1)


def _first_window_design(times: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """len(times) x len(freqs) matrix of exp(t * f), f = 2 pi i k / T."""
    return np.exp(np.outer(times, freqs))


@lru_cache(maxsize=1024)
def _harmonic_classes(m: int, widths: tuple) -> tuple:
    """Column layout of a stage folded m ways whose unknowns have the given
    trig widths 2K + 1: column (u, k), k = -K..K, lies in class k mod m.

    Returns each column's weight (1 for k = 0, else 1/sqrt(2)), whether its
    class lies past m//2, its conjugate partner (u, -k), and one entry per
    column count: the classes rho <= m//2 with that count, their columns
    and their weights in the rank (2 for a conjugate pair). The cache
    shares the arrays between stages, so they are read-only.
    """
    k = np.concatenate([np.arange(-(w // 2), w // 2 + 1) for w in widths if w])
    classes = k % m
    sizes = np.bincount(classes, minlength=m)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(classes, kind="stable")
    half = sizes[:m // 2 + 1]
    groups = []
    for size in sorted(set(half.tolist()) - {0}):
        rhos = np.flatnonzero(half == size)
        groups.append((rhos, order[starts[rhos][:, None] + np.arange(size)],
                       2 - ((rhos == 0) | (2 * rhos == m))))
    weight = np.where(k == 0, 1.0, np.sqrt(0.5))
    mirrored, partner = 2 * classes > m, np.arange(len(k)) - 2 * k
    for array in (weight, mirrored, partner, *(a for group in groups for a in group)):
        array.flags.writeable = False
    return weight, mirrored, partner, tuple(groups)


class _PeriodicStage:
    """A periodic stage folded over its grids' least period T0.

    At period T each grid holds m * n_g samples, m = T / T0 being the gcd
    of the grids' sample counts. Column (u, k) is unknown u's complex
    harmonic k, weighted so the folded blocks are unitarily equivalent to
    the real system and its rank cut keeps its meaning. Solved content is
    held per vertex as two-sided complex harmonics -top..top.
    """

    def __init__(self, plan, layout, cols, grids, freqs):
        m = self.m = math.gcd(*(len(g.indices) for g in grids))
        self.layout, self.cols, self.top = layout, cols, len(freqs) // 2
        counts = [len(g.indices) // m for g in grids]
        self.row_vertex = np.repeat([g.vertex for g in grids], counts)
        self.rows = m * len(self.row_vertex)
        # every grid's first window, in one design
        self.design = _first_window_design(
            np.concatenate([g.float_times[:n] for g, n in zip(grids, counts)]), freqs)
        matrix = np.zeros((len(self.row_vertex), cols), complex)
        row = 0
        for g, n in zip(grids, counts):
            for u, lo, width in layout:
                scale = plan.visibility(u, g.vertex)
                if scale != 0.0 and width:
                    first = self.top - width // 2
                    matrix[row:row + n, lo:lo + width] = (
                        scale * self.design[row:row + n, first:first + width])
            row += n
        self.weight, self.mirrored, self.partner, index = _harmonic_classes(
            m, tuple(width for _, _, width in layout))
        matrix *= self.weight
        self.index = [(rhos, columns) for rhos, columns, _ in index]
        self.groups = [(matrix[:, columns].transpose(1, 0, 2), weights)
                       for _, columns, weights in index]

    def right_sides(self, values, seen) -> list:
        """Fold the samples class by class, subtract the solved content
        ``seen`` at each row's vertex in one pass, and return the stacks'
        right-hand sides."""
        m, rows = self.m, len(self.row_vertex)
        y = np.fft.rfft(np.hstack([v.reshape(m, -1) for v in values]), axis=0) / m
        known = seen[self.row_vertex]
        if known.any():
            # harmonic k sits at column k + top; pad so columns fall in class order
            width = known.shape[1]
            shift = -self.top % m
            padded = np.zeros((rows, -(-(shift + width) // m) * m), complex)
            padded[:, shift:shift + width] = self.design * known
            y -= padded.reshape(rows, -1, m).sum(1)[:, :m // 2 + 1].T
        self.y = y
        return [y[rhos] for rhos, _ in self.index]

    def residual(self, fits) -> tuple:
        """Largest time-domain residual and largest folded-back sample."""
        r = -self.y
        for (rhos, _), f in zip(self.index, fits):
            r[rhos] += f
        back = np.abs(np.fft.irfft(np.hstack([r, self.y]), n=self.m, axis=0))
        width = r.shape[1]
        return self.m * float(back[:, :width].max()), self.m * float(back[:, width:].max())

    def contents(self, solutions) -> dict:
        """Class solutions -> each unknown's real [a0, a1, b1, ...] coefficients."""
        z = np.empty(self.cols, complex)
        for (_, columns), x in zip(self.index, solutions):
            z[columns] = x
        self.z = z = np.where(self.mirrored, z[self.partner].conj(), z) * self.weight
        out = {}
        for u, lo, width in self.layout:
            c = z[lo + width // 2:lo + width]
            out[u] = np.concatenate((c[:1].real, (2.0 * c[1:].conj()).view(float)))
        return out

    def add_solved(self, plan, seen) -> None:
        """Add the stage's solved harmonics, extended to every vertex, to ``seen``."""
        for u, lo, width in self.layout:
            first = self.top - width // 2
            seen[:, first:first + width] += np.outer(plan.extension_column(u),
                                                     self.z[lo:lo + width])


class _DenseSystem:
    """A stage as one real block: its grids' scaled designs, built once per
    (grid, bandwidth) and shared with the subtraction of solved blocks.
    Every sinc stage, and the whole observation map of ``sampling_operator``."""

    def __init__(self, plan, layout, cols, grids, bws, bases):
        self.plan, self.layout, self.grids, self.cols = plan, layout, grids, cols
        self.bws, self.designs = bws, [_GridDesigns(bases, g.float_times) for g in grids]
        self.matrix = np.vstack([_design_rows(plan, layout, cols, bws, designs, g.vertex)
                                 for g, designs in zip(grids, self.designs)])
        self.rows = len(self.matrix)
        self.groups = [(self.matrix[None], np.ones(1, int))]

    def right_sides(self, values, solved) -> list:
        """The samples less the ``solved`` blocks each grid sees."""
        parts = []
        for grid, designs, y in zip(self.grids, self.designs, values):
            for u, coeffs in solved.items():
                scale = self.plan.visibility(u, grid.vertex)
                if scale != 0.0:
                    y = y - scale * (designs[self.bws[u]] @ coeffs)
            parts.append(y)
        self.y = np.concatenate(parts)
        return [self.y[None]]

    def residual(self, fits) -> tuple:
        """Largest residual and largest sample."""
        return float(np.max(np.abs(fits[0][0] - self.y))), float(np.max(np.abs(self.y)))

    def contents(self, solutions) -> dict:
        return {u: solutions[0][0, lo:lo + width] for u, lo, width in self.layout}


def _stage_systems(plan: SamplingPlan, sample_set: SampleSet, dense: bool = False) -> tuple:
    """The one builder of stage systems over a realized sample set.

    Returns the harmonics -top..top that periodic stages share (None for
    dense systems) and, lazily per stage of the plan, its column layout,
    column count, grids and system: a :class:`_PeriodicStage` on a
    periodic set, a :class:`_DenseSystem` on a sinc set, and None when the
    stage has no columns or no samples. With ``dense`` there is one stage,
    every unknown over every grid of the set in order, as a dense system.
    """
    mode, domain = sample_set.mode, sample_set.domain
    bws, bases = _bases(plan, mode, domain)
    grids = {g.grid_id: g for g in sample_set.grids}
    stages = (Stage(plan.unknowns, tuple(grids)),) if dense else plan.stages
    freqs = _harmonics(bases, domain) if mode == "periodic" and not dense else None

    def build(stage):
        layout, cols = _layout(stage.unknowns, bws, bases)
        stage_grids = [grids[gid] for gid in stage.grid_ids]
        system = None
        if cols and any(g.indices for g in stage_grids):
            system = (_DenseSystem(plan, layout, cols, stage_grids, bws, bases) if freqs is None
                      else _PeriodicStage(plan, layout, cols, stage_grids, freqs))
        return layout, cols, stage_grids, system

    return freqs, map(build, stages)


def _rank(system, singular_values) -> int:
    """The stage rank: over the system's stacks of same-shape blocks, the
    weighted count of singular values above eps * max(rows, cols) * the
    largest singular value of any block (``lstsq``'s default cut)."""
    top = max((float(s.max()) for s in singular_values if s.size), default=0.0)
    cut = EPS * max(system.rows, system.cols) * top
    return sum(int(weights @ (s > cut).sum(1))
               for (_, weights), s in zip(system.groups, singular_values))


def _solve(factors, rhs) -> tuple:
    """Per stack, the full-column-rank least-squares solutions and fits."""
    solutions, fits = [], []
    for (u, s, vh), y in zip(factors, rhs):
        uty = u.conj().swapaxes(1, 2) @ y[:, :, None]
        solutions.append((vh.conj().swapaxes(1, 2) @ (uty / s[:, :, None]))[:, :, 0])
        fits.append((u @ uty)[:, :, 0])
    return solutions, fits


def _stage_values(sampled: dict, grid: RealizedGrid) -> np.ndarray:
    """The observed values of ``grid``: the observation must have sampled
    it on the same lattice and hold one value per sample time."""
    seen, values = sampled.get(grid.grid_id, (None, ()))
    lattice = (grid.rate, grid.phase, grid.indices)
    if (seen is None or (seen.rate, seen.phase, seen.indices) != lattice
            or len(values) != len(grid.indices)):
        raise ReconstructionError(
            f"observation does not cover grid {grid.grid_id}",
            {"grid": grid.grid_id, "expected": len(grid.indices), "got": len(values)})
    return values


@dataclass(eq=False)
class RecoveryResult:
    recovered: GraphSignal
    per_level_contents: dict  # unknown -> scalar basis coefficients
    diagnostics: dict


def recover(observation: Observation, plan: SamplingPlan, spectrum: Spectrum,
            sample_set: SampleSet) -> RecoveryResult:
    """Stage-by-stage exact reconstruction from tagged observations.

    Each stage solves its unknown blocks jointly from its grids after
    subtracting everything already recovered; stage construction guarantees
    no not-yet-recovered block outside the stage is visible on its grids.
    Periodic stages are solved per harmonic class (see above). Raises with
    diagnostics when a stage system is rank deficient or inconsistent with
    the observations.
    """
    freqs, systems = _stage_systems(plan, sample_set)
    sampled = {g.grid_id: (g, v) for g, v in zip(observation.grids, observation.values)}
    contents: dict = {}
    diagnostics: dict = {"stages": []}
    if freqs is not None:
        # all solved content at each vertex: complex harmonics -top..top
        seen = np.zeros((plan.n, len(freqs)), complex)

    for stage, (layout, total_cols, stage_grids, system) in zip(plan.stages, systems):
        values = [_stage_values(sampled, g) for g in stage_grids]
        if total_cols == 0:
            for unknown, _, _ in layout:
                contents[unknown] = np.zeros(0)
            continue
        if system is None:
            raise ReconstructionError("stage has unknowns but no observations",
                                      {"unknowns": stage.unknowns})
        rhs = system.right_sides(values, contents if freqs is None else seen)
        # one SVD per stack of same-shape blocks
        factors = [np.linalg.svd(stack, full_matrices=False) for stack, _ in system.groups]
        rank = _rank(system, [s for _, s, _ in factors])
        if rank < total_cols:
            raise ReconstructionError(
                "rank-deficient reconstruction system",
                {"unknowns": stage.unknowns, "rank": rank, "columns": total_cols})
        solutions, fits = _solve(factors, rhs)
        residual, largest = system.residual(fits)
        if residual > RESIDUAL_TOL * max(1.0, largest):
            raise ReconstructionError(
                "observations are inconsistent with the signal model",
                {"unknowns": stage.unknowns, "residual": residual})
        diagnostics["stages"].append({"unknowns": stage.unknowns, "rows": system.rows,
                                      "columns": total_cols, "residual": residual})
        contents.update(system.contents(solutions))
        if freqs is not None:
            system.add_solved(plan, seen)

    # the summation order, bases in solve order then levels ascending, fixes
    # ``recovered`` bit for bit
    ordered = {u: c for u, c in contents.items() if u[0] == "base"}
    ordered.update((u, contents[u]) for u in plan.unknowns if u[0] == "level")
    recovered = assemble(plan, sample_set.mode, sample_set.domain, ordered)
    return RecoveryResult(recovered=recovered, per_level_contents=contents,
                          diagnostics=diagnostics)


def rank_deficient_stages(plan: SamplingPlan) -> list:
    """The recoverability certificate: each stage whose periodic system at
    the plan's least period lacks full column rank, as (unknowns, rank,
    columns). Ranks the systems ``recover`` builds and solves, with the
    same cut; needs no signal and no observations."""
    period = least_period([g.rate for g in plan.grids])
    _, systems = _stage_systems(plan, build_sample_set(plan, "periodic", period))
    deficient = []
    for stage, (_, total_cols, _, system) in zip(plan.stages, systems):
        rank = 0 if system is None else _rank(
            system, [np.linalg.svd(stack, compute_uv=False) for stack, _ in system.groups])
        if rank < total_cols:
            deficient.append((stage.unknowns, rank, total_cols))
    return deficient


# --- error measurement ------------------------------------------------------

def _trig_energy(coeffs: np.ndarray) -> float:
    if coeffs.size == 0:
        return 0.0
    energy = coeffs[0] ** 2
    if len(coeffs) > 1:
        energy += 0.5 * float(np.sum(coeffs[1:] ** 2))
    return float(energy)


def recovery_error(truth: GraphSignal, recovered: GraphSignal, mode: str,
                   period_or_window, n: int) -> dict:
    """Per-vertex relative L2 error.

    Periodic mode uses the closed form from the coefficients; sinc mode uses
    trapezoid quadrature on the inner half window at ``OVERSAMPLE`` times
    the highest basis-block rate of the two signals, evaluated in blocks of
    ``QUADRATURE_BLOCK`` time points. Zero-norm references are reported as
    absolute errors with a flag.
    """
    if mode == "periodic":
        top = max(truth.cutoff, recovered.cutoff)
        a = pad_coeffs(truth.coeffs, top)
        b = pad_coeffs(recovered.coeffs, top)
        refs = [_trig_energy(a[v]) ** 0.5 for v in range(n)]
        errs = [_trig_energy(a[v] - b[v]) ** 0.5 for v in range(n)]
    else:
        window = period_or_window
        t0, t1 = float(window[0]), float(window[1])
        span = t1 - t0
        lo, hi = t0 + span / 4.0, t1 - span / 4.0
        rate = 2.0 * float(max(truth.bands + recovered.bands, default=0))
        count = max(64, int((hi - lo) * rate * OVERSAMPLE))
        times = np.linspace(lo, hi, count)
        ref_sq = np.zeros(truth.coeffs.shape[0])
        err_sq = np.zeros(truth.coeffs.shape[0])
        # consecutive blocks share their boundary sample, so the block sums add
        # up to the trapezoid rule over the whole grid
        for start in range(0, count - 1, QUADRATURE_BLOCK - 1):
            block = times[start:start + QUADRATURE_BLOCK]
            ref_vals, rec_vals = eval_pair(truth, recovered, block)
            err_vals = ref_vals - rec_vals
            ref_sq += np.trapezoid(ref_vals ** 2, block, axis=1)
            err_sq += np.trapezoid(err_vals ** 2, block, axis=1)
        refs, errs = np.sqrt(ref_sq).tolist(), np.sqrt(err_sq).tolist()
    return {v: {"error": errs[v] / refs[v], "relative": True} if refs[v] > 0
            else {"error": errs[v], "relative": False} for v in range(n)}


# --- global sampling operator (analysis tool) -------------------------------

def sampling_operator(plan: SamplingPlan, sample_set: SampleSet):
    """Dense matrix of the full observation map over the plan's unknowns.

    Rows follow the sample-set grids in order; columns are the concatenated
    per-unknown coefficient blocks. Used to study uniqueness after point
    deletions: a nontrivial null vector is a distinct signal in the space
    matching the remaining observations.
    """
    _, systems = _stage_systems(plan, sample_set, dense=True)
    (blocks, total_cols, grids, system), = systems
    matrix = np.zeros((sample_set.n_points(), total_cols)) if system is None else system.matrix
    return matrix, blocks, [(grid.grid_id, t) for grid in grids for t in grid.times]

