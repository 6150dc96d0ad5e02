"""Discrete sample sets, rate/eccentricity, sampling and staged recovery."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ProblemFormatError, ReconstructionError
from .numerics import least_period
from .planner import SamplingPlan, _place_spread_grids, choose_spread, rates_by_vertex
from .signals import (
    GraphSignal,
    assemble,
    draw_contents,
    pad_coeffs,
    scalar_basis,
    sinc_indices,
)
from .spectral import Spectrum

RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class RealizedGrid:
    grid_id: str
    vertex: int
    rate: Fraction
    phase: Fraction
    times: tuple  # Fractions


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

    def grid(self, grid_id: str) -> RealizedGrid:
        for g in self.grids:
            if g.grid_id == grid_id:
                return g
        raise KeyError(grid_id)

    def n_points(self) -> int:
        return sum(len(g.times) for g in self.grids)


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


def _periodic_grid_times(rate: Fraction, phase: Fraction, period: Fraction) -> tuple:
    count = rate * period
    if count.denominator != 1:
        raise ProblemFormatError(
            f"periodic mode needs integral samples per period; rate {rate} * T {period} = {count}")
    return tuple(phase + Fraction(j, rate) for j in range(int(count)))


def _sinc_grid_times(rate: Fraction, phase: Fraction, window) -> tuple:
    lo, hi = sinc_indices(rate, phase, window)
    return tuple(phase + Fraction(j, rate) for j in range(lo, hi + 1))


def build_sample_set(plan: SamplingPlan, mode: str, period_or_window) -> SampleSet:
    """Realize the plan's grids as concrete sample times."""
    grids = []
    if mode == "periodic":
        period = Fraction(period_or_window)
        if period <= 0:
            raise ProblemFormatError("period must be positive")
        for g in plan.grids:
            grids.append(RealizedGrid(g.grid_id, g.vertex, g.rate, g.phase,
                                      _periodic_grid_times(g.rate, g.phase, period)))
        return SampleSet(n=plan.n, mode="periodic", period=period, window=None, grids=tuple(grids))
    if mode == "sinc":
        window = (Fraction(period_or_window[0]), Fraction(period_or_window[1]))
        if window[1] <= window[0]:
            raise ProblemFormatError("window must be non-degenerate")
        for g in plan.grids:
            grids.append(RealizedGrid(g.grid_id, g.vertex, g.rate, g.phase,
                                      _sinc_grid_times(g.rate, g.phase, window)))
        return SampleSet(n=plan.n, mode="sinc", period=None, window=window, grids=tuple(grids))
    raise ProblemFormatError(f"unknown mode {mode!r}")


def redistribute(spectrum: Spectrum, lambda0: Sequence[int], vertex_bw: Sequence,
                 v0: Sequence[int], v_star: Sequence[int], sample_set: SampleSet) -> SampleSet:
    """Spread a base sampling set over ``v_star`` without changing its rate.

    Requires every |V0|-subset of ``v_star`` to be a uniqueness set and the
    input grids to sit on the base set at its nominal rates. Of the two
    spread constructions (per-vertex carrier groups, level-wise increments)
    the one with the lower eccentricity is realized.
    """
    v0 = tuple(sorted(set(v0)))
    by_vertex = {g.vertex: g for g in sample_set.grids}
    if set(by_vertex) - set(v0):
        raise ProblemFormatError("sample set has grids outside the base uniqueness set")
    for w, grid in by_vertex.items():
        if grid.rate != 2 * Fraction(vertex_bw[w]):
            raise ProblemFormatError(
                f"grid at vertex {w} has rate {grid.rate}, expected 2*{vertex_bw[w]}")
    spread_grids, _ = choose_spread(spectrum, lambda0, vertex_bw, v0, v_star)
    grids = []
    for g in _place_spread_grids(spread_grids, ()):
        if sample_set.mode == "periodic":
            times = _periodic_grid_times(g.rate, g.phase, sample_set.period)
        else:
            times = _sinc_grid_times(g.rate, g.phase, sample_set.window)
        grids.append(RealizedGrid(g.grid_id, g.vertex, g.rate, g.phase, times))
    spread = SampleSet(n=sample_set.n, mode=sample_set.mode, period=sample_set.period,
                       window=sample_set.window, grids=tuple(grids))
    if sample_rate(spread) != sample_rate(sample_set):
        raise AssertionError("redistribution changed the sample rate")
    return spread


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


@dataclass(frozen=True, eq=False)
class Observation:
    """Sampled values, tagged by the grid they came from."""

    entries: tuple  # (grid_id, vertex, time Fraction, value float)

    def by_grid(self) -> dict:
        out: dict = {}
        for gid, vertex, time, value in self.entries:
            out.setdefault(gid, []).append((time, value))
        return out


def sample_signal(signal: GraphSignal, sample_set: SampleSet) -> Observation:
    """Pointwise evaluation of ``signal`` on every grid of the set."""
    entries = []
    for g in sample_set.grids:
        if not g.times:
            continue
        values = signal.eval(g.vertex, np.array([float(t) for t in g.times]))
        for t, val in zip(g.times, values):
            entries.append((g.grid_id, g.vertex, t, float(val)))
    return Observation(entries=tuple(entries))


# --- staged recovery -------------------------------------------------------

def _bases(plan: SamplingPlan, mode: str, domain) -> dict:
    """Scalar basis (width, design map) of every plan unknown."""
    return {u: scalar_basis(mode, domain, plan.unknown_bandwidth(u)) for u in plan.unknowns}


def _layout(unknowns, bases) -> tuple:
    """Column blocks (unknown, first column, width) and the total width."""
    blocks, total = [], 0
    for u in unknowns:
        blocks.append((u, total, bases[u][0]))
        total += bases[u][0]
    return blocks, total


def _design_rows(plan, blocks, total, bases, vertex, times) -> np.ndarray:
    """Observation rows at ``vertex``: each visible block's scaled design."""
    rows = np.zeros((len(times), total))
    for u, lo, cols in blocks:
        scale = plan.visibility(u, vertex)
        if scale != 0.0 and cols:
            rows[:, lo:lo + cols] = scale * bases[u][1](times)
    return rows


@dataclass(eq=False)
class RecoveryResult:
    recovered: GraphSignal
    components: list          # level 0 first, then one per quotient level
    per_level_contents: dict  # unknown -> scalar basis coefficients
    diagnostics: dict


def recover(observation: Observation, plan: SamplingPlan, spectrum: Spectrum,
            sample_set: SampleSet) -> RecoveryResult:
    """Stage-by-stage exact reconstruction from tagged observations.

    Each stage solves its unknown blocks jointly from its grids after
    subtracting everything already recovered; stage construction guarantees
    no not-yet-recovered block outside the stage is visible on its grids.
    Raises with diagnostics when a stage system is rank deficient or
    inconsistent with the observations.
    """
    mode, domain = sample_set.mode, sample_set.domain
    bases = _bases(plan, mode, domain)
    obs_by_grid = observation.by_grid()
    contents: dict = {}
    diagnostics: dict = {"stages": []}

    for stage in plan.stages:
        blocks, total_cols = _layout(stage.unknowns, bases)
        rows_a, rows_y, n_rows = [], [], 0
        for gid in stage.grid_ids:
            grid = sample_set.grid(gid)
            pairs = obs_by_grid.get(gid, [])
            if len(pairs) != len(grid.times):
                raise ReconstructionError(
                    f"observation does not cover grid {gid}",
                    {"grid": gid, "expected": len(grid.times), "got": len(pairs)})
            times = np.array([float(t) for t, _ in pairs])
            values = np.array([v for _, v in pairs])
            for solved, coeffs in contents.items():
                scale = plan.visibility(solved, grid.vertex)
                if scale != 0.0:
                    values = values - scale * (bases[solved][1](times) @ coeffs)
            rows_a.append(_design_rows(plan, blocks, total_cols, bases, grid.vertex, times))
            rows_y.append(values)
            n_rows += len(times)
        if total_cols == 0:
            for unknown, _, _ in blocks:
                contents[unknown] = np.zeros(0)
            continue
        if n_rows == 0:
            raise ReconstructionError("stage has unknowns but no observations",
                                      {"unknowns": stage.unknowns})
        a = np.vstack(rows_a)
        y = np.concatenate(rows_y)
        solution, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < total_cols:
            raise ReconstructionError(
                "rank-deficient reconstruction system",
                {"unknowns": stage.unknowns, "rank": int(rank), "columns": total_cols})
        residual = float(np.max(np.abs(a @ solution - y))) if n_rows else 0.0
        scale = max(1.0, float(np.max(np.abs(y))) if n_rows else 1.0)
        if residual > RESIDUAL_TOL * scale:
            raise ReconstructionError(
                "observations are inconsistent with the signal model",
                {"unknowns": stage.unknowns, "residual": residual})
        diagnostics["stages"].append({"unknowns": stage.unknowns, "rows": n_rows,
                                      "columns": total_cols, "residual": residual})
        for unknown, lo, cols in blocks:
            contents[unknown] = solution[lo:lo + cols]

    # bases first, then levels ascending: summed in this order, ``recovered``
    # equals the sum of ``components`` bit for bit
    parts = [{u: c for u, c in contents.items() if u[0] == "base"}]
    parts += [{u: contents[u]} for u in plan.unknowns if u[0] == "level"]
    components = [assemble(plan, mode, domain, part) for part in parts]
    recovered = assemble(plan, mode, domain, {u: c for part in parts for u, c in part.items()})
    return RecoveryResult(recovered=recovered, components=components,
                          per_level_contents=contents, diagnostics=diagnostics)


# --- error measurement ------------------------------------------------------

def _trig_energy(coeffs: np.ndarray) -> float:
    if coeffs.size == 0:
        return 0.0
    energy = coeffs[0] ** 2
    if len(coeffs) > 1:
        energy += 0.5 * float(np.sum(coeffs[1:] ** 2))
    return float(energy)


def recovery_error(truth: GraphSignal, recovered: GraphSignal, mode: str,
                   period_or_window, n: int, oversample: int = 32) -> dict:
    """Per-vertex relative L2 error.

    Periodic mode uses the closed form from the coefficients; sinc mode uses
    trapezoid quadrature on the inner half window at ``oversample`` times the
    highest basis-block rate of the two signals. Zero-norm references are
    reported as absolute errors with a flag.
    """
    out = {}
    if mode == "periodic":
        top = max(truth.cutoff, recovered.cutoff)
        a = pad_coeffs(truth.coeffs, top)
        b = pad_coeffs(recovered.coeffs, top)
        for v in range(n):
            ref = _trig_energy(a[v]) ** 0.5
            err = _trig_energy(a[v] - b[v]) ** 0.5
            if ref > 0:
                out[v] = {"error": err / ref, "relative": True}
            else:
                out[v] = {"error": err, "relative": False}
        return out

    window = period_or_window
    t0, t1 = float(window[0]), float(window[1])
    span = t1 - t0
    lo, hi = t0 + span / 4.0, t1 - span / 4.0
    rate = 2.0 * float(max(truth.bands + recovered.bands, default=0))
    count = max(64, int((hi - lo) * rate * oversample))
    times = np.linspace(lo, hi, count)
    ref_vals = truth.eval_all(times)
    err_vals = ref_vals - recovered.eval_all(times)
    refs = np.sqrt(np.trapezoid(ref_vals ** 2, times, axis=1))
    errs = np.sqrt(np.trapezoid(err_vals ** 2, times, axis=1))
    for v in range(n):
        ref, err = float(refs[v]), float(errs[v])
        if ref > 0:
            out[v] = {"error": err / ref, "relative": True}
        else:
            out[v] = {"error": err, "relative": False}
    return out


def plan_roundtrip_ok(plan: SamplingPlan, spectrum: Spectrum, seed: int = 0,
                      tol: float = 1e-8) -> bool:
    """Cheap self-test: a random plan-parameterized signal survives the
    sample/recover round trip at the plan's least valid period."""
    period = least_period([g.rate for g in plan.grids])
    truth = assemble(plan, "periodic", period, draw_contents(plan, "periodic", period, seed))
    sset = build_sample_set(plan, "periodic", period)
    try:
        result = recover(sample_signal(truth, sset), plan, spectrum, sset)
    except ReconstructionError:
        return False
    top = max(truth.cutoff, result.recovered.cutoff)
    diff = pad_coeffs(truth.coeffs, top) - pad_coeffs(result.recovered.coeffs, top)
    scale = max(1.0, float(np.max(np.abs(truth.coeffs))) if truth.coeffs.size else 1.0)
    return float(np.max(np.abs(diff))) <= tol * scale


# --- global sampling operator (analysis tool) -------------------------------

def sampling_operator(plan: SamplingPlan, sample_set: SampleSet):
    """Dense matrix of the full observation map over the plan's unknowns.

    Rows follow the sample-set grids in order; columns are the concatenated
    per-unknown coefficient blocks. Used to study uniqueness after point
    deletions: a nontrivial null vector is a distinct signal in the space
    matching the remaining observations.
    """
    mode, domain = sample_set.mode, sample_set.domain
    bases = _bases(plan, mode, domain)
    blocks, total_cols = _layout(plan.unknowns, bases)
    rows = []
    row_meta = []
    for grid in sample_set.grids:
        times = np.array([float(t) for t in grid.times])
        rows.append(_design_rows(plan, blocks, total_cols, bases, grid.vertex, times))
        row_meta.extend((grid.grid_id, t) for t in grid.times)
    matrix = np.vstack(rows) if rows else np.zeros((0, total_cols))
    return matrix, blocks, row_meta


def unknowns_to_signal(plan: SamplingPlan, blocks, vector: np.ndarray,
                       period) -> GraphSignal:
    """Interpret a coefficient vector of the sampling operator as a signal."""
    contents = {unknown: vector[lo:lo + cols] for unknown, lo, cols in blocks}
    return assemble(plan, "periodic", Fraction(period), contents)
