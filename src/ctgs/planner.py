"""Filtration construction, admissible vertex sequences and sampling plans.

The planner peels one finite positive frequency bound at a time (always the
smallest) until only 0/infinity bounds remain, recording for each step the
quotient bandwidth ``b`` it exposes. An admissible nested vertex sequence
then turns the chain into a concrete plan: base grids on a minimal
uniqueness set plus one quotient grid per step, with the recovery schedule
organized into stages that are solved in order by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .bandwidth import BandwidthProfile, validate_profile
from .dependence import (
    enumerate_uniqueness_sets,
    extension_matrix,
    greedy_minimal_vertex_set,
    is_dependent,
    is_uniqueness_set,
    minimal_rate_bruteforce,
    x_support,
    x_vector,
)
from .errors import InfeasibleProblemError, ProblemFormatError
from .numerics import is_inf
from .spectral import Spectrum

BACKTRACK_GUARD = 10


def select_lambda_star(freq_bw: Sequence) -> Optional[int]:
    """Index of the smallest strictly-positive finite frequency bound."""
    best = None
    for i, c in enumerate(freq_bw):
        if c == 0 or is_inf(c):
            continue
        if best is None or c < freq_bw[best]:
            best = i
    return best


@dataclass(frozen=True, eq=False)
class ReductionStep:
    """One peeling step, linking level ``level`` to ``level - 1``."""

    level: int
    lambda_star: int
    b_star: Fraction
    lambda0: tuple            # zero-bound frequencies at selection time
    chosen_v0: tuple          # uniqueness set achieving the minimal quotient bound
    x_vec: np.ndarray         # transform coefficients over chosen_v0
    child_freq_bw: tuple


@dataclass(frozen=True)
class FiltrationLevel:
    freq_bw: tuple
    lambda0: tuple


@dataclass(frozen=True, eq=False)
class Filtration:
    """Chain of frequency-bound maps from the simple level 0 up to the input."""

    levels: tuple             # FiltrationLevel, index 0..k
    steps: tuple              # ReductionStep in discovery order (level k first)

    @property
    def depth(self) -> int:
        return len(self.steps)

    def step_at(self, level: int) -> ReductionStep:
        for step in self.steps:
            if step.level == level:
                return step
        raise KeyError(f"no reduction step at level {level}")

    @property
    def quotient_bandwidths(self) -> tuple:
        """(b_1, ..., b_k) indexed by level."""
        return tuple(self.step_at(i).b_star for i in range(1, self.depth + 1))

    @property
    def lambda_star_order(self) -> tuple:
        """Frequencies peeled in discovery order (top level first)."""
        return tuple(step.lambda_star for step in self.steps)


def reduction_step(spectrum: Spectrum, profile: BandwidthProfile, level: int = 0) -> ReductionStep:
    """Peel the smallest positive finite frequency bound from ``profile``.

    The quotient bound is the minimum over all uniqueness sets of the
    largest vertex bound that actually contributes to the peeled transform,
    capped by the peeled frequency's own bound.
    """
    validate_profile(spectrum, profile)
    if not profile.all_vertex_finite():
        raise ProblemFormatError("reduction requires finite vertex bandwidths; finitize first")
    lam = select_lambda_star(profile.freq_bw)
    if lam is None:
        raise InfeasibleProblemError("frequency bandwidths are already simple; nothing to reduce")
    lambda0 = profile.lambda0()
    candidates = enumerate_uniqueness_sets(spectrum, lambda0)
    if not candidates:
        raise InfeasibleProblemError("no uniqueness set; constraints inconsistent")
    best = None
    for cand in candidates:
        x = x_vector(spectrum, lambda0, cand, lam)
        support = x_support(x)
        if not support.any():
            raise AssertionError("transform vector vanished entirely; numerical breakdown")
        bound = max(Fraction(profile.vertex_bw[v]) for v, hit in zip(cand.vertices, support) if hit)
        if best is None or bound < best[0]:
            best = (bound, cand, x)
    bound, chosen, x = best
    b_star = min(bound, Fraction(profile.freq_bw[lam]))
    child = profile.with_freq_zeroed(lam)
    return ReductionStep(level=level, lambda_star=lam, b_star=b_star, lambda0=lambda0,
                         chosen_v0=chosen.vertices, x_vec=x, child_freq_bw=child.freq_bw)


def build_filtration(spectrum: Spectrum, profile: BandwidthProfile) -> Filtration:
    """Iterate the reduction until the frequency bounds are simple."""
    validate_profile(spectrum, profile)
    if not profile.all_vertex_finite():
        raise ProblemFormatError("filtration requires finite vertex bandwidths; finitize first")
    k = sum(1 for c in profile.freq_bw if c != 0 and not is_inf(c))
    steps = []
    level_maps = [profile.freq_bw]
    current = profile
    for level in range(k, 0, -1):
        step = reduction_step(spectrum, current, level=level)
        steps.append(step)
        current = BandwidthProfile(profile.vertex_bw, step.child_freq_bw)
        level_maps.append(step.child_freq_bw)
    if not current.is_simple():
        raise AssertionError("reduction did not terminate at simple frequency bounds")
    level_maps.reverse()  # index 0..k
    levels = tuple(
        FiltrationLevel(freq_bw=fb, lambda0=tuple(i for i, c in enumerate(fb) if c == 0))
        for fb in level_maps
    )
    return Filtration(levels=levels, steps=tuple(steps))


@dataclass(frozen=True)
class AdmissibleSequence:
    """Nested vertex sets, one new vertex per filtration level."""

    v_sets: tuple             # V_0 .. V_k, sorted tuples
    added: tuple              # v_1 .. v_k
    base_rate: Fraction
    quotient_rates: tuple     # 2 * b_i


def _level_b(filtration: Filtration, level: int) -> Fraction:
    return filtration.step_at(level).b_star


def _x_at(spectrum, lambda0, vset, lambda_star, vertex) -> float:
    vs = sorted(vset)
    x = x_vector(spectrum, lambda0, vs, lambda_star)
    return float(x[vs.index(vertex)])


def _outside_bw_ok(spectrum, vertex_bw, lambda0, v_prev, v_cur, b) -> bool:
    for w in range(spectrum.n):
        if w in v_cur:
            continue
        if not is_dependent(spectrum, lambda0, v_prev, w) and Fraction(vertex_bw[w]) < b:
            return False
    return True


def verify_admissible_sequence(spectrum: Spectrum, profile: BandwidthProfile,
                               filtration: Filtration, seq: AdmissibleSequence) -> list:
    """Full re-check of the admissibility conditions; returns failure strings.

    Written independently of the search so it can serve as its oracle.
    """
    problems = []
    k = filtration.depth
    bw = profile.vertex_bw
    if len(seq.v_sets) != k + 1:
        return [f"sequence has {len(seq.v_sets)} sets, expected {k + 1}"]
    v0 = seq.v_sets[0]
    lam00 = filtration.levels[0].lambda0
    if not is_uniqueness_set(spectrum, lam00, v0):
        problems.append("level-0 set is not a uniqueness set")
    else:
        _, best_rate = minimal_rate_bruteforce(spectrum, lam00, bw)
        have = 2 * sum((Fraction(bw[v]) for v in v0), Fraction(0))
        if have != best_rate:
            problems.append(f"level-0 set rate {have} is not minimal ({best_rate})")
    for i in range(1, k + 1):
        lam_i0 = filtration.levels[i].lambda0
        v_cur, v_prev = seq.v_sets[i], seq.v_sets[i - 1]
        if len(v_cur) + len(lam_i0) != spectrum.n:
            problems.append(f"level {i}: size {len(v_cur)} breaks |V_i| + |Lambda_i0| = |V|")
            continue
        if not is_uniqueness_set(spectrum, lam_i0, v_cur):
            problems.append(f"level {i}: not a uniqueness set")
            continue
        diff = sorted(set(v_cur) - set(v_prev))
        if len(diff) != 1 or not set(v_prev) <= set(v_cur):
            problems.append(f"level {i}: sets do not grow by one vertex")
            continue
        vi = diff[0]
        if vi != seq.added[i - 1]:
            problems.append(f"level {i}: recorded vertex disagrees with the set difference")
        step = filtration.step_at(i)
        b = step.b_star
        if abs(_x_at(spectrum, lam_i0, v_cur, step.lambda_star, vi)) <= 1e-8:
            problems.append(f"level {i}: transform coefficient vanishes at the new vertex")
        if Fraction(bw[vi]) < b:
            problems.append(f"level {i}: new vertex bandwidth {bw[vi]} below quotient bound {b}")
        if not _outside_bw_ok(spectrum, bw, lam_i0, v_prev, v_cur, b):
            problems.append(f"level {i}: an outside non-dependent vertex has bandwidth below {b}")
    return problems


def _sequence_from_sets(profile, filtration, v_sets, added) -> AdmissibleSequence:
    base_rate = 2 * sum((Fraction(profile.vertex_bw[v]) for v in v_sets[0]), Fraction(0))
    rates = tuple(2 * _level_b(filtration, i) for i in range(1, filtration.depth + 1))
    return AdmissibleSequence(v_sets=tuple(tuple(sorted(s)) for s in v_sets),
                              added=tuple(added), base_rate=base_rate, quotient_rates=rates)


def _greedy_sequence(spectrum, profile, filtration) -> Optional[AdmissibleSequence]:
    lam00 = filtration.levels[0].lambda0
    v0, _ = greedy_minimal_vertex_set(spectrum, lam00, profile.vertex_bw)
    v_sets = [tuple(v0.vertices)]
    added = []
    current = set(v0.vertices)
    for i in range(1, filtration.depth + 1):
        step = filtration.step_at(i)
        lam_i0 = filtration.levels[i].lambda0
        choice = None
        for v in sorted(range(spectrum.n), key=lambda v: (profile.vertex_bw[v], v)):
            if v in current:
                continue
            trial = sorted(current | {v})
            if not is_uniqueness_set(spectrum, lam_i0, trial):
                continue
            if abs(_x_at(spectrum, lam_i0, trial, step.lambda_star, v)) <= 1e-8:
                continue
            choice = v
            break
        if choice is None:
            return None
        current.add(choice)
        v_sets.append(tuple(sorted(current)))
        added.append(choice)
    return _sequence_from_sets(profile, filtration, v_sets, added)


def _backtrack_sequence(spectrum, profile, filtration) -> Optional[AdmissibleSequence]:
    lam00 = filtration.levels[0].lambda0
    _, best_rate = minimal_rate_bruteforce(spectrum, lam00, profile.vertex_bw)
    minimal_sets = [
        cand.vertices for cand in enumerate_uniqueness_sets(spectrum, lam00)
        if 2 * sum((Fraction(profile.vertex_bw[v]) for v in cand.vertices), Fraction(0)) == best_rate
    ]
    k = filtration.depth
    bw = profile.vertex_bw

    def extend(v_sets, added, level):
        if level > k:
            return v_sets, added
        step = filtration.step_at(level)
        lam_i0 = filtration.levels[level].lambda0
        b = step.b_star
        current = set(v_sets[-1])
        for v in sorted(range(spectrum.n), key=lambda v: (bw[v], v)):
            if v in current:
                continue
            trial = sorted(current | {v})
            if not is_uniqueness_set(spectrum, lam_i0, trial):
                continue
            if abs(_x_at(spectrum, lam_i0, trial, step.lambda_star, v)) <= 1e-8:
                continue
            if Fraction(bw[v]) < b:
                continue
            if not _outside_bw_ok(spectrum, bw, lam_i0, sorted(current), trial, b):
                continue
            result = extend(v_sets + [tuple(trial)], added + [v], level + 1)
            if result is not None:
                return result
        return None

    for v0 in minimal_sets:
        result = extend([tuple(v0)], [], 1)
        if result is not None:
            v_sets, added = result
            return _sequence_from_sets(profile, filtration, v_sets, added)
    return None


def find_admissible_sequence(spectrum: Spectrum, profile: BandwidthProfile,
                             filtration: Filtration) -> Optional[AdmissibleSequence]:
    """Greedy search with a verified result, then bounded backtracking.

    Absence (None) is a valid outcome; the caller decides whether that is an
    error. Every returned sequence passes the independent verifier.
    """
    seq = _greedy_sequence(spectrum, profile, filtration)
    if seq is not None and not verify_admissible_sequence(spectrum, profile, filtration, seq):
        return seq
    if spectrum.n <= BACKTRACK_GUARD:
        seq = _backtrack_sequence(spectrum, profile, filtration)
        if seq is not None:
            leftover = verify_admissible_sequence(spectrum, profile, filtration, seq)
            if leftover:
                raise AssertionError(f"backtracking produced an inadmissible sequence: {leftover}")
            return seq
    return None


# --- sampling plans -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSpec:
    """Cached per-level recovery data: who carries the quotient, and how
    the recovered scalar extends to the rest of the graph."""

    level: int
    vertex: int
    b: Fraction
    lambda_star: int
    lambda0: tuple
    v_set: tuple
    extension: np.ndarray     # n x |v_set|
    col: int                  # column of ``vertex`` inside v_set


@dataclass(frozen=True)
class Grid:
    grid_id: str
    vertex: int
    rate: Fraction
    phase: Fraction


@dataclass(frozen=True)
class Stage:
    """A recovery stage: unknown blocks solved jointly from a set of grids."""

    unknowns: tuple           # ("base", vertex) or ("level", i)
    grid_ids: tuple


def rates_by_vertex(grids) -> dict:
    """Summed grid rate at each vertex that carries a grid."""
    rates: dict = {}
    for g in grids:
        rates[g.vertex] = rates.get(g.vertex, Fraction(0)) + g.rate
    return rates


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Vertex grids plus the staged recovery schedule they support."""

    vertex_bw: tuple
    base_vertices: tuple
    base_lambda0: tuple
    base_extension: np.ndarray
    levels: tuple             # LevelSpec, ascending
    grids: tuple              # Grid
    base_stages: tuple        # (target_vertex, (grid_id, ...)) in solve order
    stages: tuple = field(default=())
    notes: tuple = field(default=())

    @property
    def n(self) -> int:
        return len(self.vertex_bw)

    @property
    def total_rate(self) -> Fraction:
        return sum((g.rate for g in self.grids), Fraction(0))

    @property
    def per_vertex_rates(self) -> dict:
        return rates_by_vertex(self.grids)

    @property
    def unknowns(self) -> tuple:
        """Unknown blocks in plan order: base vertices, then levels ascending."""
        return (tuple(("base", w) for w in self.base_vertices)
                + tuple(("level", spec.level) for spec in self.levels))

    def base_col(self, vertex: int) -> int:
        return self.base_vertices.index(vertex)

    def level_spec(self, level: int) -> LevelSpec:
        return self.levels[level - 1]

    def grid(self, grid_id: str) -> Grid:
        for g in self.grids:
            if g.grid_id == grid_id:
                return g
        raise KeyError(grid_id)

    def unknown_bandwidth(self, unknown) -> Fraction:
        kind, key = unknown
        if kind == "base":
            return Fraction(self.vertex_bw[key])
        return self.level_spec(key).b

    def extension_column(self, unknown) -> np.ndarray:
        """How an unknown block's scalar content extends to every vertex."""
        kind, key = unknown
        if kind == "base":
            return self.base_extension[:, self.base_col(key)]
        spec = self.level_spec(key)
        return spec.extension[:, spec.col]

    def visibility(self, unknown, vertex: int) -> float:
        """Scale with which an unknown block's content shows up at a vertex."""
        return float(self.extension_column(unknown)[vertex])


VISIBILITY_TOL = 1e-10


def _compute_stages(plan: SamplingPlan) -> tuple:
    """Initial per-unknown stages, merged until no stage's grids can see an
    unknown that is neither already solved nor part of the stage."""
    stages = [Stage(unknowns=(("base", w),), grid_ids=tuple(gids))
              for w, gids in plan.base_stages]
    level_grid_ids: dict = {}
    for g in plan.grids:
        if g.grid_id.startswith("level:"):
            level = int(g.grid_id.split(":")[1])
            level_grid_ids.setdefault(level, []).append(g.grid_id)
    for spec in plan.levels:
        stages.append(Stage(unknowns=(("level", spec.level),),
                            grid_ids=tuple(level_grid_ids.get(spec.level, ()))))

    changed = True
    while changed:
        changed = False
        solved: set = set()
        for idx, stage in enumerate(stages):
            members = set(stage.unknowns)
            contaminating = set()
            for gid in stage.grid_ids:
                vertex = plan.grid(gid).vertex
                for other in range(idx + 1, len(stages)):
                    for unk in stages[other].unknowns:
                        if unk in members or unk in solved:
                            continue
                        if abs(plan.visibility(unk, vertex)) > VISIBILITY_TOL:
                            contaminating.add(unk)
            if contaminating:
                merged_unknowns = list(stage.unknowns)
                merged_grids = list(stage.grid_ids)
                rest = []
                for other in stages[idx + 1:]:
                    if any(u in contaminating for u in other.unknowns):
                        merged_unknowns.extend(other.unknowns)
                        merged_grids.extend(other.grid_ids)
                    else:
                        rest.append(other)
                stages = stages[:idx] + [Stage(tuple(merged_unknowns), tuple(merged_grids))] + rest
                changed = True
                break
            solved |= members
    return tuple(stages)


def _with_stages(plan: SamplingPlan) -> SamplingPlan:
    return SamplingPlan(
        vertex_bw=plan.vertex_bw,
        base_vertices=plan.base_vertices,
        base_lambda0=plan.base_lambda0,
        base_extension=plan.base_extension,
        levels=plan.levels,
        grids=plan.grids,
        base_stages=plan.base_stages,
        stages=_compute_stages(plan),
        notes=plan.notes,
    )


def make_plan(spectrum: Spectrum, profile: BandwidthProfile,
              filtration: Filtration, seq: AdmissibleSequence) -> SamplingPlan:
    """Assemble grids and the recovery schedule from an admissible sequence."""
    v0 = seq.v_sets[0]
    lam00 = filtration.levels[0].lambda0
    base_ext = extension_matrix(spectrum, lam00, v0)
    grids = []
    base_stages = []
    for w in sorted(v0, key=lambda v: (profile.vertex_bw[v], v)):
        rate = 2 * Fraction(profile.vertex_bw[w])
        if rate == 0:
            base_stages.append((w, ()))
            continue
        gid = f"base:{w}"
        grids.append(Grid(grid_id=gid, vertex=w, rate=rate, phase=Fraction(0)))
        base_stages.append((w, (gid,)))
    levels = []
    for i in range(1, filtration.depth + 1):
        step = filtration.step_at(i)
        lam_i0 = filtration.levels[i].lambda0
        v_set = seq.v_sets[i]
        vi = seq.added[i - 1]
        ext = extension_matrix(spectrum, lam_i0, v_set)
        spec = LevelSpec(level=i, vertex=vi, b=step.b_star, lambda_star=step.lambda_star,
                         lambda0=lam_i0, v_set=v_set, extension=ext, col=v_set.index(vi))
        levels.append(spec)
        rate = 2 * step.b_star
        if rate > 0:
            grids.append(Grid(grid_id=f"level:{i}", vertex=vi, rate=rate, phase=Fraction(0)))
    plan = SamplingPlan(
        vertex_bw=profile.vertex_bw,
        base_vertices=tuple(v0),
        base_lambda0=lam00,
        base_extension=base_ext,
        levels=tuple(levels),
        grids=tuple(grids),
        base_stages=tuple(base_stages),
    )
    expected = seq.base_rate + sum(seq.quotient_rates, Fraction(0))
    if plan.total_rate != expected:
        raise AssertionError("plan rate disagrees with the sequence rates")
    return _with_stages(plan)


def plan_problem(spectrum: Spectrum, profile: BandwidthProfile):
    """Uniformity check, finitization, filtration, sequence and plan in one go."""
    from .bandwidth import check_uniform, finitize

    cert = check_uniform(spectrum, profile)
    if not cert.is_uniform:
        raise InfeasibleProblemError("space not uniformly bandlimited")
    finite = finitize(spectrum, profile, cert)
    filtration = build_filtration(spectrum, finite)
    seq = find_admissible_sequence(spectrum, finite, filtration)
    if seq is None:
        raise InfeasibleProblemError("no admissible vertex sequence found")
    plan = make_plan(spectrum, finite, filtration, seq)
    return cert, finite, filtration, seq, plan


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def _interleaving_phase(kept_rate: Fraction, donated_rate: Fraction) -> Fraction:
    """Phase keeping the donated grid off the kept grid's sample lattice."""
    if kept_rate == 0:
        return Fraction(0)
    lattice = _rational_gcd(Fraction(1, kept_rate), Fraction(1, donated_rate))
    return lattice / 2


def _grids_collide(rate_a, phase_a, rate_b, phase_b) -> bool:
    lattice = _rational_gcd(Fraction(1, rate_a), Fraction(1, rate_b))
    return ((phase_a - phase_b) / lattice).denominator == 1


def _decollide_phases(grids) -> tuple:
    """Shift phases so no two grids at one vertex share a sample time.

    A sub-lattice half-shift can never land back on a coarser lattice, so a
    few halvings always separate the grids; the choice is deterministic.
    """
    placed: dict = {}
    out = []
    for g in grids:
        prev = placed.setdefault(g.vertex, [])
        phase = g.phase
        if g.rate > 0 and prev:
            lattice = Fraction(1, g.rate)
            for rate_p, _ in prev:
                lattice = _rational_gcd(lattice, Fraction(1, rate_p))
            k = 1
            while any(_grids_collide(g.rate, phase, r, p) for r, p in prev):
                phase = g.phase + lattice / (2 ** k)
                k += 1
                if k > 64:
                    raise AssertionError("phase de-collision failed to converge")
        prev.append((g.rate, phase))
        out.append(Grid(grid_id=g.grid_id, vertex=g.vertex, rate=g.rate, phase=phase))
    return tuple(out)


def split_rate_transform(plan: SamplingPlan, donor: int, acceptor: int, amount) -> SamplingPlan:
    """Move sampling load ``2 * amount`` from a quotient grid onto a donor vertex.

    The donor must actually observe the quotient residual (non-vanishing
    extension coefficient). The donated grid is phase-offset so the union of
    the two grids stays a valid reconstruction set; stages are recomputed,
    merging levels whose content the donor also sees.
    """
    amount = Fraction(amount)
    if amount < 0:
        raise ProblemFormatError("split amount must be non-negative")
    if amount == 0:
        return plan
    spec = None
    for cand in plan.levels:
        if cand.vertex == acceptor:
            spec = cand
            break
    if spec is None:
        raise ProblemFormatError(f"vertex {acceptor} carries no quotient grid")
    if amount > spec.b:
        raise ProblemFormatError(f"split amount {amount} exceeds the quotient bandwidth {spec.b}")
    if donor == acceptor:
        raise ProblemFormatError("donor and acceptor must differ")
    if not 0 <= donor < plan.n:
        raise ProblemFormatError(f"donor vertex {donor} out of range")
    scale = plan.visibility(("level", spec.level), donor)
    if abs(scale) <= VISIBILITY_TOL:
        raise ProblemFormatError(
            f"vertex {donor} cannot observe the level-{spec.level} residual "
            "(extension coefficient is zero)")

    kept_rate = 2 * (spec.b - amount)
    donated_rate = 2 * amount
    grids = []
    for g in plan.grids:
        if g.grid_id == f"level:{spec.level}":
            if kept_rate > 0:
                grids.append(Grid(grid_id=g.grid_id, vertex=g.vertex, rate=kept_rate, phase=g.phase))
        else:
            grids.append(g)
    phase = _interleaving_phase(kept_rate, donated_rate)
    grids.append(Grid(grid_id=f"level:{spec.level}:donated:{donor}", vertex=donor,
                      rate=donated_rate, phase=phase))
    moved = SamplingPlan(
        vertex_bw=plan.vertex_bw,
        base_vertices=plan.base_vertices,
        base_lambda0=plan.base_lambda0,
        base_extension=plan.base_extension,
        levels=plan.levels,
        grids=_decollide_phases(grids),
        base_stages=plan.base_stages,
        notes=plan.notes + (f"split level {spec.level}: rate {donated_rate} moved to vertex {donor}",),
    )
    if moved.total_rate != plan.total_rate:
        raise AssertionError("split changed the total rate")
    return _with_stages(moved)


def validate_spread_set(spectrum: Spectrum, lambda0: Sequence[int],
                        v0: Sequence[int], v_star: Sequence[int]) -> tuple:
    """Check the spreading premise: V0 inside V*, every |V0|-subset of V*
    a uniqueness set. Returns (sorted v0, sorted v_star)."""
    v0 = tuple(sorted(set(v0)))
    v_star = tuple(sorted(set(v_star)))
    if not set(v0) <= set(v_star):
        raise ProblemFormatError("the spread set must contain the base uniqueness set")
    for sub in _combinations(v_star, len(v0)):
        if not is_uniqueness_set(spectrum, lambda0, sub):
            raise ProblemFormatError(f"spread set invalid: {sub} is not a uniqueness set")
    return v0, v_star


def carrier_partition(spectrum: Spectrum, lambda0: Sequence[int], vertex_bw: Sequence,
                      v0: Sequence[int], v_star: Sequence[int]) -> list:
    """Partition ``v_star`` into carrier groups, one per sorted base vertex.

    A vertex of ``v_star`` belongs to the group of the last base vertex of
    its minimal dependent prefix; the base vertex itself anchors its group.
    """
    v0, v_star = validate_spread_set(spectrum, lambda0, v0, v_star)
    m = len(v0)
    ordered = sorted(v0, key=lambda v: (vertex_bw[v], v))
    groups = [[] for _ in ordered]
    for u in v_star:
        if u in v0:
            groups[ordered.index(u)].append(u)
            continue
        for k in range(1, m + 1):
            if is_dependent(spectrum, lambda0, ordered[:k], u):
                groups[k - 1].append(u)
                break
        else:
            raise AssertionError("spread vertex not dependent on the full base set")
    return [(w, tuple(sorted(g))) for w, g in zip(ordered, groups)]


def _combinations(pool, size):
    from itertools import combinations as comb
    return comb(pool, size)


def _prefix_spread_grids(spectrum, lambda0, vertex_bw, v0, v_star):
    """Spread A: each sorted base vertex's full rate is shared evenly across
    its carrier group, phases interleaving into the original uniform grid.

    Carriers of one stage observe scaled copies of the same scalar, so they
    need pairwise-disjoint times within the stage but no simultaneity; each
    grid forms its own placement group, cohorts are the stages.
    """
    parts = carrier_partition(spectrum, lambda0, vertex_bw, v0, v_star)
    grids = []
    base_stages = []
    for w, carriers in parts:
        rate = 2 * Fraction(vertex_bw[w])
        if rate == 0:
            base_stages.append((w, ()))
            continue
        gids = []
        share = Fraction(rate, len(carriers))
        for j, u in enumerate(carriers):
            gid = f"base:{w}:carrier:{u}"
            grids.append(SpreadGrid(gid, u, share, Fraction(j, rate),
                                    cohort=f"stage:{w}", group=gid))
            gids.append(gid)
        base_stages.append((w, tuple(gids)))
    return grids, base_stages


def _level_spread_grids(spectrum, lambda0, vertex_bw, v0, v_star):
    """Spread B: the common base load goes to floor(m'/m) disjoint full
    uniqueness subsets, and each bandwidth increment to successively smaller
    disjoint groups; per-vertex accumulation stays within the floor-count
    eccentricity bound by construction.

    Recovery derives full snapshots subset by subset, so all grids of one
    subset must stay simultaneous (one placement group) and all subsets
    across levels must stay disjoint in time (one cohort).
    """
    v0, v_star = validate_spread_set(spectrum, lambda0, v0, v_star)
    ordered = sorted(v0, key=lambda v: (vertex_bw[v], v))
    bws = [Fraction(vertex_bw[w]) for w in ordered]
    m = len(ordered)
    grids = []
    prev = Fraction(0)
    for i in range(m):
        delta = bws[i] - prev
        prev = bws[i]
        if delta == 0:
            continue
        group_size = m - i
        pool = [u for u in v_star if u not in ordered[:i]]
        q = len(pool) // group_size
        level_rate = 2 * delta
        share = Fraction(level_rate, q)
        for j in range(q):
            subset = pool[j * group_size:(j + 1) * group_size]
            sub_phase = Fraction(j, level_rate)
            for u in subset:
                grids.append(SpreadGrid(f"base:inc:{i}:{j}:{u}", u, share, sub_phase,
                                        cohort="levels", group=f"inc:{i}:{j}"))
    first = ordered[0] if ordered else None
    base_stages = [(w, tuple(g.grid_id for g in grids) if w == first else ())
                   for w in ordered]
    return grids, base_stages


@dataclass(frozen=True)
class SpreadGrid:
    grid_id: str
    vertex: int
    rate: Fraction
    phase: Fraction
    cohort: str
    group: str


def _place_spread_grids(spread_grids, existing_grids) -> list:
    """Assign final phases to spread grids.

    Grids of one group shift together (preserving simultaneity); a shift is
    needed when a member lands on another grid at its vertex or when the
    group's time lattice meets another group's lattice in the same cohort.
    """
    placed_by_vertex: dict = {}
    for g in existing_grids:
        if g.rate > 0:
            placed_by_vertex.setdefault(g.vertex, []).append((g.rate, g.phase))
    cohort_lattices: dict = {}
    by_group: dict = {}
    order = []
    for g in spread_grids:
        if g.group not in by_group:
            order.append(g.group)
        by_group.setdefault(g.group, []).append(g)

    out = []
    for group in order:
        members = by_group[group]
        rate = members[0].rate
        cohort = members[0].cohort
        base_phase = members[0].phase

        def conflicted(shift):
            for m in members:
                for r, p in placed_by_vertex.get(m.vertex, []):
                    if _grids_collide(m.rate, m.phase + shift, r, p):
                        return True
            for r, p in cohort_lattices.get(cohort, []):
                if _grids_collide(rate, base_phase + shift, r, p):
                    return True
            return False

        shift = Fraction(0)
        if conflicted(shift):
            lattice = Fraction(1, rate)
            for m in members:
                for r, _ in placed_by_vertex.get(m.vertex, []):
                    lattice = _rational_gcd(lattice, Fraction(1, r))
            for r, _ in cohort_lattices.get(cohort, []):
                lattice = _rational_gcd(lattice, Fraction(1, r))
            k = 1
            while conflicted(shift):
                shift = lattice / (2 ** k)
                k += 1
                if k > 64:
                    raise AssertionError("spread placement failed to converge")
        for m in members:
            placed_by_vertex.setdefault(m.vertex, []).append((m.rate, m.phase + shift))
            out.append(Grid(grid_id=m.grid_id, vertex=m.vertex, rate=m.rate,
                            phase=m.phase + shift))
        cohort_lattices.setdefault(cohort, []).append((rate, base_phase + shift))
    return out


def _ranked_spreads(spectrum, lambda0, vertex_bw, v0, v_star) -> list:
    """Both spread constructions, lowest top per-vertex rate first."""
    options = [_prefix_spread_grids(spectrum, lambda0, vertex_bw, v0, v_star),
               _level_spread_grids(spectrum, lambda0, vertex_bw, v0, v_star)]
    return sorted(options, key=lambda opt: max(rates_by_vertex(opt[0]).values(),
                                               default=Fraction(0)))


def choose_spread(spectrum, lambda0, vertex_bw, v0, v_star):
    """Pick the lower-eccentricity spread of the two constructions."""
    return _ranked_spreads(spectrum, lambda0, vertex_bw, v0, v_star)[0]


def _spread_candidates(plan: SamplingPlan, spectrum: Spectrum, v_star: Sequence[int]) -> list:
    """Both spread constructions as full plans, lowest eccentricity first."""
    options = _ranked_spreads(spectrum, plan.base_lambda0, plan.vertex_bw,
                              plan.base_vertices, v_star)
    kept = [g for g in plan.grids if not g.grid_id.startswith("base")]
    candidates = []
    for spread_grids, base_stages in options:
        placed = _place_spread_grids(spread_grids, kept)
        candidate = SamplingPlan(
            vertex_bw=plan.vertex_bw,
            base_vertices=plan.base_vertices,
            base_lambda0=plan.base_lambda0,
            base_extension=plan.base_extension,
            levels=plan.levels,
            grids=tuple(kept + placed),
            base_stages=tuple(base_stages),
            notes=plan.notes + (f"base load spread over {tuple(sorted(set(v_star)))}",),
        )
        if candidate.total_rate != plan.total_rate:
            raise AssertionError("redistribution changed the total rate")
        candidates.append(_with_stages(candidate))
    return candidates


def redistribute_plan(plan: SamplingPlan, spectrum: Spectrum, v_star: Sequence[int]) -> SamplingPlan:
    """Spread the base sampling load over ``v_star`` without changing the rate.

    With quotient levels present, spread carriers observe quotient content
    too, which can starve a construction of information; each candidate is
    therefore verified by an actual periodic round trip before being
    returned, best eccentricity first.
    """
    from .sampling import plan_roundtrip_ok

    candidates = _spread_candidates(plan, spectrum, v_star)
    for candidate in candidates:
        if plan_roundtrip_ok(candidate, spectrum):
            return candidate
    raise ProblemFormatError(
        "spreading the base load over this set breaks recoverability of the full plan")
