"""Filtration construction, admissible vertex sequences and sampling plans.

The planner peels one finite positive frequency bound at a time (always the
smallest) until only 0/infinity bounds remain, recording for each step the
quotient bandwidth ``b`` it exposes. An admissible nested vertex sequence
then turns the chain into a concrete plan: base grids on a minimal
uniqueness set plus one quotient grid per step, with the recovery schedule
organized into stages that are solved in order by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from typing import Optional, Sequence

import numpy as np

from .bandwidth import BandwidthProfile, validate_profile
from .dependence import (
    ENUMERATION_GUARD,
    UniquenessSet,
    _bandwidth_order,
    dependent_mask,
    greedy_minimal_vertex_set,
    is_uniqueness_set,
    top_supported,
    x_vector,
)
from .errors import InfeasibleProblemError, ProblemFormatError
from .numerics import COMPONENT_TOL, invertible_stack, is_inf
from .spectral import Spectrum


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
    """One peeling step, linking level ``level`` to ``level - 1``: the greedy
    basis G_i = G_{i-1} + ``carrier`` of the level's zero bounds, and the
    carrier's column of the basis's extension map."""

    level: int
    lambda_star: int
    b_star: Fraction
    vertices: tuple           # G_i, sorted
    carrier: int              # v_i, the one vertex of G_i - G_{i-1}
    column: np.ndarray        # how the value at v_i extends to every vertex


@dataclass(frozen=True)
class FiltrationLevel:
    freq_bw: tuple
    lambda0: tuple


@dataclass(frozen=True, eq=False)
class Filtration:
    """Chain of frequency-bound maps from the simple level 0 up to the input."""

    levels: tuple             # FiltrationLevel, index 0..k
    steps: tuple              # ReductionStep in discovery order (level k first)
    base: UniquenessSet       # G_0, the level-0 greedy basis, with its solved map M_0

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


def build_filtration(spectrum: Spectrum, profile: BandwidthProfile) -> Filtration:
    """Peel the frequency bounds down to simple ones and grow the levels'
    greedy bases bottom-up.

    The peel order reads only C. Level 0's greedy minimal-rate basis G_0
    and its extension map M_0 are computed once; each level above adds its
    carrier v_i (the bases nest, see :func:`find_admissible_sequence`).
    With phi the eigenrow freed at level i, r = phi - M_{i-1} phi[G_{i-1}]
    vanishes exactly on the closure of G_{i-1}: v_i is the first vertex in
    (B, index) order with |r_v| > ``COMPONENT_TOL`` * max(1, max |r|), and
    M_i = [M_{i-1} - (r / r_v) M_{i-1}[v_i, :] | r / r_v]. The quotient
    bound b_i, the least over all uniqueness sets (Edmonds' greedy theorem),
    is the bound of the ``top_supported`` vertex of phi M_i, capped by C at
    the peeled frequency.
    """
    validate_profile(spectrum, profile)
    if not profile.all_vertex_finite():
        raise ProblemFormatError("filtration requires finite vertex bandwidths; finitize first")
    peeled = []               # top level first
    level_maps = [profile.freq_bw]
    current = profile
    while (lam := select_lambda_star(current.freq_bw)) is not None:
        peeled.append(lam)
        current = current.with_freq_zeroed(lam)
        level_maps.append(current.freq_bw)
    levels = tuple(
        FiltrationLevel(freq_bw=fb, lambda0=tuple(i for i, c in enumerate(fb) if c == 0))
        for fb in reversed(level_maps)
    )
    bw = profile.vertex_bw
    order = _bandwidth_order(tuple(bw))
    basis, _ = greedy_minimal_vertex_set(spectrum, levels[0].lambda0, bw)
    vertices = list(basis.vertices)   # the columns of ``extension``, in order
    extension = basis.extension
    steps = []
    for level, lam in enumerate(reversed(peeled), start=1):
        phi = spectrum.row(lam)
        r = phi - extension @ phi[vertices]
        tol = COMPONENT_TOL * max(1.0, float(np.max(np.abs(r))))
        carrier = next(u for u in order if abs(r[u]) > tol)
        column = r / r[carrier]
        extension = np.hstack([extension - np.outer(column, extension[carrier]),
                               column[:, None]])
        vertices.append(carrier)
        top = top_supported(vertices, phi @ extension, bw)
        steps.append(ReductionStep(
            level=level, lambda_star=lam,
            b_star=min(Fraction(bw[top]), Fraction(profile.freq_bw[lam])),
            vertices=tuple(sorted(vertices)), carrier=carrier, column=column))
    return Filtration(levels=levels, steps=tuple(reversed(steps)), base=basis)


@dataclass(frozen=True)
class AdmissibleSequence:
    """Nested vertex sets, one new vertex per filtration level."""

    v_sets: tuple             # V_0 .. V_k, sorted tuples
    added: tuple              # v_1 .. v_k
    base_rate: Fraction
    quotient_rates: tuple     # 2 * b_i


def _x_at(spectrum, lambda0, vset, lambda_star, vertex) -> float:
    vs = sorted(vset)
    x = x_vector(spectrum, lambda0, vs, lambda_star)
    return float(x[vs.index(vertex)])


def _outside_bw_ok(spectrum, vertex_bw, lambda0, v_prev, v_cur, b) -> bool:
    dependent = dependent_mask(spectrum, lambda0, v_prev)
    return all(dependent[w] or Fraction(vertex_bw[w]) >= b
               for w in range(spectrum.n) if w not in v_cur)


def verify_admissible_sequence(spectrum: Spectrum, profile: BandwidthProfile,
                               filtration: Filtration, seq: AdmissibleSequence) -> list:
    """Full re-check of the admissibility conditions; returns failure strings.

    Written independently of the search so it can serve as its oracle;
    level-0 minimality is measured against the greedy minimal rate, which
    the test suite pins to the brute-force oracle.
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
        _, best_rate = greedy_minimal_vertex_set(spectrum, lam00, bw)
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
        if abs(_x_at(spectrum, lam_i0, v_cur, step.lambda_star, vi)) <= COMPONENT_TOL:
            problems.append(f"level {i}: transform coefficient vanishes at the new vertex")
        if Fraction(bw[vi]) < b:
            problems.append(f"level {i}: new vertex bandwidth {bw[vi]} below quotient bound {b}")
        if not _outside_bw_ok(spectrum, bw, lam_i0, v_prev, v_cur, b):
            problems.append(f"level {i}: an outside non-dependent vertex has bandwidth below {b}")
    return problems


def find_admissible_sequence(spectrum: Spectrum, profile: BandwidthProfile,
                             filtration: Filtration) -> AdmissibleSequence:
    """The admissible sequence is the filtration's chain of greedy bases.

    V_0 is the level-0 greedy minimal-rate basis and V_i the basis that
    :func:`build_filtration` grew at level i, both as the filtration
    records them, and v_i is V_i's carrier. The chain
    is always admissible:

    * Setup. D_i is level i's dependence matroid and phi the transform
      peeled at level i, so D_{i-1} = (D_i + phi) / phi. G_j is the greedy
      basis of D_j in ascending (B, index) order.
    * The bases nest. G_{i-1} + phi is the greedy basis of D_i + phi with
      phi scanned first; moving phi to the end changes one element, so
      G_i = G_{i-1} + v_i with v_i the first vertex outside cl_i(G_{i-1}).
    * Admissibility needs T = {w : B_w < b_i}, a prefix of the order, inside
      cl_i(G_{i-1}). b_i is the least threshold whose set spans phi (the C
      cap only lowers it), so phi is not in cl(T) and r_{i-1}(T) = r_i(T);
      G_{i-1} & T, a basis of T in D_{i-1} independent in D_i, spans T in D_i.
    * The rest follows: v_i's peeled coefficient is nonzero and B_{v_i} >= b_i.

    The independent verifier re-checks the chain; a failure can only be a
    numerical breakdown and raises InfeasibleProblemError naming the level.
    """
    v0 = filtration.base.vertices
    base_rate = 2 * sum((Fraction(profile.vertex_bw[v]) for v in v0), Fraction(0))
    steps = [filtration.step_at(i) for i in range(1, filtration.depth + 1)]
    seq = AdmissibleSequence(v_sets=(v0,) + tuple(step.vertices for step in steps),
                             added=tuple(step.carrier for step in steps), base_rate=base_rate,
                             quotient_rates=tuple(2 * b for b in filtration.quotient_bandwidths))
    failures = verify_admissible_sequence(spectrum, profile, filtration, seq)
    if failures:
        raise InfeasibleProblemError(
            "greedy basis chain is not an admissible sequence: " + "; ".join(failures))
    return seq


# --- sampling plans -------------------------------------------------------

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
    base: UniquenessSet       # the level-0 uniqueness set
    levels: tuple             # ReductionStep, ascending
    grids: tuple              # Grid
    base_stages: tuple        # (target_vertex, (grid_id, ...)) in solve order
    notes: tuple = field(default=())

    @property
    def base_vertices(self) -> tuple:
        return self.base.vertices

    @property
    def base_lambda0(self) -> tuple:
        return self.base.lambda0

    @cached_property
    def stages(self) -> tuple:
        """The recovery schedule of these grids, see :func:`_compute_stages`."""
        return _compute_stages(self)

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
                + tuple(("level", step.level) for step in self.levels))

    def grid(self, grid_id: str) -> Grid:
        for g in self.grids:
            if g.grid_id == grid_id:
                return g
        raise KeyError(grid_id)

    def unknown_bandwidth(self, unknown) -> Fraction:
        kind, key = unknown
        if kind == "base":
            return Fraction(self.vertex_bw[key])
        return self.levels[key - 1].b_star

    def extension_column(self, unknown) -> np.ndarray:
        """How an unknown block's scalar content extends to every vertex."""
        kind, key = unknown
        if kind == "base":
            return self.base.column(key)
        return self.levels[key - 1].column

    def visibility(self, unknown, vertex: int) -> float:
        """Scale with which an unknown block's content shows up at a vertex."""
        return float(self.extension_column(unknown)[vertex])


VISIBILITY_TOL = 1e-10


def _compute_stages(plan: SamplingPlan) -> tuple:
    """Initial per-unknown stages, merged until no stage's grids can see an
    unknown of a later stage.

    A merge into stage i only regroups the stages after i, so one forward
    pass suffices: stage i absorbs, in order, every later stage holding an
    unknown its grids see, and is re-checked until it sees none.
    """
    stages = [Stage(unknowns=(("base", w),), grid_ids=tuple(gids))
              for w, gids in plan.base_stages]
    level_grid_ids: dict = {}
    for g in plan.grids:
        if g.grid_id.startswith("level:"):
            level = int(g.grid_id.split(":")[1])
            level_grid_ids.setdefault(level, []).append(g.grid_id)
    for step in plan.levels:
        stages.append(Stage(unknowns=(("level", step.level),),
                            grid_ids=tuple(level_grid_ids.get(step.level, ()))))

    vertex_of = {g.grid_id: g.vertex for g in plan.grids}
    idx = 0
    while idx < len(stages):
        vertices = {vertex_of[gid] for gid in stages[idx].grid_ids}
        seen = {unk for later in stages[idx + 1:] for unk in later.unknowns
                if any(abs(plan.visibility(unk, v)) > VISIBILITY_TOL for v in vertices)}
        if not seen:
            idx += 1
            continue
        merged = [stages[idx]] + [s for s in stages[idx + 1:] if seen & set(s.unknowns)]
        rest = [s for s in stages[idx + 1:] if not seen & set(s.unknowns)]
        stages[idx:] = [Stage(tuple(u for s in merged for u in s.unknowns),
                              tuple(gid for s in merged for gid in s.grid_ids))] + rest
    return tuple(stages)


def base_plan(base: UniquenessSet, vertex_bw: Sequence) -> SamplingPlan:
    """The base level of a plan on the uniqueness set ``base``: one rate-2B
    grid per base vertex in ascending (B, index) order (a zero-rate vertex
    gets an empty stage)."""
    grids = []
    base_stages = []
    for w in sorted(base.vertices, key=lambda v: (vertex_bw[v], v)):
        rate = 2 * Fraction(vertex_bw[w])
        if rate == 0:
            base_stages.append((w, ()))
            continue
        gid = f"base:{w}"
        grids.append(Grid(grid_id=gid, vertex=w, rate=rate, phase=Fraction(0)))
        base_stages.append((w, (gid,)))
    return SamplingPlan(vertex_bw=tuple(vertex_bw), base=base, levels=(),
                        grids=tuple(grids), base_stages=tuple(base_stages))


def make_plan(spectrum: Spectrum, profile: BandwidthProfile,
              filtration: Filtration, seq: AdmissibleSequence) -> SamplingPlan:
    """Assemble grids and the recovery schedule from an admissible sequence,
    which must be the filtration's chain: the base grids sit on the
    filtration's level-0 basis and each level's grid on the carrier, whose
    recorded extension maps the plan reads."""
    levels = tuple(filtration.step_at(i) for i in range(1, filtration.depth + 1))
    if seq.added != tuple(step.carrier for step in levels):
        raise AssertionError("sequence vertices are not the filtration's carriers")
    if seq.v_sets[0] != filtration.base.vertices:
        raise AssertionError("sequence base set is not the filtration's level-0 basis")
    base = base_plan(filtration.base, profile.vertex_bw)
    grids = list(base.grids)
    for step in levels:
        rate = 2 * step.b_star
        if rate > 0:
            grids.append(Grid(grid_id=f"level:{step.level}", vertex=step.carrier, rate=rate,
                              phase=Fraction(0)))
    plan = replace(base, levels=levels, grids=tuple(grids))
    expected = seq.base_rate + sum(seq.quotient_rates, Fraction(0))
    if plan.total_rate != expected:
        raise AssertionError("plan rate disagrees with the sequence rates")
    return plan


def plan_problem(spectrum: Spectrum, profile: BandwidthProfile):
    """Uniformity check, finitization, filtration, sequence and plan in one go."""
    from .bandwidth import check_uniform, finitize

    cert = check_uniform(spectrum, profile)
    if not cert.is_uniform:
        raise InfeasibleProblemError("space not uniformly bandlimited")
    finite = finitize(spectrum, profile, cert)
    filtration = build_filtration(spectrum, finite)
    seq = find_admissible_sequence(spectrum, finite, filtration)
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


def split_rate_transform(plan: SamplingPlan, donor: int, acceptor: int, amount) -> SamplingPlan:
    """Move sampling load ``2 * amount`` from a quotient grid onto a donor vertex.

    The donor must actually observe the quotient residual (non-vanishing
    extension coefficient), and the amount is bounded by half the level
    grid's current rate, so an already-split level can be split again. The
    donated grid is phase-offset off the kept grid's lattice; stages are
    recomputed, merging levels whose content the donor also sees. A split
    that leaves a stage rank deficient at the plan's least period (the
    recoverability certificate, ``sampling.rank_deficient_stages``) is
    refused.
    """
    amount = Fraction(amount)
    if amount < 0:
        raise ProblemFormatError("split amount must be non-negative")
    if amount == 0:
        return plan
    level = next((step.level for step in plan.levels if step.carrier == acceptor), None)
    if level is None:
        raise ProblemFormatError(f"vertex {acceptor} carries no quotient grid")
    level_id = f"level:{level}"
    # a level whose grid was donated away entirely has no rate left
    rate = next((g.rate for g in plan.grids if g.grid_id == level_id), Fraction(0))
    if amount > rate / 2:
        raise ProblemFormatError(f"split amount {amount} exceeds the quotient bandwidth {rate / 2}")
    if donor == acceptor:
        raise ProblemFormatError("donor and acceptor must differ")
    if not 0 <= donor < plan.n:
        raise ProblemFormatError(f"donor vertex {donor} out of range")
    donated_id = f"{level_id}:donated:{donor}"
    if any(g.grid_id == donated_id for g in plan.grids):
        raise ProblemFormatError(f"vertex {donor} already holds a grid donated by level {level}")
    scale = plan.visibility(("level", level), donor)
    if abs(scale) <= VISIBILITY_TOL:
        raise ProblemFormatError(
            f"vertex {donor} cannot observe the level-{level} residual "
            "(extension coefficient is zero)")

    kept_rate = rate - 2 * amount
    donated_rate = 2 * amount
    grids = [replace(g, rate=kept_rate) if g.grid_id == level_id else g
             for g in plan.grids if g.grid_id != level_id or kept_rate > 0]
    grids.append(Grid(grid_id=donated_id, vertex=donor, rate=donated_rate,
                      phase=_interleaving_phase(kept_rate, donated_rate)))
    # each grid is its own placement group and cohort: only grids at one
    # vertex must keep their sample times apart
    placed = _place_spread_grids(
        [SpreadGrid(g.grid_id, g.vertex, g.rate, g.phase, cohort=g.grid_id, group=g.grid_id)
         for g in grids], ())
    moved = replace(
        plan, grids=tuple(placed),
        notes=plan.notes + (f"split level {level}: rate {donated_rate} moved to vertex {donor}",))
    if moved.total_rate != plan.total_rate:
        raise AssertionError("split changed the total rate")
    return _certified(moved, "split")


def _certified(plan: SamplingPlan, action: str) -> SamplingPlan:
    """``plan`` if it passes the recoverability certificate; otherwise the
    refusal of ``action``, naming the first rank-deficient stage."""
    from .sampling import rank_deficient_stages

    deficient = rank_deficient_stages(plan)
    if deficient:
        unknowns, rank, columns = deficient[0]
        raise ProblemFormatError(
            f"{action} leaves the stage of {list(unknowns)} unrecoverable: "
            f"rank {rank} of {columns} columns at the least period")
    return plan


def validate_spread_set(spectrum: Spectrum, lambda0: Sequence[int],
                        v0: Sequence[int], v_star: Sequence[int]) -> tuple:
    """Check the spreading premise: V0 inside V*, every |V0|-subset of V*
    a uniqueness set: the eccentricity bound's full-spark premise, NP-hard
    to decide in general (Alexeev, Cahill and Mixon 2012), so every subset
    is checked, all by one batched SVD; the first failing subset in
    ``combinations`` order is named. The recoverability certificate is no
    substitute: on the worked example it accepts spreads over
    V* = (2, 3, 4), (1, 2, 3, 4) and (0, 1, 2, 3, 4) whose eccentricities
    exceed the bound. More subsets than
    ``enumerate_uniqueness_sets`` checks at its own guard are refused
    before any is checked. Returns (sorted v0, sorted v_star)."""
    v0 = tuple(sorted(set(v0)))
    v_star = tuple(sorted(set(v_star)))
    if not v0:
        raise ProblemFormatError(
            "the base uniqueness set is empty; there is no base load to spread")
    if not set(v0) <= set(v_star):
        raise ProblemFormatError("the spread set must contain the base uniqueness set")
    subsets = comb(len(v_star), len(v0))
    limit = comb(ENUMERATION_GUARD, ENUMERATION_GUARD // 2)
    if subsets > limit:
        raise ProblemFormatError(
            f"spread set too large to validate: {subsets} subsets of {len(v0)} of its "
            f"{len(v_star)} vertices, more than the {limit} the enumeration checks")
    subs = list(combinations(v_star, len(v0)))
    rows = np.array(sorted(set(lambda0)), dtype=int)
    # every subset's complement block, in one stack for one batched SVD
    comps = np.array([[v for v in range(spectrum.n) if v not in sub] for sub in subs],
                     dtype=int).reshape(len(subs), -1)
    full = (invertible_stack(spectrum.basis[rows][:, comps].transpose(1, 0, 2))
            if len(rows) == comps.shape[1] else np.zeros(len(subs), dtype=bool))
    if not full.all():
        raise ProblemFormatError(
            f"spread set invalid: {subs[int(np.argmin(full))]} is not a uniqueness set")
    return v0, v_star


def _carrier_groups(base: UniquenessSet, vertex_bw, v_star) -> list:
    """Partition a validated ``v_star`` into carrier groups, one per sorted
    base vertex.

    A spread vertex joins the group of the ``top_supported`` base vertex of
    its base extension row: it depends on a base prefix in (B, index) order
    exactly when its row vanishes past it. A zero row joins the first group;
    the base vertex itself anchors its group. The base's one extension map
    decides them all.
    """
    ordered = sorted(base.vertices, key=lambda v: (vertex_bw[v], v))
    groups = {w: [w] for w in ordered}
    for u in v_star:
        if u not in base.vertices:
            top = top_supported(base.vertices, base.extension[u], vertex_bw)
            groups[ordered[0] if top is None else top].append(u)
    return [(w, tuple(sorted(g))) for w, g in groups.items()]


# Both spread constructions take the plan's base uniqueness set and a spread
# set ``v_star`` that ``validate_spread_set`` accepted and sorted.

def _prefix_spread_grids(base: UniquenessSet, vertex_bw, v_star):
    """Spread A: each sorted base vertex's full rate is shared evenly across
    its carrier group, phases interleaving into the original uniform grid.

    Carriers of one stage observe scaled copies of the same scalar, so they
    need pairwise-disjoint times within the stage but no simultaneity; each
    grid forms its own placement group, cohorts are the stages.
    """
    parts = _carrier_groups(base, vertex_bw, v_star)
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


def _level_spread_grids(base: UniquenessSet, vertex_bw, v_star):
    """Spread B: the common base load goes to floor(m'/m) disjoint full
    uniqueness subsets, and each bandwidth increment to successively smaller
    disjoint groups; per-vertex accumulation stays within the floor-count
    eccentricity bound by construction.

    Recovery derives full snapshots subset by subset, so all grids of one
    subset must stay simultaneous (one placement group) and all subsets
    across levels must stay disjoint in time (one cohort).
    """
    ordered = sorted(base.vertices, key=lambda v: (vertex_bw[v], v))
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
    """Assign final phases to spread grids, in order; the one placement
    routine, also for the grids of a split plan.

    Grids of one group shift together (preserving simultaneity); a shift is
    needed when a member lands on another grid at its vertex or when the
    group's time lattice meets another group's lattice in the same cohort.
    The shift halves the common lattice of the grids it must avoid, and a
    sub-lattice half-shift never lands back on a coarser lattice.
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


def choose_spread(base: UniquenessSet, vertex_bw, v_star) -> list:
    """Both spread constructions over ``v_star`` of the load on the base
    uniqueness set ``base``, best first: the lower top per-vertex rate (the
    lower eccentricity) first, spread A on a tie."""
    _, v_star = validate_spread_set(base.spectrum, base.lambda0, base.vertices, v_star)
    options = [_prefix_spread_grids(base, vertex_bw, v_star),
               _level_spread_grids(base, vertex_bw, v_star)]
    return sorted(options, key=lambda opt: max(rates_by_vertex(opt[0]).values(),
                                               default=Fraction(0)))


def _spread_plan(plan: SamplingPlan, spread, v_star: Sequence[int]) -> SamplingPlan:
    """``plan`` with its base grids replaced by one spread construction."""
    spread_grids, base_stages = spread
    kept = [g for g in plan.grids if not g.grid_id.startswith("base")]
    candidate = replace(
        plan, grids=tuple(kept + _place_spread_grids(spread_grids, kept)),
        base_stages=tuple(base_stages),
        notes=plan.notes + (f"base load spread over {tuple(sorted(set(v_star)))}",))
    if candidate.total_rate != plan.total_rate:
        raise AssertionError("redistribution changed the total rate")
    return candidate


def redistribute_plan(plan: SamplingPlan, v_star: Sequence[int]) -> SamplingPlan:
    """Spread the base sampling load over ``v_star`` without changing the rate.

    With quotient levels present, spread carriers observe quotient content
    too, which can starve a construction of information; the first
    construction in :func:`choose_spread`'s order whose plan passes the
    recoverability certificate (every stage of full column rank at the least
    period) is returned. When neither does, the refusal names the best
    construction's first rank-deficient stage.
    """
    refusal = None
    for spread in choose_spread(plan.base, plan.vertex_bw, v_star):
        try:
            return _certified(_spread_plan(plan, spread, v_star),
                              "spreading the base load over this set")
        except ProblemFormatError as exc:
            refusal = refusal or exc
    raise refusal
