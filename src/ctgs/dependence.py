"""Vertex dependence induced by zero-bandwidth frequencies, and its matroid.

With ``lambda0`` the set of frequencies whose signals are forced to vanish,
feasible snapshots live in the null space of the corresponding eigenvector
rows. A vertex ``v`` depends on a vertex set ``V'`` when every feasible
snapshot that vanishes on ``V'`` also vanishes at ``v`` — equivalently, every
null-space direction of the eigenrow submatrix over the complement of ``V'``
has zero ``v``-component. Independence in this sense is a matroid whose bases
are exactly the uniqueness sets, which is what makes the greedy minimal-rate
search below exact. Every greedy search on the planning path is one ordered
:func:`greedy_scan` over the rows of a matrix with orthonormal columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ScaleLimitError
from .numerics import COMPONENT_TOL, is_invertible, null_space
from .spectral import Spectrum

ENUMERATION_GUARD = 14


def _complement(n: int, vertices: Iterable[int]) -> list:
    excluded = set(vertices)
    return [v for v in range(n) if v not in excluded]


def is_dependent(spectrum: Spectrum, lambda0: Sequence[int], vset: Sequence[int], v: int) -> bool:
    """True iff ``v`` is lambda0-dependent on ``vset``.

    Checked on an orthonormal null-space basis of the eigenrow submatrix
    over the complement of ``vset``; the verdict is basis- and
    sign-independent.
    """
    vset = sorted(set(vset))
    if v in vset:
        raise ValueError(f"vertex {v} is a member of the candidate set")
    if not 0 <= v < spectrum.n:
        raise IndexError(f"vertex {v} out of range")
    return bool(dependent_mask(spectrum, lambda0, vset)[v])


def dependent_mask(spectrum: Spectrum, lambda0: Sequence[int], vset: Sequence[int]) -> np.ndarray:
    """Boolean mask over all vertices of the lambda0-closure of ``vset``.

    One null space over the complement of ``vset`` decides every vertex at
    once, with the same verdict :func:`is_dependent` gives; members of
    ``vset`` are marked dependent on it.
    """
    comp = _complement(spectrum.n, vset)
    mask = np.ones(spectrum.n, dtype=bool)
    basis = null_space(spectrum.submatrix(lambda0, comp))
    if basis.shape[1]:
        mask[comp] = np.linalg.norm(basis, axis=1) <= COMPONENT_TOL
    return mask


def is_uniqueness_set(spectrum: Spectrum, lambda0: Sequence[int], vset: Sequence[int]) -> bool:
    """Size condition plus invertibility of the complement submatrix."""
    vset = sorted(set(vset))
    lambda0 = sorted(set(lambda0))
    if len(vset) + len(lambda0) != spectrum.n:
        return False
    comp = _complement(spectrum.n, vset)
    return is_invertible(spectrum.submatrix(lambda0, comp))


@dataclass(frozen=True, eq=False)
class UniquenessSet:
    """A vertex set that determines every snapshot whose transform vanishes
    on ``lambda0``, with the map extending its values to the whole graph."""

    spectrum: Spectrum = field(repr=False)
    vertices: tuple
    lambda0: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(self, "lambda0", tuple(sorted(set(self.lambda0))))

    @cached_property
    def complement(self) -> tuple:
        return tuple(_complement(self.spectrum.n, self.vertices))

    @cached_property
    def extension(self) -> np.ndarray:
        """The set's :func:`extension_matrix`, solved on first use."""
        return extension_matrix(self.spectrum, self.lambda0, self.vertices)

    def column(self, v: int) -> np.ndarray:
        """How the value at member ``v`` extends to every vertex."""
        return self.extension[:, self.vertices.index(v)]


def top_supported(vertices: Sequence[int], x: np.ndarray, vertex_bw: Sequence) -> Optional[int]:
    """The last of ``vertices`` in (bandwidth, index) order where ``x``, a
    vector over them in the same order, has :func:`x_support`; None when it
    has none."""
    hits = [v for v, hit in zip(vertices, x_support(x)) if hit]
    return max(hits, key=lambda v: (vertex_bw[v], v), default=None)


def enumerate_uniqueness_sets(spectrum: Spectrum, lambda0: Sequence[int]) -> list:
    """All uniqueness sets, lexicographically sorted. Brute force, guarded."""
    if spectrum.n > ENUMERATION_GUARD:
        raise ScaleLimitError(
            f"uniqueness-set enumeration is limited to n <= {ENUMERATION_GUARD}, got n = {spectrum.n}")
    lambda0 = tuple(sorted(set(lambda0)))
    size = spectrum.n - len(lambda0)
    out = []
    for vset in combinations(range(spectrum.n), size):
        if is_uniqueness_set(spectrum, lambda0, vset):
            out.append(UniquenessSet(spectrum, vset, lambda0))
    return out


def extension_matrix(spectrum: Spectrum, lambda0: Sequence[int], vset) -> np.ndarray:
    """|V| x |V0| operator extending values on V0 to the whole vertex set.

    For any snapshot x on V0, M @ x is the unique snapshot with the
    prescribed V0 values and zero transform at every frequency in lambda0.
    Rows at V0 positions form the identity.
    """
    vertices = sorted(set(vset))
    lambda0 = sorted(set(lambda0))
    comp = _complement(spectrum.n, vertices)
    m = np.zeros((spectrum.n, len(vertices)))
    for col, v in enumerate(vertices):
        m[v, col] = 1.0
    if lambda0:
        block = spectrum.submatrix(lambda0, comp)
        rhs = spectrum.submatrix(lambda0, vertices)
        m[comp, :] = -np.linalg.solve(block, rhs)
    return m


def x_vector(spectrum: Spectrum, lambda0: Sequence[int], vset, lambda_star: int) -> np.ndarray:
    """Row vector expressing the lambda_star transform in terms of V0 signals."""
    m = extension_matrix(spectrum, lambda0, vset)
    return spectrum.row(lambda_star) @ m


def x_support(x: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-vanishing entries of an x-vector."""
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0:
        return np.zeros(x.shape, dtype=bool)
    return np.abs(x) > COMPONENT_TOL * max(1.0, scale)


def greedy_scan(rows: np.ndarray, order: Iterable[int]) -> list:
    """Greedy basis of the row matroid of ``rows``: the indices, in ``order``,
    of the rows kept by one scan.

    A row is kept when its residual against the rows kept before it exceeds
    ``COMPONENT_TOL``. Modified Gram-Schmidt: each kept direction is
    projected out of every later row at once, and each row is
    re-orthogonalized once against the kept directions before its residual
    is read. The scan stops at full column rank.
    """
    order = list(order)
    rest = np.array(rows, dtype=float)[order]
    directions = np.empty((0, rest.shape[1]))
    kept: list = []
    for pos, index in enumerate(order):
        if len(kept) == rest.shape[1]:
            break
        residual = rest[pos] - directions.T @ (directions @ rest[pos])
        norm = float(np.linalg.norm(residual))
        if norm > COMPONENT_TOL:
            residual /= norm
            directions = np.vstack([directions, residual])
            rest[pos + 1:] -= np.outer(rest[pos + 1:] @ residual, residual)
            kept.append(index)
    return kept


@lru_cache(maxsize=1)
def _bandwidth_order(vertex_bw: tuple) -> tuple:
    """Vertices in ascending (bandwidth, index) order. Every level of one
    filtration shares its vertex bandwidths, so a plan sorts them once."""
    return tuple(sorted(range(len(vertex_bw)), key=lambda v: (vertex_bw[v], v)))


def greedy_minimal_vertex_set(spectrum: Spectrum, lambda0: Sequence[int], vertex_bw: Sequence):
    """Greedy matroid optimum: uniqueness set minimizing the bandwidth sum.

    The dependence matroid is the row matroid of F = ``basis[free, :].T``,
    ``free`` being the frequencies outside lambda0: a vertex's residual
    against the rows of F over a set is the null-space row norm that
    :func:`dependent_mask` thresholds. F's rows are scanned in ascending
    (bandwidth, index) order by :func:`greedy_scan`. Returns the set
    together with its sampling rate ``2 * sum(bw)``.
    """
    lambda0 = tuple(sorted(set(lambda0)))
    free = _complement(spectrum.n, lambda0)
    chosen = greedy_scan(spectrum.basis[free, :].T, _bandwidth_order(tuple(vertex_bw)))
    if len(chosen) != len(free) or not is_uniqueness_set(spectrum, lambda0, chosen):
        raise ValueError("greedy search failed to reach a uniqueness set; inconsistent spectrum")
    v0 = UniquenessSet(spectrum, chosen, lambda0)
    rate = 2 * sum((Fraction(vertex_bw[v]) for v in v0.vertices), Fraction(0))
    return v0, rate


def minimal_rate_bruteforce(spectrum: Spectrum, lambda0: Sequence[int], vertex_bw: Sequence):
    """Exhaustive oracle for the minimal rate; pairs with the greedy search."""
    best = None
    for cand in enumerate_uniqueness_sets(spectrum, lambda0):
        rate = 2 * sum((Fraction(vertex_bw[v]) for v in cand.vertices), Fraction(0))
        if best is None or rate < best[1]:
            best = (cand, rate)
    if best is None:
        raise ValueError("no uniqueness set exists; constraints inconsistent")
    return best
