"""Graphs, shift operators and eigendecomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .errors import ProblemFormatError

SYMMETRY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
MULTIPLICITY_TOL = 1e-8
# An entry below SIGN_TOL * (row max) is too small to fix a row's sign.
SIGN_TOL = 1e-8


@dataclass(frozen=True)
class GraphModel:
    """Undirected weighted graph. Vertices are 0-based internally."""

    n_vertices: int
    edges: tuple  # ((i, j, weight), ...) with i < j
    vertex_labels: tuple

    @staticmethod
    def create(n_vertices: int, edges: Sequence, vertex_labels: Optional[Sequence[str]] = None) -> "GraphModel":
        if n_vertices <= 0:
            raise ProblemFormatError("graph needs at least one vertex", "/n")
        norm = []
        seen = set()
        for idx, edge in enumerate(edges):
            pointer = f"/edges/{idx}"
            if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
                raise ProblemFormatError("edge must be [i, j] or [i, j, weight]", pointer)
            i, j = edge[:2]
            w = edge[2] if len(edge) == 3 else 1.0
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
                raise ProblemFormatError("edge endpoints must be integers", pointer)
            if i == j:
                raise ProblemFormatError("self-loops are not allowed", pointer)
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise ProblemFormatError("edge endpoint out of range", pointer)
            if isinstance(w, bool) or not isinstance(w, Real) or not 0 < w < math.inf:
                raise ProblemFormatError("edge weight must be a positive finite number", pointer)
            w = float(w)
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ProblemFormatError(f"duplicate edge {key}", pointer)
            seen.add(key)
            norm.append((key[0], key[1], w))
        if vertex_labels is None:
            vertex_labels = tuple(f"v{i + 1}" for i in range(n_vertices))
        else:
            vertex_labels = tuple(str(s) for s in vertex_labels)
            if len(vertex_labels) != n_vertices:
                raise ProblemFormatError("labels length must equal n", "/labels")
        return GraphModel(n_vertices, tuple(norm), vertex_labels)

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n_vertices, self.n_vertices))
        for i, j, wt in self.edges:
            w[i, j] = wt
            w[j, i] = wt
        return w


@dataclass(frozen=True)
class ShiftOperator:
    """Symmetric graph shift operator (Laplacian, adjacency or custom)."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ProblemFormatError("shift operator must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL * scale:
            raise ProblemFormatError("shift operator must be symmetric")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_shift_operator(graph: GraphModel, kind: str = "laplacian",
                         custom_matrix: Optional[np.ndarray] = None) -> ShiftOperator:
    """Assemble the shift operator for ``graph``.

    ``kind`` is one of ``laplacian`` (D - W), ``adjacency`` (W) or ``custom``
    (caller-supplied symmetric matrix of matching dimension).
    """
    if kind == "laplacian":
        w = graph.weight_matrix()
        matrix = np.diag(w.sum(axis=1)) - w
    elif kind == "adjacency":
        matrix = graph.weight_matrix()
    elif kind == "custom":
        if custom_matrix is None:
            raise ProblemFormatError("custom shift requires a matrix", "/shift")
        matrix = np.asarray(custom_matrix, dtype=float)
        if matrix.shape != (graph.n_vertices, graph.n_vertices):
            raise ProblemFormatError("custom shift dimension must match the graph", "/shift/matrix")
    else:
        raise ProblemFormatError(f"unknown shift kind {kind!r}", "/shift")
    return ShiftOperator(matrix=matrix, kind=kind)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a shift operator.

    ``basis`` holds one orthonormal eigenvector per row, rows ordered by
    ascending eigenvalue; frequency index = row index throughout the package,
    which keeps every formula well defined under repeated eigenvalues.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray  # rows u_lambda
    multiplicity_groups: tuple = field(default=())

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def has_repeated_eigenvalues(self) -> bool:
        return any(len(g) > 1 for g in self.multiplicity_groups)

    def row(self, frequency: int) -> np.ndarray:
        if not 0 <= frequency < self.n:
            raise IndexError(f"frequency index {frequency} out of range")
        return self.basis[frequency]

    def submatrix(self, frequencies, vertices) -> np.ndarray:
        freqs = list(frequencies)
        verts = list(vertices)
        return self.basis[np.ix_(freqs, verts)] if freqs and verts else np.zeros((len(freqs), len(verts)))


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each row so its first non-negligible entry is positive."""
    fixed = basis.copy()
    for i, row in enumerate(fixed):
        scale = np.max(np.abs(row))
        if scale == 0:
            continue
        for x in row:
            if abs(x) > SIGN_TOL * scale:
                if x < 0:
                    fixed[i] = -row
                break
    return fixed


def eigendecompose(shift: ShiftOperator, tol: float = ORTHONORMALITY_TOL) -> Spectrum:
    """Eigendecompose a symmetric shift operator into a :class:`Spectrum`.

    Raises a diagnostic error if the solver fails or the orthonormality /
    reconstruction invariants are violated at tolerance ``tol``.
    """
    try:
        eigenvalues, vectors = np.linalg.eigh(shift.matrix)
    except np.linalg.LinAlgError as exc:
        raise ProblemFormatError(f"eigendecomposition failed: {exc}") from exc
    basis = _fix_signs(vectors.T)

    n = shift.n
    ortho_err = float(np.max(np.abs(basis @ basis.T - np.eye(n))))
    if ortho_err > tol:
        raise ProblemFormatError(f"eigenvector basis not orthonormal (err {ortho_err:.2e})")
    recon = basis.T @ np.diag(eigenvalues) @ basis
    recon_err = float(np.max(np.abs(recon - shift.matrix)))
    if recon_err > RECONSTRUCTION_TOL * max(1.0, float(np.max(np.abs(shift.matrix)))):
        raise ProblemFormatError(f"eigendecomposition does not reconstruct the operator (err {recon_err:.2e})")

    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    groups, current = [], [0]
    for i in range(1, n):
        if abs(eigenvalues[i] - eigenvalues[i - 1]) <= MULTIPLICITY_TOL * scale:
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))

    return Spectrum(eigenvalues=eigenvalues, basis=basis, multiplicity_groups=tuple(groups))

