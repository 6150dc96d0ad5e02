import numpy as np
import pytest
from hypothesis import given, strategies as st

import ctgs

from helpers import gft

WORKED_LAPLACIAN = np.array([
    [3, -1, 0, -1, -1],
    [-1, 3, -1, -1, 0],
    [0, -1, 3, -1, -1],
    [-1, -1, -1, 3, 0],
    [-1, 0, -1, 0, 2],
], dtype=float)


def test_worked_laplacian_matrix(worked_graph):
    shift = ctgs.build_shift_operator(worked_graph, "laplacian")
    assert np.array_equal(shift.matrix, WORKED_LAPLACIAN)


def test_single_vertex_laplacian():
    graph = ctgs.GraphModel.create(1, [])
    shift = ctgs.build_shift_operator(graph, "laplacian")
    assert np.array_equal(shift.matrix, np.zeros((1, 1)))


def test_two_path_laplacian():
    graph = ctgs.GraphModel.create(2, [[0, 1]])
    shift = ctgs.build_shift_operator(graph, "laplacian")
    assert np.array_equal(shift.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_adjacency_kind():
    graph = ctgs.GraphModel.create(2, [[0, 1, 2.5]])
    shift = ctgs.build_shift_operator(graph, "adjacency")
    assert np.array_equal(shift.matrix, np.array([[0.0, 2.5], [2.5, 0.0]]))


def test_custom_shift_rejects_asymmetry():
    graph = ctgs.GraphModel.create(2, [[0, 1]])
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.build_shift_operator(graph, "custom",
                                  custom_matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad_edges", [[[0, 0]], [[0, 3]], [[0, 1, -1.0]], [[0, 1], [1, 0]]])
def test_graph_validation(bad_edges):
    with pytest.raises(ctgs.ProblemFormatError):
        ctgs.GraphModel.create(2, bad_edges)


def test_worked_eigenvalues(worked_spectrum):
    assert np.allclose(worked_spectrum.eigenvalues, [0, 2, 3, 4, 5], atol=1e-9)


def test_worked_second_eigenvector(worked_spectrum):
    u = worked_spectrum.row(1)
    ref = np.array([0.0, 0.408, 0.0, 0.408, -0.817])
    assert min(np.max(np.abs(u - ref)), np.max(np.abs(u + ref))) < 5e-3


def test_two_path_eigenvectors(two_path_spectrum):
    s = 1 / np.sqrt(2)
    assert np.allclose(two_path_spectrum.eigenvalues, [0, 2])
    assert np.allclose(two_path_spectrum.row(0), [s, s])
    assert np.allclose(two_path_spectrum.row(1), [s, -s])


def test_orthonormality_and_reconstruction(worked_spectrum):
    u = worked_spectrum.basis
    assert np.max(np.abs(u @ u.T - np.eye(5))) < 1e-10
    recon = u.T @ np.diag(worked_spectrum.eigenvalues) @ u
    assert np.max(np.abs(recon - WORKED_LAPLACIAN)) < 1e-8


def test_eigendecompose_deterministic(worked_graph):
    shift = ctgs.build_shift_operator(worked_graph, "laplacian")
    a = ctgs.eigendecompose(shift)
    b = ctgs.eigendecompose(shift)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_multiplicity_flagging():
    # the 3-cycle Laplacian has eigenvalue 3 twice
    graph = ctgs.GraphModel.create(3, [[0, 1], [1, 2], [0, 2]])
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    assert spectrum.has_repeated_eigenvalues
    assert (1, 2) in spectrum.multiplicity_groups


def test_gft_orthogonal_snapshot(two_path_spectrum):
    assert abs(gft(two_path_spectrum, np.array([1.0, -1.0]), 0)) < 1e-12


def test_gft_constant_snapshot(two_path_spectrum):
    assert gft(two_path_spectrum, np.array([1.0, 1.0]), 0) == pytest.approx(np.sqrt(2))


def test_gft_unit_snapshot(worked_spectrum):
    snapshot = np.zeros(5)
    snapshot[1] = 1.0
    assert gft(worked_spectrum, snapshot, 1) == pytest.approx(0.408, abs=1e-3)


def test_gft_index_out_of_range(two_path_spectrum):
    with pytest.raises(IndexError):
        gft(two_path_spectrum, np.array([1.0, 0.0]), 5)


@given(st.lists(st.floats(-10, 10), min_size=5, max_size=5),
       st.lists(st.floats(-10, 10), min_size=5, max_size=5),
       st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 4))
def test_gft_linearity(xs, ys, a, b, freq):
    graph = ctgs.GraphModel.create(5, [[0, 1], [0, 3], [0, 4], [1, 2], [1, 3], [2, 3], [2, 4]])
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    x, y = np.array(xs), np.array(ys)
    lhs = gft(spectrum, a * x + b * y, freq)
    rhs = a * gft(spectrum, x, freq) + b * gft(spectrum, y, freq)
    assert abs(lhs - rhs) < 1e-12
