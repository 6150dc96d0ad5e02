import numpy as np
import pytest

import ctgs

from helpers import (
    greedy_vertex_set_loop,
    independence,
    random_lambda0,
    random_profile,
    random_spectrum,
)

LAM0_W0 = (0, 1, 2)   # zero-bound frequencies of the worked example's base level


def test_v5_depends_on_v3(worked_spectrum):
    assert ctgs.is_dependent(worked_spectrum, LAM0_W0, [2], 4)


def test_empty_lambda0_never_dependent(worked_spectrum):
    for v in range(5):
        assert not ctgs.is_dependent(worked_spectrum, (), [], v)
        assert not ctgs.is_dependent(worked_spectrum, (), [0, 1] if v > 1 else [2, 3], v)


def test_coloop_vertex_is_independent_of_empty_set(worked_spectrum):
    # v1 sits in every uniqueness set for {lambda2} (its eigenvector entry is
    # zero), so it is independent of the empty set, not dependent on it.
    assert not ctgs.is_dependent(worked_spectrum, (1,), [], 0)
    for cand in ctgs.enumerate_uniqueness_sets(worked_spectrum, (1,)):
        assert 0 in cand.vertices


def test_dependence_precondition(worked_spectrum):
    with pytest.raises(ValueError):
        ctgs.is_dependent(worked_spectrum, LAM0_W0, [2, 4], 4)


def test_dependence_monotone_in_vset(worked_spectrum):
    rng = np.random.default_rng(5)
    for _ in range(20):
        spectrum = random_spectrum(rng, int(rng.integers(2, 7)))
        n = spectrum.n
        lam0 = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()))
        verts = list(rng.permutation(n))
        v = verts.pop()
        for cut in range(len(verts)):
            small, large = verts[:cut], verts[:cut + 1]
            if ctgs.is_dependent(spectrum, lam0, small, v):
                assert ctgs.is_dependent(spectrum, lam0, large, v)


def test_uniqueness_sets_for_lambda2(worked_spectrum):
    sets = {cand.vertices for cand in ctgs.enumerate_uniqueness_sets(worked_spectrum, (1,))}
    assert sets == {(0, 2, 3, 4), (0, 1, 2, 4), (0, 1, 2, 3)}


def test_uniqueness_membership_for_base_level(worked_spectrum):
    assert not ctgs.is_uniqueness_set(worked_spectrum, LAM0_W0, (2, 4))
    assert ctgs.is_uniqueness_set(worked_spectrum, LAM0_W0, (2, 3))


def test_uniqueness_empty_lambda0_convention(worked_spectrum):
    assert ctgs.is_uniqueness_set(worked_spectrum, (), tuple(range(5)))
    assert not ctgs.is_uniqueness_set(worked_spectrum, (), (0, 1, 2, 3))
    assert [c.vertices for c in ctgs.enumerate_uniqueness_sets(worked_spectrum, ())] \
        == [tuple(range(5))]


def test_enumerate_base_level(worked_spectrum):
    sets = [cand.vertices for cand in ctgs.enumerate_uniqueness_sets(worked_spectrum, LAM0_W0)]
    assert (2, 3) in sets
    assert (2, 4) not in sets
    assert sets == sorted(sets)


def test_enumeration_guard():
    graph = ctgs.GraphModel.create(15, [[i, i + 1] for i in range(14)])
    spectrum = ctgs.eigendecompose(ctgs.build_shift_operator(graph, "laplacian"))
    with pytest.raises(ctgs.ScaleLimitError):
        ctgs.enumerate_uniqueness_sets(spectrum, (0,))


def test_greedy_on_worked_base_level(worked_spectrum):
    v0, rate = ctgs.greedy_minimal_vertex_set(worked_spectrum, LAM0_W0, [5, 5, 1, 4, 4])
    assert v0.vertices == (2, 3)
    assert rate == 10


def test_greedy_empty_lambda0(worked_spectrum):
    v0, rate = ctgs.greedy_minimal_vertex_set(worked_spectrum, (), [5, 5, 1, 4, 4])
    assert v0.vertices == tuple(range(5))
    assert rate == 2 * (5 + 5 + 1 + 4 + 4)


def test_greedy_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        spectrum = random_spectrum(rng, n)
        profile = random_profile(rng, n)
        lam0 = profile.lambda0()
        _, greedy_rate = ctgs.greedy_minimal_vertex_set(spectrum, lam0, profile.vertex_bw)
        _, oracle_rate = ctgs.minimal_rate_bruteforce(spectrum, lam0, profile.vertex_bw)
        assert greedy_rate == oracle_rate


def test_greedy_scan_keeps_rows_with_residual_above_component_tol():
    tol = ctgs.numerics.COMPONENT_TOL
    for offset, kept in ((10 * tol, [1, 0]), (tol / 10, [1])):
        rows = np.array([[1.0, 0.0], [1.0, offset]])
        assert ctgs.dependence.greedy_scan(rows, [1, 0]) == kept


def test_greedy_scan_matches_per_vertex_oracle():
    """The scan keeps the vertices that one dependence test per vertex keeps,
    on 200 random draws with n <= 12, half on unit-weight graphs (repeated
    eigenvalues, eigenvectors with exact zeros)."""
    rng = np.random.default_rng(77)
    for i in range(200):
        n = int(rng.integers(2, 13))
        spectrum = random_spectrum(rng, n, unit_weights=i % 2 == 0)
        bw = random_profile(rng, n).vertex_bw
        lam0 = random_lambda0(rng, n)
        v0, _ = ctgs.greedy_minimal_vertex_set(spectrum, lam0, bw)
        assert v0.vertices == greedy_vertex_set_loop(spectrum, lam0, bw)


def test_dependent_mask_matches_rank_definition():
    """v depends on V' iff dropping v's column from the eigenrow block over
    the complement of V' lowers its rank; members of V' are marked too."""
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        spectrum = random_spectrum(rng, n)
        lam0 = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()))
        vset = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()))
        mask = ctgs.dependence.dependent_mask(spectrum, lam0, vset)
        comp = [v for v in range(n) if v not in vset]
        rank = ctgs.numerics.svd_rank(spectrum.submatrix(lam0, comp))
        for v in range(n):
            if v in vset:
                assert mask[v]
                continue
            rest = [u for u in comp if u != v]
            drop = rank - ctgs.numerics.svd_rank(spectrum.submatrix(lam0, rest))
            assert mask[v] == (drop == 1)


def test_extension_two_path(two_path_spectrum):
    m = ctgs.extension_matrix(two_path_spectrum, (0,), (0,))
    assert np.allclose(m, np.array([[1.0], [-1.0]]))


def test_extension_identity(worked_spectrum):
    m = ctgs.extension_matrix(worked_spectrum, (), tuple(range(5)))
    assert np.array_equal(m, np.eye(5))


def test_extension_annihilates_constraints(worked_spectrum):
    m = ctgs.extension_matrix(worked_spectrum, LAM0_W0, (2, 3))
    assert np.max(np.abs(worked_spectrum.submatrix(LAM0_W0, range(5)) @ m)) < 1e-9
    assert np.allclose(m[[2, 3], :], np.eye(2))


def test_x_vector_first_step(worked_spectrum):
    x = ctgs.x_vector(worked_spectrum, (), tuple(range(5)), 1)
    assert np.allclose(x, worked_spectrum.row(1))


def test_bases_all_same_size():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        spectrum = random_spectrum(rng, n)
        lam0 = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()))
        sets = ctgs.enumerate_uniqueness_sets(spectrum, lam0)
        assert sets, "uniqueness sets always exist for an orthonormal basis"
        assert {len(c.vertices) for c in sets} == {n - len(lam0)}


def test_matroid_axioms_small():
    rng = np.random.default_rng(37)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        spectrum = random_spectrum(rng, n)
        lam0 = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()))
        subsets = [tuple(sorted(s)) for s in _powerset(range(n))]
        indep = {s for s in subsets if independence(spectrum, lam0, s)}
        assert () in indep
        for s in indep:
            for v in s:
                assert tuple(u for u in s if u != v) in indep
        for a in indep:
            for b in indep:
                if len(a) > len(b):
                    assert any(tuple(sorted(set(b) | {x})) in indep for x in set(a) - set(b))


def _powerset(items):
    from itertools import chain, combinations
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
