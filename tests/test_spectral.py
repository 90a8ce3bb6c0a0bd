import math
from dataclasses import astuple
from functools import reduce

import numpy as np
import pytest

from alphaspectral import (
    alpha_matrix,
    blow_up,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    lambda_alpha,
    make_graph,
    path,
    spectral_radius,
    star,
    turan,
)
from alphaspectral import spectral
from alphaspectral.enumeration import enumerate_graphs
from alphaspectral.spectral import _alpha_matrices, _bound_terms, _perron_stack, _radius_bounds, _top_eigenvalues

import test_verifier
from oracle_tools import add_edge, reference_radius_bounds, reference_spectral_radius, relabel, rows_to_alpha_matrix

ALPHA_GRID = [i / 10 for i in range(10)]


class TestAlphaMatrix:
    def test_single_edge_entries(self):
        A = alpha_matrix(complete(2), 0.3)
        assert np.allclose(A, [[0.3, 0.7], [0.7, 0.3]])

    def test_alpha_zero_is_adjacency(self):
        G = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        A = alpha_matrix(G, 0.0)
        assert np.array_equal(np.diag(A), np.zeros(4))
        for u in range(4):
            for v in range(4):
                assert A[u, v] == (1.0 if G.has_edge(u, v) else 0.0)

    def test_alpha_half_is_half_signless_laplacian(self):
        G = cycle(5)
        A0 = alpha_matrix(G, 0.0)
        Q = np.diag([G.degree(v) for v in range(5)]) + A0
        assert np.allclose(alpha_matrix(G, 0.5), Q / 2)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            alpha_matrix(complete(2), alpha)

    def test_per_row_alphas_bytes_equal_per_alpha_calls(self):
        t = len(ALPHA_GRID)
        for n in range(1, 8):
            rows = np.array([G.rows for G in enumerate_graphs(n)], dtype=np.uint64)
            stacked = _alpha_matrices(np.repeat(rows, t, axis=0), np.tile(ALPHA_GRID, len(rows)))
            for u, a in enumerate(ALPHA_GRID):
                assert stacked[u::t].tobytes() == _alpha_matrices(rows, a).tobytes(), (n, a)

    def test_bytes_equal_reference_over_small_classes(self):
        for n in range(1, 7):
            for G in enumerate_graphs(n):
                for a in ALPHA_GRID:
                    ref = rows_to_alpha_matrix(G.rows, n, a)
                    got = alpha_matrix(G, a)
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes(), (G.rows, a)

    def test_full_64_vertex_rows(self):
        G = complete(64)
        ref = rows_to_alpha_matrix(G.rows, 64, 0.25)
        assert alpha_matrix(G, 0.25).tobytes() == ref.tobytes()


class TestSpectralRadius:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("alpha", [0.0, 0.37, 0.8])
    def test_complete_graph(self, n, alpha):
        assert spectral_radius(complete(n), alpha).lambda_alpha == pytest.approx(n - 1, abs=1e-10)

    def test_path3_adjacency(self):
        # largest root of x^3 - 2x
        assert spectral_radius(path(3), 0.0).lambda_alpha == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_star3_half(self):
        # 2x2 degree-partition quotient [[1.5, 1.5], [0.5, 0.5]] has eigenvalues {0, 2}
        assert spectral_radius(star(3), 0.5).lambda_alpha == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.6])
    def test_regular_identity(self, alpha):
        for G in [cycle(6), turan(8, 2), turan(9, 3)]:
            if len(set(G.degrees())) > 1:
                continue
            d = G.degree(0)
            assert spectral_radius(G, alpha).lambda_alpha == pytest.approx(d, abs=1e-10)

    def test_result_contract(self):
        for G in [path(5), disjoint_union(cycle(3), path(2)), empty_graph(4)]:
            for a in (0.0, 0.4):
                res = spectral_radius(G, a)
                assert res.lambda_alpha >= 0
                assert (res.eigvec >= 0).all()
                assert np.linalg.norm(res.eigvec) == pytest.approx(1.0, abs=1e-12)
                assert res.residual <= 1e-10
                assert res.eigvec[res.min_index] == res.min_entry
                A = alpha_matrix(G, a)
                rayleigh = float(res.eigvec @ A @ res.eigvec)
                assert abs(rayleigh - res.lambda_alpha) <= 1e-9

    def test_disconnected_vector_supported_on_one_component(self):
        G = disjoint_union(complete(3), complete(2))
        res = spectral_radius(G, 0.2)
        assert res.lambda_alpha == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(res.eigvec[3:], 0.0)

    def test_disconnected_tie_is_deterministic(self):
        G = disjoint_union(complete(3), cycle(3))
        first = spectral_radius(G, 0.3).eigvec
        for _ in range(3):
            assert np.array_equal(spectral_radius(G, 0.3).eigvec, first)

    def test_disconnected_maximum_rule(self):
        pairs = [(complete(3), path(4)), (cycle(5), star(4)), (empty_graph(2), cycle(4))]
        for G, H in pairs:
            for a in (0.0, 0.5):
                lam = spectral_radius(disjoint_union(G, H), a).lambda_alpha
                expected = max(lambda_alpha(G, a), lambda_alpha(H, a))
                assert lam == pytest.approx(expected, abs=1e-10)

    def test_monotone_under_edge_addition(self):
        for n in range(2, 7):
            for G in enumerate_graphs(n):
                non_edges = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if not G.has_edge(u, v)
                ]
                if not non_edges:
                    continue
                for a in ALPHA_GRID:
                    lam = lambda_alpha(G, a)
                    for u, v in non_edges:
                        assert lambda_alpha(add_edge(G, u, v), a) >= lam - 1e-10


def _fields(lam, eigvec, min_entry, min_index, residual, iterations) -> tuple:
    """A SpectralResult's fields in a form that compares bit for bit."""
    return (
        float(lam).hex(),
        eigvec.dtype.str,
        eigvec.shape,
        eigvec.tobytes(),
        float(min_entry).hex(),
        int(min_index),
        float(residual).hex(),
        int(iterations),
    )


class TestPerronStack:
    """The stacked Perron solve against the one-component-at-a-time reference."""

    # the classes include the edgeless graphs and the tied 2K1, 2K2 and
    # K3 + K3; beside them, labelled graphs whose tied components
    # interleave, so the tie rule's first-vertex order matters
    EXTRA = {
        4: [make_graph(4, [(0, 2), (1, 3)])],
        6: [
            disjoint_union(complete(3), complete(3)),
            make_graph(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]),
            disjoint_union(path(3), empty_graph(3)),
        ],
    }

    ALPHAS = [0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.55, 0.6, 0.9]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bitwise_equal_reference(self, alpha):
        for n in range(1, 8):
            graphs = list(enumerate_graphs(n)) + self.EXTRA.get(n, [])
            rows = np.array([G.rows for G in graphs], dtype=np.uint64)
            lam, X, residual, n_components = _perron_stack(rows, [alpha])
            for i, G in enumerate(graphs):
                ref = _fields(*astuple(reference_spectral_radius(G, alpha)))
                assert _fields(*astuple(spectral_radius(G, alpha))) == ref, (G, alpha)
                idx = np.argmin(X[i])
                got = _fields(lam[i], X[i], X[i, idx], idx, residual[i], n_components[i])
                assert got == ref, (G, alpha)

    def test_stacked_grid_bitwise_equal_per_alpha(self):
        # one stack over every (graph, alpha) pair, graph-major, solves each
        # pair as its one-alpha stack does, tied and interleaved components
        # included
        t = len(self.ALPHAS)
        for n in range(1, 8):
            graphs = list(enumerate_graphs(n)) + self.EXTRA.get(n, [])
            graphs += [G for G in test_verifier.TestCheckGraph.ODD_GRAPHS if G.n == n]
            rows = np.array([G.rows for G in graphs], dtype=np.uint64)
            stacked = _perron_stack(rows, self.ALPHAS)
            for u, alpha in enumerate(self.ALPHAS):
                for got, want in zip(stacked, _perron_stack(rows, [alpha])):
                    assert got.dtype == want.dtype and got[u::t].tobytes() == want.tobytes(), (n, alpha)

    # 62 to 64 vertices, where the reach closure shifts by up to 63 bits and
    # takes every round on the long paths: components on bit 63, components
    # interleaved by stride permutations, isolated vertices, and ties between
    # isomorphic components, twin-rich so that the scalar reference labeler
    # stays fast
    WIDE = [
        disjoint_union(empty_graph(56), complete(8)),
        relabel(reduce(disjoint_union, [complete(5), complete_bipartite(3, 4), star(6), empty_graph(45)]),
                [37 * i % 64 for i in range(64)]),
        relabel(reduce(disjoint_union, [complete(6), complete(6), empty_graph(51)]), [5 * i % 63 for i in range(63)]),
        relabel(reduce(disjoint_union, [complete_bipartite(3, 5), star(7), complete_bipartite(5, 3), empty_graph(38)]),
                list(range(61, -1, -1))),
        relabel(disjoint_union(star(31), star(31)), [i // 2 + 32 * (i % 2) for i in range(64)]),
        relabel(reduce(disjoint_union, [path(40), complete(2), empty_graph(22)]), [37 * i % 64 for i in range(64)]),
        empty_graph(64),
        star(63),
        path(62),
    ]

    def test_wide_disconnected_bitwise_equal_reference(self):
        alphas = [0.0, 0.3, 0.5, 0.9]
        for n in (62, 63, 64):
            graphs = [G for G in self.WIDE if G.n == n]
            stacked = _perron_stack(np.array([G.rows for G in graphs], dtype=np.uint64), alphas)
            for i, G in enumerate(graphs):
                for u, alpha in enumerate(alphas):
                    ref = _fields(*astuple(reference_spectral_radius(G, alpha)))
                    assert _fields(*astuple(spectral_radius(G, alpha))) == ref, (G, alpha)
                    lam, X, residual, n_components = (field[i * len(alphas) + u] for field in stacked)
                    idx = np.argmin(X)
                    assert _fields(lam, X, X[idx], idx, residual, n_components) == ref, (G, alpha)

    def test_tie_between_equal_size_components(self):
        # C5 and K_{1,4} both have radius 2 at alpha = 0 but differ in
        # canonical form, so only the tie rule orders them, whichever
        # vertex the two components start at
        for G in (disjoint_union(cycle(5), star(4)), disjoint_union(star(4), cycle(5))):
            res = spectral_radius(G, 0.0)
            assert res.iterations == 2
            assert _fields(*astuple(res)) == _fields(*astuple(reference_spectral_radius(G, 0.0))), G


class TestBatchSolve:
    def test_matches_single_solves(self):
        # the stacked solve of spectral_extremal gives each graph's lambda_alpha
        for n in range(1, 7):
            graphs = list(enumerate_graphs(n))
            for a in ALPHA_GRID:
                vals = _top_eigenvalues(_alpha_matrices([G.rows for G in graphs], a))
                assert [float(v) for v in vals] == [lambda_alpha(G, a) for G in graphs]


class TestRadiusBounds:
    """The enclosure that lets the extremal search skip eigensolves."""

    @staticmethod
    def stacks():
        # every class with n <= 7, edgeless and disconnected ones included,
        # and the extremes of degree and regularity at the cap n = 12
        for n in range(1, 8):
            yield [G.rows for G in enumerate_graphs(n)]
        yield [G.rows for G in (complete(12), star(11), turan(12, 3), empty_graph(12), complete_bipartite(6, 6))]

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.6, 0.9, 0.99])
    def test_encloses_top_eigenvalue(self, alpha):
        # the bounds enclose eigvalsh and match the float power steps on the
        # alpha matrices
        for rows in self.stacks():
            terms = _bound_terms(rows)
            lower, upper = _radius_bounds(terms, alpha)
            M = _alpha_matrices(rows, alpha)
            top = np.linalg.eigvalsh(M)[:, -1]
            n = len(rows[0])
            assert (lower <= top + 1e-12).all(), n
            assert (top <= upper + 1e-12).all(), n
            ref_lower, ref_upper = reference_radius_bounds(M)
            assert np.abs(lower - ref_lower).max() <= 1e-12, n
            assert np.abs(upper - ref_upper).max() <= 1e-12, n

    def test_terms_are_integers(self):
        for rows in self.stacks():
            for C in _bound_terms(rows):
                assert (C == np.round(C)).all()
                assert np.abs(C).max() <= 19008
        # y at alpha = 0 on K12 is 11 (1 + 11)^3: the largest coefficient at n = 12
        assert _bound_terms([complete(12).rows])[1].max() == 19008

    def test_terms_independent_of_chunk_size(self, monkeypatch):
        rows = [G.rows for G in enumerate_graphs(6)]
        whole = _bound_terms(rows)
        monkeypatch.setattr(spectral, "_BOUND_CELLS", 7 * 36)
        for C, D in zip(_bound_terms(rows), whole):
            assert C.tobytes() == D.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.6, 0.9])
    def test_subset_solves_bitwise_equal_full_stack(self, alpha):
        # the search solves a subset of the stack; each value must be the
        # one the full stack gives
        for n in range(1, 8):
            rows = [G.rows for G in enumerate_graphs(n)]
            full = _top_eigenvalues(_alpha_matrices(rows, alpha))
            lower, upper = _radius_bounds(_bound_terms(rows), alpha)
            for idx in (np.flatnonzero(upper >= lower.max() - 1e-9), np.arange(0, len(rows), 3), [len(rows) - 1]):
                sub = _top_eigenvalues(_alpha_matrices([rows[i] for i in idx], alpha))
                assert sub.tobytes() == full[idx].tobytes(), n


class TestBlowUp:
    def test_known_value_k2(self):
        # K_2 blown up 3x is the 3-regular K_{3,3}
        assert 3 * lambda_alpha(complete(2), 0.4) == pytest.approx(3.0, abs=1e-10)
        assert lambda_alpha(blow_up(complete(2), 3), 0.4) == pytest.approx(3.0, abs=1e-10)

    def test_path3_doubling(self):
        expected = 2 * math.sqrt(2)
        assert 2 * lambda_alpha(path(3), 0.0) == pytest.approx(expected, abs=1e-10)
        assert lambda_alpha(blow_up(path(3), 2), 0.0) == pytest.approx(expected, abs=1e-10)

    def test_identity_factor(self):
        G = star(4)
        assert lambda_alpha(blow_up(G, 1), 0.2) == pytest.approx(lambda_alpha(G, 0.2), abs=1e-12)

    def test_scaling_over_all_small_classes(self):
        for n in range(1, 6):
            for G in enumerate_graphs(n):
                for p in (2, 3):
                    for a in ALPHA_GRID:
                        assert abs(
                            lambda_alpha(blow_up(G, p), a) - p * lambda_alpha(G, a)
                        ) <= 1e-8
