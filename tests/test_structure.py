import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspectral import (
    book,
    chromatic_number,
    complete,
    complete_bipartite,
    contains_subgraph,
    cycle,
    disjoint_union,
    empty_graph,
    forbidden_family,
    generate,
    is_color_critical,
    is_free,
    join,
    make_graph,
    matching,
    path,
    split_plus,
    star,
    structure,
    turan,
    wheel,
)
from alphaspectral.enumeration import enumerate_graphs
from alphaspectral.graphs import Graph

from oracle_tools import (
    add_edge,
    all_labeled_rows,
    graph_from_bits,
    naive_copy_vertices,
    naive_has_two_disjoint_edges,
    reference_chromatic_number,
    reference_color_critical,
    relabel,
)

ROOTED_PATTERNS = {
    "K3": complete(3),
    "P3": path(3),
    "C4": cycle(4),
    "M2": matching(2),
    "K13": star(3),
    "K23": complete_bipartite(2, 3),
    "K2+K1": disjoint_union(complete(2), empty_graph(1)),
    "P4": path(4),
    "paw": make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
}

# patterns for the networkx comparison; all but C5 and W6 have twins, and
# split_plus(6, 2) has three twin classes of two (book(2, 3) is split(5, 2))
NX_PATTERNS = {
    "K4": complete(4),
    "C5": cycle(5),
    "W6": wheel(6),
    "K23": complete_bipartite(2, 3),
    "K33": complete_bipartite(3, 3),
    "book23": book(2, 3),
    "K14": star(4),
    "split_plus62": split_plus(6, 2),
}


def relabelings(F, count: int = 5):
    """F, then count random relabelings of it (seeded), which scatter its
    twin classes over its labels."""
    rng = random.Random(F.n * 1000 + F.edge_count)
    return [F] + [relabel(F, rng.sample(range(F.n), F.n)) for _ in range(count)]


def assert_matches_networkx(n: int) -> None:
    """contains_subgraph against networkx's subgraph monomorphism test, for
    every class of order n and every NX_PATTERNS member and relabeling.
    networkx decides each (class, member) pair once: relabeling F does not
    change the answer."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(G):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        return H

    patterns = [(name, to_nx(P), relabelings(P)) for name, P in NX_PATTERNS.items()]
    for G in enumerate_graphs(n):
        H = to_nx(G)
        for name, P_nx, copies in patterns:
            expected = GraphMatcher(H, P_nx).subgraph_is_monomorphic()
            for F in copies:
                assert contains_subgraph(G, F) == expected, (name, F.rows, G.rows)


@st.composite
def graphs_st(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "G,chi",
        [
            (complete(4), 4),
            (cycle(5), 3),
            (turan(7, 3), 3),
            (empty_graph(5), 1),
            (path(6), 2),
            (cycle(6), 2),
            (wheel(6), 4),
            (disjoint_union(complete(4), cycle(5)), 4),
            (turan(30, 5), 5),
        ],
    )
    def test_known_values(self, G, chi):
        assert chromatic_number(G) == chi

    def test_edge_deletion_drops_by_at_most_one(self):
        from alphaspectral import remove_edge

        for n in range(2, 8):
            for G in enumerate_graphs(n):
                if G.edge_count == 0:
                    continue
                chi = chromatic_number(G)
                for u, v in G.edges():
                    assert chromatic_number(remove_edge(G, u, v)) in (chi, chi - 1)

    def test_join_is_additive(self):
        classes = [G for n in range(1, 5) for G in enumerate_graphs(n)]
        for G in classes:
            for H in classes:
                assert chromatic_number(join(G, H)) == chromatic_number(G) + chromatic_number(H)

    def test_every_class_matches_subset_oracle(self):
        # the backtracking colourer and its colour-criticality, against the
        # inclusion-exclusion count over vertex subsets, for every class
        for n in range(1, 8):
            for G in enumerate_graphs(n):
                assert chromatic_number(G) == reference_chromatic_number(G.rows, n), G
                if G.edge_count:
                    assert is_color_critical(G) == reference_color_critical(G.rows, n), G


class TestColorCritical:
    def test_odd_cycle_is_critical(self):
        assert is_color_critical(cycle(5))

    def test_even_cycle_is_not(self):
        assert not is_color_critical(cycle(4))

    def test_even_wheel(self):
        W = wheel(6)
        assert chromatic_number(W) == 4
        assert is_color_critical(W)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_books_are_critical(self, r, k):
        B = book(r, k)
        assert chromatic_number(B) == r + 1
        assert is_color_critical(B)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            is_color_critical(empty_graph(3))


class TestContainment:
    def test_cycle_contains_path(self):
        assert contains_subgraph(cycle(4), path(4))

    def test_c5_is_triangle_free(self):
        assert not contains_subgraph(cycle(5), complete(3))

    def test_path_contains_matching(self):
        assert contains_subgraph(path(4), matching(2))

    def test_larger_pattern_never_contained(self):
        assert not contains_subgraph(complete(3), path(4))

    def test_edgeless_pattern(self):
        assert contains_subgraph(complete(2), empty_graph(2))

    @given(graphs_st(min_n=2, max_n=6), graphs_st(min_n=2, max_n=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_monotone_under_edge_addition(self, G, F, data):
        if not contains_subgraph(G, F):
            return
        non_edges = [
            (u, v) for u in range(G.n) for v in range(u + 1, G.n) if not G.has_edge(u, v)
        ]
        if not non_edges:
            return
        u, v = data.draw(st.sampled_from(non_edges))
        assert contains_subgraph(add_edge(G, u, v), F)

    @pytest.mark.parametrize("name", ROOTED_PATTERNS)
    def test_rooted_matches_bruteforce(self, name):
        # every labeled graph with n <= 5: the search finds a copy iff one exists
        F = ROOTED_PATTERNS[name]
        for n in range(1, 6):
            for rows in all_labeled_rows(n):
                used = naive_copy_vertices(rows, n, F.rows, F.n)
                assert contains_subgraph(Graph(n, rows), F) == bool(used), (name, rows)

    def test_matches_networkx_order_6(self):
        assert_matches_networkx(6)

    @pytest.mark.slow
    def test_matches_networkx_order_7(self):
        assert_matches_networkx(7)

    def test_search_size_pinned(self, monkeypatch):
        # backtracking nodes over every class with n = 7, each search
        # stopping at its first map; placing each twin class of F in
        # ascending order holds K4 to about half the 20,527 calls of an
        # unordered search (C5 and W6 have no twins)
        calls = 0
        original = structure._maps

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(structure, "_maps", counting)
        classes = list(enumerate_graphs(7))
        assert len(classes) == 1044
        counts = {}
        for name, F in [("K4", complete(4)), ("C5", cycle(5)), ("W6", wheel(6))]:
            calls = 0
            for G in classes:
                contains_subgraph(G, F)
            counts[name] = calls
        assert counts == {"K4": 10397, "C5": 21039, "W6": 21230}


class TestFreeness:
    def test_bipartite_turan_is_triangle_free(self):
        assert is_free(turan(6, 2), [complete(3)])

    def test_k4_contains_triangle(self):
        assert not is_free(complete(4), [complete(3)])

    def test_triangle_plus_isolates_has_no_two_disjoint_edges(self):
        G = disjoint_union(complete(3), empty_graph(2))
        assert is_free(G, [matching(2)])
        assert not naive_has_two_disjoint_edges(G.rows, G.n)

    @given(graphs_st(min_n=2, max_n=6))
    @settings(max_examples=120, deadline=None)
    def test_matching2_freeness_matches_bruteforce(self, G):
        assert is_free(G, [matching(2)]) == (not naive_has_two_disjoint_edges(G.rows, G.n))

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 13) for r in range(2, 6) if r <= n])
    def test_turan_is_clique_free_and_r_partite(self, n, r):
        T = turan(n, r)
        assert is_free(T, [complete(r + 1)])
        assert chromatic_number(T) <= r


class TestRPartite:
    @pytest.mark.parametrize(
        "G,r,expect",
        [(cycle(4), 2, True), (cycle(5), 2, False), (turan(8, 3), 3, True), (complete(4), 3, False)],
    )
    def test_examples(self, G, r, expect):
        assert (chromatic_number(G) <= r) is expect


class TestForbiddenFamily:
    def test_chi_is_minimum(self):
        fam = forbidden_family([complete(4), cycle(5), generate("star:3")])
        assert fam.chi == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            forbidden_family([])

    def test_rejects_edgeless_member(self):
        with pytest.raises(ValueError):
            forbidden_family([empty_graph(3)])
