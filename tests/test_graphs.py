import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspectral import (
    SizeCapError,
    blow_up,
    book,
    complete,
    complete_bipartite,
    components,
    cycle,
    delete_vertex,
    disjoint_union,
    empty_graph,
    generate,
    induced_subgraph,
    join,
    make_graph,
    matching,
    path,
    split,
    split_plus,
    star,
    turan,
    wheel,
)
from alphaspectral.enumeration import canonical_form, enumerate_graphs

from oracle_tools import graph_from_bits, relabel


@st.composite
def graphs_st(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


class TestMakeGraph:
    def test_triangle(self):
        G = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert G.edge_count == 3
        assert G.degrees() == [2, 2, 2]

    def test_duplicate_edges_collapse(self):
        G = make_graph(3, [(0, 1), (0, 1), (1, 0)])
        assert G.edge_count == 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            make_graph(2, [(0, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            make_graph(2, [(0, 2)])

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            make_graph(65, [])

    def test_cap_boundary_is_inclusive(self):
        G = make_graph(64, [(0, 63)])
        assert G.edge_count == 1 and G.degree(63) == 1

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            make_graph(0, [])

    @pytest.mark.parametrize("n", [True, 2.0, "2"])
    def test_order_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            make_graph(n, [])

    def test_numpy_integer_order_accepted(self):
        np = pytest.importorskip("numpy")
        assert make_graph(np.int64(3), [(0, 2)]) == make_graph(3, [(0, 2)])
        # the order comes back a plain int, so 64-vertex masks cannot wrap
        G = complete(np.int64(64))
        assert type(G.n) is int and G == complete(64)


class TestJoin:
    def test_star_as_join(self):
        G = join(complete(1), empty_graph(3))
        assert G.n == 4 and G.edge_count == 3
        assert canonical_form(G) == canonical_form(star(3))

    def test_split_graph_edge_count(self):
        # e = e(K_2) + e(I_2) + 2*2 = 1 + 0 + 4
        G = join(complete(2), empty_graph(2))
        assert G.edge_count == 5
        assert canonical_form(G) == canonical_form(split(4, 2))

    def test_wheel_as_join(self):
        G = join(complete(1), cycle(5))
        assert G.n == 6 and G.edge_count == 10
        assert canonical_form(G) == canonical_form(wheel(6))

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            join(empty_graph(33), empty_graph(32))

    @pytest.mark.parametrize("ga,gb", [("path:3", "cycle:4"), ("complete:3", "star:2"), ("empty:2", "path:4")])
    def test_commutative_up_to_isomorphism(self, ga, gb):
        G, H = generate(ga), generate(gb)
        assert canonical_form(join(G, H)) == canonical_form(join(H, G))

    def test_operands_appear_as_induced_blocks(self):
        G, H = cycle(4), path(3)
        J = join(G, H)
        for u in range(4):
            for v in range(4):
                assert J.has_edge(u, v) == G.has_edge(u, v)
        for u in range(3):
            for v in range(3):
                assert J.has_edge(4 + u, 4 + v) == H.has_edge(u, v)


class TestDisjointUnion:
    def test_edge_plus_isolated(self):
        G = disjoint_union(complete(2), empty_graph(2))
        assert G.n == 4 and G.edge_count == 1

    def test_two_triangles(self):
        G = disjoint_union(complete(3), complete(3))
        assert G.n == 6 and G.edge_count == 6
        assert len(components(G)) == 2

    def test_singletons(self):
        G = disjoint_union(empty_graph(1), empty_graph(1))
        assert canonical_form(G) == canonical_form(empty_graph(2))


class TestBlowUp:
    def test_edge_blowup_is_c4(self):
        assert canonical_form(blow_up(complete(2), 2)) == canonical_form(cycle(4))

    def test_triangle_blowup_is_octahedron(self):
        # 3 part pairs, each contributing 2*2 cross edges
        G = blow_up(complete(3), 2)
        assert G.edge_count == 12
        assert canonical_form(G) == canonical_form(turan(6, 3))

    def test_identity_factor(self):
        G = generate("path:4")
        assert canonical_form(blow_up(G, 1)) == canonical_form(G)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            blow_up(complete(2), 0)
        with pytest.raises(ValueError):
            blow_up(complete(2), True)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            blow_up(complete(5), 13)

    def test_edge_count_scaling_over_small_classes(self):
        for n in range(1, 6):
            for G in enumerate_graphs(n):
                for p in (2, 3):
                    assert blow_up(G, p).edge_count == p * p * G.edge_count


class TestGenerate:
    def test_turan_7_3(self):
        G = generate("turan:7:3")
        # complement of K_3 + K_2 + K_2: 21 - (3 + 1 + 1)
        assert G.edge_count == 16
        sizes = sorted((sum(1 for v in range(7) if v % 3 == j) for j in range(3)), reverse=True)
        assert sizes == [3, 2, 2]

    def test_split_plus(self):
        G = generate("split_plus:5:1")
        assert G.n == 5 and G.edge_count == 5

    def test_book(self):
        G = generate("book:2:3")
        assert G.n == 5 and G.edge_count == 7

    def test_matching(self):
        G = generate("matching:3")
        assert G.n == 6 and G.edge_count == 3 and max(G.degrees()) == 1

    def test_complete_bipartite(self):
        assert canonical_form(complete_bipartite(2, 3)) == canonical_form(turan(5, 2))

    @pytest.mark.parametrize(
        "spec",
        ["turan:3:5", "nosuch:3", "cycle:2", "wheel:5", "complete", "turan:2", "path:x", "split_plus:2:1"],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(ValueError):
            generate(spec)


# one valid argument tuple per constructor; each position is replaced in turn
CONSTRUCTOR_ARGS = [
    (cycle, (5,)),
    (star, (3,)),
    (matching, (2,)),
    (complete_bipartite, (2, 3)),
    (turan, (5, 2)),
    (split, (5, 2)),
    (split_plus, (5, 1)),
    (book, (2, 3)),
    (wheel, (6,)),
]


class TestConstructorArguments:
    @pytest.mark.parametrize("bad", ["5", True, 2.0])
    @pytest.mark.parametrize(
        "build,args,pos",
        [(build, args, pos) for build, args in CONSTRUCTOR_ARGS for pos in range(len(args))],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_non_integers_raise_value_error(self, build, args, pos, bad):
        # each argument is validated before it is compared: "5" used to
        # raise TypeError and True to pass as 1
        args = args[:pos] + (bad,) + args[pos + 1 :]
        with pytest.raises(ValueError, match="integer"):
            build(*args)

    @pytest.mark.parametrize("build,args", CONSTRUCTOR_ARGS, ids=lambda v: getattr(v, "__name__", None))
    def test_numpy_integers_accepted(self, build, args):
        np = pytest.importorskip("numpy")
        assert build(*[np.int64(a) for a in args]) == build(*args)

    @pytest.mark.parametrize("build,args", [(split, (5, 0)), (split_plus, (5, 0))])
    def test_zero_clique_allowed(self, build, args):
        assert build(*args).n == 5


class TestDeleteVertex:
    def test_complete(self):
        assert canonical_form(delete_vertex(complete(3), 0)) == canonical_form(complete(2))

    def test_star_center(self):
        assert canonical_form(delete_vertex(star(3), 0)) == canonical_form(empty_graph(3))

    def test_cycle(self):
        assert canonical_form(delete_vertex(cycle(5), 2)) == canonical_form(path(4))

    def test_errors(self):
        with pytest.raises(ValueError):
            delete_vertex(complete(1), 0)
        with pytest.raises(ValueError):
            delete_vertex(complete(3), 3)
        for w in (-1, 1.0, True):
            with pytest.raises(ValueError):
                delete_vertex(complete(3), w)

    def test_equals_induced_subgraph_on_the_rest(self):
        for G in [complete(64), cycle(9), star(6), *enumerate_graphs(5)]:
            for w in range(G.n):
                assert delete_vertex(G, w) == induced_subgraph(G, [v for v in range(G.n) if v != w])

    @given(graphs_st(min_n=2, max_n=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_degree_identity(self, G, data):
        w = data.draw(st.integers(0, G.n - 1))
        H = delete_vertex(G, w)
        survivors = [v for v in range(G.n) if v != w]
        for i, u in enumerate(survivors):
            assert H.degree(i) == G.degree(u) - (1 if G.has_edge(u, w) else 0)


class TestTuranConstruction:
    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 13) for r in range(1, 6) if r <= n])
    def test_part_sizes_near_equal(self, n, r):
        sizes = [sum(1 for v in range(n) if v % r == j) for j in range(r)]
        assert max(sizes) - min(sizes) <= 1
        G = turan(n, r)
        inner = sum(s * (s - 1) // 2 for s in sizes)
        assert G.edge_count == n * (n - 1) // 2 - inner


def test_relabel_preserves_class():
    G = generate("book:2:2")
    H = relabel(G, [3, 1, 0, 2])
    assert H.edge_count == G.edge_count
    assert canonical_form(H) == canonical_form(G)
