import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspectral import (
    EnumFilter,
    EnumerationCapError,
    canonical_form,
    canonical_graph,
    complete,
    count_classes,
    cycle,
    decode_graph6,
    encode_graph6,
    enumerate_graphs,
    forbidden_family,
    is_connected,
    is_free,
    make_graph,
    path,
    relabel,
    star,
)
from alphaspectral.graph6 import graph_from_bits
from alphaspectral.graphs import Graph

from oracle_tools import all_labeled_rows

# full class counts by order: the n <= 5 entries are re-derived by brute
# force below; the rest are pinned for regression
KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@st.composite
def graphs_st(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


class TestCanonicalForm:
    def test_triangle_under_all_labelings(self):
        import itertools

        for perm in itertools.permutations(range(3)):
            assert canonical_form(relabel(complete(3), list(perm))) == "Bw"

    def test_c4_two_labelings(self):
        b = relabel(cycle(4), [2, 0, 3, 1])
        assert canonical_form(cycle(4)) == canonical_form(b)

    def test_distinct_classes_get_distinct_keys(self):
        assert canonical_form(path(3)) != canonical_form(complete(3))

    def test_canonical_graph_is_fixed_point(self):
        for G in enumerate_graphs(5):
            assert canonical_graph(G) == G
            assert encode_graph6(G) == canonical_form(G)

    @given(graphs_st(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_relabeling(self, G, data):
        perm = data.draw(st.permutations(range(G.n)))
        assert canonical_form(relabel(G, list(perm))) == canonical_form(G)

    def test_invariant_under_relabeling_stress(self):
        rng = random.Random(20260810)
        for _ in range(400):
            n = rng.randint(1, 9)
            bits = rng.getrandbits(n * (n - 1) // 2) if n > 1 else 0
            G = graph_from_bits(n, bits)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(G, perm)) == canonical_form(G)

    def test_symmetric_families(self):
        # highly symmetric graphs exercise the individualization prunes
        from alphaspectral import turan, wheel

        for G in [complete(9), turan(9, 3), turan(10, 5), cycle(9), star(8), wheel(8)]:
            perm = list(range(G.n))[::-1]
            assert canonical_form(relabel(G, perm)) == canonical_form(G)


def test_keys_agree_with_reference_isomorphism_oracle():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)

    def to_nx(G):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        return H

    for _ in range(300):
        n = rng.randint(1, 7)
        t = n * (n - 1) // 2
        A = graph_from_bits(n, rng.getrandbits(t) if t else 0)
        B = graph_from_bits(n, rng.getrandbits(t) if t else 0)
        same_key = canonical_form(A) == canonical_form(B)
        assert same_key == nx.is_isomorphic(to_nx(A), to_nx(B)), (A.rows, B.rows)


def test_stream_matches_networkx_atlas():
    # the atlas lists every graph on 0..7 vertices once per isomorphism class
    nx = pytest.importorskip("networkx")
    keys_by_order = {n: [] for n in KNOWN_COUNTS}
    for H in nx.graph_atlas_g():
        n = H.number_of_nodes()
        if n:
            keys_by_order[n].append(canonical_form(make_graph(n, H.edges())))
    # OEIS A000088
    assert [len(keys_by_order[n]) for n in sorted(KNOWN_COUNTS)] == [1, 2, 4, 11, 34, 156, 1044]
    for n, keys in keys_by_order.items():
        assert sorted(keys) == [canonical_form(G) for G in enumerate_graphs(n)]


class TestEnumerationCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_bruteforce_bucketing(self, n):
        keys = {canonical_form(Graph(n, rows)) for rows in all_labeled_rows(n)}
        stream_keys = [canonical_form(G) for G in enumerate_graphs(n)]
        assert sorted(keys) == stream_keys
        assert len(keys) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", [6, 7])
    def test_pinned_counts(self, n):
        assert count_classes(n) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_triangle_free_counts_match_bruteforce(self, n):
        from oracle_tools import naive_triangle_free

        fam = forbidden_family([complete(3)])
        keys = {
            canonical_form(Graph(n, rows))
            for rows in all_labeled_rows(n)
            if naive_triangle_free(rows, n)
        }
        stream = [canonical_form(G) for G in enumerate_graphs(n, EnumFilter(family=fam))]
        assert stream == sorted(keys)

    def test_single_vertex(self):
        assert count_classes(1) == 1

    def test_two_vertices(self):
        assert count_classes(2) == 2

    def test_min_degree_filter(self):
        assert count_classes(3, EnumFilter(min_degree=2)) == 1

    def test_connected_counts(self):
        # derived by bucketing labeled graphs and keeping connected ones
        for n, expected in [(4, 6), (5, 21)]:
            keys = {
                canonical_form(Graph(n, rows))
                for rows in all_labeled_rows(n)
                if is_connected(Graph(n, rows))
            }
            assert count_classes(n, EnumFilter(connected_only=True)) == len(keys) == expected

    def test_max_edges_filter(self):
        total = count_classes(4)
        capped = count_classes(4, EnumFilter(max_edges=3))
        assert capped < total
        assert all(G.edge_count <= 3 for G in enumerate_graphs(4, EnumFilter(max_edges=3)))


class TestStreamContract:
    def test_ascending_key_order_and_determinism(self):
        first = [canonical_form(G) for G in enumerate_graphs(6)]
        second = [canonical_form(G) for G in enumerate_graphs(6)]
        assert first == second == sorted(first)

    @pytest.mark.parametrize("fam_members", [["complete:3"], ["star:3"], ["complete:3", "cycle:5"]])
    def test_family_filter_commutes(self, fam_members):
        from alphaspectral import generate

        fam = forbidden_family([generate(s) for s in fam_members])
        filtered = [canonical_form(G) for G in enumerate_graphs(6, EnumFilter(family=fam))]
        rejected = [
            canonical_form(G) for G in enumerate_graphs(6) if is_free(G, fam)
        ]
        assert filtered == rejected

    def test_filter_bounds_validated(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(3, EnumFilter(min_degree=5)))
        with pytest.raises(ValueError):
            list(enumerate_graphs(3, EnumFilter(max_edges=10)))


class TestCaps:
    def test_default_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_graphs(11))

    def test_hard_cap_even_with_force(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_graphs(13, force=True))

    def test_force_warns_but_runs(self):
        # {K_2}-free leaves only edgeless classes, so the override is cheap
        fam = forbidden_family([complete(2)])
        with pytest.warns(UserWarning):
            out = list(enumerate_graphs(11, EnumFilter(family=fam), force=True))
        assert len(out) == 1 and out[0].edge_count == 0


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        from alphaspectral import enumeration

        monkeypatch.setenv(enumeration.CACHE_ENV_VAR, str(tmp_path))
        enumeration._CLASS_CACHE.clear()
        first = [encode_graph6(G) for G in enumerate_graphs(5)]
        files = list(tmp_path.glob("classes_n5_*.g6"))
        assert files, "expected a cache file for n=5"
        text = files[0].read_text()
        assert [decode_graph6(line) for line in text.splitlines()] == [
            decode_graph6(k) for k in first
        ]
        # a fresh in-memory cache must reload identical content from disk
        enumeration._CLASS_CACHE.clear()
        assert [encode_graph6(G) for G in enumerate_graphs(5)] == first
        enumeration._CLASS_CACHE.clear()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        from alphaspectral import enumeration

        monkeypatch.setenv(enumeration.CACHE_ENV_VAR, str(tmp_path))
        enumeration._CLASS_CACHE.clear()
        yield enumeration
        enumeration._CLASS_CACHE.clear()

    def test_wrong_order_file_is_regenerated(self, cache):
        list(enumerate_graphs(5))
        path6 = cache._disk_cache_path(6, None)
        path6.write_text(cache._disk_cache_path(5, None).read_text())
        cache._CLASS_CACHE.clear()
        graphs = list(enumerate_graphs(6))
        assert len(graphs) == KNOWN_COUNTS[6] and all(G.n == 6 for G in graphs)
        assert path6.read_text() == "".join(encode_graph6(G) + "\n" for G in graphs)

    @pytest.mark.parametrize("corrupt", ["reversed", "duplicate", "blank", "empty"])
    def test_unsorted_file_is_regenerated(self, cache, corrupt):
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        lines = {
            "reversed": expected[::-1],
            "duplicate": expected[:3] + expected[2:],
            "blank": expected[:3] + [""] + expected[3:],
            "empty": [],
        }[corrupt]
        path5.write_text("".join(line + "\n" for line in lines))
        cache._CLASS_CACHE.clear()
        assert [encode_graph6(G) for G in enumerate_graphs(5)] == expected
        assert count_classes(6) == KNOWN_COUNTS[6]
        assert path5.read_text() == "".join(k + "\n" for k in expected)

    def test_failed_publish_leaves_nothing(self, cache, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("simulated failure while publishing")

        monkeypatch.setattr(cache.os, "replace", refuse)
        assert count_classes(4) == KNOWN_COUNTS[4]
        assert list(tmp_path.iterdir()) == []
