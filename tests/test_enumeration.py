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
    disjoint_union,
    empty_graph,
    encode_graph6,
    enumerate_graphs,
    forbidden_family,
    generate,
    is_connected,
    is_free,
    make_graph,
    path,
    relabel,
    star,
)
from alphaspectral.graph6 import graph_from_bits
from alphaspectral.graphs import Graph

from oracle_tools import all_labeled_rows, reference_class_bits

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


@pytest.fixture
def fresh_classes(monkeypatch):
    """An empty in-memory class cache and no disk cache, restored after."""
    from alphaspectral import enumeration

    monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
    monkeypatch.delenv(enumeration.CACHE_ENV_VAR, raising=False)
    return enumeration


# K2+K1 and K2+2K1 have isolated vertices: the new vertex alone can complete
# such a copy, so even the empty mask needs the rooted test
REFERENCE_FAMILIES = {
    "all": None,
    "K3": [generate("complete:3")],
    "K4": [generate("complete:4")],
    "C4": [generate("cycle:4")],
    "C5": [generate("cycle:5")],
    "M2": [generate("matching:2")],
    "K13": [generate("star:3")],
    "B2": [generate("book:2:2")],
    "K23": [generate("complete_bipartite:2:3")],
    "K3,C5": [generate("complete:3"), generate("cycle:5")],
    "K2+K1": [disjoint_union(complete(2), empty_graph(1))],
    "K2+2K1": [disjoint_union(complete(2), empty_graph(2))],
}


class TestPrunedGeneration:
    @pytest.mark.parametrize("name", REFERENCE_FAMILIES)
    def test_matches_plain_augmentation(self, fresh_classes, name):
        members = REFERENCE_FAMILIES[name]
        fam = None if members is None else forbidden_family(members)
        ref = reference_class_bits(7, fam)
        for n in range(1, 8):
            got = list(enumerate_graphs(n, EnumFilter(family=fam)))
            assert got == [graph_from_bits(n, bits) for bits in ref[n]], (name, n)

    def test_triangle_free_labelings_pinned(self, fresh_classes, monkeypatch):
        # 768 children labeled across n = 2..8 plus one labeling of K3 for
        # the family key: only children whose new vertex maximizes (degree,
        # neighbour degree sum) are labeled; without that gate the pruned
        # walk labels 3,370 children and plain augmentation 5,601
        calls = 0
        original = fresh_classes.canonical_bits

        def counting(n, rows):
            nonlocal calls
            calls += 1
            return original(n, rows)

        monkeypatch.setattr(fresh_classes, "canonical_bits", counting)
        assert count_classes(8, EnumFilter(family=forbidden_family([complete(3)]))) == 410
        assert calls == 769

    def test_triangle_free_counts_match_oeis(self):
        # OEIS A006785 through n = 9 (about 2 s); n = 10 is marked slow below
        fam = forbidden_family([complete(3)])
        counts = [count_classes(n, EnumFilter(family=fam)) for n in range(1, 10)]
        assert counts == [1, 2, 3, 7, 14, 38, 107, 410, 1897]

    def test_all_classes_at_eight_match_oeis(self):
        # OEIS A000088 at n = 8 (about 3.5 s); n = 9 is marked slow below
        assert count_classes(8) == 12346

    @pytest.mark.slow
    def test_triangle_free_at_ten_matches_oeis(self):
        # OEIS A006785 at n = 10
        assert count_classes(10, EnumFilter(family=forbidden_family([complete(3)]))) == 12172

    @pytest.mark.slow
    def test_all_classes_at_nine_match_oeis(self):
        # OEIS A000088 at n = 9
        assert count_classes(9) == 274668


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
    def test_numpy_integer_order_accepted(self):
        np = pytest.importorskip("numpy")
        assert count_classes(np.int64(4)) == count_classes(4) == 11

    @pytest.mark.parametrize("n", [True, False, 4.0, "4", 0, -1])
    def test_order_must_be_positive_integer(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            count_classes(n)

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


def cache_file(enumeration, n, keys):
    """The exact text of a valid class file holding these keys."""
    body = "".join(k + "\n" for k in keys)
    return enumeration._cache_header(n, None, body) + body


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        from alphaspectral import enumeration

        monkeypatch.setenv(enumeration.CACHE_ENV_VAR, str(tmp_path))
        enumeration._CLASS_CACHE.clear()
        first = [encode_graph6(G) for G in enumerate_graphs(5)]
        files = list(tmp_path.glob("classes_n5_*.g6"))
        assert files, "expected a cache file for n=5"
        header, *lines = files[0].read_text().splitlines()
        assert header.startswith(f"{enumeration.CACHE_FORMAT} n=5 family=all count=34 sha256=")
        assert [decode_graph6(line) for line in lines] == [decode_graph6(k) for k in first]
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
        assert path6.read_text() == cache_file(cache, 6, [encode_graph6(G) for G in graphs])

    @pytest.mark.parametrize("corrupt", ["reversed", "duplicate", "blank", "empty"])
    def test_unsorted_file_is_regenerated(self, cache, corrupt):
        # the header is made to match the corrupt body, so only the check of
        # the body itself can reject it
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        lines = {
            "reversed": expected[::-1],
            "duplicate": expected[:3] + expected[2:],
            "blank": expected[:3] + [""] + expected[3:],
            "empty": [],
        }[corrupt]
        path5.write_text(cache_file(cache, 5, lines))
        cache._CLASS_CACHE.clear()
        assert [encode_graph6(G) for G in enumerate_graphs(5)] == expected
        assert count_classes(6) == KNOWN_COUNTS[6]
        assert path5.read_text() == cache_file(cache, 5, expected)

    def regenerated(self, cache, path, text, expected):
        path.write_text(text)
        cache._CLASS_CACHE.clear()
        assert [encode_graph6(G) for G in enumerate_graphs(5)] == expected
        assert path.read_text() == cache_file(cache, 5, expected)

    def test_file_cut_at_line_boundary_is_regenerated(self, cache):
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        text = path5.read_text()
        cut = text[: text.rindex("\n", 0, len(text) - 1) + 1]
        self.regenerated(cache, path5, cut, expected)

    def test_changed_body_with_right_count_is_regenerated(self, cache):
        # swap one key for another order-5 graph6 string that keeps the body
        # ascending, so only the digest tells the files apart
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        header = path5.read_text().partition("\n")[0]
        k, other = next(
            (k, key)
            for k in range(1, len(expected) - 1)
            for key in sorted({encode_graph6(Graph(5, rows)) for rows in all_labeled_rows(5)})
            if expected[k - 1] < key < expected[k + 1] and key != expected[k]
        )
        changed = expected[:k] + [other] + expected[k + 1 :]
        self.regenerated(cache, path5, header + "\n" + "".join(key + "\n" for key in changed), expected)

    def test_headerless_file_is_regenerated(self, cache):
        # the format written before the header existed, with correct content
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        self.regenerated(cache, path5, "".join(key + "\n" for key in expected), expected)

    @pytest.mark.parametrize(
        "field,value",
        [("alphaspectral-classes v1", "alphaspectral-classes v0"), ("n=5", "n=6"),
         ("family=all", "family=0123456789abcdef"), ("count=34", "count=35")],
    )
    def test_header_mismatch_is_regenerated(self, cache, field, value):
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        text = path5.read_text()
        assert field in text.partition("\n")[0]
        self.regenerated(cache, path5, text.replace(field, value, 1), expected)

    def test_failed_publish_leaves_nothing(self, cache, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("simulated failure while publishing")

        monkeypatch.setattr(cache.os, "replace", refuse)
        assert count_classes(4) == KNOWN_COUNTS[4]
        assert list(tmp_path.iterdir()) == []
