import hashlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspectral import (
    EnumFilter,
    EnumerationCapError,
    canonical_form,
    check_degree_stability,
    complete,
    complete_bipartite,
    contains_subgraph,
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
    join,
    make_graph,
    matching,
    path,
    star,
    turan,
    turan_number,
    wheel,
    write_graph6_lines,
)
from alphaspectral.enumeration import _unpack
from alphaspectral.graphs import Graph

from oracle_tools import (
    all_labeled_rows, bits_to_graph6, canonical_bits, canonical_graph, graph_from_bits, reference_class_bits, relabel
)

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

    def test_invariant_past_fifteen_neighbours_per_cell(self):
        # 2-6 vertices of one degree, each joined to the same 16 of 16-38
        # others and to some more of them: in refinement they count 16 or
        # more neighbours in one cell
        rng = random.Random(20261018)
        for _ in range(25):
            a = rng.randint(2, 6)
            b = rng.randint(16, 40 - a)
            extra = rng.randint(0, b - 16)
            edges = [(u, a + v) for u in range(a) for v in [*range(16), *rng.sample(range(16, b), extra)]]
            if rng.random() < 0.5:
                edges += [(u, w) for u in range(a) for w in range(u)]
            G = make_graph(a + b, edges)
            perm = list(range(G.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(G, perm)) == canonical_form(G)

    def test_symmetric_families(self):
        # highly symmetric graphs exercise the individualization prunes
        for G in [complete(9), turan(9, 3), turan(10, 5), cycle(9), star(8), wheel(8)]:
            perm = list(range(G.n))[::-1]
            assert canonical_form(relabel(G, perm)) == canonical_form(G)

    def test_past_graph6_orders_raise(self):
        from alphaspectral.graphs import SizeCapError

        for G in [empty_graph(63), complete(64)]:
            with pytest.raises(SizeCapError):
                canonical_form(G)


def scalar_codes(n: int, rows_list) -> list[bytes]:
    """The codes of the oracle's scalar search, the reference for the batch labeler."""
    return [bits_to_graph6(n, canonical_bits(n, rows)).encode() for rows in rows_list]


PETERSEN = make_graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def wide_graphs(n: int) -> list:
    """Order-n graphs for the labeler past 15 vertices: random ones of four
    densities, and a cycle, K_{a,b}, T(n,3), a wheel, M_4 and the Petersen
    graph, the last three with isolated vertices added up to n."""
    rng = random.Random(n)
    graphs = [
        graph_from_bits(n, sum(1 << i for i in range(n * (n - 1) // 2) if rng.random() < p))
        for p in [0.05, 0.2, 0.5, 0.9]
    ]
    graphs += [cycle(n), complete_bipartite(n // 3, n - n // 3), turan(n, 3)]
    for G in [wheel(n - n % 2), matching(4), PETERSEN]:
        graphs.append(G if G.n == n else disjoint_union(G, empty_graph(n - G.n)))
    return graphs


# 16: two words a refinement round, the last order with uint16 rows;
# 17: the first with uint64 rows; 62: seven words, graph6's largest order
WIDE_ORDERS = [16, 17, 31, 32, 33, 62]


class TestBatchedLabeling:
    """_canonical_codes runs the oracle's scalar search on many graphs at
    once and must give every graph the oracle's key."""

    def test_every_child_labeled_while_enumerating(self, fresh_classes, monkeypatch):
        # all classes with n <= 7 and the triangle-free ones with n <= 8
        batches = []
        original = fresh_classes._canonical_codes

        def recording(n, rows):
            batches.append((n, np.asarray(rows).tolist(), original(n, rows)))
            return batches[-1][2]

        monkeypatch.setattr(fresh_classes, "_canonical_codes", recording)
        assert count_classes(7) == 1044
        assert count_classes(8, EnumFilter(family=forbidden_family([complete(3)]))) == 410
        assert {n for n, _, _ in batches} == set(range(2, 9))
        for n, rows, codes in batches:
            assert codes.tolist() == scalar_codes(n, rows), n

    def test_random_graphs_up_to_the_hard_cap(self):
        # at n = 12 the keys have 66 bits, past one int64 word
        from alphaspectral.enumeration import ENUM_HARD_CAP, _canonical_codes

        rng = random.Random(20261019)
        for n in range(9, ENUM_HARD_CAP + 1):
            rows_list = []
            for _ in range(60):
                p = rng.random()
                G = graph_from_bits(n, sum(1 << i for i in range(n * (n - 1) // 2) if rng.random() < p))
                rows_list.append(G.rows)
            assert _canonical_codes(n, rows_list).tolist() == scalar_codes(n, rows_list), n

    def test_symmetric_graphs(self):
        # large twin classes and cells that refinement does not split
        from alphaspectral.enumeration import _canonical_codes

        rng = random.Random(12)
        graphs = [complete(12), empty_graph(12), turan(12, 3), cycle(12), complete_bipartite(6, 6)]
        rows_list = []
        for G in graphs:
            perm = list(range(12))
            rng.shuffle(perm)
            rows_list += [G.rows, relabel(G, perm).rows]
        codes = _canonical_codes(12, rows_list).tolist()
        assert codes == scalar_codes(12, rows_list)
        assert codes[::2] == codes[1::2]

    def check_wide(self, n):
        from alphaspectral.enumeration import _canonical_codes

        graphs = wide_graphs(n)
        codes = _canonical_codes(n, [G.rows for G in graphs]).tolist()
        assert codes == scalar_codes(n, [G.rows for G in graphs]), n
        rng = random.Random(-n)
        for G, code in zip(graphs, codes):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(G, perm)).encode() == code, (n, G.rows)

    @pytest.mark.parametrize("n", WIDE_ORDERS)
    def test_wide_orders(self, n):
        # past 15 vertices a refinement round ranks its signatures word by
        # word, and past 16 the bit rows are uint64
        self.check_wide(n)

    @pytest.mark.slow
    def test_every_wide_order(self):
        for n in range(16, 63):
            self.check_wide(n)


class TestBatchedRefinement:
    """_refine_nodes must give the oracle's stable colors from the same start."""

    @staticmethod
    def starts(n, rows_list):
        # each graph from its degree ranks, as the search starts, and then
        # with its last vertex individualized in its cell, as a branch of
        # the search does
        for rows in rows_list:
            degs = [r.bit_count() for r in rows]
            rank = {d: i for i, d in enumerate(sorted(set(degs)))}
            by_degree = [rank[d] for d in degs]
            yield rows, by_degree
            s = by_degree[-1]
            if by_degree.count(s) > 1:
                yield rows, [c + (c > s or c == s and v < n - 1) for v, c in enumerate(by_degree)]

    def check(self, n, rows_list):
        from alphaspectral.enumeration import _refine_nodes
        from oracle_tools import _refine

        rows, colors = zip(*self.starts(n, rows_list))
        R = np.array(rows, np.uint64)
        adj = (R[:, :, None] >> np.arange(n, dtype=np.uint64) & 1).astype(np.uint8)
        got = _refine_nodes(adj, np.array(colors)).tolist()
        assert got == [_refine(n, r, list(c))[0] for r, c in zip(rows, colors)], n

    def test_every_class_up_to_seven(self):
        for n in range(2, 8):
            self.check(n, [G.rows for G in enumerate_graphs(n)])

    @pytest.mark.parametrize("n", [12, 13, 15, *WIDE_ORDERS])
    def test_random_graphs(self, n):
        # 13 and 15 lie past ENUM_HARD_CAP, inside one int64 word a round;
        # the wide orders take two to seven words
        rng = random.Random(n)
        rows_list = [
            graph_from_bits(n, sum(1 << i for i in range(n * (n - 1) // 2) if rng.random() < p)).rows
            for p in [rng.random() for _ in range(40)] + [0.0, 1.0]
        ]
        self.check(n, rows_list)

    def test_signature_exact_to_the_hard_cap(self):
        # signatures are below n^(n+1), which int64 holds up to n = 15
        from alphaspectral.enumeration import ENUM_HARD_CAP

        assert ENUM_HARD_CAP ** (ENUM_HARD_CAP + 1) <= np.iinfo(np.int64).max


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


class TestUnpack:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_and_degrees_of_codes(self, n):
        # every order up to the hard cap, where rows reach 2^12 - 1: the
        # float32 products that unpack a class list must stay exact
        rng = random.Random(n)
        graphs = [complete(n), empty_graph(n)] + [
            make_graph(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p])
            for p in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        codes = np.array([encode_graph6(G).encode() for G in graphs])
        classes = _unpack(n, codes)
        assert classes.rows.tolist() == [list(G.rows) for G in graphs]
        assert classes.degrees.T.tolist() == [[bin(r).count("1") for r in G.rows] for G in graphs]


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
        # the class list's degree array against each Graph's own degrees
        for fam in [None, forbidden_family([complete(3)])]:
            for n in range(1, 8):
                graphs = list(enumerate_graphs(n, EnumFilter(family=fam)))
                for d in range(n):
                    filt = EnumFilter(min_degree=d, family=fam)
                    expected = [G for G in graphs if min(G.degrees()) >= d]
                    assert list(enumerate_graphs(n, filt)) == expected, (fam, n, d)
                    assert count_classes(n, filt) == len(expected), (fam, n, d)
                if fam is not None and n >= 2:
                    record = turan_number(n, fam)
                    best = max(G.edge_count for G in graphs)
                    assert record.optimum == best and type(record.optimum) is int
                    assert record.argmax == tuple(encode_graph6(G) for G in graphs if G.edge_count == best)

    def test_connected_counts(self):
        # derived by bucketing labeled graphs and keeping connected ones
        for n, expected in [(4, 6), (5, 21)]:
            keys = {
                canonical_form(Graph(n, rows))
                for rows in all_labeled_rows(n)
                if is_connected(Graph(n, rows))
            }
            assert sum(1 for G in enumerate_graphs(n) if is_connected(G)) == len(keys) == expected


@pytest.fixture
def fresh_classes(monkeypatch):
    """An empty in-memory class cache, restored after, an empty canonical_form
    memo and no disk cache."""
    from alphaspectral import enumeration

    monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
    enumeration.canonical_form.cache_clear()
    monkeypatch.delenv(enumeration.CACHE_ENV_VAR, raising=False)
    return enumeration


def count_labelings(enumeration, monkeypatch) -> list[int]:
    """Count the graphs labeled from now on, all by the batch labeler, in the
    returned one-item list."""
    calls = [0]
    batched = enumeration._canonical_codes

    def counting(n, rows):
        calls[0] += len(rows)
        return batched(n, rows)

    monkeypatch.setattr(enumeration, "_canonical_codes", counting)
    return calls


# Freeness lists the copies of F - x in each parent, with one plan per
# vertex x of F up to twins. P4, the paw, the wheel and the books have
# vertices in several orbits, so several plans. K2+K1, K2+2K1 and K3+4K1
# have isolated vertices: a copy of F - x for an isolated x marks the empty
# mask, which rejects every mask of that parent; at n = 7, K3+4K1 is found
# in K3 + K1,3, whose new edges lie on no triangle, only that way.
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
    "P4": [generate("path:4")],
    "paw": [make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])],
    "W6": [generate("wheel:6")],
    "B23": [generate("book:2:3")],
    "K2+K1": [disjoint_union(complete(2), empty_graph(1))],
    "K2+2K1": [disjoint_union(complete(2), empty_graph(2))],
    "K3+4K1": [disjoint_union(complete(3), empty_graph(4))],
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
        calls = count_labelings(fresh_classes, monkeypatch)
        assert count_classes(8, EnumFilter(family=forbidden_family([complete(3)]))) == 410
        assert calls == [769]

    def test_canonical_search_size_pinned(self, fresh_classes, monkeypatch):
        # search tree nodes refined while labeling every child for all
        # classes with n <= 7: skipping cellmates that are twins of a tried
        # vertex keeps it at 5,689; without that skip the search refines
        # 44,383 nodes
        nodes = 0
        original = fresh_classes._refine_nodes

        def counting(adj, colors):
            nonlocal nodes
            nodes += len(colors)
            return original(adj, colors)

        monkeypatch.setattr(fresh_classes, "_refine_nodes", counting)
        assert count_classes(7) == 1044
        assert nodes == 5689

    def test_triangle_free_copies_pinned(self, fresh_classes, monkeypatch):
        # copies of K3 - x = K2 that the freeness stage lists in the parents
        # across n = 3..8: one plan, as the vertices of K3 are twins, and one
        # copy per parent edge, marking the mask of its two ends; the two
        # ends of K2 are twins in K3, so only their ascending placement is
        # listed; listing both would give 1,902
        copies = 0
        original = fresh_classes._maps

        def counting(*args):
            nonlocal copies
            for images in original(*args):
                copies += 1
                yield images

        monkeypatch.setattr(fresh_classes, "_maps", counting)
        fam = forbidden_family([complete(3)])
        assert count_classes(8, EnumFilter(family=fam)) == 410
        assert copies == 951
        monkeypatch.setattr(fresh_classes, "_maps", original)
        assert copies == sum(G.edge_count for n in range(2, 8) for G in enumerate_graphs(n, EnumFilter(family=fam)))

    @pytest.mark.parametrize(
        "members,n",
        [([path(3), star(2)], 7), ([complete(3), complete(3)], 8)],
        ids=["P3-two-labelings", "K3-twice"],
    )
    def test_repeated_member_listed_once(self, fresh_classes, monkeypatch, members, n):
        # a family is a set: a member listed again, in any labeling, adds no
        # copies to the freeness stage (144 and 951 here, each twice when
        # every listed member was searched)
        original = fresh_classes._maps

        def copies(family) -> int:
            count = 0

            def counting(*args):
                nonlocal count
                for images in original(*args):
                    count += 1
                    yield images

            monkeypatch.setattr(fresh_classes, "_CLASS_CACHE", {})
            monkeypatch.setattr(fresh_classes, "_maps", counting)
            count_classes(n, EnumFilter(family=forbidden_family(family)))
            monkeypatch.setattr(fresh_classes, "_maps", original)
            return count

        assert copies(members) == copies(members[:1])

    @pytest.mark.parametrize("name", REFERENCE_FAMILIES)
    def test_rejected_masks_are_those_containing_f(self, name):
        # every F-free parent with n <= 6 and every mask: the freeness stage
        # rejects exactly the masks whose child contains a member. The class
        # lists alone can miss a wrongly rejected mask when another parent
        # rebuilds the same class.
        from alphaspectral.enumeration import _class_list, _rejected

        members = REFERENCE_FAMILIES[name] or []
        fam = forbidden_family(members) if members else None
        for n in range(2, 8):
            parents = _class_list(n - 1, EnumFilter(family=fam), False)[0]
            rejected = _rejected(n, fam, parents.rows, parents.degrees.T)
            for p, rows in enumerate(parents.rows.tolist()):
                for mask in range(1 << n - 1):
                    child = Graph(n, tuple(r | (mask >> u & 1) << n - 1 for u, r in enumerate(rows)) + (mask,))
                    expected = any(contains_subgraph(child, F) for F in members)
                    assert rejected[p, mask] == expected, (name, rows, mask)

    @pytest.mark.parametrize(
        "family,n_max,digest",
        [
            (None, 7, "2707648d72ebd98b9de4de74523cd690fb82f4970d2c632fc3ad82dca6752bce"),
            ("complete:3", 9, "9be338f603783709c5ef9c10ca3a9d097f6e91cb7a20b0bd352cea682dd04bbc"),
        ],
    )
    def test_class_list_bytes_pinned(self, family, n_max, digest):
        # the reference generation labels with the oracle's scalar search, so
        # a change made to both labelings alike shows only in a pin of the
        # emitted keys
        filt = EnumFilter(family=None if family is None else forbidden_family([generate(family)]))
        text = "".join(write_graph6_lines(enumerate_graphs(n, filt)) for n in range(1, n_max + 1))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_class_bytes_independent_of_label_chunk(self, fresh_classes, monkeypatch, chunk):
        def text():
            fresh_classes._CLASS_CACHE.clear()
            filt = EnumFilter(family=forbidden_family([complete(3)]))
            lists = [enumerate_graphs(n, filt) for n in range(1, 9)] + [enumerate_graphs(n) for n in range(1, 7)]
            return "".join(write_graph6_lines(graphs) for graphs in lists)

        default = text()
        monkeypatch.setattr(fresh_classes, "_LABEL_CHUNK", chunk)
        assert text() == default

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


def listed(classes):
    """A class list's codes, rows and degrees as plain lists, for equality."""
    return classes.codes.tolist(), classes.rows.tolist(), classes.degrees.tolist()


class TestFreeListSource:
    """Every F-free list is generated from the F-free list one order down,
    whatever other lists are in memory."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_free_lists_same_with_unfiltered_cached(self, fresh_classes, monkeypatch, r):
        fam = forbidden_family([complete(r + 1)])
        fam_key = fresh_classes.family_keys(fam)

        def lists():
            calls = count_labelings(fresh_classes, monkeypatch)
            classes = [listed(fresh_classes._classes(n, fam, fam_key)) for n in range(1, 8)]
            return classes, calls[0]

        alone = lists()
        fresh_classes._CLASS_CACHE.clear()
        for n in range(1, 8):
            count_classes(n)
        assert lists() == alone

    @pytest.mark.parametrize("r", [2, 3])
    def test_battery_degree_stability_matches_check(self, monkeypatch, r):
        from alphaspectral import run_battery, verifier

        made = []
        report = verifier._report

        def recording(check_id, *args, **kwargs):
            made.append(report(check_id, *args, **kwargs))
            return made[-1]

        expected = [rep for n in range(3, 8) for rep in check_degree_stability(n, r, complete(r + 1))]
        monkeypatch.setattr(verifier, "_report", recording)
        run_battery(7, [0.0], [r])
        assert [rep for rep in made if rep.check_id == "degree-stability"] == expected


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

    def test_unfiltered_ten_needs_force(self):
        # 12,005,168 classes (A000088) cannot be held in memory
        with pytest.raises(EnumerationCapError, match="12,005,168 classes"):
            list(enumerate_graphs(10))

    def test_filtered_ten_runs_without_force(self):
        fam = forbidden_family([complete(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = list(enumerate_graphs(10, EnumFilter(family=fam)))
        assert len(out) == 1 and out[0].edge_count == 0

    def test_family_too_large_to_fit_gets_the_unfiltered_cap(self):
        # no 10-vertex graph contains K11, so {K11}-free n = 10 is every class
        fam = forbidden_family([complete(11)])
        with pytest.raises(EnumerationCapError, match="12,005,168 classes"):
            list(enumerate_graphs(10, EnumFilter(family=fam)))

    def test_one_member_that_fits_keeps_the_family_cap(self):
        fam = forbidden_family([complete(11), complete(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_classes(10, EnumFilter(family=fam)) == 1

    def test_hard_cap_even_with_force(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_graphs(13, force=True))

    def test_force_warns_but_runs(self):
        # {K_2}-free leaves only edgeless classes, so the override is cheap
        fam = forbidden_family([complete(2)])
        with pytest.warns(UserWarning):
            out = list(enumerate_graphs(11, EnumFilter(family=fam), force=True))
        assert len(out) == 1 and out[0].edge_count == 0


def cache_file(enumeration, n, keys, fam_key=None):
    """The exact text of a valid class file holding these keys."""
    body = "".join(k + "\n" for k in keys)
    return enumeration._cache_header(n, fam_key, body.encode()).decode() + body


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        from alphaspectral import enumeration

        monkeypatch.setenv(enumeration.CACHE_ENV_VAR, str(tmp_path))
        enumeration._CLASS_CACHE.clear()
        first = [encode_graph6(G) for G in enumerate_graphs(5)]
        files = list(tmp_path.glob("classes_n5_*.g6"))
        assert files, "expected a cache file for n=5"
        header, *lines = files[0].read_text().splitlines()
        assert header.startswith(f"{enumeration.CACHE_FORMAT} n=5 family=all count=34 crc32=")
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

    @pytest.mark.parametrize(
        "corrupt", ["reversed", "duplicate", "blank", "empty", "order", "unprintable", "padding", "ragged"]
    )
    def test_unsorted_file_is_regenerated(self, cache, corrupt):
        # the header is made to match the corrupt body, so only the check of
        # the body itself can reject it; at n = 5 the 10 code bits leave 2
        # padding bits in the last character
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        last = expected[-1]
        lines = {
            "reversed": expected[::-1],
            "duplicate": expected[:3] + expected[2:],
            "blank": expected[:3] + [""] + expected[3:],
            "empty": [],
            "order": expected[:-1] + [chr(ord(last[0]) + 1) + last[1:]],
            "unprintable": expected[:-1] + [last[:-1] + chr(127)],
            "padding": expected[:-1] + [last[:-1] + chr(ord(last[-1]) + 1)],  # "D~{" -> "D~|"
            "ragged": expected[:-2] + [expected[-2][:-1], expected[-2][-1] + last],
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
        [("alphaspectral-classes v2", "alphaspectral-classes v1"), ("n=5", "n=6"),
         ("family=all", "family=0123456789abcdef"), ("count=34", "count=35")],
    )
    def test_header_mismatch_is_regenerated(self, cache, field, value):
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        path5 = cache._disk_cache_path(5, None)
        text = path5.read_text()
        assert field in text.partition("\n")[0]
        self.regenerated(cache, path5, text.replace(field, value, 1), expected)

    def test_v2_header_is_pinned(self, cache, tmp_path):
        # the family field holds the sorted canonical keys joined by ",", and
        # a family's file is named by their CRC-32
        count_classes(5)
        count_classes(5, EnumFilter(family=forbidden_family([complete(3)])))
        assert (tmp_path / "classes_n5_all.g6").read_bytes().partition(b"\n")[0] == (
            b"alphaspectral-classes v2 n=5 family=all count=34 crc32=dacebe5d"
        )
        assert (tmp_path / "classes_n5_4df7dbe7.g6").read_bytes().partition(b"\n")[0] == (
            b"alphaspectral-classes v2 n=5 family=Bw count=14 crc32=73a234b2"
        )

    def test_v1_file_is_regenerated_as_v2(self, cache):
        # the format before v2: a sha256 of the body, which the CRC replaced
        expected = [encode_graph6(G) for G in enumerate_graphs(5)]
        body = "".join(key + "\n" for key in expected)
        digest = hashlib.sha256(body.encode()).hexdigest()
        v1 = f"alphaspectral-classes v1 n=5 family=all count=34 sha256={digest}\n" + body
        self.regenerated(cache, cache._disk_cache_path(5, None), v1, expected)

    def test_other_family_at_right_path_is_regenerated(self, cache):
        # a file-name collision: the K3-free file holds a valid K4-free list,
        # whose header names K4's key, so it is regenerated, not loaded
        k3, k4 = forbidden_family([complete(3)]), forbidden_family([complete(4)])
        k4_free = [encode_graph6(G) for G in enumerate_graphs(5, EnumFilter(family=k4))]
        expected = [encode_graph6(G) for G in enumerate_graphs(5, EnumFilter(family=k3))]
        path = cache._disk_cache_path(5, cache.family_keys(k3))
        path.write_text(cache_file(cache, 5, k4_free, cache.family_keys(k4)))
        cache._CLASS_CACHE.clear()
        assert [encode_graph6(G) for G in enumerate_graphs(5, EnumFilter(family=k3))] == expected
        assert path.read_text() == cache_file(cache, 5, expected, cache.family_keys(k3))

    def test_failed_publish_leaves_nothing(self, cache, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("simulated failure while publishing")

        monkeypatch.setattr(cache.os, "replace", refuse)
        assert count_classes(4) == KNOWN_COUNTS[4]
        assert list(tmp_path.iterdir()) == []

    def test_twelve_vertex_codes_reload(self, cache, monkeypatch):
        # order 12, whose keys have 66 bits, more than a uint64 holds: the
        # {P3}-free graphs are the matchings with 0..6 edges
        fam = forbidden_family([path(3)])
        with pytest.warns(UserWarning):
            graphs = list(enumerate_graphs(12, EnumFilter(family=fam), force=True))
        keys = [canonical_bits(12, G.rows) for G in graphs]
        assert keys == sorted(set(keys)) and len(keys) == 7
        assert sorted(G.edge_count for G in graphs) == list(range(7))
        assert all(max(G.degrees()) <= 1 for G in graphs)
        path12 = cache._disk_cache_path(12, cache.family_keys(fam))
        text = path12.read_bytes()
        assert text.partition(b"\n")[2] == write_graph6_lines(graphs).encode()
        cache._CLASS_CACHE.clear()
        calls = count_labelings(cache, monkeypatch)
        with pytest.warns(UserWarning):
            assert list(enumerate_graphs(12, EnumFilter(family=fam), force=True)) == graphs
        # no labeling: the codes come from the file, P3's family key from the
        # canonical_form memo
        assert calls == [0] and path12.read_bytes() == text
