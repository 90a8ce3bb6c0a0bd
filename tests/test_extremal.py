import hashlib
import json
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

from alphaspectral import (
    ExtremalRecord,
    NoCandidatesError,
    book,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    decode_graph6,
    empty_graph,
    forbidden_family,
    matching,
    pi_sequence,
    spectral_extremal,
    star,
    stability_condition_check,
    turan,
    turan_number,
)

from alphaspectral.enumeration import family_keys
from alphaspectral.extremal import TIE_TOL, min_degree_threshold
from alphaspectral.graphs import Graph

from oracle_tools import (
    brute_max_edges,
    brute_max_lambda,
    full_spectral_extremal,
    naive_has_two_disjoint_edges,
    naive_triangle_free,
    nx_atlas_free_graphs,
    nx_extremal,
)

K3 = forbidden_family([complete(3)])
K4 = forbidden_family([complete(4)])

PRUNE_FAMILIES = {
    "K3": complete(3),
    "K4": complete(4),
    "C4": cycle(4),
    "C5": cycle(5),
    "K13": star(3),
    "M2": matching(2),
    "B22": book(2, 2),
}
PRUNE_ALPHAS = [0.0, 0.25, 0.5, 0.6, 0.9, 0.99]
PRUNE_TIE_TOLS = [0.0, 1e-9, 0.5, 3.0]


def assert_same_as_full_search(n, alpha, fam, tie_tol, min_degree=None):
    """Equal records, or NoCandidatesError from both; returns whether there
    were candidates."""
    try:
        ref = full_spectral_extremal(n, alpha, fam, tie_tol, min_degree)
    except NoCandidatesError:
        with pytest.raises(NoCandidatesError):
            spectral_extremal(n, alpha, fam, tie_tol=tie_tol, min_degree=min_degree)
        return False
    rec = spectral_extremal(n, alpha, fam, tie_tol=tie_tol, min_degree=min_degree)
    assert replace(rec, elapsed=0.0).to_json() == ref.to_json(), (n, alpha, tie_tol, min_degree)
    return True


class TestTuranNumber:
    def test_triangle_free_n5(self):
        rec = turan_number(5, K3)
        assert rec.optimum == 6
        assert rec.argmax == (canonical_form(turan(5, 2)),)
        assert rec.classes_searched == 14
        # independent route: maximize edges over all labeled graphs
        assert brute_max_edges(5, naive_triangle_free) == 6

    def test_triangle_free_n4(self):
        rec = turan_number(4, K3)
        assert rec.optimum == 4
        assert canonical_form(cycle(4)) in rec.argmax
        assert brute_max_edges(4, naive_triangle_free) == 4

    def test_single_edge_family(self):
        rec = turan_number(6, [complete(2)])
        assert rec.optimum == 0
        assert rec.argmax == (canonical_form(empty_graph(6)),)

    def test_argmax_members_are_family_free(self):
        from alphaspectral import decode_graph6, is_free

        rec = turan_number(6, K3)
        for key in rec.argmax:
            assert is_free(decode_graph6(key), K3)


class TestSpectralExtremal:
    def test_triangle_free_n6(self):
        rec = spectral_extremal(6, 0.25, K3)
        assert rec.optimum == pytest.approx(3.0, abs=1e-9)
        assert rec.argmax == (canonical_form(turan(6, 2)),)
        assert rec.classes_searched == 38

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_matches_bruteforce_at_n5(self, alpha):
        rec = spectral_extremal(5, alpha, K3)
        brute = brute_max_lambda(5, alpha, naive_triangle_free)
        assert rec.optimum == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_star_family_value(self, n, alpha):
        rec = spectral_extremal(n, alpha, [star(3)])
        assert rec.optimum == pytest.approx(2.0, abs=1e-9)
        witness = disjoint_union(complete(3), empty_graph(n - 3)) if n > 3 else complete(3)
        assert canonical_form(witness) in rec.argmax

    def test_matching_family_n5(self):
        rec = spectral_extremal(5, 0.5, [matching(2)])
        assert rec.optimum == pytest.approx(2.5, abs=1e-9)
        assert rec.argmax == (canonical_form(star(4)),)
        brute = brute_max_lambda(
            5, 0.5, lambda rows, n: not naive_has_two_disjoint_edges(rows, n)
        )
        assert rec.optimum == pytest.approx(brute, abs=1e-9)

    def test_strict_ties_are_subset(self):
        loose = spectral_extremal(6, 0.3, [star(3)])
        strict = spectral_extremal(6, 0.3, [star(3)], tie_tol=0.0)
        assert set(strict.argmax) <= set(loose.argmax)
        assert len(loose.argmax) > 1  # every class with a cycle component ties

    def test_edge_spectral_consistency(self):
        for n in (4, 5, 6):
            for alpha in (0.0, 0.3, 0.6):
                radius_rec = spectral_extremal(n, alpha, K3)
                edges_rec = turan_number(n, K3)
                assert radius_rec.optimum >= 2 * edges_rec.optimum / n - 1e-9

    def test_min_degree_filter_restricts(self):
        full = spectral_extremal(6, 0.2, K3)
        restricted = spectral_extremal(6, 0.2, K3, min_degree=2)
        assert restricted.classes_searched < full.classes_searched
        assert restricted.optimum <= full.optimum + 1e-12

    def test_no_candidates(self):
        with pytest.raises(NoCandidatesError):
            spectral_extremal(3, 0.1, [complete(2)], min_degree=2)
        # no graph of order 3 has minimum degree 3 or more
        for floor in (3, 7):
            with pytest.raises(NoCandidatesError, match="minimum degree"):
                spectral_extremal(3, 0.1, K3, min_degree=floor)

    @pytest.mark.parametrize("n,alpha", [(6, 0.6), (7, 0.75)])
    def test_split_graph_regime_spot_check(self, n, alpha):
        # above alpha = 1 - 1/r the triangle-free maximizer flips from the
        # Turan graph to the split graph, here the star
        rec = spectral_extremal(n, alpha, K3)
        assert rec.argmax == (canonical_form(star(n - 1)),)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            spectral_extremal(4, 1.0, K3)

    @pytest.mark.parametrize("tie_tol", [-1.0, -1e-12, float("nan"), True, "0.1", None])
    def test_tie_tol_validated(self, tie_tol):
        # a negative or NaN tolerance would admit no class to the argmax, and
        # True would run as 1.0
        with pytest.raises(ValueError, match="tie_tol"):
            spectral_extremal(5, 0.3, K3, tie_tol=tie_tol)


class TestPrunedSearch:
    """The search eigensolves only the classes whose upper bound reaches the
    best lower bound; its records equal those of solving every class."""

    @pytest.mark.parametrize("name", PRUNE_FAMILIES)
    def test_matches_full_search(self, name):
        fam = forbidden_family([PRUNE_FAMILIES[name]])
        for n in range(2, 9):
            for alpha in PRUNE_ALPHAS:
                for tie_tol in PRUNE_TIE_TOLS:
                    assert_same_as_full_search(n, alpha, fam, tie_tol)

    # a triangle-free graph has min degree at most n/2 (Mantel), so odd n
    # leaves no class at ceil(n/2); the K4-free T(n, 3) reaches every floor
    @pytest.mark.parametrize("fam,some_empty", [(K3, True), (K4, False)], ids=["K3", "K4"])
    def test_matches_full_search_with_min_degree(self, fam, some_empty):
        empty = 0
        for n in range(2, 9):
            for min_degree in sorted({1, 2, -(-n // 2)} & set(range(n))) + [None]:
                for alpha in PRUNE_ALPHAS:
                    for tie_tol in PRUNE_TIE_TOLS:
                        empty += not assert_same_as_full_search(n, alpha, fam, tie_tol, min_degree)
        assert bool(empty) == some_empty

    def test_sweep_records_pinned(self):
        # records of the search that packed the rows anew on every call; the
        # packing kept per class list must reproduce them byte for byte
        text = "".join(replace(spectral_extremal(8, i / 16, K4), elapsed=0.0).to_json() + "\n" for i in range(16))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8a8bdc36e7680d0fe5ef5bc8ccdf6dbe24706220937d15994f74c6bc29a0645b"
        )

    def test_rows_packed_once_per_class_list(self, monkeypatch):
        # rows and degrees are unpacked once per class list, and the bound
        # terms once per (class list, min_degree, tie_tol); clearing the
        # class cache drops both with the list
        from alphaspectral import enumeration, extremal

        monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
        monkeypatch.delenv(enumeration.CACHE_ENV_VAR, raising=False)
        built, termed = 0, []
        unpack, bound_terms = enumeration._unpack, extremal._bound_terms

        def counting(n, codes):
            nonlocal built
            built += n == 7
            return unpack(n, codes)

        def recording(rows):
            termed.append(len(rows))
            return bound_terms(rows)

        monkeypatch.setattr(enumeration, "_unpack", counting)
        monkeypatch.setattr(extremal, "_bound_terms", recording)
        keys = [(min_degree, tie_tol) for min_degree in (None, 3) for tie_tol in (0.0, TIE_TOL, 0.5)]
        sweep = [(i / 18, *keys[i % len(keys)]) for i in range(18)]

        def run():
            return [spectral_extremal(7, a, K4, min_degree=md, tie_tol=t) for a, md, t in sweep]

        run()
        assert built == 1 and len(termed) == len(keys)
        enumeration._CLASS_CACHE.clear()
        records = run()
        assert built == 2 and termed[len(keys) :] == termed[: len(keys)]
        for rec, (a, md, t) in zip(records, sweep):
            assert replace(rec, elapsed=0.0).to_json() == full_spectral_extremal(7, a, K4, t, md).to_json()

    def test_degree_bounds_prune_counts(self, monkeypatch):
        # Delta * n >= max 2m keeps 1,106 of the 6,431 K4-free classes at n = 8
        # at every alpha, and their bound terms are built once, as one stack;
        # the pinned keys of the classes eigensolved are those the search
        # solved before it had the degree test
        from alphaspectral import enumeration, extremal

        monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
        bounded, solved = [], []
        bound_terms, solve = extremal._bound_terms, extremal._top_eigenvalues

        def counting_terms(R):
            bounded.append(len(R))
            return bound_terms(R)

        def recording_solve(M):
            # the graph of an alpha matrix is its off-diagonal support
            for A in M != 0:
                rows = tuple(sum(1 << j for j in np.flatnonzero(row) if j != i) for i, row in enumerate(A))
                solved.append(canonical_form(Graph(len(rows), rows)))
            return solve(M)

        monkeypatch.setattr(extremal, "_bound_terms", counting_terms)
        monkeypatch.setattr(extremal, "_top_eigenvalues", recording_solve)
        searched = [spectral_extremal(8, i / 8, K4).classes_searched for i in range(8)]
        assert bounded == [1106] and searched == [6431] * 8
        assert hashlib.sha256("".join(k + "\n" for k in solved).encode()).hexdigest() == (
            "b72306177c7f99752f4207623546aa52f99658892491a84661c5c66d0ae02c8e"
        )

    def test_only_solved_classes_assembled(self, monkeypatch):
        # per alpha the alpha matrices are built for the classes eigensolved
        # and for no other
        from alphaspectral import extremal

        assembled, solved = [], []
        assemble, solve = extremal._alpha_matrices, extremal._top_eigenvalues
        monkeypatch.setattr(extremal, "_alpha_matrices", lambda R, a: assembled.append(len(R)) or assemble(R, a))
        monkeypatch.setattr(extremal, "_top_eigenvalues", lambda M: solved.append(len(M)) or solve(M))
        for i in range(8):
            spectral_extremal(8, i / 8, K4)
        assert assembled == solved and len(solved) == 8 and max(solved) < 1106

    @pytest.mark.parametrize("n,fam", [(7, None), (9, K3)], ids=["all-7", "K3-9"])
    def test_packed_degrees(self, n, fam):
        # rows are uint8 up to n = 8 and uint16 from n = 9, unpacked from the
        # codes as the per-string decoder reads them
        from alphaspectral.enumeration import EnumFilter, _class_list

        classes, _ = _class_list(n, EnumFilter(family=fam), False)
        graphs = [decode_graph6(code) for code in classes.codes.astype(str).tolist()]
        assert classes.rows.dtype == (np.uint8 if n <= 8 else np.uint16)
        assert classes.rows.tolist() == [list(G.rows) for G in graphs]
        assert classes.degrees.T.tolist() == [list(G.degrees()) for G in graphs]

    @pytest.mark.slow
    def test_matches_full_search_triangle_free_ten(self):
        for alpha in [i / 10 for i in range(10)]:
            for tie_tol in PRUNE_TIE_TOLS:
                assert_same_as_full_search(10, alpha, K3, tie_tol)

    def test_half_alpha_bipartite_tie(self):
        # every K_{a,8-a} has radius exactly 4 at alpha = 1/2; their floats
        # differ in the last bits, so strict ties keep the one rounded up
        rec = spectral_extremal(8, 0.5, K3)
        assert rec.argmax == tuple(sorted(canonical_form(complete_bipartite(a, 8 - a)) for a in range(1, 5)))
        assert spectral_extremal(8, 0.5, K3, tie_tol=0.0).argmax == ("G???F{",)

    def test_solves_under_one_percent(self, monkeypatch):
        solved = 0
        eigvalsh = np.linalg.eigvalsh

        def counting(M):
            nonlocal solved
            solved += int(np.prod(np.shape(M)[:-2]))
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rec = spectral_extremal(8, 0.3, K4)
        assert rec.classes_searched == 6431
        assert 1 <= solved < 6431 / 100


class TestAtlasOracle:
    """Optimum and argmax against the networkx graph atlas, filtered by
    networkx subgraph monomorphism and solved by numpy."""

    @pytest.mark.parametrize("pattern", [complete(3), complete(4), cycle(4)], ids=["K3", "K4", "C4"])
    def test_matches_atlas(self, pattern):
        pytest.importorskip("networkx")
        fam = forbidden_family([pattern])
        free = nx_atlas_free_graphs(pattern.edges())
        for n in range(1, 8):
            for alpha in (0.0, 0.3, 0.5, 0.6):
                rec = spectral_extremal(n, alpha, fam)
                optimum, keys = nx_extremal(free[n], alpha, TIE_TOL)
                assert abs(rec.optimum - optimum) <= 1e-9, (n, alpha)
                assert list(rec.argmax) == keys, (n, alpha)


def record_fields(rec: ExtremalRecord) -> dict:
    """The record's fields as its JSON should carry them."""
    return {**asdict(rec), "family": list(family_keys(rec.family)), "argmax": list(rec.argmax)}


class TestSerialization:
    def test_json_round_trip_is_byte_identical(self):
        rec = spectral_extremal(5, 0.25, K3)
        payload = json.loads(rec.to_json())
        assert payload == record_fields(rec)

    def test_edge_record_round_trip(self):
        rec = turan_number(5, K3)
        payload = json.loads(rec.to_json())
        assert payload == record_fields(rec)
        assert payload["alpha"] is None
        assert isinstance(payload["optimum"], int)

    def test_csv_row(self):
        rec = turan_number(4, K3)
        header, row = rec.to_csv().splitlines()
        assert row.startswith("4,,")
        assert header.count(",") == row.count(",")


class TestPiSequence:
    def test_triangle_family_trend(self):
        diag = pi_sequence(K3, 0.0, 4, 8)
        assert diag.ratio_nonincreasing
        assert [r.n for r in diag.rows] == [4, 5, 6, 7, 8]
        assert all(r.hypothesis_ok for r in diag.rows)
        row6 = diag.rows[2]
        assert row6.optimum == pytest.approx(3.0, abs=1e-9)
        assert row6.ratio_n_minus_1 == pytest.approx(0.6, abs=1e-9)

    def test_single_row_is_vacuous(self):
        diag = pi_sequence(K3, 0.25, 5, 5)
        assert len(diag.rows) == 1
        assert diag.ratio_nonincreasing

    def test_bipartite_family_hypothesis_na(self):
        diag = pi_sequence([star(3)], 0.1, 4, 5)
        assert all(r.hypothesis_ok is None for r in diag.rows)
        assert "n/a" in diag.to_csv()

    def test_csv_shape(self):
        diag = pi_sequence(K3, 0.0, 4, 6)
        lines = diag.to_csv().strip().splitlines()
        assert lines[0] == "n,optimum,ratio_n,ratio_n_minus_1,hypothesis_ok"
        assert len(lines) == 4


class TestConditionCheck:
    def test_triangle_family_small_range(self):
        rows = stability_condition_check(K3, 0.5, 5, 8, alpha=0.2, epsilon=0.1)
        assert [r.n for r in rows] == [5, 6, 7, 8]
        for r in rows:
            # floor(n^2/4) - floor((n-1)^2/4) - n/2 is 0 or -1/2
            assert r.cond_growth_lhs in (0.0, 0.5)
            assert r.cond_growth_ok
            assert r.turan_n == r.n * r.n // 4

    def test_zero_sigma_flags_rows(self):
        rows = stability_condition_check(K3, 0.0, 5, 6, alpha=0.2, epsilon=0.1)
        assert any(not r.cond_growth_ok for r in rows if r.cond_growth_lhs > 0)

    def test_bipartite_family_rejected(self):
        with pytest.raises(ValueError):
            stability_condition_check([star(3)], 0.5, 5, 6, alpha=0.1, epsilon=0.1)

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), True, "0.1", None])
    def test_sigma_validated(self, sigma):
        # a NaN sigma would read every condition as False, and True would run as 1
        with pytest.raises(ValueError, match="sigma"):
            stability_condition_check(K3, sigma, 5, 6, alpha=0.2, epsilon=0.1)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            stability_condition_check(K3, 0.5, 5, 6, alpha=0.45, epsilon=0.1)

    def test_floor_above_order_records_no_candidates(self):
        # for K4 at n = 2 the floor is 2 > n - 1, so no class and no radius;
        # at n = 4 the floor 3 leaves only K4 itself
        rows = stability_condition_check([complete(4)], 0.5, 3, 5, alpha=0.2, epsilon=0.1)
        assert [r.n for r in rows] == [3, 4, 5]
        assert [r.lambda_min_degree is None for r in rows] == [False, True, False]
        assert rows[0].lambda_min_degree == pytest.approx(2.0)
        assert [r.stepwise_ok for r in rows] == [None, None, None]


class TestMinDegreeThreshold:
    @pytest.mark.parametrize(
        "density, epsilon, n, expected",
        [
            (0.5, 0.15, 10, 4),  # 3.5: the next integer up
            (0.5, 0.1, 10, 5),  # exactly 4: strictly greater
            (0.5, 0.4, 10, 2),  # 0.9999999999999998 reads as the integer 1
            (2 / 3, 1 / 12, 12, 8),  # 6.999999999999999 reads as 7
            (0.5, 1 / 6, 9, 4),  # 3.0000000000000004 reads as 3
            (0.1, 0.3, 5, 0),  # below zero: no floor
        ],
    )
    def test_smallest_integer_above(self, density, epsilon, n, expected):
        assert min_degree_threshold(density, epsilon, n) == expected

    def test_float_density_is_the_rational(self):
        # the condition check takes pi = (r - 1) / r as a float; one int
        # true division rounds correctly, as the exact rational does
        from fractions import Fraction

        for r in range(2, 65):
            assert (r - 1) / r == float(Fraction(r - 1, r)), r

    def test_condition_rows_pinned(self):
        rows = stability_condition_check([complete(4)], 0.5, 3, 6, alpha=0.2, epsilon=0.1)
        assert [astuple(row) for row in rows] == [
            (3, 3, 1, 0.0, True, 2.0, 0.0, True, None),
            (4, 5, 3, 0.6666666666666665, True, None, None, None, None),
            (5, 8, 5, 0.33333333333333304, True, 3.2464249196572976, 0.04642491965729745, True, None),
            (6, 12, 8, 0.0, True, 4.0, 0.0, True, True),
        ]
