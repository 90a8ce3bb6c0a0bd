import json
from dataclasses import replace

import numpy as np
import pytest

from alphaspectral import (
    EnumFilter,
    ExtremalRecord,
    NoCandidatesError,
    book,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
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

from alphaspectral.extremal import TIE_TOL

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
PRUNE_ALPHAS = [0.0, 0.25, 0.5, 0.6, 0.9]
PRUNE_TIE_TOLS = [0.0, 1e-9, 0.5]


def assert_same_as_full_search(n, alpha, fam, tie_tol):
    rec = spectral_extremal(n, alpha, fam, tie_tol=tie_tol)
    ref = full_spectral_extremal(n, alpha, fam, tie_tol)
    assert replace(rec, elapsed=0.0).to_json() == ref.to_json(), (n, alpha, tie_tol)


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
        restricted = spectral_extremal(6, 0.2, K3, EnumFilter(min_degree=2))
        assert restricted.classes_searched < full.classes_searched
        assert restricted.optimum <= full.optimum + 1e-12

    def test_no_candidates(self):
        with pytest.raises(NoCandidatesError):
            spectral_extremal(3, 0.1, [complete(2)], EnumFilter(min_degree=2))

    @pytest.mark.parametrize("n,alpha", [(6, 0.6), (7, 0.75)])
    def test_split_graph_regime_spot_check(self, n, alpha):
        # above alpha = 1 - 1/r the triangle-free maximizer flips from the
        # Turan graph to the split graph, here the star
        rec = spectral_extremal(n, alpha, K3)
        assert rec.argmax == (canonical_form(star(n - 1)),)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            spectral_extremal(4, 1.0, K3)

    @pytest.mark.parametrize("tie_tol", [-1.0, -1e-12, float("nan")])
    def test_tie_tol_validated(self, tie_tol):
        # a negative or NaN tolerance would admit no class to the argmax
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


class TestSerialization:
    def test_json_round_trip_is_byte_identical(self):
        rec = spectral_extremal(5, 0.25, K3)
        text = rec.to_json()
        assert ExtremalRecord.from_json(text).to_json() == text
        payload = json.loads(text)
        assert set(payload) == {
            "n",
            "alpha",
            "family",
            "optimum",
            "argmax",
            "classes_searched",
            "elapsed",
        }

    def test_edge_record_round_trip(self):
        rec = turan_number(5, K3)
        text = rec.to_json()
        again = ExtremalRecord.from_json(text)
        assert again.to_json() == text
        assert again.alpha is None
        assert isinstance(json.loads(text)["optimum"], int)

    def test_csv_row(self):
        rec = turan_number(4, K3)
        assert rec.to_csv_row().startswith("4,,")
        assert rec.csv_header().count(",") == rec.to_csv_row().count(",")


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

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            stability_condition_check(K3, 0.5, 5, 6, alpha=0.45, epsilon=0.1)
