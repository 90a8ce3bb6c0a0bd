import hashlib
import math

import numpy as np
import pytest

from alphaspectral import (
    EnumFilter,
    check_degree_stability,
    check_edge_count_turan,
    check_graph,
    check_log_inequalities,
    check_turan_bound,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    make_graph,
    path,
    pi_sequence,
    run_battery,
    spectral_extremal,
    spectral_radius,
    stability_condition_check,
    star,
)
from alphaspectral import verifier
from alphaspectral.enumeration import _class_list, enumerate_graphs
from alphaspectral.graph6 import encode_graph6
from alphaspectral.spectral import _alpha_matrices, _top_eigenvalues
from alphaspectral.verifier import BatteryReport, CheckReport, _Column, _report

from oracle_tools import reference_check_graph, relabel


class TestReportVerdicts:
    def test_pass_on_nonnegative_slack(self):
        assert _report("x", "s", 1.0, 2.0).verdict == "pass"

    def test_fail_on_negative_slack(self):
        assert _report("x", "s", 2.0, 1.0).verdict == "fail"

    def test_tiny_negative_slack_tolerated(self):
        assert _report("x", "s", 1.0, 1.0 - 1e-10).verdict == "pass"

    def test_equality_expected_rejects_large_slack(self):
        assert _report("x", "s", 1.0, 1.5, equality_expected=True).verdict == "fail"

    def test_equality_expected_accepts_tight(self):
        rep = _report("x", "s", 1.0, 1.0 + 5e-9, equality_expected=True)
        assert rep.verdict == "pass" and abs(rep.slack) <= 1e-8

    @pytest.mark.parametrize("lhs,rhs", [(math.nan, 1.0), (1.0, math.nan), (-math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_fails(self, lhs, rhs):
        # nan < -PASS_TOL is false, and inf - 1 passes every comparison
        assert _report("x", "s", lhs, rhs).verdict == "fail"
        assert _report("x", "s", lhs, rhs, equality_expected=True).verdict == "fail"

    def test_non_finite_fails_in_columns(self):
        nan, inf = math.nan, math.inf
        col = _Column(
            "x",
            lhs=np.array([nan, 1.0, -inf, inf, 1.0, nan]),
            rhs=np.array([1.0, nan, 1.0, inf, 2.0, nan]),
            equality=np.zeros(6, bool),
            reason=np.array(["", "", "", "", "", "x=0"]),
        )
        with np.errstate(invalid="ignore"):  # inf - inf
            assert col.failing().tolist() == [True, True, True, True, False, False]


# every alpha of the grid {0, .1, .25, .3, .45, .5, .55, .6, .7, .9} with
# every r in {2, 3, None} that admits it; all but five run under -m slow
FAST_GRID = [(0.0, 2), (0.25, 2), (0.5, 3), (0.6, 3), (0.7, None)]
ORACLE_GRID = FAST_GRID + [
    pytest.param(a, r, marks=pytest.mark.slow)
    for a in (0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.55, 0.6, 0.7, 0.9)
    for r in (2, 3, None)
    if (r is None or a <= 1 - 1 / r) and (a, r) not in FAST_GRID
]


def check(G, alpha, check_id, r=2):
    """The one report of check_graph(G, alpha, r) with this check id."""
    (rep,) = [rep for rep in check_graph(G, alpha, r) if rep.check_id == check_id]
    return rep


class TestCheckGraph:
    ALWAYS = [
        "sandwich-lower",
        "sandwich-upper",
        "degree-square-lower",
        "mean-degree-lower",
        "regularity-equality",
    ]

    def test_report_order(self):
        ids = [rep.check_id for rep in check_graph(path(4), 0.1)]
        assert ids == self.ALWAYS + ["deletion-bound", "min-entry-upper", "entry-bound"]

    def test_r_none_leaves_out_r_dependent_checks(self):
        assert [rep.check_id for rep in check_graph(path(4), 0.7, None)] == self.ALWAYS

    def test_single_vertex_has_no_deletion_bound(self):
        ids = [rep.check_id for rep in check_graph(complete(1), 0.2)]
        assert ids == self.ALWAYS + ["min-entry-upper", "entry-bound"]

    def test_deletion_subject_names_deleted_vertex(self):
        w = spectral_radius(path(4), 0.0).min_index
        rep = check(path(4), 0.0, "deletion-bound")
        assert rep.subject == check(path(4), 0.0, "sandwich-lower").subject + f" w={w}"

    @pytest.mark.parametrize("alpha,r", ORACLE_GRID)
    def test_stacked_reports_equal_single_solves(self, alpha, r):
        # the battery's columns over a whole order, and check_graph, give the
        # reports of the one-report-at-a-time oracle, bit for bit
        for n in range(1, 8):
            classes, _ = _class_list(n, EnumFilter(), False)
            rows = classes.rows
            lam0 = _top_eigenvalues(_alpha_matrices(rows, 0.0))
            columns = verifier._columns(rows, classes.degrees, lam0, [alpha], r)
            failing = [col.failing() for col in columns]
            for i, G in enumerate(enumerate_graphs(n)):
                expected = [_bits(rep) for rep in reference_check_graph(G, alpha, r)]
                subject = f"{classes.codes[i].decode()} alpha={alpha:.12g}"
                assert [_bits(col.report(i, subject)) for col in columns] == expected, (n, i)
                assert [bool(fail[i]) for fail in failing] == [rep[-1] == "fail" for rep in expected]
                assert [bool(col.reason[i]) for col in columns] == [rep[-1].startswith("skipped") for rep in expected]
                assert [_bits(rep) for rep in check_graph(G, alpha, r)] == expected, (n, i)

    # relabelled graphs, the tied disconnected 2K1, 2K2 and K3 + K3, tied
    # components that interleave, and n = 1
    ODD_GRAPHS = [
        empty_graph(1),
        empty_graph(2),
        disjoint_union(complete(2), complete(2)),
        make_graph(4, [(0, 2), (1, 3)]),
        disjoint_union(complete(3), complete(3)),
        make_graph(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]),
        disjoint_union(path(3), empty_graph(3)),
        relabel(path(5), [3, 0, 4, 1, 2]),
        relabel(disjoint_union(star(3), complete(2)), [5, 2, 0, 4, 1, 3]),
        relabel(disjoint_union(cycle(4), complete(3)), [6, 3, 1, 5, 0, 2, 4]),
    ]

    @pytest.mark.parametrize("alpha,r", [(0.0, 2), (0.3, 2), (0.5, 2), (0.55, 3), (0.6, 3), (0.7, None), (0.9, None)])
    def test_odd_graphs_equal_oracle(self, alpha, r):
        for G in self.ODD_GRAPHS:
            expected = [_bits(rep) for rep in reference_check_graph(G, alpha, r)]
            assert [_bits(rep) for rep in check_graph(G, alpha, r)] == expected, G


def _bits(rep: CheckReport) -> tuple:
    """A report's fields in a form that compares bit for bit."""
    return (
        rep.check_id,
        rep.subject,
        rep.lhs.hex(),
        rep.rhs.hex(),
        rep.slack.hex(),
        repr(rep.equality_expected),
        rep.verdict,
    )


class TestSandwich:
    def test_complete_graph_tight_upper(self):
        lower = check(complete(4), 0.5, "sandwich-lower")
        upper = check(complete(4), 0.5, "sandwich-upper")
        assert lower.passed and lower.slack == pytest.approx(1.5, abs=1e-9)
        assert upper.passed and upper.slack == pytest.approx(0.0, abs=1e-9)

    def test_star(self):
        lower = check(star(3), 0.5, "sandwich-lower")
        upper = check(star(3), 0.5, "sandwich-upper")
        assert lower.passed and lower.rhs == pytest.approx(2.0, abs=1e-9)
        assert upper.rhs == pytest.approx(1.5 + 0.5 * math.sqrt(3), abs=1e-9)
        assert upper.passed

    def test_edgeless(self):
        lower = check(empty_graph(5), 0.7, "sandwich-lower", r=None)
        upper = check(empty_graph(5), 0.7, "sandwich-upper", r=None)
        assert lower.passed and upper.passed
        assert lower.slack == pytest.approx(0.0, abs=1e-12)
        assert upper.slack == pytest.approx(0.0, abs=1e-12)


class TestLowerBounds:
    def test_regular_graph_equalities(self):
        sq = check(cycle(5), 0.3, "degree-square-lower")
        mean = check(cycle(5), 0.3, "mean-degree-lower")
        assert sq.equality_expected and sq.passed and abs(sq.slack) <= 1e-8
        assert mean.equality_expected and mean.passed and abs(mean.slack) <= 1e-8
        assert mean.lhs == pytest.approx(2.0, abs=1e-12)

    def test_path_strict(self):
        mean = check(path(3), 0.0, "mean-degree-lower")
        assert mean.rhs == pytest.approx(math.sqrt(2), abs=1e-9)
        assert mean.lhs == pytest.approx(4 / 3, abs=1e-12)
        assert mean.passed and mean.slack > 1e-3

    def test_star_alpha_zero_proviso(self):
        # sqrt of mean squared degree equals the radius here despite
        # irregularity; at alpha=0 that is allowed and not declared
        sq = check(star(3), 0.0, "degree-square-lower")
        assert not sq.equality_expected
        assert sq.passed and abs(sq.slack) <= 1e-8
        assert sq.lhs == pytest.approx(math.sqrt(3), abs=1e-12)


class TestDeletion:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5])
    def test_complete_graph_tight(self, n, alpha):
        rep = check(complete(n), alpha, "deletion-bound")
        assert rep.passed
        # uniform eigenvector makes the bound collapse to n-2 exactly
        assert rep.lhs == pytest.approx(n - 2, abs=1e-8)
        assert rep.rhs == pytest.approx(n - 2, abs=1e-8)

    def test_isolated_vertex_case(self):
        G = disjoint_union(complete(3), empty_graph(1))
        rep = check(G, 0.2, "deletion-bound")
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0 - 0.2, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)

    def test_path(self):
        assert check(path(4), 0.0, "deletion-bound").passed

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            check_graph(complete(3), 0.6, 2)


class TestMinEntryUpper:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complete_graph_tight(self, n):
        rep = check(complete(n), 0.4, "min-entry-upper")
        assert rep.passed
        assert rep.rhs == pytest.approx(n - 1, abs=1e-8)

    def test_regular_cycle_tight(self):
        rep = check(cycle(5), 0.3, "min-entry-upper")
        assert rep.passed
        assert rep.rhs == pytest.approx(2.0, abs=1e-8)

    def test_path_strict(self):
        rep = check(path(4), 0.1, "min-entry-upper")
        assert rep.passed and rep.slack > 1e-6

    def test_zero_entry_skipped(self):
        G = disjoint_union(complete(3), empty_graph(1))
        rep = check(G, 0.2, "min-entry-upper")
        assert rep.skipped and "x=0" in rep.verdict


class TestEntryBound:
    def test_complete_graph_is_tight(self):
        rep = check(complete(4), 0.25, "entry-bound")
        assert rep.passed
        assert rep.lhs == pytest.approx(0.25, abs=1e-9)
        assert rep.rhs == pytest.approx(0.25, abs=1e-9)

    def test_even_cycle_tight(self):
        rep = check(cycle(6), 0.0, "entry-bound")
        assert rep.passed
        assert rep.lhs == pytest.approx(1 / 6, abs=1e-9)
        assert rep.rhs == pytest.approx(1 / 6, abs=1e-9)

    def test_star_is_tight_at_leaves(self):
        # leaf neighborhoods make both estimates in the derivation exact:
        # x^2 = 1/20 equals the bound 0.25/(4 + 1)
        rep = check(star(4), 0.5, "entry-bound")
        assert rep.passed
        assert rep.lhs == pytest.approx(0.05, abs=1e-9)
        assert rep.rhs == pytest.approx(0.05, abs=1e-9)

    def test_path_strict(self):
        rep = check(path(4), 0.1, "entry-bound")
        assert rep.passed and rep.slack > 1e-6

    def test_isolated_vertex_skipped(self):
        rep = check(empty_graph(3), 0.1, "entry-bound")
        assert rep.skipped and "delta=0" in rep.verdict


class TestTuranBound:
    def test_divisible_equality(self):
        for a in (0.0, 0.3, 0.6):
            rep = check_turan_bound(6, 3, a)
            assert rep.passed and rep.equality_expected and abs(rep.slack) <= 1e-8

    def test_non_divisible_strict(self):
        rep = check_turan_bound(7, 3, 0.0)
        assert rep.passed and not rep.equality_expected and rep.slack > 1e-3

    def test_even_bipartite_equality(self):
        rep = check_turan_bound(8, 2, 0.4)
        assert rep.passed and rep.equality_expected and abs(rep.slack) <= 1e-8

    def test_boundary_alpha_non_divisible_still_passes(self):
        # at alpha = 1 - 1/r the bound is attained by every complete
        # multipartite graph, divisibility or not; equality is simply not
        # declared in that case
        rep = check_turan_bound(5, 2, 0.5)
        assert rep.passed and not rep.equality_expected
        assert abs(rep.slack) <= 1e-8

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_turan_bound(3, 5, 0.1)
        with pytest.raises(ValueError):
            check_turan_bound(6, 2, 0.7)


class TestEdgeCountTuran:
    def test_7_3(self):
        edge_rep, lam_rep = check_edge_count_turan(7, 3)
        assert edge_rep.rhs == 16.0
        assert edge_rep.lhs == pytest.approx(49 / 3 - 3 / 8, abs=1e-12)
        assert edge_rep.passed and lam_rep.passed

    def test_5_2_tight_edge_bound(self):
        edge_rep, _ = check_edge_count_turan(5, 2)
        assert edge_rep.passed
        assert edge_rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_6_3(self):
        edge_rep, lam_rep = check_edge_count_turan(6, 3, alpha=0.5)
        assert edge_rep.rhs == 12.0 and edge_rep.passed
        assert lam_rep.rhs == pytest.approx(4.0, abs=1e-9)


class TestDegreeStability:
    def test_triangle_free_n7(self):
        reports = check_degree_stability(7, 2, [complete(3)])
        assert reports, "min degree 3 triangle-free classes exist at n=7"
        assert all(rep.passed for rep in reports)

    def test_c4_case(self):
        reports = check_degree_stability(4, 2, [complete(3)])
        subjects = [rep.subject for rep in reports]
        from alphaspectral import canonical_form

        assert any(canonical_form(cycle(4)) in s for s in subjects)
        assert all(rep.passed for rep in reports)

    def test_empty_candidate_set(self):
        assert check_degree_stability(5, 2, [complete(3)]) == []
        # min degree must exceed (3r-4)n/(3r-1) = 1.25, and no order-2 graph has 2
        assert check_degree_stability(2, 3, [complete(4)]) == []

    def test_family_validation(self):
        with pytest.raises(ValueError):
            check_degree_stability(5, 2, [complete(3), complete(4)])
        with pytest.raises(ValueError):
            check_degree_stability(5, 3, [complete(3)])
        with pytest.raises(ValueError):
            check_degree_stability(5, 2, [cycle(4)])  # not color-critical


class TestLogInequalities:
    def test_default_samples_pass(self):
        assert all(rep.passed for rep in check_log_inequalities())

    def test_known_value(self):
        rep = check_log_inequalities(pairs=[(0.25, 0.5)], points=[])[0]
        assert rep.rhs == pytest.approx(math.log(0.875) + 0.125 + 0.0625, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0539682, abs=1e-6)

    def test_point_two(self):
        reps = check_log_inequalities(pairs=[], points=[2.0])
        assert reps[0].lhs == pytest.approx(0.5) and reps[0].rhs == pytest.approx(math.log(2))
        assert reps[1].lhs == pytest.approx(0.25) and reps[1].rhs == pytest.approx(0.5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            check_log_inequalities(pairs=[(0.6, 0.5)], points=[])
        with pytest.raises(ValueError):
            check_log_inequalities(pairs=[], points=[1.0])


class TestBattery:
    def test_small_battery_passes(self):
        report = run_battery(5, [0.0, 0.25, 0.5], [2, 3])
        assert report.passed
        assert not report.failures
        assert report.total > 1000
        for cid in (
            "sandwich-lower",
            "sandwich-upper",
            "degree-square-lower",
            "mean-degree-lower",
            "regularity-equality",
            "deletion-bound",
            "min-entry-upper",
            "entry-bound",
            "blowup-scaling",
            "turan-edge-lower",
            "turan-lambda-bound",
        ):
            assert report.counts[cid]["fail"] == 0
            assert report.counts[cid]["pass"] > 0

    def test_vacuous_battery(self):
        report = run_battery(1, [0.0], [2])
        assert report.passed

    def test_alpha_grid_validated(self):
        with pytest.raises(ValueError):
            run_battery(3, [1.0], [2])

    def test_json_and_table_render(self):
        report = run_battery(3, [0.0, 0.5], [2])
        text = report.to_json()
        assert '"passed":true' in text
        assert "verdict: PASS" in report.to_table()

    def test_json_failure_and_finding_rows(self):
        bad = CheckReport("sandwich-lower", "Bw alpha=0", 2.0, 1.0, -1.0, False, "fail")
        odd = CheckReport("degree-stability", "Bw r=2", 3.0, 2.0, -1.0, False, "fail")
        report = BatteryReport(
            n_max=1,
            alphas=(0.0,),
            r_set=(2,),
            counts={"sandwich-lower": {"pass": 0, "fail": 1, "skipped": 0}},
            failures=[bad],
            findings=[odd],
            total=2,
            passed=False,
        )
        assert report.to_json() == (
            '{"alphas":[0.0],"counts":{"sandwich-lower":{"fail":1,"pass":0,"skipped":0}},'
            '"failures":[{"check_id":"sandwich-lower","lhs":2.0,"rhs":1.0,"slack":-1.0,'
            '"subject":"Bw alpha=0"}],"findings":[{"check_id":"degree-stability",'
            '"slack":-1.0,"subject":"Bw r=2"}],"n_max":1,"passed":false,"r_set":[2],"total":2}'
        )
        assert report.to_table() == (
            "battery n_max=1 alphas=['0'] r_set=[2]\n"
            "check                         pass    fail  skipped\n"
            "sandwich-lower                   0       1        0\n"
            "total checks: 2\n"
            "FAIL sandwich-lower Bw alpha=0 slack=-1.000e+00\n"
            "finding degree-stability Bw r=2\n"
            "verdict: FAIL\n"
        )

    # parent counts on this grid, before the per-pair checks shared one solve
    PINNED_GRID = (5, [0.0, 0.25, 0.5, 0.6], [2, 3])
    PINNED_COUNTS = {
        "blowup-scaling": {"fail": 0, "pass": 416, "skipped": 0},
        "degree-square-lower": {"fail": 0, "pass": 208, "skipped": 0},
        "degree-stability": {"fail": 0, "pass": 2, "skipped": 0},
        "deletion-bound": {"fail": 0, "pass": 204, "skipped": 0},
        "entry-bound": {"fail": 0, "pass": 132, "skipped": 76},
        "log-expansion-positive": {"fail": 0, "pass": 4, "skipped": 0},
        "log-gap-lower": {"fail": 0, "pass": 4, "skipped": 0},
        "mean-degree-lower": {"fail": 0, "pass": 208, "skipped": 0},
        "min-entry-upper": {"fail": 0, "pass": 124, "skipped": 84},
        "reciprocal-gap-lower": {"fail": 0, "pass": 4, "skipped": 0},
        "regularity-equality": {"fail": 0, "pass": 208, "skipped": 0},
        "sandwich-lower": {"fail": 0, "pass": 208, "skipped": 0},
        "sandwich-upper": {"fail": 0, "pass": 208, "skipped": 0},
        "turan-edge-lower": {"fail": 0, "pass": 7, "skipped": 0},
        "turan-lambda-bound": {"fail": 0, "pass": 24, "skipped": 0},
        "turan-lambda-lower": {"fail": 0, "pass": 7, "skipped": 0},
    }

    def test_pinned_counts(self):
        report = run_battery(*self.PINNED_GRID)
        assert report.counts == self.PINNED_COUNTS
        assert report.total == 2128

    def test_one_certified_solve_per_pair(self, monkeypatch):
        calls = []
        solve = verifier._perron_stack

        def counting(rows, alphas):
            calls.extend((row, a) for row in map(tuple, rows.tolist()) for a in np.asarray(alphas).tolist())
            return solve(rows, alphas)

        monkeypatch.setattr(verifier, "_perron_stack", counting)
        run_battery(*self.PINNED_GRID)
        # 52 classes with n <= 5, times 4 alphas, each solved exactly once
        assert len(calls) == len(set(calls)) == 208

    def test_solver_matrix_counts(self, monkeypatch):
        # each pair's component blocks are solved once, in stacks; lam0 once per class
        seen = {"eigh": [0, 0], "eigvalsh": [0, 0]}
        for name, tally in seen.items():

            def counting(M, *args, _solve=getattr(np.linalg, name), _tally=tally, **kwargs):
                M = np.asarray(M)
                _tally[0] += 1
                _tally[1] += 1 if M.ndim == 2 else M.shape[0]
                return _solve(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        run_battery(*self.PINNED_GRID)
        eigh_calls, eigh_matrices = seen["eigh"]
        # one stack per order over the whole grid: at order n one call for the
        # connected graphs and one per component size 1 to n - 1, 1 + 2 + ... + 5
        assert eigh_matrices == 340 and eigh_calls == 15
        # the parent solved 1,275: lam0 for each of 208 pairs, now for each of
        # 52 classes; the blow-up section solves the 52 classes (n <= 5) once
        # per alpha instead of once per (p, alpha), 52 x 4 alphas fewer
        assert seen["eigvalsh"][1] == 1275 - 208 + 52 - 52 * 4 == 911

    # sha256 of run_battery(6, grid, [2, 3]).to_json() before the pairs were batched
    PINNED_SHA = {
        (0.0, 0.25, 0.5, 0.6): "7ff661b7ed0b7cbc92ff66d430f481ccc5aa93eb1ae1a875a0dc297dca55c369",
        (0.7, 0.9): "a19b2eaa25a6b3c890204ed59c1ebc771bcfe8bd74a2a19dc5bea5efb34049a7",
    }

    @pytest.mark.parametrize("grid", sorted(PINNED_SHA))
    def test_json_independent_of_chunk_size(self, monkeypatch, grid):
        # one class per stack, 7 or 14 classes per stack at n = 6, and the default
        for cells in (1, 1 << 10, verifier._STACK_CELLS):
            monkeypatch.setattr(verifier, "_STACK_CELLS", cells)
            text = run_battery(6, grid, [2, 3]).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_SHA[grid], cells

    def test_repeated_alpha_counts_each_pair_twice(self):
        # 0.7 admits no r here, so both stacks see a repeated alpha
        once, twice = run_battery(5, [0.25, 0.7], [2]), run_battery(5, [0.25, 0.7, 0.7, 0.25], [2])
        once_per_run = {"turan-edge-lower", "turan-lambda-lower", "log-expansion-positive", "log-gap-lower",
                        "reciprocal-gap-lower", "degree-stability"}
        assert twice.counts.keys() == once.counts.keys() and "deletion-bound" in once.counts
        for cid, c in once.counts.items():
            factor = 1 if cid in once_per_run else 2
            assert twice.counts[cid] == {verdict: factor * c[verdict] for verdict in c}, cid
        assert twice.passed and not twice.failures

    def test_empty_alpha_grid_raises(self):
        with pytest.raises(ValueError, match="alpha list is empty"):
            run_battery(3, [], [2])

    def test_failure_order_matches_pair_loop(self, monkeypatch):
        # a negative tolerance fails every check with slack under 0.5
        monkeypatch.setattr(verifier, "PASS_TOL", -0.5)
        monkeypatch.setattr(verifier, "_STACK_CELLS", 7 * 25 * 4)  # 7 classes per stack at n = 5
        alphas, rs = (0.0, 0.3, 0.55, 0.7), (2, 3)
        smallest_r = [next((r for r in rs if a <= 1 - 1 / r + 1e-12), None) for a in alphas]
        expected = [
            rep
            for n in range(1, 6)
            for G in enumerate_graphs(n)
            for a, r in zip(alphas, smallest_r)
            for rep in check_graph(G, a, r)
            if rep.verdict == "fail"
        ]
        oracle = [
            rep
            for n in range(1, 6)
            for G in enumerate_graphs(n)
            for a, r in zip(alphas, smallest_r)
            for rep in reference_check_graph(G, a, r)
            if rep.verdict == "fail"
        ]
        failures = run_battery(5, alphas, rs).failures
        assert len(expected) > 100
        assert failures[: len(expected)] == expected
        assert repr(failures[: len(expected)]) == repr(oracle)
        pair_ids = {rep.check_id for rep in expected}
        assert not any(rep.check_id in pair_ids for rep in failures[len(expected) :])
        # every blow-up check fails too (its slack is about 0), by graph, then p, then alpha
        blowup = [f"{encode_graph6(G)} alpha={a:.12g} p={p}"
                  for n in range(1, 6) for G in enumerate_graphs(n) for p in (2, 3) for a in alphas]
        assert [rep.subject for rep in failures if rep.check_id == "blowup-scaling"] == blowup


class TestIntegerArguments:
    """Orders, r values and minimum degrees are validated before any
    comparison or use."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: run_battery(3, [0.0], [2.5]), id="battery-r-float"),
            pytest.param(lambda: run_battery(3, [0.0], ["2"]), id="battery-r-str"),
            pytest.param(lambda: run_battery(3, [0.0], [True]), id="battery-r-bool"),
            pytest.param(lambda: run_battery(3, [0.0], [1]), id="battery-r-one"),
            pytest.param(lambda: run_battery(True, [0.0], [2]), id="battery-n-bool"),
            pytest.param(lambda: run_battery(3.0, [0.0], [2]), id="battery-n-float"),
            pytest.param(lambda: run_battery(0, [0.0], [2]), id="battery-n-zero"),
            pytest.param(lambda: check_turan_bound("7", 3, 0.1), id="turan-n-str"),
            pytest.param(lambda: check_turan_bound(7, 3.0, 0.1), id="turan-r-float"),
            pytest.param(lambda: check_edge_count_turan(7.0, 3), id="edge-turan-n-float"),
            pytest.param(lambda: check_edge_count_turan(7, True), id="edge-turan-r-bool"),
            pytest.param(lambda: check_graph(path(3), 0.1, 2.5), id="check-graph-r-float"),
            pytest.param(lambda: check_degree_stability(5, 2.0, [complete(3)]), id="stability-r-float"),
            pytest.param(lambda: check_degree_stability(4, True, [complete(2)]), id="stability-r-bool"),
            pytest.param(lambda: check_degree_stability(4, 1, [complete(2)]), id="stability-r-one"),
            pytest.param(lambda: pi_sequence([complete(3)], 0.25, 4.0, 6), id="pi-n-lo-float"),
            pytest.param(lambda: pi_sequence([complete(3)], 0.25, 4, 6.0), id="pi-n-hi-float"),
            pytest.param(
                lambda: stability_condition_check([complete(3)], 0.5, 5.0, 6, alpha=0.2, epsilon=0.1),
                id="condition-n-lo-float",
            ),
            pytest.param(lambda: list(enumerate_graphs(4, EnumFilter(min_degree=1.5))), id="min-degree-float"),
            pytest.param(lambda: list(enumerate_graphs(4, EnumFilter(min_degree=True))), id="min-degree-bool"),
            pytest.param(lambda: list(enumerate_graphs(4, EnumFilter(min_degree="1"))), id="min-degree-str"),
            pytest.param(lambda: spectral_extremal(4, 0.1, [complete(3)], min_degree=1.5), id="extremal-min-degree"),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_numpy_integers_accepted(self):
        report = run_battery(np.int64(3), [0.0], [np.int64(2)])
        assert report.passed and report.n_max == 3 and report.r_set == (2,)
        assert type(report.n_max) is int and type(report.r_set[0]) is int
        assert check_turan_bound(np.int64(6), np.int64(3), 0.1).passed
