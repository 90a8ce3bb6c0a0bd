"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with -s (or read the captured output) to see the per-criterion lines.
Expected full runtime is a few minutes, dominated by the order-8 searches.
"""

import math
import time

from alphaspectral import (
    blow_up,
    canonical_form,
    check_degree_stability,
    complete,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    enumerate_graphs,
    forbidden_family,
    lambda_alpha,
    matching,
    pi_sequence,
    run_battery,
    spectral_extremal,
    star,
    stability_condition_check,
    turan,
    turan_number,
)
from alphaspectral.cli import main as cli_main

K3 = forbidden_family([complete(3)])
K4 = forbidden_family([complete(4)])


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _alpha_grid_to(endpoint: float, step: float = 0.05) -> list[float]:
    grid = [i * step for i in range(int(math.floor(endpoint / step + 1e-9)) + 1)]
    if abs(grid[-1] - endpoint) > 1e-9:
        grid.append(endpoint)
    return grid


def test_criterion_1_turan_lambda_bound():
    t0 = time.perf_counter()
    checked = 0
    for r in (2, 3, 4, 5):
        endpoint = 1 - 1 / r
        for n in range(2, 31):
            if r > n:
                continue
            T = turan(n, r)
            bound = (1 - 1 / r) * n
            for a in _alpha_grid_to(endpoint):
                lam = lambda_alpha(T, min(a, endpoint))
                checked += 1
                assert lam <= bound + 1e-9, (n, r, a)
                tight = abs(lam - bound) <= 1e-8
                if a < endpoint - 1e-9:
                    # below the boundary, tightness characterizes divisibility
                    assert tight == (n % r == 0), (n, r, a, lam)
                else:
                    # at alpha = 1 - 1/r every complete multipartite graph,
                    # the Turan graph included, attains the bound
                    assert tight, (n, r, a, lam)
    elapsed = time.perf_counter() - t0
    _verdict(1, elapsed < 10, f"{checked} (n,r,alpha) triples in {elapsed:.1f}s")


def test_criterion_2_spectral_extremal_is_turan_graph():
    t0 = time.perf_counter()
    cases = 0
    for r, family, alphas in (
        (2, K3, [0.0, 0.1, 0.2, 0.3, 0.4]),
        (3, K4, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
    ):
        for n in range(3, 9):
            expected = (canonical_form(turan(n, r)),)
            for a in alphas:
                rec = spectral_extremal(n, a, family)
                cases += 1
                assert rec.argmax == expected, (n, r, a, rec.argmax)
    elapsed = time.perf_counter() - t0
    _verdict(2, elapsed < 300, f"{cases} exhaustive searches in {elapsed:.1f}s")


def test_criterion_3_edge_turan_numbers():
    t0 = time.perf_counter()
    for n in range(3, 10):
        rec = turan_number(n, K3)
        assert rec.optimum == n * n // 4, (n, rec.optimum)
        assert rec.argmax == (canonical_form(turan(n, 2)),), (n, rec.argmax)
    elapsed = time.perf_counter() - t0
    _verdict(3, elapsed < 900, f"floor(n^2/4) with unique argmax for n in [3,9] in {elapsed:.1f}s")


def test_criterion_4_star_family():
    fam = forbidden_family([star(3)])
    for n in range(4, 9):
        witness = canonical_form(disjoint_union(complete(3), empty_graph(n - 3)))
        for a in (0.0, 0.25, 0.5, 0.75):
            rec = spectral_extremal(n, a, fam)
            assert abs(rec.optimum - 2.0) <= 1e-9, (n, a, rec.optimum)
            assert witness in rec.argmax, (n, a)
    _verdict(4, True, "optimum 2 with triangle-plus-isolates witness, n in [4,8]")


def test_criterion_5_matching_family():
    fam = forbidden_family([matching(2)])
    for n in range(5, 9):
        rec = spectral_extremal(n, 0.5, fam)
        assert rec.argmax == (canonical_form(star(n - 1)),), (n, rec.argmax)
        # closed form from the 2x2 quotient of the star at alpha = 1/2
        a = 0.5
        quad = a * n
        disc = quad * quad - 4 * (n - 1) * (2 * a - 1)
        expected = (quad + math.sqrt(disc)) / 2
        assert abs(rec.optimum - expected) <= 1e-9, (n, rec.optimum, expected)
        assert abs(rec.optimum - n / 2) <= 1e-9
    _verdict(5, True, "unique star argmax with quotient value n/2, n in [5,8]")


def test_criterion_6_battery():
    t0 = time.perf_counter()
    report = run_battery(7, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [2, 3])
    elapsed = time.perf_counter() - t0
    assert report.passed, [f.subject for f in report.failures[:5]]
    assert not report.failures
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
        "turan-lambda-lower",
    ):
        assert report.counts[cid]["fail"] == 0 and report.counts[cid]["pass"] > 0, cid
    _verdict(6, elapsed < 600, f"{report.total} checks, 0 hard failures, in {elapsed:.1f}s")


def test_criterion_7_blowup_multiplicativity():
    worst = 0.0
    for n in range(1, 6):
        for G in enumerate_graphs(n):
            for p in (2, 3):
                for a in (0.0, 0.3, 0.5):
                    diff = abs(lambda_alpha(blow_up(G, p), a) - p * lambda_alpha(G, a))
                    worst = max(worst, diff)
    _verdict(7, worst <= 1e-8, f"max |lambda(G^p) - p*lambda(G)| = {worst:.2e}")


def test_criterion_8_ratio_monotonicity():
    for a in (0.0, 0.25):
        diag = pi_sequence(K3, a, 4, 8)
        assert all(r.hypothesis_ok for r in diag.rows), a
        assert diag.ratio_nonincreasing, a
    _verdict(8, True, "optimum/(n-1) non-increasing and hypothesis holds, n in [4,8]")


def test_criterion_9_graph6_bit_exactness():
    assert encode_graph6(complete(3)) == "Bw"
    count = 0
    for n in range(1, 7):
        for G in enumerate_graphs(n):
            assert decode_graph6(encode_graph6(G)) == G
            count += 1
    _verdict(9, count == 208, f"encode(K_3) = 'Bw'; round trip over {count} classes")


def test_criterion_10_observational_reports(capsys):
    rows = stability_condition_check(K3, 0.5, 5, 8, alpha=0.2, epsilon=0.1)
    assert len(rows) == 4
    assert all(r.cond_growth_ok is not None for r in rows)
    stability_reports = 0
    for n in range(3, 9):
        stability_reports += len(check_degree_stability(n, 2, K3))
    assert stability_reports > 0
    code = cli_main(["sequence", "-F", "complete:3", "-a", "0.25", "--n", "4..8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("n,optimum")
    with capsys.disabled():
        _verdict(10, True, f"condition rows, {stability_reports} stability findings, sequence CSV")
