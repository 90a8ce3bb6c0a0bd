"""Machine checks for the quantitative spectral inequalities.

Every check is reported with signed slack, oriented so that slack >= -1e-9
means pass; declared equalities must additionally land within 1e-8. Checks
that only hold for sufficiently large order (degree stability) are
observational: they are reported as findings and never fail the battery.

The per-graph inequalities share one certified solve per (graph, alpha)
pair in `check_graph`. The battery solves its pairs in stacks: per order
and alpha, chunks of classes share one stacked Perron solve and one
stacked solve of their deletion subgraphs, and the alpha = 0 radius of
the sandwich bound is solved once per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .enumeration import (
    _ALL_CLASSES, ENUM_DEFAULT_CAP, EnumerationCapError, EnumFilter, _check_cap, enumerate_graphs
)
from .graph6 import compact_json, encode_graph6
from .graphs import Graph, blow_up, complete, delete_vertex, positive_int, turan
from .spectral import _perron_stack, check_alpha, lambda_alpha, lambda_alpha_many
from .structure import as_family, chromatic_number, is_color_critical, is_free

PASS_TOL = 1e-9
EQUALITY_TOL = 1e-8
_CHUNK = 256  # classes per stacked solve in the battery; bounds what one order holds

_NAN = float("nan")


@dataclass(slots=True)
class CheckReport:
    """One inequality evaluation: lhs <= rhs with slack = rhs - lhs."""

    check_id: str
    subject: str
    lhs: float
    rhs: float
    slack: float
    equality_expected: bool
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def skipped(self) -> bool:
        return self.verdict.startswith("skipped")


def _report(check_id: str, subject: str, lhs: float, rhs: float, equality_expected: bool = False) -> CheckReport:
    slack = rhs - lhs
    if slack < -PASS_TOL:
        verdict = "fail"
    elif equality_expected and abs(slack) > EQUALITY_TOL:
        verdict = "fail"
    else:
        verdict = "pass"
    return CheckReport(check_id, subject, lhs, rhs, slack, equality_expected, verdict)


def _skipped(check_id: str, subject: str, reason: str) -> CheckReport:
    return CheckReport(check_id, subject, _NAN, _NAN, _NAN, False, f"skipped({reason})")


def _subject(code: str, alpha: float, **extra) -> str:
    parts = [code, f"alpha={alpha:.12g}"]
    parts += [f"{k}={v}" for k, v in extra.items()]
    return " ".join(parts)


def _check_r(r) -> int:
    r = positive_int(r, "r")
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    return r


def _admits(alpha: float, r: int) -> bool:
    """True iff alpha <= 1 - 1/r, up to float error."""
    return alpha <= 1 - 1 / r + 1e-12


def _alpha_in_range(alpha: float, r) -> None:
    r = _check_r(r)
    if not _admits(alpha, r):
        raise ValueError(f"alpha={alpha!r} exceeds 1 - 1/r = {1 - 1 / r:.12g}")


def check_graph(G: Graph, alpha: float, r: Optional[int] = 2) -> list[CheckReport]:
    """Every per-graph inequality for (G, alpha), from one certified solve.

    With lam the radius, x the smallest eigenvector entry, at vertex w, and
    delta / Delta the min / max degree, the reports are, in order:

    - sandwich-lower/-upper: alpha*Delta <= lam <= alpha*Delta + (1-alpha)*lam0,
      with lam0 the radius at alpha = 0.
    - degree-square-lower: lam >= sqrt(mean squared degree); an equality
      for regular G, declared only when alpha > 0.
    - mean-degree-lower: lam >= mean degree; an equality for regular G.
    - regularity-equality: lam exceeds the mean degree unless G is regular.

    The rest need alpha <= 1 - 1/r and are left out when r is None:

    - deletion-bound (n >= 2 only): lam(G - w) >= (lam*(1-2x^2) - alpha*(1-n x^2)) / (1-x^2).
    - min-entry-upper: lam <= alpha*delta + (1-alpha)*sqrt(delta^2 + (1/(n x^2) - 1)*n*delta);
      skipped when x = 0.
    - entry-bound: x^2 <= delta*(1-alpha)^2 / ((lam - alpha*delta)^2 + delta*(n-delta)*(1-alpha)^2);
      skipped when delta = 0 or lam <= alpha*delta.
    """
    a = check_alpha(alpha)
    if r is not None:
        _alpha_in_range(a, r)
    (reports,) = _stack_reports([G], a, r, lambda_alpha_many([G], 0.0).tolist(), [encode_graph6(G)])
    return reports


def _stack_reports(graphs: list[Graph], a: float, r: Optional[int], lam0: list[float], codes: list[str]):
    """check_graph's reports for same-order graphs at one checked alpha,
    yielded graph by graph; lam0 and codes are each graph's radius at
    alpha = 0 and graph6 code.

    The Perron pairs come from one stacked solve, and so do the radii of
    the deletion subgraphs G - w; only these arrays are held until the
    reports are asked for.
    """
    lam, X, _, _ = _perron_stack(graphs, a)
    w = X.argmin(axis=1)
    x_min = X[np.arange(len(graphs)), w].tolist()
    w = w.tolist()
    lam_sub = [_NAN] * len(graphs)
    if r is not None and graphs[0].n >= 2:
        lam_sub = lambda_alpha_many([delete_vertex(G, v) for G, v in zip(graphs, w)], a).tolist()
    return (
        _pair_reports(*args, a, r)
        for args in zip(graphs, lam.tolist(), lam0, codes, w, x_min, lam_sub)
    )


def _pair_reports(
    G: Graph, lam: float, lam0: float, code: str, w: int, x_min: float, lam_sub: float, a: float, r: Optional[int]
) -> list[CheckReport]:
    subject = _subject(code, a)
    n = G.n
    degs = G.degrees()
    delta, delta_max = min(degs), max(degs)
    regular = delta == delta_max
    adelta = a * delta_max
    sq = math.sqrt(sum(d * d for d in degs) / n)
    mean = 2 * G.edge_count / n
    if regular:
        regularity = _report("regularity-equality", subject, mean, lam, equality_expected=True)
    else:
        # irregular graphs must sit strictly above the mean-degree bound
        regularity = _report("regularity-equality", subject, EQUALITY_TOL, lam - mean)
    reports = [
        _report("sandwich-lower", subject, adelta, lam),
        _report("sandwich-upper", subject, lam, adelta + (1 - a) * lam0),
        _report("degree-square-lower", subject, sq, lam, equality_expected=regular and a > 0),
        _report("mean-degree-lower", subject, mean, lam, equality_expected=regular),
        regularity,
    ]
    if r is None:
        return reports

    x2 = x_min**2
    if n >= 2:
        bound = (lam * (1 - 2 * x2) - a * (1 - n * x2)) / (1 - x2)
        reports.append(_report("deletion-bound", f"{subject} w={w}", bound, lam_sub))

    if x2 <= 1e-24:
        reports.append(_skipped("min-entry-upper", subject, "x=0"))
    else:
        inner = delta * delta + max(1 / (n * x2) - 1, 0.0) * n * delta
        bound = a * delta + (1 - a) * math.sqrt(inner)
        reports.append(_report("min-entry-upper", subject, lam, bound))

    if delta < 1:
        reports.append(_skipped("entry-bound", subject, "delta=0"))
    elif lam <= a * delta + 1e-12:
        reports.append(_skipped("entry-bound", subject, "radius<=alpha*delta"))
    else:
        denom = (lam - a * delta) ** 2 + delta * (n - delta) * (1 - a) ** 2
        reports.append(_report("entry-bound", subject, x2, delta * (1 - a) ** 2 / denom))
    return reports


def _turan_order(n, r) -> tuple[int, int]:
    """n and r as ints, checked for the r-partite Turan graph on n vertices."""
    n, r = positive_int(n, "n"), positive_int(r, "r")
    if not (2 <= r <= n):
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    return n, r


def check_turan_bound(n: int, r: int, alpha: float) -> CheckReport:
    """radius of the r-partite Turan graph is at most (1-1/r)n; tight when r | n."""
    n, r = _turan_order(n, r)
    a = check_alpha(alpha)
    _alpha_in_range(a, r)
    G = turan(n, r)
    lam = lambda_alpha(G, a)
    return _report(
        "turan-lambda-bound",
        _subject(encode_graph6(G), a, n=n, r=r),
        lam,
        (1 - 1 / r) * n,
        equality_expected=(n % r == 0),
    )


def check_edge_count_turan(n: int, r: int, alpha: float = 0.0) -> tuple[CheckReport, CheckReport]:
    """Arithmetic floor for the Turan graph: edges at least ((r-1)/2r)n^2 - r/8,
    and radius at least (1-1/r)n - r/(4n)."""
    n, r = _turan_order(n, r)
    a = check_alpha(alpha)
    G = turan(n, r)
    e_bound = (r - 1) / (2 * r) * n * n - r / 8
    subject = _subject(encode_graph6(G), a, n=n, r=r)
    edge_rep = _report("turan-edge-lower", subject, e_bound, float(G.edge_count))
    lam = lambda_alpha(G, a)
    lam_bound = (1 - 1 / r) * n - r / (4 * n)
    lam_rep = _report("turan-lambda-lower", subject, lam_bound, lam)
    return edge_rep, lam_rep


def check_degree_stability(n: int, r: int, family, *, force: bool = False) -> list[CheckReport]:
    """For family-free classes with min degree above (3r-4)/(3r-1)*n, report
    whether they are r-colorable. Observational: guaranteed only for large n."""
    n, r = positive_int(n, "n"), positive_int(r, "r")
    fam = as_family(family)
    if len(fam.members) != 1:
        raise ValueError("degree stability is stated for a single forbidden graph")
    F = fam.members[0]
    if chromatic_number(F) != r + 1:
        raise ValueError(f"forbidden graph must have chromatic number r+1 = {r + 1}")
    if not is_color_critical(F):
        raise ValueError("forbidden graph must be color-critical")
    return _stability_reports(
        n, r, lambda least: enumerate_graphs(n, EnumFilter(min_degree=least, family=fam), force=force)
    )


def _stability_reports(n: int, r: int, graphs: Callable[[int], Iterable[Graph]]) -> list[CheckReport]:
    """A degree-stability report, chromatic number against r, for each graph
    of graphs(least): the order-n classes to check, given the least min
    degree delta with (3r-1) delta > (3r-4) n. None reaches it when n < r."""
    least = max((3 * r - 4) * n // (3 * r - 1) + 1, 0)
    if least > n - 1:
        return []
    return [
        _report("degree-stability", f"{encode_graph6(G)} r={r}", float(chromatic_number(G)), float(r))
        for G in graphs(least)
    ]


_DEFAULT_LOG_PAIRS = ((0.25, 0.5), (0.1, 0.9), (0.49, 0.99), (0.01, 0.01))
_DEFAULT_LOG_POINTS = (1.5, 2.0, 10.0, 1.0001)


def check_log_inequalities(
    pairs: Iterable[tuple[float, float]] = _DEFAULT_LOG_PAIRS,
    points: Iterable[float] = _DEFAULT_LOG_POINTS,
) -> list[CheckReport]:
    """Scalar inequalities used by the telescoping argument.

    pairs (x, a) with 0 < x < 1/2, 0 < a < 1 feed log(1-ax) + ax + x^2 > 0;
    points x > 1 feed 1/x < log(x) - log(x-1) and 1/x^2 < 1/(x-1) - 1/x.
    """
    reports = []
    for x, a in pairs:
        if not (0 < x < 0.5):
            raise ValueError(f"pair sample needs 0 < x < 1/2, got x={x}")
        if not (0 < a < 1):
            raise ValueError(f"pair sample needs 0 < a < 1, got a={a}")
        val = math.log(1 - a * x) + a * x + x * x
        reports.append(_report("log-expansion-positive", f"x={x:.12g} a={a:.12g}", 0.0, val))
    for x in points:
        if not x > 1:
            raise ValueError(f"point sample needs x > 1, got {x}")
        reports.append(
            _report("log-gap-lower", f"x={x:.12g}", 1 / x, math.log(x) - math.log(x - 1))
        )
        reports.append(
            _report("reciprocal-gap-lower", f"x={x:.12g}", 1 / (x * x), 1 / (x - 1) - 1 / x)
        )
    return reports


OBSERVE_ONLY_CHECKS = frozenset({"degree-stability"})


def _fields(rep: CheckReport, *names: str) -> dict:
    return {name: getattr(rep, name) for name in names}


@dataclass(slots=True)
class BatteryReport:
    """Aggregate of one full verification sweep."""

    n_max: int
    alphas: tuple[float, ...]
    r_set: tuple[int, ...]
    counts: dict
    failures: list[CheckReport]
    findings: list[CheckReport]
    total: int
    passed: bool

    def to_json(self) -> str:
        payload = {
            "n_max": self.n_max,
            "alphas": list(self.alphas),
            "r_set": list(self.r_set),
            "counts": self.counts,
            "total": self.total,
            "passed": self.passed,
            "failures": [_fields(f, "check_id", "subject", "lhs", "rhs", "slack") for f in self.failures],
            "findings": [_fields(f, "check_id", "subject", "slack") for f in self.findings],
        }
        return compact_json(payload)

    def to_table(self) -> str:
        lines = [
            f"battery n_max={self.n_max} alphas={[f'{a:.12g}' for a in self.alphas]} r_set={list(self.r_set)}",
            f"{'check':<26}{'pass':>8}{'fail':>8}{'skipped':>9}",
        ]
        for cid in sorted(self.counts):
            c = self.counts[cid]
            lines.append(f"{cid:<26}{c['pass']:>8}{c['fail']:>8}{c['skipped']:>9}")
        lines.append(f"total checks: {self.total}")
        for f in self.failures:
            lines.append(f"FAIL {f.check_id} {f.subject} slack={f.slack:.3e}")
        for f in self.findings:
            lines.append(f"finding {f.check_id} {f.subject}")
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def run_battery(n_max: int, alpha_grid: Sequence[float], r_set: Sequence[int]) -> BatteryReport:
    """Run every check over all classes up to n_max across the alpha grid.

    Degree-stability reports are collected as findings and never fail the
    battery; everything else counts toward the exit verdict.
    """
    alphas = tuple(check_alpha(a) for a in alpha_grid)
    rs = tuple(sorted(set(_check_r(r) for r in r_set)))
    n_max = positive_int(n_max, "n_max")
    try:
        _check_cap(n_max, False, None)  # before the smaller orders run
    except EnumerationCapError:
        cap = ENUM_DEFAULT_CAP - 1
        raise EnumerationCapError(
            f"n_max={n_max} is past the reach of the battery (cap {cap}): it runs over all"
            f" classes, {_ALL_CLASSES[cap + 1]:,} of them at n={cap + 1} (A000088)"
        ) from None

    counts: dict[str, dict[str, int]] = {}
    failures: list[CheckReport] = []
    findings: list[CheckReport] = []

    def record(rep: CheckReport) -> None:
        slot = counts.setdefault(rep.check_id, {"pass": 0, "fail": 0, "skipped": 0})
        if rep.skipped:
            slot["skipped"] += 1
        elif rep.passed:
            slot["pass"] += 1
        else:
            slot["fail"] += 1
            if rep.check_id in OBSERVE_ONLY_CHECKS:
                findings.append(rep)
            else:
                failures.append(rep)

    # the smallest r admitting each alpha; None leaves out the r-dependent checks
    smallest_r = [next((r for r in rs if _admits(a, r)), None) for a in alphas]
    for n in range(1, n_max + 1):
        classes = enumerate_graphs(n)
        while chunk := list(islice(classes, _CHUNK)):
            lam0 = lambda_alpha_many(chunk, 0.0).tolist()
            codes = [encode_graph6(G) for G in chunk]
            per_alpha = [_stack_reports(chunk, a, r, lam0, codes) for a, r in zip(alphas, smallest_r)]
            for pair_reports in zip(*per_alpha):  # graph-major, alpha-minor
                for rep in chain.from_iterable(pair_reports):
                    record(rep)

    for n in range(2, n_max + 1):
        for r in rs:
            if r > n:
                continue
            for rep in check_edge_count_turan(n, r):
                record(rep)
            for a in alphas:
                if _admits(a, r):
                    record(check_turan_bound(n, r, a))

    for n in range(1, min(5, n_max) + 1):
        for G in enumerate_graphs(n):
            for p in (2, 3):
                for a in alphas:
                    lam_blown = lambda_alpha(blow_up(G, p), a)
                    record(
                        _report(
                            "blowup-scaling",
                            _subject(encode_graph6(G), a, p=p),
                            lam_blown,
                            p * lambda_alpha(G, a),
                            equality_expected=True,
                        )
                    )

    for rep in check_log_inequalities():
        record(rep)

    # check_degree_stability(n, r, K_{r+1}), filtered from the unfiltered lists walked above
    for r in rs:
        clique = complete(r + 1)
        for n in range(3, n_max + 1):
            def free(least: int) -> Iterator[Graph]:
                return (G for G in enumerate_graphs(n, EnumFilter(min_degree=least)) if is_free(G, clique))
            for rep in _stability_reports(n, r, free):
                record(rep)

    return BatteryReport(
        n_max=n_max,
        alphas=alphas,
        r_set=rs,
        counts=counts,
        failures=failures,
        findings=findings,
        total=sum(sum(slot.values()) for slot in counts.values()),
        passed=not failures,
    )
