"""Machine checks for the quantitative spectral inequalities.

Every check is reported with signed slack, oriented so that slack >= -1e-9
means pass; declared equalities must additionally land within 1e-8. Checks
that only hold for sufficiently large order (degree stability) are
observational: they are reported as findings and never fail the battery.

The per-graph inequalities are array columns over a stack of (graph,
alpha) pairs: every bound a float column from one stacked Perron solve and
one stacked solve of the deletion subgraphs, every verdict a boolean
column. The battery stacks the whole alpha grid over chunks of each class
list, sized by matrix entries, counts by column sums and builds a report
only for a failing row; `check_graph` is the one-pair view of the columns.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .enumeration import (
    _ALL_CLASSES, ENUM_DEFAULT_CAP, EnumerationCapError, EnumFilter, _check_cap, _class_list, enumerate_graphs
)
from .graph6 import compact_json, encode_graph6
from .graphs import Graph, blow_up, complete, positive_int, turan
from .spectral import (
    _alpha_matrices, _perron_stack, _top_eigenvalues, check_alpha, lambda_alpha
)
from .structure import as_family, chromatic_number, contains_subgraph, is_color_critical

PASS_TOL = 1e-9
EQUALITY_TOL = 1e-8
_STACK_CELLS = 1 << 15  # matrix entries per stacked solve in the battery: 256 KB of float64

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
    col = _Column(check_id, np.array([lhs]), np.array([rhs]), np.array([equality_expected]), np.array([""]))
    return col.report(0, subject)


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


class _Column(NamedTuple):
    """One check over a stack of rows: lhs <= rhs, a declared equality and a skip
    reason ('' if checked) per row; w is deletion-bound's deleted vertex."""

    check_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    equality: np.ndarray
    reason: np.ndarray
    w: Optional[np.ndarray] = None

    def failing(self) -> np.ndarray:
        """Per row: checked, with a slack below -PASS_TOL, a declared
        equality off by more than EQUALITY_TOL, or a slack not finite."""
        slack = self.rhs - self.lhs
        fails = ~np.isfinite(slack) | (slack < -PASS_TOL) | (self.equality & (np.abs(slack) > EQUALITY_TOL))
        return (self.reason == "") & fails

    def report(self, i: int, subject: str) -> CheckReport:
        """Row i as a report; subject names the graph and alpha."""
        subject += "" if self.w is None else f" w={self.w[i]}"
        if self.reason[i]:
            return CheckReport(self.check_id, subject, _NAN, _NAN, _NAN, False, f"skipped({self.reason[i]})")
        lhs, rhs, verdict = float(self.lhs[i]), float(self.rhs[i]), "fail" if self.failing()[i] else "pass"
        return CheckReport(self.check_id, subject, lhs, rhs, rhs - lhs, bool(self.equality[i]), verdict)


def check_graph(G: Graph, alpha: float, r: Optional[int] = 2) -> list[CheckReport]:
    """Every per-graph inequality for (G, alpha), from one certified solve.

    This is the one-graph view of the battery's columns (`_columns`); a
    report whose slack is not finite fails. With lam the radius, x the
    smallest eigenvector entry, at vertex w, and delta / Delta the min / max
    degree, the reports are, in order:

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
    rows = np.array([G.rows], dtype=np.uint64)
    lam0 = _top_eigenvalues(_alpha_matrices(rows, 0.0))
    columns = _columns(rows, np.array([G.degrees()]).T, lam0, [a], r)
    subject = _subject(encode_graph6(G), a)
    return [col.report(0, subject) for col in columns]


def _columns(rows, degrees, lam0: np.ndarray, alphas, r: Optional[int]) -> list[_Column]:
    """check_graph's checks, in its order, as columns whose row i * t + u is graph i of a k x n stack of bit
    rows at alphas[u] of t checked alphas; degrees is n x k and lam0 the radii at alpha = 0. Squares of
    floats go through Python's `**` (libm's pow): x * x can round apart."""
    lam, X, _, _ = _perron_stack(rows, alphas)
    t, a = len(alphas), np.tile(alphas, len(rows))
    rows, degrees, lam0 = np.repeat(rows, t, 0), np.repeat(degrees, t, 1), np.repeat(lam0, t)
    k, n = X.shape
    deg = degrees.astype(np.int64)
    delta, regular = deg.min(axis=0), deg.min(axis=0) == deg.max(axis=0)
    adelta = a * deg.max(axis=0)
    mean = deg.sum(axis=0) / n
    checked, no = np.full(k, ""), np.zeros(k, bool)
    columns = [
        _Column("sandwich-lower", adelta, lam, no, checked),
        _Column("sandwich-upper", lam, adelta + (1 - a) * lam0, no, checked),
        _Column("degree-square-lower", np.sqrt((deg * deg).sum(axis=0) / n), lam, regular & (a > 0), checked),
        _Column("mean-degree-lower", mean, lam, regular, checked),
        # irregular graphs must sit strictly above the mean-degree bound
        _Column("regularity-equality", np.where(regular, mean, EQUALITY_TOL), np.where(regular, lam, lam - mean),
                regular, checked),
    ]
    if r is None:
        return columns

    w = X.argmin(axis=1)
    x2 = np.array([x**2 for x in X[np.arange(k), w].tolist()])
    if n >= 2:
        bound = (lam * (1 - 2 * x2) - a * (1 - n * x2)) / (1 - x2)
        # the rows of each G - w, as delete_vertex gives them: bits above w move down one, bit w goes
        R, low = rows.astype(np.uint64), (np.uint64(1) << w.astype(np.uint64))[:, None] - np.uint64(1)
        R = (R & low | R >> np.uint64(1) & ~low)[np.arange(n) != w[:, None]].reshape(k, n - 1)
        columns.append(_Column("deletion-bound", bound, _top_eigenvalues(_alpha_matrices(R, a)), no, checked, w))

    with np.errstate(divide="ignore", invalid="ignore"):  # in the rows that are skipped
        inner = delta * delta + np.maximum(1 / (n * x2) - 1, 0.0) * n * delta
        bound = a * delta + (1 - a) * np.sqrt(inner)
        columns.append(_Column("min-entry-upper", lam, bound, no, np.where(x2 <= 1e-24, "x=0", "")))

        b2 = np.array([(1 - b) ** 2 for b in a.tolist()])
        denom = np.array([g**2 for g in (lam - a * delta).tolist()]) + delta * (n - delta) * b2
        reason = np.where(delta < 1, "delta=0", np.where(lam <= a * delta + 1e-12, "radius<=alpha*delta", ""))
        columns.append(_Column("entry-bound", x2, delta * b2 / denom, no, reason))
    return columns


def _tally(counts: dict[str, Counter], keyed: Iterable[tuple[np.ndarray, _Column]]) -> list[tuple[int, int, _Column]]:
    """Add the verdicts of each (place, column) to counts, and return
    (place[i], i, column) for every failing row i, by place and then in the
    order given; place gives each row of its column a report position."""
    found = []
    for place, col in keyed:
        failing = col.failing()
        failed, skipped = int(np.count_nonzero(failing)), int(np.count_nonzero(col.reason != ""))
        counts[col.check_id].update({"pass": len(failing) - failed - skipped, "fail": failed, "skipped": skipped})
        found += [(int(place[i]), i, col) for i in np.flatnonzero(failing).tolist()]
    return sorted(found, key=lambda item: item[0])


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
    n, r = positive_int(n, "n"), _check_r(r)
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


def _record(counts: dict[str, Counter], failures: list, findings: list, reports: Iterable[CheckReport]) -> None:
    """Count each report, and list a failing one as a failure or, if observational, a finding."""
    for rep in reports:
        counts[rep.check_id]["skipped" if rep.skipped else rep.verdict] += 1
        if rep.verdict == "fail":
            (findings if rep.check_id in OBSERVE_ONLY_CHECKS else failures).append(rep)


def run_battery(n_max: int, alpha_grid: Sequence[float], r_set: Sequence[int]) -> BatteryReport:
    """Run every check over all classes up to n_max across the alpha grid.

    Degree-stability reports are collected as findings and never fail the
    battery; everything else counts toward the exit verdict.
    """
    alphas = tuple(check_alpha(a) for a in alpha_grid)
    if not alphas:
        raise ValueError("alpha list is empty")
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

    counts: dict[str, Counter] = defaultdict(Counter)
    failures: list[CheckReport] = []
    findings: list[CheckReport] = []

    # the alphas that the largest r admits take the r-dependent checks; the rest go in a stack without them
    grid, m, largest = np.array(alphas), len(alphas), max(rs, default=None)
    admitted = _admits(grid, largest) if rs else np.zeros(m, bool)
    stacks = [(np.flatnonzero(admitted == on), largest if on else None) for on in set(admitted.tolist())]
    for n in range(1, n_max + 1):
        classes, _ = _class_list(n, EnumFilter(), False)
        step = max(1, _STACK_CELLS // (n * n * m))
        for s in range(0, len(classes.codes), step):
            rows, degrees = classes.rows[s : s + step], classes.degrees[:, s : s + step]
            lam0 = _top_eigenvalues(_alpha_matrices(rows, 0.0))
            keyed = [((np.arange(len(rows))[:, None] * m + js).ravel(), col)  # class i, alpha j: place i * m + j
                     for js, r in stacks for col in _columns(rows, degrees, lam0, grid[js], r)]
            for p, i, col in _tally(counts, keyed):  # graph-major, alpha-minor
                failures.append(col.report(i, _subject(classes.codes[s + p // m].decode(), alphas[p % m])))

    scalar = []
    for n in range(2, n_max + 1):
        for r in (r for r in rs if r <= n):
            scalar += check_edge_count_turan(n, r)
            scalar += [check_turan_bound(n, r, a) for a in alphas if _admits(a, r)]
    _record(counts, failures, findings, scalar)

    for n in range(1, min(5, n_max) + 1):
        graphs = list(enumerate_graphs(n))
        a = np.tile(grid, len(graphs))  # row i * m + j is graph i at alpha j
        lam = _top_eigenvalues(_alpha_matrices(np.repeat([G.rows for G in graphs], m, 0), a))
        yes, checked, keyed = np.ones(len(a), bool), np.full(len(a), ""), []
        for p in (2, 3):
            blown = _top_eigenvalues(_alpha_matrices(np.repeat([blow_up(G, p).rows for G in graphs], m, 0), a))
            keyed.append((np.arange(len(a)) // m * 2 + p - 2, _Column("blowup-scaling", blown, p * lam, yes, checked)))
        for q, i, col in _tally(counts, keyed):  # by graph, then p, then alpha
            failures.append(col.report(i, _subject(encode_graph6(graphs[q // 2]), alphas[i % m], p=2 + q % 2)))

    scalar = check_log_inequalities()
    # check_degree_stability(n, r, K_{r+1}), filtered from the unfiltered lists walked above
    for r in rs:
        clique = complete(r + 1)
        for n in range(3, n_max + 1):
            def free(least: int) -> Iterator[Graph]:
                graphs = enumerate_graphs(n, EnumFilter(min_degree=least))
                return (G for G in graphs if not contains_subgraph(G, clique))
            scalar += _stability_reports(n, r, free)
    _record(counts, failures, findings, scalar)

    return BatteryReport(
        n_max=n_max,
        alphas=alphas,
        r_set=rs,
        counts={cid: {verdict: c[verdict] for verdict in ("pass", "fail", "skipped")} for cid, c in counts.items()},
        failures=failures,
        findings=findings,
        total=sum(sum(c.values()) for c in counts.values()),
        passed=not failures,
    )
