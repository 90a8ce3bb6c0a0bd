"""Exact small-order Turan-type extremal problems.

Each search walks the full enumeration stream of family-free classes and
keeps a running optimum, so results are exhaustive certificates, not
heuristics. Records carry the complete argmax set as canonical graph6 keys
together with the number of classes searched.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, fields
from numbers import Real
from typing import Optional

import numpy as np

from .enumeration import EnumFilter, _class_list, family_keys
from .graph6 import compact_json
from .graphs import _int_at_least, positive_int
from .spectral import _alpha_matrices, _bound_terms, _radius_bounds, _top_eigenvalues, check_alpha
from .structure import ForbiddenFamily, as_family

TIE_TOL = 1e-9
_PRUNE_SLACK = 1e-9  # margin over float error when ruling classes out of the search


class NoCandidatesError(ValueError):
    """The filtered search space contains no graphs at all."""


@dataclass(slots=True)
class ExtremalRecord:
    """Exact answer to a small-order extremal problem with its full argmax set."""

    n: int
    alpha: Optional[float]
    family: ForbiddenFamily
    optimum: float | int
    argmax: tuple[str, ...]
    classes_searched: int
    elapsed: float

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["family"] = family_keys(self.family)
        return compact_json(payload)

    def to_csv(self) -> str:
        alpha = "" if self.alpha is None else f"{self.alpha:.12g}"
        row = [str(self.n), alpha, ";".join(family_keys(self.family)), self._optimum(),
               ";".join(self.argmax), str(self.classes_searched), f"{self.elapsed:.6g}"]
        return "n,alpha,family,optimum,argmax,classes_searched,elapsed\n" + ",".join(row) + "\n"

    def to_table(self) -> str:
        lines = [
            f"n:               {self.n}",
            f"alpha:           {'-' if self.alpha is None else f'{self.alpha:.12g}'}",
            f"family:          {' '.join(family_keys(self.family))}",
            f"optimum:         {self._optimum()}",
            f"argmax:          {' '.join(self.argmax)}",
            f"classes_searched:{self.classes_searched}",
            f"elapsed:         {self.elapsed:.3f}s",
        ]
        return "\n".join(lines) + "\n"

    def _optimum(self) -> str:
        """An edge count as it is, a radius to 12 significant digits."""
        return str(self.optimum) if isinstance(self.optimum, int) else f"{self.optimum:.12g}"


def _check_nonnegative(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, Real) or not value >= 0:  # NaN too
        raise ValueError(f"{what} must be a nonnegative real number, got {value!r}")


def check_epsilon(epsilon: float, what: str = "epsilon") -> None:
    """The epsilon of a min-degree-restricted class must lie in (0, 1/2)."""
    if not 0 < epsilon < 0.5:  # NaN too
        raise ValueError(f"{what} must lie in (0, 1/2), got {epsilon!r}")


def turan_number(n: int, family, *, force: bool = False) -> ExtremalRecord:
    """Maximum edge count over family-free graphs of order n, with argmax."""
    fam = as_family(family)
    t0 = time.perf_counter()
    classes, _ = _class_list(n, EnumFilter(family=fam), force)
    two_m = classes.degrees.sum(axis=0, dtype=np.int64)
    best = int(two_m.max())
    return ExtremalRecord(
        n=n,
        alpha=None,
        family=fam,
        optimum=best // 2,
        argmax=tuple(classes.codes[two_m == best].astype(str).tolist()),
        classes_searched=len(two_m),
        elapsed=time.perf_counter() - t0,
    )


def spectral_extremal(
    n: int,
    alpha: float,
    family,
    *,
    min_degree: Optional[int] = None,
    tie_tol: float = TIE_TOL,
    force: bool = False,
) -> ExtremalRecord:
    """Maximum alpha-spectral radius over family-free graphs, restricted to
    minimum degree at least min_degree when it is given (above n - 1, no
    graph is left: NoCandidatesError).

    The argmax set collects every class within tie_tol of the optimum;
    rerun with tie_tol=0 for the strict-equality subset.

    Only the classes that can reach the argmax are eigensolved. Two tests
    rule the others out, each with the margin tie_tol + _PRUNE_SLACK:
    - at every alpha 2m/n <= lambda <= Delta (the all-ones Rayleigh
      quotient; the row sums of the alpha matrix are the degrees), so class
      i stays iff Delta_i * n >= max_j 2m_j - margin * n, in integers from
      the degrees kept with the class list. A class left out has
      lambda_i <= Delta_i < max 2m/n - margin <= optimum - margin, and the
      maximising class has Delta >= optimum >= max 2m/n, so it stays;
    - the survivors get lower_i <= lambda_i <= upper_i from a few power
      steps (`spectral._radius_bounds`), and class i is solved iff
      upper_i >= max(lower) - margin, so one left out has
      lambda_i <= upper_i < optimum - margin.
    The survivors of the first test and their power steps' coefficients in
    alpha (`spectral._bound_terms`) are built once, kept in the class list's
    memo under (min_degree, tie_tol); each alpha evaluates the bounds from
    them and assembles alpha matrices only for the classes it solves. The
    coefficients are exact integers, so the bounds lie within about 1e-14
    of the exact ones, and eigvalsh within about 1e-13 (entries at most
    n - 1 <= 11): far inside _PRUNE_SLACK, so no class left out could have
    been the maximum or passed the argmax test. The class attaining
    max(lower) is always solved, eigvalsh gives a matrix the same value in
    a subset stack as in the full one, and the solved classes keep their
    ascending key order, so optimum and argmax are byte-identical to the
    unpruned search. classes_searched counts the classes passing min_degree.
    """
    a = check_alpha(alpha)
    _check_nonnegative(tie_tol, "tie_tol")
    fam = as_family(family)
    t0 = time.perf_counter()
    if min_degree is not None and positive_int(n, "order") <= _int_at_least(min_degree, "min_degree", 0):
        raise NoCandidatesError(f"no graph of order {n} has minimum degree {min_degree}")
    classes, passing = _class_list(n, EnumFilter(min_degree=min_degree, family=fam), force)
    idx = np.flatnonzero(passing)
    if not len(idx):
        raise NoCandidatesError(f"no candidate graphs of order {n} pass the filter")
    key = (None if min_degree is None else operator.index(min_degree), tie_tol)
    if key not in classes.memo:
        deg = classes.degrees
        top, two_m = deg.max(axis=0).astype(np.int64)[idx], deg.sum(axis=0, dtype=np.int64)[idx]
        cand = idx[top * n >= two_m.max() - (tie_tol + _PRUNE_SLACK) * n]
        classes.memo[key] = cand, _bound_terms(classes.rows[cand])
    cand, terms = classes.memo[key]
    lower, upper = _radius_bounds(terms, a)
    solved = cand[upper >= lower.max() - tie_tol - _PRUNE_SLACK]
    vals = _top_eigenvalues(_alpha_matrices(classes.rows[solved], a))
    optimum = float(vals.max())
    argmax = tuple(classes.codes[solved[vals >= optimum - tie_tol]].astype(str).tolist())
    return ExtremalRecord(
        n=n,
        alpha=a,
        family=fam,
        optimum=optimum,
        argmax=argmax,
        classes_searched=len(idx),
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Sequence diagnostics
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SequenceRow:
    n: int
    optimum: float
    ratio_n: float
    ratio_n_minus_1: float
    hypothesis_ok: Optional[bool]


@dataclass(slots=True)
class SequenceDiagnostic:
    """Finite-n trend table for the scaled extremal radius of a family."""

    family: ForbiddenFamily
    alpha: float
    rows: tuple[SequenceRow, ...]
    ratio_nonincreasing: bool

    def to_csv(self) -> str:
        lines = ["n,optimum,ratio_n,ratio_n_minus_1,hypothesis_ok"]
        for r in self.rows:
            hyp = "n/a" if r.hypothesis_ok is None else str(r.hypothesis_ok).lower()
            lines.append(
                f"{r.n},{r.optimum:.12g},{r.ratio_n:.12g},{r.ratio_n_minus_1:.12g},{hyp}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": family_keys(self.family),
            "alpha": self.alpha,
            "rows": [asdict(r) for r in self.rows],
            "ratio_nonincreasing": self.ratio_nonincreasing,
        }
        return compact_json(payload)


def pi_sequence(family, alpha: float, n_lo: int, n_hi: int, *, force: bool = False) -> SequenceDiagnostic:
    """Ratio table optimum/n and optimum/(n-1) over a range of orders.

    The per-row hypothesis column records whether the optimum exceeds
    (1-1/r)(n-1) with r one less than the family chromatic number; it is
    n/a for bipartite families.
    """
    a = check_alpha(alpha)
    fam = as_family(family)
    n_lo, n_hi = positive_int(n_lo, "n_lo"), positive_int(n_hi, "n_hi")
    if not (2 <= n_lo <= n_hi):
        raise ValueError(f"need 2 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    r = fam.chi - 1 if fam.chi >= 3 else None
    rows = []
    for n in range(n_lo, n_hi + 1):
        rec = spectral_extremal(n, a, fam, force=force)
        opt = float(rec.optimum)
        hyp = None
        if r is not None:
            hyp = opt > (1 - 1 / r) * n - (1 - 1 / r)
        rows.append(SequenceRow(n, opt, opt / n, opt / (n - 1), hyp))
    noninc = all(
        rows[i + 1].ratio_n_minus_1 <= rows[i].ratio_n_minus_1 + 1e-12
        for i in range(len(rows) - 1)
    )
    return SequenceDiagnostic(family=fam, alpha=a, rows=tuple(rows), ratio_nonincreasing=noninc)


# ---------------------------------------------------------------------------
# Stability-criterion conditions at finite n (observational)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ConditionRow:
    n: int
    turan_n: int
    turan_n_minus_1: int
    cond_growth_lhs: float
    cond_growth_ok: bool
    lambda_min_degree: Optional[float]
    cond_lambda_lhs: Optional[float]
    cond_lambda_ok: Optional[bool]
    stepwise_ok: Optional[bool]


def min_degree_threshold(density: float, epsilon: float, n: int) -> int:
    """Smallest integer strictly greater than (density - epsilon) * n."""
    thresh = (float(density) - epsilon) * n
    md = math.floor(thresh) + 1
    if abs(thresh - round(thresh)) < 1e-9:
        md = int(round(thresh)) + 1
    return max(md, 0)


def stability_condition_check(
    family,
    sigma: float,
    n_lo: int,
    n_hi: int,
    alpha: float,
    epsilon: float,
    *,
    force: bool = False,
) -> list[ConditionRow]:
    """Evaluate the two finite-n stability conditions over a range of orders.

    Per order n this reports |ex(n)-ex(n-1)-pi*n| <= sigma*n and, over the
    min-degree-restricted family-free classes, |max radius - 2 ex(n)/n| <=
    sigma, plus the stepwise growth of the restricted optimum. Output is
    observational: the underlying statements are asymptotic, so rows are
    findings rather than assertions.
    """
    a = check_alpha(alpha)
    fam = as_family(family)
    if fam.chi < 3:
        raise ValueError("condition check needs a family of chromatic number at least 3")
    r = fam.chi - 1
    check_epsilon(epsilon)
    _check_nonnegative(sigma, "sigma")
    if a > 1 - 1 / r - epsilon + 1e-12:
        raise ValueError(f"alpha must be at most 1 - 1/r - epsilon = {1 - 1 / r - epsilon:.6g}")
    n_lo, n_hi = positive_int(n_lo, "n_lo"), positive_int(n_hi, "n_hi")
    if not (2 <= n_lo <= n_hi):
        raise ValueError(f"need 2 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    pi = (r - 1) / r  # one correctly rounded division, as float(Fraction(r - 1, r))

    ex: dict[int, int] = {}
    for n in range(n_lo - 1, n_hi + 1):
        ex[n] = int(turan_number(n, fam, force=force).optimum)

    lam_restricted: dict[int, Optional[float]] = {}
    for n in range(max(n_lo - 1, 2), n_hi + 1):
        md = min_degree_threshold(pi, epsilon, n)
        try:
            rec = spectral_extremal(n, a, fam, min_degree=md, force=force)
            lam_restricted[n] = float(rec.optimum)
        except NoCandidatesError:
            lam_restricted[n] = None

    rows = []
    for n in range(n_lo, n_hi + 1):
        growth_lhs = abs(ex[n] - ex[n - 1] - pi * n)
        lam_n = lam_restricted.get(n)
        lam_prev = lam_restricted.get(n - 1)
        cond_lambda_lhs = None if lam_n is None else abs(lam_n - 2 * ex[n] / n)
        cond_lambda_ok = None if cond_lambda_lhs is None else cond_lambda_lhs <= sigma + 1e-9
        step_ok = None
        if lam_n is not None and lam_prev is not None:
            step_ok = lam_n >= lam_prev + pi - 5 * sigma - 1e-9
        rows.append(
            ConditionRow(
                n=n,
                turan_n=ex[n],
                turan_n_minus_1=ex[n - 1],
                cond_growth_lhs=growth_lhs,
                cond_growth_ok=growth_lhs <= sigma * n + 1e-9,
                lambda_min_degree=lam_n,
                cond_lambda_lhs=cond_lambda_lhs,
                cond_lambda_ok=cond_lambda_ok,
                stepwise_ok=step_ok,
            )
        )
    return rows
