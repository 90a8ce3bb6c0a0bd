"""Exact small-order Turan-type extremal problems.

Each search walks the full enumeration stream of family-free classes and
keeps a running optimum, so results are exhaustive certificates, not
heuristics. Records carry the complete argmax set as canonical graph6 keys
together with the number of classes searched.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .enumeration import EnumFilter, enumerate_graphs, family_keys
from .graph6 import compact_json, decode_graph6, encode_graph6
from .spectral import _alpha_matrices, _radius_bounds, check_alpha, lambda_alpha_many
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

    @classmethod
    def from_json(cls, text: str) -> "ExtremalRecord":
        data = json.loads(text)
        fam = as_family([decode_graph6(k) for k in data["family"]])
        return cls(
            n=data["n"],
            alpha=data["alpha"],
            family=fam,
            optimum=data["optimum"],
            argmax=tuple(data["argmax"]),
            classes_searched=data["classes_searched"],
            elapsed=data["elapsed"],
        )

    def csv_header(self) -> str:
        return "n,alpha,family,optimum,argmax,classes_searched,elapsed"

    def to_csv_row(self) -> str:
        alpha = "" if self.alpha is None else f"{self.alpha:.12g}"
        opt = self.optimum if isinstance(self.optimum, int) else f"{self.optimum:.12g}"
        return ",".join(
            [
                str(self.n),
                alpha,
                ";".join(family_keys(self.family)),
                str(opt),
                ";".join(self.argmax),
                str(self.classes_searched),
                f"{self.elapsed:.6g}",
            ]
        )


def _merge_filter(filt: Optional[EnumFilter], family: ForbiddenFamily) -> EnumFilter:
    if filt is None:
        return EnumFilter(family=family)
    members = family.members
    if filt.family is not None:
        members = members + as_family(filt.family).members
    return replace(filt, family=as_family(members))


def turan_number(n: int, family, *, force: bool = False) -> ExtremalRecord:
    """Maximum edge count over family-free graphs of order n, with argmax."""
    fam = as_family(family)
    t0 = time.perf_counter()
    best = -1
    argmax: list[str] = []
    searched = 0
    for G in enumerate_graphs(n, EnumFilter(family=fam), force=force):
        searched += 1
        e = G.edge_count
        if e > best:
            best = e
            argmax = [encode_graph6(G)]
        elif e == best:
            argmax.append(encode_graph6(G))
    if searched == 0:
        raise NoCandidatesError(f"no family-free graphs of order {n}")
    return ExtremalRecord(
        n=n,
        alpha=None,
        family=fam,
        optimum=best,
        argmax=tuple(argmax),
        classes_searched=searched,
        elapsed=time.perf_counter() - t0,
    )


def spectral_extremal(
    n: int,
    alpha: float,
    family,
    filt: Optional[EnumFilter] = None,
    *,
    tie_tol: float = TIE_TOL,
    force: bool = False,
) -> ExtremalRecord:
    """Maximum alpha-spectral radius over (filtered) family-free graphs.

    The argmax set collects every class within tie_tol of the optimum;
    rerun with tie_tol=0 for the strict-equality subset.

    Only the classes that can reach the argmax are eigensolved. Every
    candidate first gets bounds lower_i <= lambda_i <= upper_i from a few
    power steps (`spectral._radius_bounds`), and class i is solved iff
    upper_i >= max(lower) - tie_tol - _PRUNE_SLACK. Why the result is that
    of solving every class: a class left out has
    lambda_i <= upper_i < max(lower) - tie_tol - _PRUNE_SLACK
    <= optimum - tie_tol - _PRUNE_SLACK. The float error of the bounds and
    of eigvalsh at the enumerable orders (n <= 12, entries at most n - 1)
    is about 1e-13, far inside _PRUNE_SLACK, so the float radius of such a
    class could neither have been the maximum nor passed the argmax test.
    The class attaining max(lower) is always solved, eigvalsh gives a
    matrix the same value in a subset stack as in the full one, and the
    solved classes keep their ascending key order, so optimum and argmax
    are byte-identical to the unpruned search.
    """
    a = check_alpha(alpha)
    if not tie_tol >= 0:  # also rejects NaN, which would empty the argmax
        raise ValueError(f"tie_tol must be nonnegative, got {tie_tol!r}")
    fam = as_family(family)
    t0 = time.perf_counter()
    cands = list(enumerate_graphs(n, _merge_filter(filt, fam), force=force))
    if not cands:
        raise NoCandidatesError(f"no candidate graphs of order {n} pass the filter")
    lower, upper = _radius_bounds(_alpha_matrices([G.rows for G in cands], a))
    keep = [cands[i] for i in np.flatnonzero(upper >= lower.max() - tie_tol - _PRUNE_SLACK)]
    vals = lambda_alpha_many(keep, a)
    optimum = float(vals.max())
    argmax = tuple(
        encode_graph6(G) for G, v in zip(keep, vals) if v >= optimum - tie_tol
    )
    return ExtremalRecord(
        n=n,
        alpha=a,
        family=fam,
        optimum=optimum,
        argmax=argmax,
        classes_searched=len(cands),
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


def min_degree_threshold(density: Fraction | float, epsilon: float, n: int) -> int:
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
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if a > 1 - 1 / r - epsilon + 1e-12:
        raise ValueError(f"alpha must be at most 1 - 1/r - epsilon = {1 - 1 / r - epsilon:.6g}")
    if not (2 <= n_lo <= n_hi):
        raise ValueError(f"need 2 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    pi = Fraction(r - 1, r)

    ex: dict[int, int] = {}
    for n in range(n_lo - 1, n_hi + 1):
        ex[n] = int(turan_number(n, fam, force=force).optimum)

    lam_restricted: dict[int, Optional[float]] = {}
    for n in range(max(n_lo - 1, 2), n_hi + 1):
        md = min_degree_threshold(pi, epsilon, n)
        try:
            rec = spectral_extremal(n, a, fam, EnumFilter(min_degree=md), force=force)
            lam_restricted[n] = float(rec.optimum)
        except NoCandidatesError:
            lam_restricted[n] = None

    rows = []
    for n in range(n_lo, n_hi + 1):
        growth_lhs = abs(ex[n] - ex[n - 1] - float(pi) * n)
        lam_n = lam_restricted.get(n)
        lam_prev = lam_restricted.get(n - 1)
        cond_lambda_lhs = None if lam_n is None else abs(lam_n - 2 * ex[n] / n)
        cond_lambda_ok = None if cond_lambda_lhs is None else cond_lambda_lhs <= sigma + 1e-9
        step_ok = None
        if lam_n is not None and lam_prev is not None:
            step_ok = lam_n >= lam_prev + float(pi) - 5 * sigma - 1e-9
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
