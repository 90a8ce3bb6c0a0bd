"""Command-line surface.

Subcommands: lambda (radii of graph6 input), gen (named families),
extremal (edge / spectral Turan search), verify (inequality battery),
sequence (ratio diagnostics). Exit status 0 on success, 1 on verification
failure, 2 on usage or parse errors. Floating output is printed to 12
significant digits.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .extremal import (
    TIE_TOL,
    ExtremalRecord,
    SequenceDiagnostic,
    check_epsilon,
    min_degree_threshold,
    pi_sequence,
    spectral_extremal,
    turan_number,
)
from .graph6 import compact_json, decode_graph6, encode_graph6, parse_graph6_lines
from .graphs import FAMILY_TAGS, generate
from .spectral import _perron_stack, check_alpha
from .structure import as_family

if TYPE_CHECKING:
    from .verifier import BatteryReport


def _parse_alpha_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad alpha list {text!r}") from None
    if not values:
        raise ValueError("alpha list is empty")
    return [check_alpha(a) for a in values]


def _parse_family(text: str):
    members = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok or tok in FAMILY_TAGS:  # no graph6 string holds ":" (58 < 63)
            members.append(generate(tok))
        else:
            members.append(decode_graph6(tok))
    if not members:
        raise ValueError("family specification is empty")
    return as_family(members)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected LO..HI") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(slots=True)
class RadiusTable:
    """The alpha-spectral radii of graph6 input: one (graph6, alpha,
    lambda_alpha, residual) row per graph and alpha, in input order."""

    rows: list[tuple[str, float, float, float]]

    def to_table(self) -> str:
        width = max(len(k) for k, *_ in self.rows) if self.rows else 6
        lines = [f"{'graph6':<{width}}  {'alpha':>8}  {'lambda_alpha':>16}  {'residual':>10}"]
        lines += [f"{k:<{width}}  {_fmt(a):>8}  {_fmt(lam):>16}  {res:>10.2e}" for k, a, lam, res in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        names = ("graph6", "alpha", "lambda_alpha", "residual")
        return compact_json([dict(zip(names, row)) for row in self.rows])

    def to_csv(self) -> str:
        lines = ["graph6,alpha,lambda_alpha,residual"]
        lines += [f"{k},{_fmt(a)},{_fmt(lam)},{_fmt(res)}" for k, a, lam, res in self.rows]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands: each returns a result that main writes in args.format
# ---------------------------------------------------------------------------

def cmd_lambda(args) -> RadiusTable:
    alphas = sorted(_parse_alpha_list(args.alphas))
    if args.graphs == "-":
        text = sys.stdin.read()
    else:
        with open(args.graphs) as fh:
            text = fh.read()
    rows = []
    for G in parse_graph6_lines(text):
        key = encode_graph6(G)  # the input line without a >>graph6<< header
        lams, _, residual, _ = _perron_stack([G.rows], alphas)  # one stack over the whole alpha list
        rows += [(key, a, lam, res) for a, lam, res in zip(alphas, lams.tolist(), residual.tolist())]
    return RadiusTable(rows)


def cmd_gen(args) -> str:
    return encode_graph6(generate(args.spec)) + "\n"


def cmd_extremal(args) -> ExtremalRecord:
    family = _parse_family(args.family)
    if args.edges:
        spectral_only = {"-a/--alpha": args.alpha, "--min-degree-frac": args.min_degree_frac,
                         "--tie-tol": args.tie_tol}
        given = [flag for flag, value in spectral_only.items() if value is not None]
        if given:
            raise ValueError(f"--edges takes no spectral search option, got {', '.join(given)}")
        return turan_number(args.n, family, force=args.force)
    if args.alpha is None:
        raise ValueError("spectral search needs -a/--alpha (or pass --edges)")
    alpha = check_alpha(args.alpha)
    md = None
    if args.min_degree_frac is not None:
        check_epsilon(args.min_degree_frac, "--min-degree-frac")
        density = 1 - 1 / (family.chi - 1)
        md = min_degree_threshold(density, args.min_degree_frac, args.n)
    tie_tol = TIE_TOL if args.tie_tol is None else args.tie_tol
    return spectral_extremal(args.n, alpha, family, min_degree=md, tie_tol=tie_tol, force=args.force)


def cmd_verify(args) -> BatteryReport:
    from .verifier import run_battery  # here, so the other commands never load the battery

    alphas = _parse_alpha_list(args.alphas)
    try:
        rs = [int(tok) for tok in args.r.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad r list {args.r!r}") from None
    return run_battery(args.n_max, alphas, rs)


def cmd_sequence(args) -> SequenceDiagnostic:
    family = _parse_family(args.family)
    alpha = check_alpha(args.alpha)
    lo, hi = _parse_range(args.n)
    return pi_sequence(family, alpha, lo, hi, force=args.force)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaspectral",
        description="alpha-spectral radii and exact small-order extremal search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=()):
        """--output, and --format offering the result's to_<format> methods; the first is the default."""
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", help="write output to this path instead of stdout")

    p = sub.add_parser("lambda", help="alpha-spectral radii of graph6 input")
    p.add_argument("graphs", nargs="?", default="-", help="graph6 file, or - for stdin")
    p.add_argument("-a", "--alphas", required=True, help="comma-separated alpha values")
    common(p, ("table", "json", "csv"))
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("gen", help="emit a named family graph as graph6")
    p.add_argument("spec", help="tag:param[:param], e.g. turan:7:3 or wheel:6")
    common(p)
    p.set_defaults(func=cmd_gen, format=None)

    p = sub.add_parser("extremal", help="exact extremal search over family-free classes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-a", "--alpha", type=float)
    p.add_argument("-F", "--family", required=True, help="named specs and/or graph6, comma-separated")
    p.add_argument("--edges", action="store_true", help="maximize edge count instead of the radius")
    p.add_argument("--min-degree-frac", type=float, help="epsilon in (0, 1/2) for the min-degree-restricted class")
    p.add_argument("--tie-tol", type=float, help=f"argmax tolerance (default {TIE_TOL:g})")
    p.add_argument("--force", action="store_true", help="override the enumeration cap")
    common(p, ("table", "json", "csv"))
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", help="run the inequality battery")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--r", default="2,3", help="comma-separated r values")
    common(p, ("table", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="scaled-optimum trend table for a family")
    p.add_argument("-F", "--family", required=True)
    p.add_argument("-a", "--alpha", type=float, required=True)
    p.add_argument("--n", required=True, help="order range LO..HI")
    p.add_argument("--force", action="store_true")
    common(p, ("csv", "json"))
    p.set_defaults(func=cmd_sequence)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        result = args.func(args)
        if args.format is None:  # gen: its graph6 line
            text = result
        else:
            text = getattr(result, f"to_{args.format}")() + ("\n" if args.format == "json" else "")
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if getattr(result, "passed", True) else 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
