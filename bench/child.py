"""One benchmark process: a CLI call, an alpha sweep, a cache fill or an import.

Usage:
    python3 bench/child.py [--rss OUT] [--trace OUT.json] cli <alphaspectral arguments...>
    python3 bench/child.py [--rss OUT] [--trace OUT.json] sweep <alpha,alpha,...>
    python3 bench/child.py [--rss OUT] fill
    python3 bench/child.py [--rss OUT] import

`cli` does what the `alphaspectral` console script does. `sweep` calls
`spectral_extremal(8, a, forbidden_family([complete(4)]))` for each alpha
and prints the records as JSON. `fill` enumerates the K4-free classes on
8 vertices, which writes every level to ALPHASPECTRAL_CACHE_DIR. `import`
prints where alphaspectral was imported from. With --trace the layers are
wrapped (see layertrace.py) and the span totals are written to OUT.json.
With --rss the process's peak resident memory in KiB is written to OUT
when it exits. It is read from VmHWM, which counts only this program: the
ru_maxrss a parent gets from wait4 also counts the parent's own memory
that the child was forked from.
"""

from __future__ import annotations

import json
import sys

SWEEP_ORDER = 8
SWEEP_CLIQUE = 4


def sweep(alphas: list[float]) -> int:
    from alphaspectral import complete, extremal, forbidden_family

    family = forbidden_family([complete(SWEEP_CLIQUE)])
    records = []
    for a in alphas:
        rec = extremal.spectral_extremal(SWEEP_ORDER, a, family)
        records.append(
            {
                "alpha": rec.alpha,
                "optimum": rec.optimum,
                "argmax": list(rec.argmax),
                "classes_searched": rec.classes_searched,
            }
        )
    sys.stdout.write(json.dumps(records) + "\n")
    return 0


def fill() -> int:
    from alphaspectral import EnumFilter, complete, count_classes, forbidden_family

    family = forbidden_family([complete(SWEEP_CLIQUE)])
    print(count_classes(SWEEP_ORDER, EnumFilter(family=family)))
    return 0


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    import alphaspectral

    if mode == "import":
        print(alphaspectral.__file__)
        return 0
    if mode == "fill":
        return fill()

    tracer = None
    if trace_out is not None:
        import layertrace

        tracer = layertrace.install()
    try:
        if mode == "cli":
            from alphaspectral import cli

            return cli.main(rest)
        if mode == "sweep":
            return sweep([float(tok) for tok in rest[0].split(",")])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    args, rss_out = sys.argv[1:], None
    if args[:1] == ["--rss"]:
        rss_out, args = args[1], args[2:]
    try:
        status = main(args)
    finally:
        if rss_out is not None:
            with open(rss_out, "w") as fh:
                fh.write(str(peak_rss_kib()))
    raise SystemExit(status)
