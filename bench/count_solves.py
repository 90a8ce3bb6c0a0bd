"""Eigensolve count of one traced alphaspectral CLI call.

    python3 bench/count_solves.py verify --n-max 7 --alphas 0,0.25,0.5 --r 2,3

Prints spectral.eigensolves, the (graph, alpha) pairs they serve and the
ratio, counted the same way as the benchmark's traced runs. At the seed
commit the command above gives 32,384 eigensolves over 3,756 pairs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        workdir = Path(tmp)
        trace_path = workdir / "trace.json"
        result = run.spawn(["--trace", str(trace_path), "cli", *argv], None, workdir, run.CHILD_TIMEOUT_S)
        if result.error is not None:
            print(f"error: {result.error}", file=sys.stderr)
            return 1
        counters = json.loads(trace_path.read_text())["counters"]
    solves, pairs = counters["spectral.eigensolves"], counters["spectral.pairs"]
    print(f"spectral.eigensolves = {solves}")
    print(f"spectral.pairs = {pairs}")
    print(f"spectral.solves_per_pair = {solves / pairs if pairs else 0.0:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
