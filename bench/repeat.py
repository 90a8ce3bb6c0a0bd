"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 bench/repeat.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--trace] [--out bench/BENCH_<label>.json]

Runs `bench/run.py` once per seed and workload, with the run length from
BENCHMARK.json, and reports for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance between
the quartiles as a share of the median. A spread at or above a third of
the metric's bound is flagged: the benchmark is then too noisy to resolve
that bound. setup_s is listed but not flagged, and so is wall_s, the raw
mean wall time per run that wall_ref divides by the probe's time. With
--trace one traced run per workload adds the per-layer metrics. --out
writes everything, with the machine description, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    machine = next((json.loads(ln[len("machine "):]) for ln in lines if ln.startswith("machine ")), {})
    result = json.loads(lines[-1])
    walls = next((ln.split(":", 2)[2] for ln in lines if ln.startswith("timed runs:")), "")
    result["timed_walls"] = [float(w) for w in walls.split(",") if w.strip()]
    raw = next((ln for ln in lines if ln.startswith("wall_s mean = ")), None)
    if raw is not None and not trace:
        result["metrics"]["wall_s"] = {"value": float(raw.split()[3]), "unit": "s"}
    return result, machine


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    out = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["wall_s"] = None
    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for name in args.workload or names:
        results, machine = [], {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, machine = run_once(name, seed, seconds, 0)
            results.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in res["metrics"].items()), flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "machine": {k: v for k, v in machine.items() if k != "seed"},
            "timed_walls": {seed: r["timed_walls"] for seed, r in enumerate(results, args.first_seed)},
            "end_to_end": {},
        }
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in results],
                          None if metric in ("setup_s", "wall_s") else bound)
            s["unit"] = results[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            steady &= s.get("steady", True)
            flag = {True: "steady", False: "NOISY", None: "not checked"}[s.get("steady")]
            print(f"  {name} {metric}: median {s['median']:.4f} {s['unit']}, quartiles "
                  f"{s['q1']:.4f}..{s['q3']:.4f}, spread {s['spread']:.4f} (bound {bound}) {flag}", flush=True)
        if args.trace:
            res, _ = run_once(name, args.first_seed, seconds, 1)
            entry["trace_correct"] = res["correct"]
            entry["per_layer"] = {k: m for k, m in res["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    ok = steady and all(e["correct"] and e.get("trace_correct", True) for e in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
