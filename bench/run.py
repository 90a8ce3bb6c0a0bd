"""Out-of-process benchmark of alphaspectral.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):
    search_cold  alphaspectral extremal -n 9 -a A -F complete:3 --format json,
                 A seeded in [0, 1/2), starting from an empty class cache.
    sweep_warm   spectral_extremal(8, a, K4-free) for 64 seeded alphas in
                 [0, 1), reading the K4-free class cache that set-up filled.
    battery      alphaspectral verify --n-max 7 --alphas 0,<4 seeded> --r 2,3
                 --format json.

One driver process runs a closed loop: every timed run is a fresh
interpreter, and the next starts only after the previous one has exited,
so at most one core is busy. Set-up runs first and is timed on its own.
Then runs are made until --seconds have passed. With --trace 0 they are
untraced runs, at least two, with the reference probe (a fixed
computation that does not use alphaspectral) timed before the first and
after each: wall_ref is their mean wall time over the probe's mean time,
and peak_rss_mb their median peak memory. With --trace 1 two traced runs
on the first input come first, then untraced runs for the rest of the
time, at least two, as the reference for trace.overhead; the traced
per-layer numbers are reported and their counts must agree exactly.
Every output is checked against references independent of alphaspectral
(checks.py); a run whose process fails or whose output is wrong counts
as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 2, with no result line, when
the checkout holds no importable alphaspectral.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"

CACHE_ENV = "ALPHASPECTRAL_CACHE_DIR"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported below

import numpy as np  # noqa: E402

import checks  # noqa: E402

MIN_TIMED_RUNS = 2
SETUP_REPEATS = 5
DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 120.0
SWEEP_ALPHAS = 64


# ---------------------------------------------------------------------------
# Workloads: inputs drawn from the seed, the child command, the check
# ---------------------------------------------------------------------------

def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


class SearchCold:
    name = "search_cold"
    cache = "empty"

    def inputs(self, seed, i):
        return 0.5 * _rng(seed, self.name, i).random()

    def argv(self, a):
        return ["cli", "extremal", "-n", "9", "-a", repr(a), "-F", "complete:3", "--format", "json"]

    def check(self, stdout, a):
        return checks.check_search_cold(stdout, a)


class SweepWarm:
    name = "sweep_warm"
    cache = "filled"

    def inputs(self, seed, i):
        rng = _rng(seed, self.name, i)
        return [rng.random() for _ in range(SWEEP_ALPHAS)]

    def argv(self, alphas):
        return ["sweep", ",".join(repr(a) for a in alphas)]

    def check(self, stdout, alphas):
        return checks.check_sweep_warm(stdout, alphas)


class Battery:
    name = "battery"
    cache = None

    def inputs(self, seed, i):
        # Three alphas in (0, 1/2] and one in (1/2, 0.6]: the r = 2 checks
        # then run for the same number of alphas under every seed, so the
        # work counts repeat exactly across seeds.
        rng = _rng(seed, self.name, i)
        low = sorted(0.5 * (1.0 - rng.random()) for _ in range(3))
        return [0.0] + low + [0.6 - 0.1 * rng.random()]

    def argv(self, alphas):
        return ["cli", "verify", "--n-max", "7", "--alphas", ",".join(repr(a) for a in alphas),
                "--r", "2,3", "--format", "json"]

    def check(self, stdout, alphas):
        return checks.check_battery(stdout, alphas)


WORKLOADS = {w.name: w for w in (SearchCold(), SweepWarm(), Battery())}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, wall, rss_mb, code, stdout, stderr):
        self.wall, self.rss_mb, self.code = wall, rss_mb, code
        self.stdout, self.stderr = stdout, stderr
        self.error = None if code == 0 else f"exit status {code}: {stderr.strip()[-300:]}"


def child_env(cache_dir: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in (CACHE_ENV, "PYTHONPATH")}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    if cache_dir is not None:
        env[CACHE_ENV] = str(cache_dir)
    return env


def spawn(args: list[str], cache_dir: Path | None, workdir: Path, timeout: float) -> Run:
    """Run child.py once; wall time covers process start to exit."""
    out_path, err_path, rss_path = workdir / "stdout", workdir / "stderr", workdir / "rss"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--rss", str(rss_path), *args],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=child_env(cache_dir), cwd=ROOT,
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # A child that died before writing its peak falls back to ru_maxrss,
    # which also counts this process's memory; such a run failed anyway.
    rss_kib = int(rss_path.read_text()) if rss_path.exists() else usage.ru_maxrss
    return Run(wall, rss_kib / 1024.0, proc.returncode,
               out_path.read_text(), err_path.read_text())


def reference_probe() -> float:
    """Seconds a fixed computation takes that does not use alphaspectral.

    It does in plain Python and numpy the three kinds of work the
    workloads do: the smallest edge bit key of a graph over all vertex
    permutations, as in canonical labeling; Python loops that fill 8x8
    matrices and a batched eigvalsh over them; and set insertions over a
    large key space. Timed between runs, it says how fast the host was at
    the time.
    """
    t0 = time.perf_counter()
    rng = random.Random(7)
    keys = []
    for _ in range(60):
        edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.5]
        smallest = None
        for perm in itertools.permutations(range(7)):
            key = 0
            for u, v in edges:
                a, b = sorted((perm[u], perm[v]))
                key |= 1 << (7 * a + b)
            if smallest is None or key < smallest:
                smallest = key
        keys.append(smallest)
    mats = np.zeros((6000, 8, 8))
    for _ in range(4):
        mats[:] = 0.0
        for m in mats:
            for u in range(8):
                for v in range(u + 1, 8):
                    if rng.random() < 0.5:
                        m[u, v] = m[v, u] = 0.7
        np.linalg.eigvalsh(mats)
    seen = set()
    for x in range(1_500_000):
        seen.add((x * 2654435761) & 0x3FFFF)
    return time.perf_counter() - t0


def dir_files(path: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.iterdir() if p.is_file()}


def written_bytes(before: dict, after: dict) -> int:
    return sum(size for name, (size, mtime) in after.items() if before.get(name, (None, None))[1] != mtime)


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed: int, seconds: int, workdir: Path):
        self.w, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.template: Path | None = None
        self.probes: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def fresh_dir(self, tag: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=tag, dir=self.workdir))

    def run_cache(self) -> Path | None:
        if self.w.cache is None:
            return None
        path = self.fresh_dir("cache")
        if self.w.cache == "filled":
            shutil.copytree(self.template, path, dirs_exist_ok=True)
        return path

    def setup(self) -> float:
        """Set-up seconds: the median import probe, or the cache fill for a
        warm workload. Raises SystemExit when alphaspectral cannot load."""
        times = []
        for _ in range(SETUP_REPEATS):
            run = spawn(["import"], None, self.workdir, min(CHILD_TIMEOUT_S, self.remaining()))
            located = Path(run.stdout.strip() or ".").resolve()
            if run.code != 0 or SRC.resolve() not in located.parents:
                raise SystemExit(f"alphaspectral does not import from {SRC}: {run.error or located}")
            times.append(run.wall)
        if self.w.cache != "filled":
            return statistics.median(times)
        # The cold fill takes 10-19 s, so it runs once; it is a fresh
        # interpreter and includes the import.
        self.template = self.fresh_dir("fill")
        run = spawn(["fill"], self.template, self.workdir, min(CHILD_TIMEOUT_S, self.remaining()))
        if run.code != 0 or run.stdout.strip() != str(checks.K4_FREE_8):
            raise SystemExit(f"cache fill failed: {run.error or run.stdout.strip()}")
        return run.wall

    def one(self, index: int, trace: bool = False) -> tuple[Run, dict | None]:
        inputs = self.w.inputs(self.seed, index)
        cache = self.run_cache()
        before = dir_files(cache) if cache is not None else {}
        args = self.w.argv(inputs)
        trace_path = self.workdir / "trace.json"
        if trace:
            args = ["--trace", str(trace_path), *args]
        run = spawn(args, cache, self.workdir, min(CHILD_TIMEOUT_S, self.remaining()))
        self.attempted += 1
        if run.error is None:
            try:
                run.error = self.w.check(run.stdout, inputs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                run.error = f"unreadable output: {exc!r}"
        if run.error is not None:
            self.failed += 1
            self.errors.append(f"run {index}: {run.error}")
        spans = None
        if trace and run.code == 0:
            spans = json.loads(trace_path.read_text())
            spans["counters"]["enumeration.cache_write_bytes"] = (
                written_bytes(before, dir_files(cache)) if cache is not None else 0
            )
        if cache is not None:
            shutil.rmtree(cache)
        return run, spans

    def timed_loop(self, t0: float) -> list[Run]:
        """Untraced runs until the run expected next would end past
        t0 + seconds, at least MIN_TIMED_RUNS. The reference probe runs
        before the first and after each."""
        runs: list[Run] = []
        self.probes.append(reference_probe())
        while len(runs) < MIN_TIMED_RUNS or (
            time.perf_counter() - t0 + statistics.fmean(r.wall for r in runs) / 2 < self.seconds
        ):
            if runs and self.remaining() < 3 * max(r.wall for r in runs) + 5:
                break
            runs.append(self.one(len(runs))[0])
            self.probes.append(reference_probe())
        return runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

PER_LAYER_SPANS = {
    "enumeration.canonical_bits": ("calls", "self_s"),
    "enumeration.enumerate_graphs": ("self_s",),
    "structure.is_free": ("calls", "self_s"),
    "structure.contains_subgraph": ("calls", "self_s"),
    "spectral.alpha_matrix": ("calls", "self_s"),
    "spectral.lambda_alpha_many": ("self_s",),
    "spectral.spectral_radius": ("calls", "self_s"),
    "spectral.lambda_alpha": ("calls", "self_s"),
    "graph6.encode_graph6": ("calls", "self_s"),
    "graph6.decode_graph6": ("calls", "self_s"),
    "verifier.check_sandwich": ("incl_s",),
    "verifier.check_lower_bounds": ("incl_s",),
    "verifier._check_regularity_equality": ("incl_s",),
    "verifier.check_deletion": ("incl_s",),
    "verifier.check_min_entry_upper": ("incl_s",),
    "verifier.check_entry_bound": ("incl_s",),
    "verifier.check_turan_bound": ("incl_s",),
    "verifier.check_edge_count_turan": ("incl_s",),
    "verifier.check_degree_stability": ("incl_s",),
    "verifier.check_log_inequalities": ("incl_s",),
    "verifier.run_battery": ("self_s",),
    "extremal.spectral_extremal": ("self_s",),
    "cli.main": ("self_s",),
}

UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the subset that must repeat."""
    spans, counters = trace["spans"], trace["counters"]
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    out = {}
    for key, fields in PER_LAYER_SPANS.items():
        span = spans.get(key, zero)
        for f in fields:
            out[f"{key}.{f}"] = (span[f], UNITS[f])
    canon = spans.get("enumeration.canonical_bits", zero)["calls"]
    free = spans.get("structure.is_free", zero)["calls"]
    reads = trace["bindings"].get("graph6.decode_graph6@alphaspectral.enumeration", zero)
    out["enumeration.class_yield"] = (_ratio(counters["enumeration.enumerate_graphs.yielded"], canon), "ratio")
    out["enumeration.cache_write_bytes"] = (counters["enumeration.cache_write_bytes"], "B")
    out["enumeration.cache_read_s"] = (reads["incl_s"], "s")
    out["structure.is_free.reject_ratio"] = (_ratio(counters["structure.is_free.rejects"], free), "ratio")
    out["spectral.eigensolves"] = (counters["spectral.eigensolves"], "count")
    out["spectral.solves_per_pair"] = (_ratio(counters["spectral.eigensolves"], counters["spectral.pairs"]), "ratio")
    exact = {k: v for k, (v, unit) in out.items() if unit in ("count", "ratio", "B")}
    exact.update({f"{k}.calls": s["calls"] for k, s in spans.items()})
    return out, exact


def machine_info(workload: str, seed: int, seconds: int) -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphaspectral").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": dict(THREAD_ENV),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    bench = Bench(workload, seed, seconds, workdir)
    setup_s = bench.setup()
    t0 = time.perf_counter()
    traced = []
    if trace:
        before = reference_probe()
        traced = [bench.one(0, trace=True) for _ in range(2)]
    runs = bench.timed_loop(t0)
    walls = [r.wall for r in runs]
    print(f"timed runs: {len(runs)}, wall_s each: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"probe_s each: {', '.join(f'{p:.4f}' for p in bench.probes)}")
    print(f"wall_s mean = {statistics.fmean(walls)!r} s, probe_s mean = {statistics.fmean(bench.probes)!r} s")
    metrics = {}
    if not trace:
        # The speed of this shared host wanders by up to 2x over a minute.
        # The probe, timed between the runs of the same minute, slows with
        # it, so their ratio varies far less than the wall time does.
        metrics = {
            "wall_ref": (statistics.fmean(walls) / statistics.fmean(bench.probes), "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        }
    else:
        layers = [layer_metrics(spans) for _, spans in traced if spans is not None]
        if len(layers) == 2:
            (first, exact_a), (second, exact_b) = layers
            for key in sorted(set(exact_a) | set(exact_b)):
                if exact_a.get(key) != exact_b.get(key):
                    bench.errors.append(f"count {key} differs between traced runs: "
                                        f"{exact_a.get(key)} vs {exact_b.get(key)}")
            metrics = {k: ((v + second[k][0]) / 2 if unit == "s" else v, unit)
                       for k, (v, unit) in first.items()}
            # Both sides over the probes around them, as for wall_ref; the
            # untraced loop's first probe also closes the traced pair.
            traced_ref = statistics.fmean(r.wall for r, _ in traced) / statistics.fmean((before, bench.probes[0]))
            untraced_ref = statistics.fmean(walls) / statistics.fmean(bench.probes)
            metrics["trace.overhead"] = (traced_ref / untraced_ref - 1.0, "ratio")
        else:
            bench.errors.append("a traced run failed, so no per-layer numbers")
    for e in bench.errors:
        print(f"error: {e}")
    rate = bench.failed / bench.attempted
    print(f"error_rate = {rate:.6g} (failed {bench.failed} of {bench.attempted} runs)")
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the running child is killed
    # and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    if not (SRC / "alphaspectral" / "__init__.py").is_file():
        print(f"error: no alphaspectral package under {SRC}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info(args.workload, args.seed, args.seconds), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
