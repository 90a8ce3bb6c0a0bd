"""Per-layer tracing of alphaspectral from outside the package.

`install()` replaces the module-level functions listed in TARGETS with
timing wrappers. A function is replaced at every module attribute that is
bound to it, because callers resolve names in their own module's globals
(`verifier.lambda_alpha` and `spectral.lambda_alpha` are separate bindings
of one function). Each wrapper records calls, inclusive time and self time
(inclusive time minus the inclusive time of wrapped children), plus a few
work counters taken from arguments and results. Nothing inside the package
is edited, and a target the package no longer defines is skipped.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# Per-graph checks of the battery: their (graph, alpha) arguments are the
# pairs that spectral.solves_per_pair divides by.
PAIR_CHECKS = (
    "check_sandwich",
    "check_lower_bounds",
    "_check_regularity_equality",
    "check_deletion",
    "check_min_entry_upper",
    "check_entry_bound",
)

TARGETS = {
    "cli": ("main",),
    "enumeration": ("canonical_bits", "enumerate_graphs"),
    "structure": ("is_free", "contains_subgraph"),
    "spectral": ("alpha_matrix", "lambda_alpha", "lambda_alpha_many", "spectral_radius"),
    "graph6": ("encode_graph6", "decode_graph6"),
    "extremal": ("spectral_extremal",),
    "verifier": (
        "run_battery",
        *PAIR_CHECKS,
        "check_turan_bound",
        "check_edge_count_turan",
        "check_degree_stability",
        "check_log_inequalities",
    ),
}

GENERATORS = frozenset({"enumeration.enumerate_graphs"})


class Tracer:
    """Span accumulators keyed by (layer.function, binding module)."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}
        self.counters = {
            "enumeration.enumerate_graphs.yielded": 0,
            "structure.is_free.rejects": 0,
            "spectral.eigensolves": 0,
        }
        self.pairs: set = set()
        self.batched_pairs = 0
        self._stack: list[float] = []

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _leave(self, slot: list, t0: float) -> None:
        dt = perf_counter() - t0
        children = self._stack.pop()
        slot[1] += dt
        slot[2] += dt - children
        if self._stack:
            self._stack[-1] += dt

    def _observe(self, key: str, args, result) -> None:
        if key == "structure.is_free":
            if result is False:
                self.counters["structure.is_free.rejects"] += 1
        elif key == "spectral.lambda_alpha":
            self.counters["spectral.eigensolves"] += 1
        elif key == "spectral.spectral_radius":
            self.counters["spectral.eigensolves"] += getattr(result, "iterations", 1)
        elif key == "spectral.lambda_alpha_many":
            self.counters["spectral.eigensolves"] += len(args[0])
            self.batched_pairs += len(args[0])
        elif key.startswith("verifier.") and key.split(".", 1)[1] in PAIR_CHECKS:
            G, alpha = args[0], args[1]
            self.pairs.add((G.n, G.rows, float(alpha)))

    def wrap(self, key: str, binding: str, fn):
        slot = self.spans.setdefault((key, binding), [0, 0.0, 0.0])

        if key in GENERATORS:
            def traced_gen(*args, **kwargs):
                slot[0] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = self._enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._leave(slot, t0)
                        self.counters["enumeration.enumerate_graphs.yielded"] += 1
                        yield item
                finally:
                    inner.close()

            return traced_gen

        def traced(*args, **kwargs):
            if key == "spectral.lambda_alpha_many":
                args = (list(args[0]),) + args[1:]
            slot[0] += 1
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(slot, t0)
            self._observe(key, args, result)
            return result

        return traced

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"alphaspectral.{layer}") for layer in TARGETS}
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "alphaspectral" or name.startswith("alphaspectral.")]
        for layer, names in TARGETS.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                key = f"{layer}.{name}"
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, self.wrap(key, mod.__name__, original))

    def dump(self, path: str) -> None:
        totals: dict[str, list] = {}
        bindings = {}
        for (key, binding), (calls, incl, self_s) in self.spans.items():
            t = totals.setdefault(key, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += self_s
            bindings[f"{key}@{binding}"] = {"calls": calls, "incl_s": incl, "self_s": self_s}
        payload = {
            "spans": {k: {"calls": c, "incl_s": i, "self_s": s} for k, (c, i, s) in totals.items()},
            "bindings": bindings,
            "counters": dict(self.counters, **{"spectral.pairs": len(self.pairs) + self.batched_pairs}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer
