"""Correctness checks for the benchmark's outputs.

Every reference here is computed without alphaspectral: graph6 is decoded
and encoded from the format's definition, alpha matrices are built from
the decoded adjacency, and class counts are pinned to OEIS. Each check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Triangle-free graphs on 9 vertices, OEIS A006785.
TRIANGLE_FREE_9 = 1897
# K4-free graphs on 8 vertices.
K4_FREE_8 = 6431
# Graphs on 1..7 vertices, partial sum of OEIS A000088: 1+2+4+11+34+156+1044.
GRAPHS_UP_TO_7 = 1252

OPTIMUM_TOL = 1e-9
# tie_tol of spectral_extremal plus room for a different LAPACK call order.
ARGMAX_TOL = 1e-9 + 1e-12


def decode_g6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Order and edge set (u < v) of a graph6 string."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        c = ord(ch) - 63
        bits.extend((c >> (5 - k)) & 1 for k in range(6))
    edges = set()
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.add((u, v))
            i += 1
    return n, edges


def encode_g6(n: int, edges: set[tuple[int, int]]) -> str:
    bits = [int((u, v) in edges) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])) + 63)
        for i in range(0, len(bits), 6)
    )
    return chr(n + 63) + body


def complete_bipartite_edges(a: int, b: int) -> set[tuple[int, int]]:
    return {(u, v) for u in range(a) for v in range(a, a + b)}


def k45_key() -> str:
    """Canonical key of K_{4,5}.

    The canonical labeling ranks vertices by ascending degree and takes the
    smallest bit string among labelings consistent with that ranking. In
    K_{4,5} all such labelings put the five degree-4 vertices first and
    give the same string, so the key is the graph6 of that labeling.
    """
    return encode_g6(9, complete_bipartite_edges(5, 4))


def alpha_matrix(n: int, edges: set[tuple[int, int]], alpha: float) -> np.ndarray:
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0 - alpha
    A[np.diag_indices(n)] = alpha * (A > 0).sum(axis=1)
    return A


def radius(n: int, edges: set[tuple[int, int]], alpha: float) -> float:
    return float(np.linalg.eigvalsh(alpha_matrix(n, edges, alpha))[-1])


def k45_radius(a: float) -> float:
    return (9 * a + math.sqrt(81 * a * a + 80 * (1 - 2 * a))) / 2


def _has_k4(n: int, edges: set[tuple[int, int]]) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(
        len(adj[u] & adj[v] & adj[w]) > 0
        for u, v in edges
        for w in adj[u] & adj[v]
    )


def _sweep_lower_bounds() -> list[tuple[int, set[tuple[int, int]]]]:
    """K4-free graphs on 8 vertices the optimum can never be below:
    T(8,3) = K_{3,3,2} and K_1 joined with K_{3,4}."""
    parts = [range(0, 3), range(3, 6), range(6, 8)]
    t83 = {(u, v) for i, p in enumerate(parts) for q in parts[i + 1:] for u in p for v in q}
    join = {(0, v) for v in range(1, 8)} | {(u + 1, v + 1) for u, v in complete_bipartite_edges(3, 4)}
    return [(8, t83), (8, join)]


def check_search_cold(stdout: str, alpha: float) -> str | None:
    rec = json.loads(stdout)
    if rec["classes_searched"] != TRIANGLE_FREE_9:
        return f"classes_searched {rec['classes_searched']} != {TRIANGLE_FREE_9}"
    if rec["n"] != 9 or rec["alpha"] != alpha:
        return f"echoed n={rec['n']} alpha={rec['alpha']!r}, asked 9 and {alpha!r}"
    if rec["argmax"] != [k45_key()]:
        return f"argmax {rec['argmax']} != [{k45_key()}]"
    n, edges = decode_g6(rec["argmax"][0])
    if (n, edges) != (9, complete_bipartite_edges(5, 4)):
        return "argmax does not decode to K_{4,5}"
    want = k45_radius(alpha)
    if abs(rec["optimum"] - want) > OPTIMUM_TOL:
        return f"optimum {rec['optimum']!r} != {want!r} at alpha={alpha!r}"
    return None


def check_sweep_warm(stdout: str, alphas: list[float]) -> str | None:
    records = json.loads(stdout)
    if [r["alpha"] for r in records] != alphas:
        return "records do not match the requested alphas"
    floors = _sweep_lower_bounds()
    for rec in records:
        a = rec["alpha"]
        if rec["classes_searched"] != K4_FREE_8:
            return f"classes_searched {rec['classes_searched']} != {K4_FREE_8} at alpha={a!r}"
        if not rec["argmax"]:
            return f"empty argmax at alpha={a!r}"
        for key in rec["argmax"]:
            n, edges = decode_g6(key)
            if n != 8 or _has_k4(n, edges):
                return f"argmax {key} is not a K4-free graph on 8 vertices"
            if abs(radius(n, edges, a) - rec["optimum"]) > ARGMAX_TOL:
                return f"argmax {key} radius differs from optimum {rec['optimum']!r} at alpha={a!r}"
        for n, edges in floors:
            if radius(n, edges, a) > rec["optimum"] + OPTIMUM_TOL:
                return f"optimum {rec['optimum']!r} below a known K4-free graph at alpha={a!r}"
    return None


def check_battery(stdout: str, alphas: list[float]) -> str | None:
    rep = json.loads(stdout)
    if rep["alphas"] != alphas or rep["n_max"] != 7:
        return f"echoed n_max={rep['n_max']} alphas={rep['alphas']}, asked 7 and {alphas}"
    if rep["passed"] is not True or rep["failures"]:
        return f"battery did not pass: {len(rep['failures'])} failures"
    got = rep["counts"]["degree-square-lower"]["pass"]
    want = GRAPHS_UP_TO_7 * len(alphas)
    if got != want:
        return f"degree-square-lower passes {got} != {want}"
    return None
