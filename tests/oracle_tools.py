"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw bitmask row tuples over all labeled graphs,
deliberately avoiding the library's enumeration/search code paths so that
the dual-route checks stay meaningful. The one exception is
`reference_class_bits`, the plain generation algorithm kept as the
reference for the pruned one: it reuses the library's canonical labeling
and unrooted freeness test, but none of the prunes.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np


def all_labeled_rows(n: int):
    """Yield the adjacency rows of every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield tuple(rows)


def naive_triangle_free(rows, n: int) -> bool:
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u] >> v & 1 and rows[u] & rows[v]:
                return False
    return True


def naive_has_two_disjoint_edges(rows, n: int) -> bool:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4:
            return True
    return False


def naive_copy_vertices(rows, n: int, f_rows, nf: int) -> int:
    """Mask of the vertices used by some copy of F (not necessarily induced),
    found by trying every injective map V(F) -> V(G)."""
    f_edges = [(a, b) for a in range(nf) for b in range(a + 1, nf) if f_rows[a] >> b & 1]
    used = 0
    for image in permutations(range(n), nf):
        if all(rows[image[a]] >> image[b] & 1 for a, b in f_edges):
            for v in image:
                used |= 1 << v
    return used


def reference_class_bits(n_max: int, family=None) -> dict[int, list[int]]:
    """Canonical bits of the classes on 1..n_max vertices, ascending, by
    plain vertex augmentation: every parent tries every mask and each child
    gets a full freeness test."""
    from alphaspectral.enumeration import canonical_bits
    from alphaspectral.graph6 import graph_from_bits
    from alphaspectral.graphs import Graph
    from alphaspectral.structure import is_free

    levels = {1: [0]}
    for n in range(2, n_max + 1):
        nb = n - 1
        seen = set()
        for parent in levels[nb]:
            prows = graph_from_bits(nb, parent).rows
            for mask in range(1 << nb):
                rows = tuple(prows[u] | (mask >> u & 1) << nb for u in range(nb)) + (mask,)
                if family is None or is_free(Graph(n, rows), family):
                    seen.add(canonical_bits(n, rows))
        levels[n] = sorted(seen)
    return levels


def rows_to_alpha_matrix(rows, n: int, alpha: float) -> np.ndarray:
    A = np.zeros((n, n))
    for u in range(n):
        A[u, u] = alpha * bin(rows[u]).count("1")
        for v in range(n):
            if u != v and rows[u] >> v & 1:
                A[u, v] = 1 - alpha
    return A


def naive_lambda(rows, n: int, alpha: float) -> float:
    return float(np.linalg.eigvalsh(rows_to_alpha_matrix(rows, n, alpha))[-1])


def brute_max_lambda(n: int, alpha: float, admit) -> float:
    """Maximum top eigenvalue over all labeled graphs passing admit(rows, n)."""
    best = -np.inf
    for rows in all_labeled_rows(n):
        if admit(rows, n):
            best = max(best, naive_lambda(rows, n, alpha))
    return best


def brute_max_edges(n: int, admit) -> int:
    best = -1
    for rows in all_labeled_rows(n):
        if admit(rows, n):
            best = max(best, sum(bin(r).count("1") for r in rows) // 2)
    return best
