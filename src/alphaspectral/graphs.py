"""Dense small-graph core.

Graphs live on vertex set {0..n-1} with a hard 64-vertex cap and store one
adjacency bitmask per vertex, so neighborhood algebra is plain integer ops.
Everything is immutable; structural operations return new graphs. Vertex
compaction after deletion keeps the relative order of surviving indices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def are_twins(rows: Sequence[int], u: int, w: int) -> bool:
    """True iff u and w have the same neighbors apart from each other, so
    swapping them is an automorphism."""
    return (rows[u] ^ rows[w]) & ~((1 << u) | (1 << w)) == 0


class SizeCapError(ValueError):
    """An operation would exceed the 64-vertex dense-representation cap."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; bit v of rows[u] is set iff uv is an edge.

    Instances are built by :func:`make_graph`, the family constructors, or
    the structural operations below, all of which guarantee symmetry and
    irreflexivity of the adjacency relation.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def max_degree(self) -> int:
        return max(r.bit_count() for r in self.rows)

    def min_degree(self) -> int:
        return min(r.bit_count() for r in self.rows)

    def is_regular(self) -> bool:
        degs = self.degrees()
        return min(degs) == max(degs)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in bits(self.rows[u] >> (u + 1) << (u + 1))
        ]


def _int_at_least(value, what: str, least: int) -> int:
    """value as a plain int, or ValueError unless it is an integer >= least
    (0 or 1).

    Any integer type counts, numpy's included (``operator.index``); bool
    does not, although it is an int subclass.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least or isinstance(value, bool):
        kind = "positive" if least else "nonnegative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
    return n


def positive_int(value, what: str) -> int:
    """value as a plain int, or ValueError unless it is a positive integer."""
    return _int_at_least(value, what, 1)


def _check_order(n: int) -> int:
    n = positive_int(n, "graph order")
    if n > MAX_VERTICES:
        raise SizeCapError(f"graph order {n} exceeds the {MAX_VERTICES}-vertex cap")
    return n


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an order and an edge list; duplicates collapse."""
    n = _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u},{u}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has a vertex outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def add_edge(G: Graph, u: int, v: int) -> Graph:
    """Return a copy of G with edge uv added (no-op if already present)."""
    if u == v:
        raise ValueError("loop edge is not allowed")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError("vertex out of range")
    rows = list(G.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(G.n, tuple(rows))


def remove_edge(G: Graph, u: int, v: int) -> Graph:
    """Return a copy of G with edge uv removed."""
    if not G.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    rows = list(G.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(G.n, tuple(rows))


def join(G: Graph, H: Graph) -> Graph:
    """Disjoint union of G and H plus all cross edges."""
    n = G.n + H.n
    if n > MAX_VERTICES:
        raise SizeCapError(f"join would have {n} > {MAX_VERTICES} vertices")
    h_block = ((1 << H.n) - 1) << G.n
    g_block = (1 << G.n) - 1
    rows = [r | h_block for r in G.rows]
    rows += [(r << G.n) | g_block for r in H.rows]
    return Graph(n, tuple(rows))


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """Disjoint union; H's vertices are shifted above G's."""
    n = G.n + H.n
    if n > MAX_VERTICES:
        raise SizeCapError(f"union would have {n} > {MAX_VERTICES} vertices")
    rows = list(G.rows) + [r << G.n for r in H.rows]
    return Graph(n, tuple(rows))


def blow_up(G: Graph, p: int) -> Graph:
    """Replace each vertex by p independent copies and each edge by K_{p,p}.

    Copy i of vertex v sits at index v*p + i, so classes are contiguous
    blocks.
    """
    p = positive_int(p, "blow-up factor")
    n = p * G.n
    if n > MAX_VERTICES:
        raise SizeCapError(f"blow-up would have {n} > {MAX_VERTICES} vertices")
    block = (1 << p) - 1
    expanded = [sum(block << (v * p) for v in bits(row)) for row in G.rows]
    rows = []
    for u in range(G.n):
        rows.extend([expanded[u]] * p)
    return Graph(n, tuple(rows))


def induced_subgraph(G: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled in the given order."""
    verts = list(vertices)
    if not verts:
        raise ValueError("induced subgraph needs at least one vertex")
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        old = G.rows[v]
        for w, i in pos.items():
            if old >> w & 1:
                row |= 1 << i
        rows.append(row)
    return Graph(len(verts), tuple(rows))


def delete_vertex(G: Graph, w: int) -> Graph:
    """Delete vertex w, compacting indices but preserving their order."""
    if G.n < 2:
        raise ValueError("cannot delete the only vertex of a 1-vertex graph")
    if not (0 <= w < G.n):
        raise ValueError(f"vertex {w} out of range 0..{G.n - 1}")
    return induced_subgraph(G, [v for v in range(G.n) if v != w])


def relabel(G: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation: new vertex i is old vertex perm[i]."""
    if sorted(perm) != list(range(G.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = [0] * G.n
    for i, v in enumerate(perm):
        inv[v] = i
    rows = tuple(sum(1 << inv[v] for v in bits(G.rows[u])) for u in perm)
    return Graph(G.n, rows)


def components(G: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    seen = 0
    comps = []
    full = (1 << G.n) - 1
    for v0 in range(G.n):
        if seen >> v0 & 1:
            continue
        comp = 0
        frontier = 1 << v0
        while frontier:
            comp |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= G.rows[v]
            frontier = nxt & ~comp & full
        seen |= comp
        comps.append(list(bits(comp)))
    return comps


def is_connected(G: Graph) -> bool:
    return len(components(G)) == 1


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    n = _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    n = _check_order(n)
    return Graph(n, (0,) * n)


def path(n: int) -> Graph:
    n = _check_order(n)
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    n = _check_order(n)
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(k: int) -> Graph:
    """K_{1,k}: one center joined to k leaves."""
    return join(complete(1), empty_graph(positive_int(k, "star leaf count")))


def matching(k: int) -> Graph:
    """M_k: k pairwise disjoint edges on 2k vertices."""
    k = positive_int(k, "matching edge count")
    _check_order(2 * k)
    return make_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def complete_bipartite(a: int, b: int) -> Graph:
    a, b = positive_int(a, "part size"), positive_int(b, "part size")
    return join(empty_graph(a), empty_graph(b))


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with near-equal parts.

    Parts are the residue classes of the vertex index mod r, so the larger
    parts come first and sizes differ by at most one.
    """
    n = _check_order(n)
    r = positive_int(r, "turan part count")
    if r > n:
        raise ValueError(f"turan graph needs 1 <= r <= n, got r={r}, n={n}")
    rows = []
    for u in range(n):
        row = 0
        for v in range(n):
            if v != u and v % r != u % r:
                row |= 1 << v
        rows.append(row)
    return Graph(n, tuple(rows))


def split(n: int, k: int) -> Graph:
    """K_k joined to an independent set of n-k vertices."""
    n = _check_order(n)
    k = _int_at_least(k, "split clique size", 0)
    if k > n:
        raise ValueError(f"split graph needs 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return empty_graph(n)
    if k == n:
        return complete(n)
    return join(complete(k), empty_graph(n - k))


def split_plus(n: int, k: int) -> Graph:
    """Split graph with one extra edge planted in the independent part."""
    n = _check_order(n)
    k = _int_at_least(k, "split clique size", 0)
    if n < k + 2:
        raise ValueError(f"split-plus graph needs n >= k+2 and k >= 0, got k={k}, n={n}")
    inner = disjoint_union(complete(2), empty_graph(n - k - 2)) if n > k + 2 else complete(2)
    if k == 0:
        return inner
    return join(complete(k), inner)


def book(r: int, k: int) -> Graph:
    """K_r joined to an independent set of k vertices."""
    r, k = positive_int(r, "book clique size"), positive_int(k, "book page count")
    return join(complete(r), empty_graph(k))


def wheel(n: int) -> Graph:
    """Even wheel: a hub joined to an odd cycle on n-1 vertices."""
    n = _check_order(n)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"wheel order must be even and at least 4, got {n}")
    return join(complete(1), cycle(n - 1))


FAMILY_TAGS = {
    "complete": (complete, 1),
    "empty": (empty_graph, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
    "matching": (matching, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "turan": (turan, 2),
    "split": (split, 2),
    "split_plus": (split_plus, 2),
    "book": (book, 2),
    "wheel": (wheel, 1),
}


def generate(spec: str) -> Graph:
    """Build a named-family graph from a "tag:param[:param]" string."""
    parts = spec.strip().split(":")
    tag = parts[0]
    if tag not in FAMILY_TAGS:
        known = ", ".join(sorted(FAMILY_TAGS))
        raise ValueError(f"unknown family tag {tag!r} (known: {known})")
    fn, arity = FAMILY_TAGS[tag]
    if len(parts) - 1 != arity:
        raise ValueError(f"family tag {tag!r} takes {arity} parameter(s), got {len(parts) - 1}")
    try:
        params = [int(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"family parameters must be integers: {spec!r}") from None
    return fn(*params)
