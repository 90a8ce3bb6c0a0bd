"""Exact combinatorial predicates: coloring, criticality, containment.

Chromatic numbers come from saturation-guided branch and bound between a
greedy clique lower bound and a greedy upper bound, so every answer is
exact. Subgraph containment is not-necessarily-induced and uses plain
backtracking with degree and neighborhood-bitmask pruning, which is ample
for the tiny pattern graphs handled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, bits, components, induced_subgraph, remove_edge


@dataclass(frozen=True, slots=True)
class ForbiddenFamily:
    """A nonempty set of forbidden subgraphs with its cached chromatic number."""

    members: tuple[Graph, ...]
    chi: int


def forbidden_family(members: Iterable[Graph]) -> ForbiddenFamily:
    mems = tuple(members)
    if not mems:
        raise ValueError("forbidden family must be nonempty")
    for F in mems:
        if F.edge_count == 0:
            raise ValueError("forbidden family members must have at least one edge")
    return ForbiddenFamily(mems, min(chromatic_number(F) for F in mems))


def as_family(family) -> ForbiddenFamily:
    """Coerce a ForbiddenFamily, a Graph, or an iterable of Graphs."""
    if isinstance(family, ForbiddenFamily):
        return family
    if isinstance(family, Graph):
        return forbidden_family((family,))
    return forbidden_family(tuple(family))


def _greedy_clique(G: Graph) -> list[int]:
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    mask = 0
    members = []
    for v in order:
        if G.rows[v] & mask == mask:
            members.append(v)
            mask |= 1 << v
    return members


def _dsatur_upper(G: Graph) -> int:
    n = G.n
    colors = [-1] * n
    nbr_colors = [0] * n
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (nbr_colors[u].bit_count(), G.degree(u), -u),
        )
        c = 0
        while nbr_colors[v] >> c & 1:
            c += 1
        colors[v] = c
        for w in bits(G.rows[v]):
            nbr_colors[w] |= 1 << c
    return max(colors) + 1


def _colorable(G: Graph, k: int) -> bool:
    n = G.n
    colors = [-1] * n

    def place(count: int, max_used: int) -> bool:
        if count == n:
            return True
        best_v, best_key = -1, None
        for u in range(n):
            if colors[u] >= 0:
                continue
            forb = 0
            for w in bits(G.rows[u]):
                if colors[w] >= 0:
                    forb |= 1 << colors[w]
            key = (forb.bit_count(), G.degree(u))
            if best_key is None or key > best_key:
                best_v, best_key, best_forb = u, key, forb
        # allow at most one previously unused color to break symmetry
        limit = min(k, max_used + 2)
        for c in range(limit):
            if best_forb >> c & 1:
                continue
            colors[best_v] = c
            if place(count + 1, max(max_used, c)):
                return True
            colors[best_v] = -1
        return False

    return place(0, -1)


def chromatic_number(G: Graph) -> int:
    """Exact minimum number of colors in a proper coloring."""
    best = 1
    for comp in components(G):
        if len(comp) == 1:
            continue
        sub = induced_subgraph(G, comp)
        lb = len(_greedy_clique(sub))
        ub = _dsatur_upper(sub)
        val = ub
        for k in range(lb, ub):
            if _colorable(sub, k):
                val = k
                break
        best = max(best, val)
    return best


def is_color_critical(G: Graph) -> bool:
    """True iff some single edge deletion lowers the chromatic number."""
    if G.edge_count == 0:
        raise ValueError("color-criticality is undefined for edgeless graphs")
    chi = chromatic_number(G)
    for u, v in G.edges():
        if chromatic_number(remove_edge(G, u, v)) < chi:
            return True
    return False


def contains_subgraph(G: Graph, F: Graph) -> bool:
    """True iff some injective map V(F) -> V(G) sends every F-edge to a G-edge."""
    nG, nF = G.n, F.n
    if nF > nG:
        return False
    if F.edge_count == 0:
        return True
    if F.edge_count > G.edge_count:
        return False
    f_deg = F.degrees()
    g_deg = G.degrees()
    if max(f_deg) > max(g_deg):
        return False
    order = sorted(range(nF), key=lambda v: (-f_deg[v], v))
    back = [
        [j for j in range(i) if F.has_edge(order[i], order[j])]
        for i in range(nF)
    ]
    images = [0] * nF

    def extend(i: int, used: int) -> bool:
        if i == nF:
            return True
        need = f_deg[order[i]]
        req = 0
        for j in back[i]:
            req |= 1 << images[j]
        for g in range(nG):
            bit = 1 << g
            if used & bit or g_deg[g] < need or req & ~G.rows[g]:
                continue
            images[i] = g
            if extend(i + 1, used | bit):
                return True
        return False

    return extend(0, 0)


def is_free(G: Graph, family) -> bool:
    """True iff G contains no member of the family as a subgraph."""
    fam = as_family(family)
    return not any(contains_subgraph(G, F) for F in fam.members)


def is_r_partite(G: Graph, r: int) -> bool:
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    return chromatic_number(G) <= r
