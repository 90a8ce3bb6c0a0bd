"""Exact combinatorial predicates: coloring, criticality, containment.

Chromatic numbers come from saturation-guided branch and bound between a
greedy clique lower bound and a greedy upper bound, so every answer is
exact. Subgraph containment is not-necessarily-induced. One backtracking
generator, ``_maps``, places F's vertices in a plan's order with degree
and neighborhood-bitmask pruning, which is ample for the tiny pattern
graphs handled here, and yields every complete map. It both decides
containment and lists copies: ``contains_subgraph`` takes the first map
through each G-edge in turn, each edge deleted once it is done, and class
enumeration lists the copies of each F - x up to swaps of twins of F
(``_deletion_plans``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, are_twins, bits, components, delete_vertex, induced_subgraph, remove_edge


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


def _plan(F: Graph, head: Sequence[int]) -> tuple:
    """A vertex order of F that starts with head, back[i] (the earlier
    positions adjacent to position i) and need[i] (the degree there). Each
    later position takes the vertex with the most neighbours placed, which
    cuts its candidates by their rows, then the one of highest degree."""
    f_deg = F.degrees()
    order = list(head)
    rest = sorted((v for v in range(F.n) if v not in head), key=lambda v: (-f_deg[v], v))
    while rest:
        placed = sum(1 << v for v in order)
        order.append(max(rest, key=lambda v: (F.rows[v] & placed).bit_count()))
        rest.remove(order[-1])
    back = tuple(tuple(j for j in range(i) if F.has_edge(order[i], order[j])) for i in range(F.n))
    return order, back, tuple(f_deg[v] for v in order)


def _first_twin(F: Graph, v: int, other: int = -1) -> bool:
    """True iff no vertex below v, other than other, is a twin of v."""
    return not any(are_twins(F.rows, v, w) for w in range(v) if w != other)


@lru_cache(maxsize=256)
def _search_plans(F: Graph) -> tuple:
    """F's edge count, its maximum degree and its distinct edge-rooted
    plans: (back, need) of _plan, and after, which puts no order on twins.

    The first two positions hold the ends of an F-edge, which a caller maps
    to the ends of a G-edge. There is one plan per F-edge (x, y), taken in
    both directions, where x is the first member of its twin class and y the
    first member of its class other than x. Twins give the same answer,
    because swapping them is an automorphism of F; a copy through (x', y')
    becomes one through (x, y) by swapping x' for x and then the image of y'
    for y, which fixes x. Plans that come out the same are kept once.
    """
    heads = [(x, y) for x in range(F.n) if _first_twin(F, x) for y in bits(F.rows[x]) if _first_twin(F, y, x)]
    plans = {_plan(F, head)[1:] + ((-1,) * F.n,): None for head in heads}
    f_deg = F.degrees()
    return sum(f_deg) // 2, max(f_deg), tuple(plans)


@lru_cache(maxsize=256)
def _deletion_plans(F: Graph) -> tuple:
    """The distinct plans for copies of F - x, one per vertex x of F up to
    twins (swapping twins is an automorphism of F): (back, need, after) of a
    _plan of F - x and at, the positions in it of x's neighbours. after[i],
    the last earlier position of a twin in F or -1, has _maps place each
    twin class in ascending order; twins other than x lie on the same side
    of N(x), so the image sets of N(x) stay the same."""
    plans = {}
    for x in range(F.n):
        if _first_twin(F, x):
            order, back, need = _plan(delete_vertex(F, x), ())
            f = [v + (v >= x) for v in order]  # the same vertices in F
            after = [max((j for j in range(i) if are_twins(F.rows, v, f[j])), default=-1) for i, v in enumerate(f)]
            plans[back, need, tuple(after), tuple(i for i, v in enumerate(f) if F.has_edge(x, v))] = None
    return tuple(plans)


def _maps(rows, degs, back, need, after, images: list[int], i: int, avail: int) -> Iterator[list[int]]:
    """Yield images each time it holds a complete map: the F-vertices at
    plan positions i.. placed on avail vertices of at least their degrees,
    each adjacent to the images of its earlier neighbours and above the
    image of position after[i] when that is not -1; images[:i] holds the
    positions placed so far. The list is reused for every map."""
    if i == len(need):
        yield images
        return
    cand = avail
    for j in back[i]:
        cand &= rows[images[j]]
    if after[i] >= 0:
        cand &= -2 << images[after[i]]
    for g in bits(cand):
        if degs[g] >= need[i]:
            images[i] = g
            yield from _maps(rows, degs, back, need, after, images, i + 1, avail & ~(1 << g))


def contains_subgraph(G: Graph, F: Graph) -> bool:
    """True iff some injective map V(F) -> V(G) sends every F-edge to a G-edge.

    G's edges are taken in order, and a copy of F through each is looked
    for. When there is none, the edge is deleted before the next is tried:
    every copy that is left lies in G without it.
    """
    if F.n > G.n:
        return False
    f_edges, f_top, plans = _search_plans(F)
    if f_edges == 0:
        return True
    degs = G.degrees()
    if f_edges > sum(degs) // 2 or f_top > max(degs):
        return False
    rows = list(G.rows)
    for a in range(G.n):
        for b in bits(rows[a] >> a + 1 << a + 1):
            if _through_edge(rows, degs, plans, a, b):
                return True
            rows[a] &= ~(1 << b)
            rows[b] &= ~(1 << a)
            degs[a] -= 1
            degs[b] -= 1
    return False


def _through_edge(rows: Sequence[int], degs: Sequence[int], plans, a: int, b: int) -> bool:
    """True iff some copy of F (not necessarily induced) in the graph with
    these adjacency rows and vertex degrees uses its edge ab, for an F of at
    most len(rows) vertices with these edge-rooted plans (_search_plans(F)[2]).
    This decides containment when the graph less the edge ab is F-free.
    """
    images = [a, b] + [0] * (len(rows) - 2)
    avail = (1 << len(rows)) - 1 & ~(1 << a | 1 << b)
    for back, need, after in plans:
        if degs[a] >= need[0] and degs[b] >= need[1]:
            if next(_maps(rows, degs, back, need, after, images, 2, avail), None) is not None:
                return True
    return False


def is_free(G: Graph, family) -> bool:
    """True iff G contains no member of the family as a subgraph."""
    fam = as_family(family)
    return not any(contains_subgraph(G, F) for F in fam.members)

