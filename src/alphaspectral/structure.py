"""Exact combinatorial predicates: coloring, criticality, containment.

A chromatic number is the most colours any component needs, each found
exactly by one DSATUR branch and bound (``_fewest_colors``). Subgraph
containment is not-necessarily-induced. One backtracking generator,
``_maps``, places F's vertices in a plan's order with degree and
neighborhood-bitmask pruning, which is ample for the tiny pattern graphs
handled here, and yields every complete map with each twin class of F
placed in ascending order. It both decides containment and lists copies:
``contains_subgraph`` takes the first map of one plan of F
(``_copy_plan``), and class enumeration lists the copies of each F - x
through the deletion plans (``_deletion_plans``).
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


def _fewest_colors(G: Graph) -> int:
    """The fewest colours of a proper colouring of G, by DSATUR branch and
    bound (Brélaz, Comm. ACM 22, 1979): colour next the uncoloured vertex with
    the most distinct neighbour colours, then the highest degree, then the
    lowest index, in each colour it may take, opening the next new one only
    while fewer than best - 1 are in use. The first complete colouring is
    greedy DSATUR's; each later one lowers best. Each branch gets a fresh
    list of neighbour-colour masks, so nothing is undone."""
    rows, best = G.rows, G.n + 1
    tie = [d << 7 | 127 - u for u, d in enumerate(G.degrees())]  # degree, then low index: n <= 64 fits 7 bits

    def place(left: int, forb: list[int], used: int) -> None:
        nonlocal best
        if not left:
            best = used
            return
        v = max(bits(left), key=lambda u: forb[u].bit_count() << 14 | tie[u])
        for c in range(used + 1):
            if max(used, c + 1) >= best:
                return
            if forb[v] >> c & 1:
                continue
            nxt = forb.copy()
            for w in bits(rows[v] & left):
                nxt[w] |= 1 << c
            place(left & ~(1 << v), nxt, max(used, c + 1))

    place((1 << G.n) - 1, [0] * G.n, 0)
    return best


def chromatic_number(G: Graph) -> int:
    """Exact minimum number of colors in a proper coloring: the most any component needs."""
    return max(_fewest_colors(induced_subgraph(G, comp)) for comp in components(G))


def is_color_critical(G: Graph) -> bool:
    """True iff some single edge deletion lowers the chromatic number."""
    if G.edge_count == 0:
        raise ValueError("color-criticality is undefined for edgeless graphs")
    chi = chromatic_number(G)
    for u, v in G.edges():
        if chromatic_number(remove_edge(G, u, v)) < chi:
            return True
    return False


def _plan(F: Graph) -> tuple:
    """A vertex order of F, back[i] (the earlier positions adjacent to
    position i) and need[i] (the degree there). Each position takes the
    vertex with the most neighbours placed, which cuts its candidates by
    their rows, then the one of highest degree."""
    f_deg = F.degrees()
    order = []
    rest = sorted(range(F.n), key=lambda v: (-f_deg[v], v))
    while rest:
        placed = sum(1 << v for v in order)
        order.append(max(rest, key=lambda v: (F.rows[v] & placed).bit_count()))
        rest.remove(order[-1])
    back = tuple(tuple(j for j in range(i) if F.has_edge(order[i], order[j])) for i in range(F.n))
    return order, back, tuple(f_deg[v] for v in order)


def _first_twin(F: Graph, v: int) -> bool:
    """True iff no vertex below v is a twin of v."""
    return not any(are_twins(F.rows, v, w) for w in range(v))


def _twin_after(F: Graph, order: Sequence[int]) -> tuple:
    """after[i] for these vertices of F in plan order: the last earlier
    position of a twin of order[i] in F, or -1. It has _maps place each twin
    class in ascending order, which loses no copy: permuting twins is an
    automorphism of F, so any map can be sorted within each class."""
    return tuple(max((j for j in range(i) if are_twins(F.rows, v, order[j])), default=-1) for i, v in enumerate(order))


@lru_cache(maxsize=256)
def _copy_plan(F: Graph) -> tuple:
    """(back, need, after) for copies of F: _plan(F) and its _twin_after."""
    order, back, need = _plan(F)
    return back, need, _twin_after(F, order)


@lru_cache(maxsize=256)
def _deletion_plans(F: Graph) -> tuple:
    """The distinct plans for copies of F - x, one per vertex x of F up to
    twins (swapping twins is an automorphism of F): (back, need, after) of a
    _plan of F - x, with after from _twin_after in F, and at, the positions
    in it of x's neighbours. Twins other than x lie on the same side of
    N(x), so ordering them keeps every image set of N(x)."""
    plans = {}
    for x in range(F.n):
        if _first_twin(F, x):
            order, back, need = _plan(delete_vertex(F, x))
            f = [v + (v >= x) for v in order]  # the same vertices in F
            plans[back, need, _twin_after(F, f), tuple(i for i, v in enumerate(f) if F.has_edge(x, v))] = None
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
    """True iff some injective map V(F) -> V(G) sends every F-edge to a
    G-edge: whether _maps yields a map on F's _copy_plan."""
    if F.n > G.n:
        return False
    back, need, after = _copy_plan(F)
    return next(_maps(G.rows, G.degrees(), back, need, after, [0] * F.n, 0, (1 << G.n) - 1), None) is not None


def is_free(G: Graph, family) -> bool:
    """True iff G contains no member of the family as a subgraph."""
    fam = as_family(family)
    return not any(contains_subgraph(G, F) for F in fam.members)

