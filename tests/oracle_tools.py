"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw bitmask row tuples over all labeled graphs,
deliberately avoiding the library's enumeration/search code paths so that
the dual-route checks stay meaningful. `triangle_bits`, `graph_from_bits`
and `bits_to_graph6` are the scalar big-integer graph6 codec, kept as the
reference for the library's array codec; every key below is written by it.
`canonical_bits` is the scalar individualization-refinement search, one
graph at a time in plain Python, kept as the reference for the batched
labeler, and `reference_key` is its graph6 key: every oracle below that
needs a canonical key takes it from there. `reference_class_bits` is the
plain generation algorithm kept as the reference for the pruned one: it
reuses the library's unrooted freeness test, but none of the prunes.
Likewise `full_spectral_extremal` is the plain search kept as the reference for
the pruned `spectral_extremal`, `reference_radius_bounds` the float
power steps on alpha matrices kept as the reference for the bounds
evaluated from their coefficients in alpha, `reference_spectral_radius` the
one-eigh-per-component solve kept as the reference for the stacked one,
and `reference_check_graph` the report-by-report evaluation of the
per-graph checks kept as the reference for the battery's columns;
`reference_chromatic_number` counts colourings by inclusion-exclusion over
vertex subsets, as the reference for structure's backtracking colourer.
`relabel`, `add_edge` and `canonical_graph` are small graph helpers that
only tests need.
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


def triangle_bits(rows, order) -> int:
    """Upper-triangle adjacency bits as an integer, first bit most
    significant, read column-major: x(0,1), x(0,2), x(1,2), x(0,3), ...
    The graph is read relabeled so that new vertex i is old vertex order[i]."""
    val = 0
    for v in range(1, len(order)):
        rv = rows[order[v]]
        for u in order[:v]:
            val = (val << 1) | (rv >> u & 1)
    return val


def graph_from_bits(n: int, bits: int):
    """Inverse of `triangle_bits` for a given order."""
    from alphaspectral.graphs import Graph

    rows = [0] * n
    idx = n * (n - 1) // 2
    for v in range(1, n):
        for u in range(v):
            idx -= 1
            if bits >> idx & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def bits_to_graph6(n: int, bits: int) -> str:
    """graph6 of the order-n graph with these `triangle_bits`: the order byte
    n + 63, then the bits zero-padded to a multiple of six and read six at a
    time, each group offset by 63."""
    total = n * (n - 1) // 2
    groups = (total + 5) // 6
    shifted = bits << (groups * 6 - total)
    return chr(n + 63) + "".join(chr((shifted >> 6 * (groups - 1 - i) & 0x3F) + 63) for i in range(groups))


def reference_graph6(G) -> str:
    """graph6 of G by the reference codec above."""
    return bits_to_graph6(G.n, triangle_bits(G.rows, range(G.n)))


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


def naive_copy_edges(rows, n: int, f_rows, nf: int) -> set:
    """The edges {u, v} used by some copy of F (not necessarily induced),
    found by trying every injective map V(F) -> V(G)."""
    f_edges = [(a, b) for a in range(nf) for b in range(a + 1, nf) if f_rows[a] >> b & 1]
    used = set()
    for image in permutations(range(n), nf):
        if all(rows[image[a]] >> image[b] & 1 for a, b in f_edges):
            used.update(frozenset((image[a], image[b])) for a, b in f_edges)
    return used


def relabel(G, perm):
    """Apply a permutation: new vertex i is old vertex perm[i]."""
    from alphaspectral.graphs import Graph, bits

    if sorted(perm) != list(range(G.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = [0] * G.n
    for i, v in enumerate(perm):
        inv[v] = i
    rows = tuple(sum(1 << inv[v] for v in bits(G.rows[u])) for u in perm)
    return Graph(G.n, rows)


def add_edge(G, u: int, v: int):
    """Return a copy of G with edge uv added (no-op if already present)."""
    from alphaspectral.graphs import Graph

    if u == v:
        raise ValueError("loop edge is not allowed")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError("vertex out of range")
    rows = list(G.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(G.n, tuple(rows))


def _refine(n: int, rows: tuple[int, ...], colors: list[int]):
    """Equitable refinement; returns stable colors and per-color masks.

    Each round ranks the vertices by the tuple (old color, neighbour count
    in each cell), so the old color sorts first; a vertex alone in its cell
    keeps its rank, so its counts are not taken.
    """
    while True:
        k = max(colors) + 1
        masks = [0] * k
        for v in range(n):
            masks[colors[v]] |= 1 << v
        if k == n:
            return colors, masks
        sigs = [
            (c, tuple((rows[v] & m).bit_count() for m in masks)) if masks[c] & masks[c] - 1 else (c,)
            for v, c in enumerate(colors)
        ]
        distinct = sorted(set(sigs))
        if len(distinct) == k:
            return colors, masks
        rank = {s: i for i, s in enumerate(distinct)}
        colors = [rank[s] for s in sigs]


def canonical_bits(n: int, rows: tuple[int, ...]) -> int:
    """Minimum upper-triangle bit string over the labelings that the search
    explores: refine from the degree ranks, then branch on each vertex of
    the first non-singleton cell that is not a twin of one already tried."""
    from alphaspectral.graphs import are_twins

    if n <= 1:
        return 0
    degs = [rows[v].bit_count() for v in range(n)]
    drank = {d: i for i, d in enumerate(sorted(set(degs)))}
    best = None

    def search(colors: list[int]) -> None:
        nonlocal best
        colors, masks = _refine(n, rows, colors)
        k = len(masks)
        if k == n:
            order = [0] * n
            for v in range(n):
                order[colors[v]] = v
            cand = triangle_bits(rows, order)
            if best is None or cand < best:
                best = cand
            return
        cells = [[] for _ in range(k)]
        for v in range(n):
            cells[colors[v]].append(v)
        s = 0
        while len(cells[s]) == 1:
            s += 1
        tried: list[int] = []
        for v in cells[s]:
            if any(are_twins(rows, v, u) for u in tried):
                continue
            tried.append(v)
            search([(c if c < s else (s if w == v else c + 1)) for w, c in enumerate(colors)])

    search([drank[d] for d in degs])
    return best


def reference_key(G) -> str:
    """The graph6 key of canonical_bits for G, the reference for canonical_form."""
    return bits_to_graph6(G.n, canonical_bits(G.n, G.rows))


def canonical_graph(G):
    """The canonical representative of G's isomorphism class."""
    return graph_from_bits(G.n, canonical_bits(G.n, G.rows))


def reference_class_bits(n_max: int, family=None) -> dict[int, list[int]]:
    """Canonical bits of the classes on 1..n_max vertices, ascending, by
    plain vertex augmentation: every parent tries every mask and each child
    gets a full freeness test."""
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


def reference_chromatic_number(rows, n: int) -> int:
    """Chromatic number by inclusion-exclusion over vertex subsets: with i(S)
    the number of independent sets inside S, the empty one included, the
    k-tuples of independent sets covering all n vertices number the sum over
    S of (-1)^(n - |S|) i(S)^k, which is positive exactly when k colours
    suffice. int64 holds every term up to n = 7."""
    if not 1 <= n <= 7:
        raise ValueError("the subset counts are exact in int64 for 1 <= n <= 7 only")
    masks = np.arange(1 << n)
    inside = np.ones(1 << n, dtype=np.int64)  # first: is S independent
    for v in range(n):
        inside[(masks >> v & 1 == 1) & (masks & rows[v] != 0)] = 0
    for v in range(n):  # then, subset sums: the independent sets inside S
        has = masks >> v & 1 == 1
        inside[has] += inside[masks[has] ^ 1 << v]
    sign = np.array([(-1) ** (n - bin(S).count("1")) for S in range(1 << n)])
    return next(k for k in range(1, n + 1) if (sign * inside**k).sum() > 0)


def reference_color_critical(rows, n: int) -> bool:
    """True iff deleting some edge lowers `reference_chromatic_number`."""
    chi = reference_chromatic_number(rows, n)
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u] >> v & 1:
                cut = list(rows)
                cut[u] &= ~(1 << v)
                cut[v] &= ~(1 << u)
                if reference_chromatic_number(cut, n) < chi:
                    return True
    return False


def full_spectral_extremal(n: int, alpha: float, family, tie_tol: float, min_degree=None):
    """`spectral_extremal` without its prune: every candidate class that
    passes the min_degree floor is solved by eigvalsh on its
    `rows_to_alpha_matrix`, all in one stack, and the argmax keeps each class
    within tie_tol of the maximum, in stream order, keyed by the reference
    codec. elapsed is 0."""
    from alphaspectral.enumeration import EnumFilter, enumerate_graphs
    from alphaspectral.extremal import ExtremalRecord, NoCandidatesError
    from alphaspectral.structure import as_family

    fam = as_family(family)
    cands = list(enumerate_graphs(n, EnumFilter(min_degree=min_degree, family=fam)))
    if not cands:
        raise NoCandidatesError(f"no candidate graphs of order {n} pass the filter")
    vals = np.linalg.eigvalsh(np.array([rows_to_alpha_matrix(G.rows, n, alpha) for G in cands]))[:, -1]
    optimum = float(vals.max())
    return ExtremalRecord(
        n=n,
        alpha=float(alpha),
        family=fam,
        optimum=optimum,
        argmax=tuple(reference_graph6(G) for G, v in zip(cands, vals) if v >= optimum - tie_tol),
        classes_searched=len(cands),
        elapsed=0.0,
    )


def reference_radius_bounds(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix (lower, upper) bounds on the top eigenvalue of a (k, n, n)
    stack of nonnegative symmetric matrices, from _BOUND_STEPS shifted power
    steps x <- x + Mx run in floats from the all-ones vector and normalised
    per matrix: the Rayleigh quotient x.Mx / x.x and the Collatz-Wielandt
    bound max_j (Mx)_j / x_j."""
    from alphaspectral.spectral import _BOUND_STEPS

    x = np.ones(M.shape[:2])
    for _ in range(_BOUND_STEPS):
        x += np.einsum("kij,kj->ki", M, x)
        x /= x.sum(axis=1)[:, None]
    y = np.einsum("kij,kj->ki", M, x)
    return (x * y).sum(axis=1) / (x * x).sum(axis=1), (y / x).max(axis=1)


def reference_spectral_radius(G, alpha: float):
    """`spectral_radius` solved one component at a time: each component's
    principal block of the alpha matrix gets its own eigh, sign fix, clamp
    and normalisation, ties within COMPONENT_TIE_TOL go to the smaller
    canonical key, and the residual is taken on the whole matrix."""
    from alphaspectral.graphs import components, induced_subgraph
    from alphaspectral.spectral import _CLAMP, COMPONENT_TIE_TOL, SpectralResult, alpha_matrix

    A = alpha_matrix(G, alpha)
    solved = []
    for verts in components(G):
        w, V = np.linalg.eigh(A.take(verts, 0).take(verts, 1))
        x = V[:, -1].copy()
        if x[int(np.argmax(np.abs(x)))] < 0:
            x = -x
        x[(x < 0) & (x > -_CLAMP)] = 0.0
        assert not (x < 0).any()
        solved.append((verts, float(w[-1]), x / np.linalg.norm(x)))
    top = max(lam for _, lam, _ in solved)
    ties = [item for item in solved if item[1] >= top - COMPONENT_TIE_TOL]
    if len(ties) > 1:
        ties.sort(key=lambda item: (reference_key(induced_subgraph(G, item[0])), item[0][0]))
    verts, lam, x_sub = ties[0]
    x = np.zeros(G.n)
    x[verts] = x_sub
    idx = int(np.argmin(x))
    return SpectralResult(
        lambda_alpha=lam,
        eigvec=x,
        min_entry=float(x[idx]),
        min_index=idx,
        residual=float(np.abs(A @ x - lam * x).max()),
        iterations=len(solved),
    )


def reference_report(check_id: str, subject: str, lhs: float, rhs: float, equality_expected: bool = False):
    """One report by the verdict rule, in plain Python: a slack that is not
    finite fails, then a slack below -PASS_TOL, then a declared equality off
    by more than EQUALITY_TOL. PASS_TOL is read from the verifier at call
    time, so a test may move it."""
    import math

    from alphaspectral import verifier

    slack = rhs - lhs
    fails = (
        not math.isfinite(slack)
        or slack < -verifier.PASS_TOL
        or (equality_expected and abs(slack) > verifier.EQUALITY_TOL)
    )
    return verifier.CheckReport(check_id, subject, lhs, rhs, slack, equality_expected, "fail" if fails else "pass")


def reference_check_graph(G, alpha: float, r):
    """`check_graph`'s reports for (G, alpha, r), one report at a time: the
    radius, eigenvector and deleted vertex from `reference_spectral_radius`,
    lam0 and the radius of G - w from one-matrix solves, every bound from
    Python floats. r is None or admits alpha."""
    import math

    from alphaspectral.graphs import delete_vertex
    from alphaspectral.spectral import lambda_alpha
    from alphaspectral.verifier import EQUALITY_TOL, CheckReport

    def _skipped(check_id, subject, reason):
        return CheckReport(check_id, subject, math.nan, math.nan, math.nan, False, f"skipped({reason})")

    a = float(alpha)
    res = reference_spectral_radius(G, a)
    lam, w, x_min = res.lambda_alpha, res.min_index, res.min_entry
    subject = f"{reference_graph6(G)} alpha={a:.12g}"
    n = G.n
    degs = G.degrees()
    delta, delta_max = min(degs), max(degs)
    regular = delta == delta_max
    adelta = a * delta_max
    sq = math.sqrt(sum(d * d for d in degs) / n)
    mean = 2 * G.edge_count / n
    if regular:
        regularity = reference_report("regularity-equality", subject, mean, lam, equality_expected=True)
    else:
        regularity = reference_report("regularity-equality", subject, EQUALITY_TOL, lam - mean)
    reports = [
        reference_report("sandwich-lower", subject, adelta, lam),
        reference_report("sandwich-upper", subject, lam, adelta + (1 - a) * lambda_alpha(G, 0.0)),
        reference_report("degree-square-lower", subject, sq, lam, equality_expected=regular and a > 0),
        reference_report("mean-degree-lower", subject, mean, lam, equality_expected=regular),
        regularity,
    ]
    if r is None:
        return reports

    x2 = x_min**2
    if n >= 2:
        bound = (lam * (1 - 2 * x2) - a * (1 - n * x2)) / (1 - x2)
        lam_sub = lambda_alpha(delete_vertex(G, w), a)
        reports.append(reference_report("deletion-bound", f"{subject} w={w}", bound, lam_sub))

    if x2 <= 1e-24:
        reports.append(_skipped("min-entry-upper", subject, "x=0"))
    else:
        inner = delta * delta + max(1 / (n * x2) - 1, 0.0) * n * delta
        bound = a * delta + (1 - a) * math.sqrt(inner)
        reports.append(reference_report("min-entry-upper", subject, lam, bound))

    if delta < 1:
        reports.append(_skipped("entry-bound", subject, "delta=0"))
    elif lam <= a * delta + 1e-12:
        reports.append(_skipped("entry-bound", subject, "radius<=alpha*delta"))
    else:
        denom = (lam - a * delta) ** 2 + delta * (n - delta) * (1 - a) ** 2
        reports.append(reference_report("entry-bound", subject, x2, delta * (1 - a) ** 2 / denom))
    return reports


def nx_atlas_free_graphs(pattern_edges) -> dict[int, list]:
    """The networkx atlas graphs (orders 1..7, one per class) with no
    subgraph monomorphism from the pattern, by order."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    F = nx.Graph(list(pattern_edges))
    by_order: dict[int, list] = {}
    for H in nx.graph_atlas_g()[1:]:
        if not GraphMatcher(H, F).subgraph_is_monomorphic():
            by_order.setdefault(H.number_of_nodes(), []).append(H)
    return by_order


def nx_extremal(graphs, alpha: float, tie_tol: float):
    """(optimum, sorted canonical argmax keys) over networkx graphs of one
    order, radii from numpy on the networkx adjacency."""
    import networkx as nx

    from alphaspectral.graphs import make_graph

    radii = []
    for H in graphs:
        A = nx.to_numpy_array(H, nodelist=sorted(H))
        radii.append(float(np.linalg.eigvalsh(alpha * np.diag(A.sum(axis=1)) + (1 - alpha) * A)[-1]))
    optimum = max(radii)
    keys = sorted(
        reference_key(make_graph(H.number_of_nodes(), H.edges()))
        for H, r in zip(graphs, radii)
        if r >= optimum - tie_tol
    )
    return optimum, keys
