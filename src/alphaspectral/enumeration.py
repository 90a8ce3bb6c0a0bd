"""Isomorphism-class enumeration with a deterministic canonical form.

Canonical labeling: iterated degree/neighbor-color refinement, then
backtracking over individualization choices inside the first non-singleton
cell, taking the labeling that minimizes the column-major upper-triangle
bit string: the individualization-refinement scheme of McKay and Piperno
(J. Symb. Comput. 60, 2014). One prune keeps symmetric graphs cheap and
does not affect the minimum: vertices equivalent to an already-tried
cellmate under a transposition automorphism are skipped.
``_canonical_codes`` runs this search on many graphs at once in NumPy, one
level of their search trees at a time, and ``canonical_form`` is its
one-graph case, memoized: each refinement round ranks integer signatures
per node, one word of them up to 15 vertices, and the twin skip reads a
bit mask of lower twins per vertex.

Generation is by vertex augmentation: every class on n vertices arises from
some class on n-1 vertices by attaching a new last vertex to a mask of the
parent's vertices, because deleting any vertex of an F-free graph stays
F-free. A chunk of parents is taken at a time, with every mask of a parent
as one row of arrays, and three mask tests pick the children to label
without changing the classes:

- Freeness. The parent P is F-free, so its child P + v_M contains F iff
  some copy uses the new vertex v: iff, for some vertex x of F and some
  copy of F - x in P, the images of x's neighbours lie in M. The copies of
  each F - x are listed by ``structure._maps``, the one backtracking search
  that also decides containment, and each marks the mask of those images;
  then every superset of a marked mask is marked, in n - 1 OR passes. A
  member with an isolated vertex x marks the empty mask wherever P holds
  F - x, which rejects every mask of P.
- Twin prefix. Parent vertices u and w with the same neighbors apart from
  each other are twins: swapping them is an automorphism, and twins form
  classes on which every permutation is one. Children whose masks differ by
  such a permutation are isomorphic, so only a mask that takes a prefix of
  each twin class is kept: with a vertex it holds every lower twin.
- Pre-test. A child is labeled only if its new vertex, the last one, is
  among the vertices that maximize f(v) = (deg v, sum of the degrees of v's
  neighbours). This is the vertex-invariant pre-test of McKay's canonical
  augmentation (J. Algorithms 26, 1998). It is sound because f is an
  isomorphism invariant: every F-free class G has a vertex w of maximum f,
  G - w is F-free, so its canonical representative P is on the previous
  level, and some mask of P rebuilds G with the new vertex in the part of
  w. The twin-prefix representative of that mask differs from it by an
  automorphism of P, which fixes the new vertex, so G is labeled at least
  once. It runs only on the masks that pass the other two tests.

The children that pass are collected across chunks and labeled
_LABEL_CHUNK at a time by ``_canonical_codes``; a level's codes are then
sorted and their repeats dropped, so each class is emitted exactly once, in
ascending key order.

Forbidden-family filters are applied level by level (freeness is
hereditary); the minimum-degree filter only at the final level.

A class list is the ascending array of its fixed-width graph6 codes, which
sort bytewise as the keys do, with bit rows and degrees unpacked from them
once; a ``Graph`` is built only when ``enumerate_graphs`` yields one. Lists
are cached in memory and, when ALPHASPECTRAL_CACHE_DIR is set, in one file
per order and family, named by the order and the CRC-32 of the family's keys:
a line with the format version, the order, the family's sorted canonical
keys joined by "," (which no graph6 code holds; "all" for no family), the
class count and the CRC-32 of the rest, then one code per line. A file
whose header or lines do not check out is regenerated, so a file-name
collision costs one regeneration, never a wrong class list. A CRC, not a
cryptographic digest: Python's secure hashes load OpenSSL, 3.7 MB in every
process, and an unkeyed digest guards only against accidental damage.
"""

from __future__ import annotations

import contextlib
import os
import warnings
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .graph6 import code_width, decode_codes, encode_codes, triangle_pairs
from .graphs import Graph, _int_at_least, positive_int
from .structure import ForbiddenFamily, _deletion_plans, _maps, as_family

ENUM_DEFAULT_CAP = 10
ENUM_HARD_CAP = 12
_ALL_CLASSES = {10: 12_005_168, 11: 1_018_997_864, 12: 165_091_172_592}  # A000088
CACHE_ENV_VAR = "ALPHASPECTRAL_CACHE_DIR"
CACHE_FORMAT = "alphaspectral-classes v2"


class EnumerationCapError(ValueError):
    """Requested order is above the enumeration cap."""


@dataclass(frozen=True, slots=True)
class EnumFilter:
    """Optional restrictions on the enumerated stream."""

    min_degree: Optional[int] = None
    family: Optional[ForbiddenFamily] = None


def _ranks(x: np.ndarray) -> np.ndarray:
    """Each entry's rank among the distinct values of its row of x (N x n),
    by one sort of each row: a stable one, as the default quicksort would
    map 0.2-0.3 MB more of numpy's code into the process."""
    row, order = np.arange(len(x))[:, None], np.argsort(x, 1, kind="stable")
    x, rank = x[row, order], np.zeros(x.shape, np.intp)
    rank[row, order[:, 1:]] = np.cumsum(x[:, 1:] != x[:, :-1], 1)  # the least entry keeps 0
    return rank


def _refine_nodes(adj: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The stable colors of many search nodes at once: node i is the graph
    adj[i] (n x n uint8, 0/1, n <= G6_MAX_ORDER) with colors[i]. Each round
    ranks a node's vertices by the tuple (old color, neighbour count in each
    color), read in words of b colors, b the largest with n^(b+1) <= 2^63.
    A vertex's word is one int64 product of its adjacency row and the
    weights n^(b-1-j) of its neighbours' colors, j a color's place in its
    word; neighbour counts are below n, so words order as their counts do.
    The ranks so far times n^b plus the next word stay below n^(b+1), so
    int64 holds each sum exactly, and ranking the sums word by word ranks
    the tuples. Up to 15 vertices b = n, one word and one ranking a round.
    A node leaves once a round splits none of its cells or its cells are
    all singletons."""
    n = colors.shape[1]
    b = max(b for b in range(1, n + 1) if n ** (b + 1) <= 1 << 63)
    # weight[w, c]: color c's weight in word w
    weight = np.array([[n ** (b - 1 - c % b) * (c // b == w) for c in range(n)] for w in range(-(-n // b))], np.int64)
    colors = colors.copy()
    live = np.flatnonzero(colors.max(1) < n - 1)
    while len(live):
        old = new = colors[live]
        nodes = adj[live]
        for word in weight:
            new = _ranks(np.einsum("nij,nj->ni", nodes, word[old]) + new * n**b)
        colors[live] = new
        k = new.max(1) + 1
        live = live[(k > old.max(1) + 1) & (k < n)]
    return colors


def _lower_twins(rows: np.ndarray) -> np.ndarray:
    """lower[g, v] (uint16, or uint64 past 16 vertices): the bit mask of the
    vertices u < v that are twins of v in graph g, whose swap with v is an
    automorphism, for the graphs with these bit rows (graphs x n,
    unsigned)."""
    vertex = np.arange(rows.shape[1], dtype=rows.dtype)
    clear = ~(1 << vertex[:, None] | 1 << vertex)
    twin = ((rows[:, :, None] ^ rows[:, None, :]) & clear == 0) & (vertex[:, None] < vertex)
    dtype = np.promote_types(rows.dtype, np.uint16)
    return (twin << vertex[:, None].astype(dtype)).sum(1, dtype=dtype)


def _canonical_codes(n: int, rows) -> np.ndarray:
    """The canonical graph6 codes, S{width}, of the order-n graphs (n <=
    G6_MAX_ORDER) with these bit rows (graphs x n, array-like), found by
    the search above run on all of them at once, one level of the search
    trees at a time. Each node is refined by _refine_nodes; a discrete one
    is a leaf, whose key is the code of its relabeled graph, and any other
    one branches on the vertices of its first non-singleton cell, found from
    its color counts, that have no lower twin in the cell. Each graph's
    least leaf code is found by one sort of all the leaves. Rows and
    cell-mate masks are uint16 up to 16 vertices and uint64 past that."""
    R = np.array(rows, np.uint16 if n <= 16 else np.uint64)
    vertex = np.arange(n, dtype=R.dtype)
    adj = (R[:, :, None] >> vertex & 1).astype(np.uint8)
    lower = _lower_twins(R)
    lo, hi = triangle_pairs(n)
    leaf_graphs, leaf_codes = [], []
    graph = np.arange(len(R))  # the graph of each node, ascending
    colors = _ranks(adj.sum(2))
    while len(graph):
        colors = _refine_nodes(adj[graph], colors)
        leaf = colors.max(1) == n - 1
        if leaf.any():
            g, order = graph[leaf], np.empty_like(colors[leaf])
            order[np.arange(len(g))[:, None], colors[leaf]] = vertex
            leaf_graphs.append(g)
            leaf_codes.append(encode_codes(n, adj[g[:, None], order[:, hi], order[:, lo]]))
        graph, colors = graph[~leaf], colors[~leaf]
        size = np.bincount((colors + n * np.arange(len(graph))[:, None]).ravel(), minlength=colors.size)
        s = np.where(size.reshape(colors.shape) > 1, vertex, n).min(1)
        cell = colors == s[:, None]
        mates = (cell << vertex).sum(1, dtype=R.dtype)
        node, v = np.nonzero(cell & (lower[graph] & mates[:, None] == 0))
        graph, s, colors = graph[node], s[node], colors[node]
        colors += colors >= s[:, None]
        colors[np.arange(len(node)), v] = s
    graph, code = np.concatenate(leaf_graphs), np.concatenate(leaf_codes)
    by_graph = np.lexsort((code, graph))  # every graph has a leaf; its least code comes first
    graph, code = graph[by_graph], code[by_graph]
    return code[np.r_[True, graph[1:] != graph[:-1]]]


@lru_cache(maxsize=256)
def canonical_form(G: Graph) -> str:
    """graph6 key of the canonically relabeled graph: the one-graph case of
    _canonical_codes, memoized, as the family keys and the spectral tie rule
    ask for the same few graphs again and again.

    Isomorphic graphs get identical keys; non-isomorphic graphs get
    distinct keys.
    """
    return _canonical_codes(G.n, [G.rows])[0].decode()


# ---------------------------------------------------------------------------
# Class generation
# ---------------------------------------------------------------------------

class _Classes(NamedTuple):
    """One order's classes in key order: canonical graph6 codes (k,), bit rows
    (k x n, the narrowest unsigned type that holds n bits) and vertex degrees
    (n x k uint8; reducing along k is ~30x faster). memo holds what callers
    derive from the list and reuse (the extremal search's bound terms), so it
    goes when the list leaves the cache."""

    codes: np.ndarray
    rows: np.ndarray
    degrees: np.ndarray
    memo: dict


_CHUNK = 1 << 13  # classes per step wherever a whole list is unpacked or walked
# Children per call of _canonical_codes. On K3-free n = 9, 128 and 256 label
# 1.4x and 1.1x slower than 512, and 1024 is 5% faster with twice the
# arrays; a call of 512 peaks at 0.5 MB of arrays.
_LABEL_CHUNK = 512
# Masks times parent vertices per chunk of parents in _children; on all
# classes at n = 9, 2^18 peaks 1.2 MB higher and is no faster.
_MASK_CELLS = 1 << 17
_CLASS_CACHE: dict[tuple[int, Optional[tuple[str, ...]]], _Classes] = {}


def _unpack(n: int, codes: np.ndarray) -> _Classes:
    """The class list of ascending order-n codes, unpacked _CHUNK classes at
    a time, so that no temporary grows with k n^2. The products run in
    float32 BLAS, in a sixth of the time of numpy's integer matmul, and are
    exact: every partial sum is an integer below 2^n <= 2^ENUM_HARD_CAP."""
    u, v = triangle_pairs(n)
    i = np.arange(len(v))
    weight = np.zeros((len(v), n), np.float32)  # bit i sets bit v of row u and bit u of row v
    weight[i, u], weight[i, v] = 1 << v, 1 << u
    ends = (weight > 0).astype(np.float32)
    rows = np.empty((len(codes), n), np.min_scalar_type((1 << n) - 1))
    degrees = np.empty((n, len(codes)), np.uint8)
    for s in range(0, len(codes), _CHUNK):
        bits = decode_codes(n, codes[s : s + _CHUNK]).astype(np.float32)
        rows[s : s + _CHUNK] = bits @ weight
        degrees[:, s : s + _CHUNK] = (bits @ ends).T
    return _Classes(codes, rows, degrees, {})


def family_keys(family: ForbiddenFamily) -> tuple[str, ...]:
    """Sorted canonical keys of the family's members, each once: a family is
    a set, so members that are the same graph share one class list."""
    return tuple(sorted({canonical_form(F) for F in family.members}))


def _family_field(fam_key) -> str:
    return "all" if fam_key is None else ",".join(fam_key)


def _disk_cache_path(n: int, fam_key) -> Optional[Path]:
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    tag = "all" if fam_key is None else f"{zlib.crc32(_family_field(fam_key).encode()):08x}"
    return Path(root) / f"classes_n{n}_{tag}.g6"


def _cache_header(n: int, fam_key, body: bytes) -> bytes:
    """First line of a class file: format version, order, family keys, class
    count and the CRC-32 of the graph6 body that follows it."""
    count, crc = body.count(b"\n"), zlib.crc32(body)
    return f"{CACHE_FORMAT} n={n} family={_family_field(fam_key)} count={count} crc32={crc:08x}\n".encode()


def _classes(n: int, family: Optional[ForbiddenFamily], fam_key) -> _Classes:
    key = (n, fam_key)
    if key in _CLASS_CACHE:
        return _CLASS_CACHE[key]
    path = _disk_cache_path(n, fam_key)
    codes = None if path is None else _read_cache(path, n, fam_key)
    if codes is None:
        if n == 1:
            codes = encode_codes(1, np.zeros((1, 0), np.uint8))
        else:
            codes = _children(n, _classes(n - 1, family, fam_key), family)
        if path is not None:
            _write_cache(path, n, fam_key, codes)
    classes = _CLASS_CACHE[key] = _unpack(n, codes)
    return classes


def _rejected(n: int, family: Optional[ForbiddenFamily], rows: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """rejected[p, M]: whether the child of parent p with its new vertex
    joined to mask M contains a member, for F-free order n-1 parents with
    these bit rows and degrees (parents x n-1): the freeness test above."""
    nb = n - 1
    plans = [] if family is None else [plan for F in family.members if F.n <= n for plan in _deletion_plans(F)]
    hits = set()
    for p, (p_rows, p_deg) in enumerate(zip(rows.tolist(), deg.tolist())):
        for back, need, after, at in plans:
            for images in _maps(p_rows, p_deg, back, need, after, [0] * len(need), 0, (1 << nb) - 1):
                hits.add(p << nb | sum(1 << images[i] for i in at))
    rejected = np.zeros((len(rows), 1 << nb), bool)
    rejected.ravel()[np.fromiter(hits, np.int64, len(hits))] = True
    for u in range(nb):
        halves = rejected.reshape(len(rows), -1, 2, 1 << u)  # [:, :, 1] holds the masks with u
        halves[:, :, 1] |= halves[:, :, 0]
    return rejected


def _children(n: int, parents: _Classes, family: Optional[ForbiddenFamily]) -> np.ndarray:
    """The codes of the F-free order-n classes: the canonical key of every
    child of an order n-1 class that passes the three mask tests above,
    taken for a chunk of parents at a time. The children are labeled
    _LABEL_CHUNK at a time, and the level's codes sorted and deduplicated."""
    nb = n - 1
    vertex = np.arange(n)
    member = (np.arange(1 << n)[:, None] >> vertex & 1).astype(np.uint8)  # member[M, u]: u is in mask M
    size = member.sum(1, dtype=np.uint8)
    step = max(1, _MASK_CELLS // (nb << nb))
    pending, labeled = np.empty((0, n), np.uint16), []
    for s in range(0, len(parents.codes), step):
        rows, deg = parents.rows[s : s + step], parents.degrees[:, s : s + step].T
        p, mask = np.nonzero(~_rejected(n, family, rows, deg))
        mask, into = mask.astype(np.uint16), member[mask, :nb]
        # twin prefix: a mask that holds u holds the lower twins of u
        lower = _lower_twins(rows)[p]
        keep = ~((mask[:, None] & lower != lower) & into).any(1)
        kids = np.empty((np.count_nonzero(keep), n), np.uint16)
        kids[:, :nb] = rows[p[keep]] | into[keep].astype(np.uint16) << nb
        kids[:, nb] = mask[keep]
        # pre-test: the new vertex maximizes (degree, neighbour degree sum)
        kid_deg = size[kids]
        around = sum(member[kids[:, v]] * kid_deg[:, v, None] for v in range(n))
        beats = (kid_deg > kid_deg[:, nb:]) | (kid_deg == kid_deg[:, nb:]) & (around > around[:, nb:])
        pending = np.concatenate((pending, kids[~beats.any(1)]))
        full = len(pending) - len(pending) % _LABEL_CHUNK
        labeled += [_canonical_codes(n, pending[i : i + _LABEL_CHUNK]) for i in range(0, full, _LABEL_CHUNK)]
        pending = pending[full:]
    if len(pending):
        labeled.append(_canonical_codes(n, pending))
    codes = np.sort(np.concatenate(labeled))
    return codes[np.r_[True, codes[1:] != codes[:-1]]]


def _read_cache(path: Path, n: int, fam_key) -> Optional[np.ndarray]:
    """The cached codes, or None unless the header matches the format, the
    order, the family and the body, and the body is a nonempty list of lines
    that each hold one order-n graph6 code, in strictly ascending order. A
    code is valid iff it decodes and re-encodes unchanged, checked _CHUNK
    codes at a time."""
    try:
        head, sep, body = path.read_bytes().partition(b"\n")
    except OSError:
        return None
    width = code_width(n)
    if head + sep != _cache_header(n, fam_key, body) or not body or len(body) % (width + 1):
        return None
    lines = np.frombuffer(body, np.uint8).reshape(-1, width + 1)
    codes = np.ascontiguousarray(lines[:, :width]).view(f"S{width}").ravel()
    again = np.concatenate(
        [encode_codes(n, decode_codes(n, codes[s : s + _CHUNK])) for s in range(0, len(codes), _CHUNK)]
    )
    if (lines[:, width] != ord("\n")).any() or (again != codes).any() or (codes[1:] <= codes[:-1]).any():
        return None
    return codes


def _write_cache(path: Path, n: int, fam_key, codes: np.ndarray) -> None:
    """Publish the codes, one a line, atomically: readers see the old file or
    the whole new one, never a prefix. A failure leaves the cache unwritten."""
    body = b"\n".join(codes.tolist()) + b"\n"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(_cache_header(n, fam_key, body) + body)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _check_cap(n: int, force: bool, family: Optional[ForbiddenFamily]) -> int:
    """n as an int; past the default cap, only under force. The cap is one
    lower when no family member has at most n vertices, as then the family
    filters nothing."""
    n = positive_int(n, "order")
    if n > ENUM_HARD_CAP:
        raise EnumerationCapError(f"enumeration at n={n} is out of reach (hard cap {ENUM_HARD_CAP})")
    filters = family is not None and any(F.n <= n for F in family.members)
    cap = ENUM_DEFAULT_CAP if filters else ENUM_DEFAULT_CAP - 1
    if n > cap:
        what = "" if filters else f" of all {_ALL_CLASSES[n]:,} classes (A000088)"
        if not force:
            raise EnumerationCapError(
                f"enumeration{what} at n={n} exceeds the default cap {cap};"
                " pass force=True (--force on the command line) to override"
            )
        warnings.warn(f"enumeration{what} at n={n} may take very long", stacklevel=3)
    return n


def _class_list(n: int, filt: EnumFilter, force: bool) -> tuple[_Classes, np.ndarray]:
    """The cached classes of the filter's order and family, and a boolean
    mask of those that pass its min_degree: the one degree filter."""
    family = as_family(filt.family) if filt.family is not None else None
    n = _check_cap(n, force, family)
    min_degree = filt.min_degree
    if min_degree is not None:
        min_degree = _int_at_least(min_degree, "min_degree", 0)
        if min_degree > n - 1:
            raise ValueError(f"min_degree must lie in [0, {n - 1}], got {min_degree}")
    fam_key = None if family is None else family_keys(family)
    classes = _classes(n, family, fam_key)
    return classes, classes.degrees.min(axis=0) >= (min_degree or 0)


def enumerate_graphs(n: int, filt: Optional[EnumFilter] = None, *, force: bool = False) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class, key-ascending."""
    classes, passing = _class_list(n, filt or EnumFilter(), force)
    for s in range(0, len(passing), _CHUNK):
        for rows, ok in zip(classes.rows[s : s + _CHUNK].tolist(), passing[s : s + _CHUNK].tolist()):
            if ok:
                yield Graph(len(rows), tuple(rows))


def count_classes(n: int, filt: Optional[EnumFilter] = None, *, force: bool = False) -> int:
    """Number of isomorphism classes passing the filter."""
    return int(np.count_nonzero(_class_list(n, filt or EnumFilter(), force)[1]))
