"""graph6 encoding and decoding for graphs on up to 62 vertices.

Layout: one byte n+63 for the order, then the upper triangle read
column-major (x(0,1), x(0,2), x(1,2), x(0,3), ...) packed big-endian into
6-bit groups, zero-padded at the end, each group offset by 63 into the
printable range. Round-tripping is bit-exact. A list of order-n graphs
is coded at once as a NumPy array of fixed-width codes (:func:`encode_codes`,
:func:`decode_codes`), which sort bytewise as their bit strings do.

Result payloads that carry these keys are written as compact JSON by
:func:`compact_json`.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .graphs import Graph, SizeCapError

G6_MAX_ORDER = 62
_HEADER = ">>graph6<<"


def triangle_bits(rows: Sequence[int], order: Sequence[int]) -> int:
    """Upper-triangle adjacency bits as an integer, first bit most significant.

    The graph is read relabeled so that new vertex i is old vertex
    order[i].
    """
    val = 0
    for v in range(1, len(order)):
        rv = rows[order[v]]
        for u in order[:v]:
            val = (val << 1) | (rv >> u & 1)
    return val


def graph_from_bits(n: int, bits: int) -> Graph:
    """Inverse of :func:`triangle_bits` for a given order."""
    rows = [0] * n
    total = n * (n - 1) // 2
    idx = total
    for v in range(1, n):
        for u in range(v):
            idx -= 1
            if bits >> idx & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def bits_to_graph6(n: int, bits: int) -> str:
    if n > G6_MAX_ORDER:
        raise SizeCapError(f"graph6 short form handles at most {G6_MAX_ORDER} vertices, got {n}")
    total = n * (n - 1) // 2
    groups = (total + 5) // 6
    shifted = bits << (groups * 6 - total)
    out = [chr(n + 63)]
    for i in range(groups):
        out.append(chr(((shifted >> (6 * (groups - 1 - i))) & 0x3F) + 63))
    return "".join(out)


def encode_graph6(G: Graph) -> str:
    return bits_to_graph6(G.n, triangle_bits(G.rows, range(G.n)))


def decode_graph6(text: str) -> Graph:
    """Parse one graph6 string (an optional '>>graph6<<' header is stripped)."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].strip()
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        raise ValueError("graph6 long form (order > 62) is not supported")
    n = ord(s[0]) - 63
    if n < 1:
        raise ValueError(f"graph6 order byte {s[0]!r} decodes to order {n} < 1")
    if n > G6_MAX_ORDER:
        raise ValueError(f"graph6 order {n} exceeds {G6_MAX_ORDER}")
    total = n * (n - 1) // 2
    groups = (total + 5) // 6
    body = s[1:]
    if len(body) != groups:
        raise ValueError(f"graph6 body for order {n} needs {groups} characters, got {len(body)}")
    val = 0
    for ch in body:
        c = ord(ch) - 63
        if not (0 <= c < 64):
            raise ValueError(f"invalid graph6 character {ch!r}")
        val = (val << 6) | c
    pad = groups * 6 - total
    if pad and val & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 string")
    return graph_from_bits(n, val >> pad)


def encode_codes(n: int, bits: np.ndarray) -> np.ndarray:
    """The graph6 codes, S{width}, of order-n graphs given by the rows of
    bits (k x n(n-1)/2, 0/1), each the upper triangle read column-major as
    in :func:`triangle_bits`, for n <= G6_MAX_ORDER."""
    if n > G6_MAX_ORDER:
        raise SizeCapError(f"graph6 short form handles at most {G6_MAX_ORDER} vertices, got {n}")
    k, total = bits.shape
    groups = (total + 5) // 6
    padded = np.zeros((k, groups * 6), np.uint8)
    padded[:, :total] = bits
    code = np.empty((k, groups + 1), np.uint8)
    code[:, 0] = n + 63
    code[:, 1:] = padded.reshape(k, groups, 6) @ np.array([32, 16, 8, 4, 2, 1], np.uint8) + np.uint8(63)
    return code.view(f"S{groups + 1}").ravel()


def decode_codes(n: int, codes: np.ndarray) -> np.ndarray:
    """The triangle bits (k x n(n-1)/2 uint8, 0/1) of order-n graph6 codes,
    S{width}. Nothing is checked: a code is valid iff encode_codes gives it
    back."""
    k, groups = len(codes), codes.dtype.itemsize - 1
    body = codes.view(np.uint8).reshape(k, groups + 1)[:, 1:] - np.uint8(63)
    bits = np.unpackbits(body, axis=1).reshape(k, groups, 8)[:, :, 2:]  # each byte's low 6 bits
    return bits.reshape(k, groups * 6)[:, : n * (n - 1) // 2]


def write_graph6_lines(graphs) -> str:
    """Serialize an iterable of graphs as newline-delimited graph6."""
    return "".join(encode_graph6(G) + "\n" for G in graphs)


def compact_json(payload) -> str:
    """The one JSON form of every result payload: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_graph6_lines(text: str) -> list[Graph]:
    """Parse newline-delimited graph6, reporting the line of any bad entry."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(decode_graph6(line))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
    return out
