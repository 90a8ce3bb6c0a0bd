"""graph6 encoding and decoding for graphs on up to 62 vertices.

Layout: one byte n+63 for the order, then the upper triangle read
column-major (:func:`triangle_pairs`) packed big-endian into 6-bit groups,
zero-padded at the end, each group offset by 63 into the printable range.
There is one codec: a list of order-n graphs is coded at once as a NumPy
array of fixed-width codes (:func:`encode_codes`, :func:`decode_codes`),
which sort bytewise as their bit strings do, and one graph is one row of it
(:func:`encode_graph6`, :func:`decode_graph6`). Round-tripping is bit-exact.

Result payloads that carry these keys are written as compact JSON by
:func:`compact_json`.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .graphs import Graph, SizeCapError

G6_MAX_ORDER = 62
_HEADER = ">>graph6<<"


def triangle_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v), u < v, of each bit of an order-n code in turn: the upper
    triangle read column-major, x(0,1), x(0,2), x(1,2), x(0,3), ..."""
    v, u = np.tril_indices(n, -1)
    return u, v


def code_width(n: int) -> int:
    """Bytes in the code of an order-n graph: the order byte, then the
    n(n-1)/2 triangle bits six to a byte."""
    if n > G6_MAX_ORDER:
        raise SizeCapError(f"graph6 short form handles at most {G6_MAX_ORDER} vertices, got {n}")
    return 1 + (n * (n - 1) // 2 + 5) // 6


def encode_graph6(G: Graph) -> str:
    """The graph6 string of G: the one-row case of :func:`encode_codes`."""
    u, v = triangle_pairs(G.n)
    rows = np.array(G.rows, np.uint64)
    return encode_codes(G.n, (rows[v] >> u.astype(np.uint64) & np.uint64(1))[None])[0].decode()


def decode_graph6(text: str) -> Graph:
    """Parse one graph6 string (an optional '>>graph6<<' header is stripped):
    the one-row case of :func:`decode_codes`, after checks of the text."""
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
    width = code_width(n)
    if len(s) != width:
        raise ValueError(f"graph6 body for order {n} needs {width - 1} characters, got {len(s) - 1}")
    bad = re.search("[^?-~]", s[1:])  # the body lies in chr(63)..chr(126)
    if bad:
        raise ValueError(f"invalid graph6 character {bad[0]!r}")
    code = s.encode()
    bits = decode_codes(n, np.array([code]))
    if encode_codes(n, bits)[0] != code:
        raise ValueError("nonzero padding bits in graph6 string")
    u, v = triangle_pairs(n)
    adj = np.zeros((n, 64), np.uint8)  # each row packs to one little-endian uint64
    adj[u, v] = adj[v, u] = bits[0]
    return Graph(n, tuple(np.packbits(adj, axis=1, bitorder="little").view("<u8")[:, 0].tolist()))


def encode_codes(n: int, bits: np.ndarray) -> np.ndarray:
    """The codes, S{code_width(n)}, of order-n graphs given by the rows of
    bits (k x n(n-1)/2, 0/1), each in the order of :func:`triangle_pairs`."""
    groups = code_width(n) - 1
    k, total = bits.shape
    padded = np.zeros((k, groups * 6), np.uint8)
    padded[:, :total] = bits
    code = np.empty((k, groups + 1), np.uint8)
    code[:, 0] = n + 63
    code[:, 1:] = padded.reshape(k, groups, 6) @ np.array([32, 16, 8, 4, 2, 1], np.uint8) + np.uint8(63)
    return code.view(f"S{groups + 1}").ravel()


def decode_codes(n: int, codes: np.ndarray) -> np.ndarray:
    """The triangle bits (k x n(n-1)/2 uint8, 0/1) of order-n codes,
    S{code_width(n)}. Nothing is checked: a code is valid iff encode_codes
    gives it back."""
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
