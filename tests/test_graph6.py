import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspectral import (
    complete,
    cycle,
    decode_graph6,
    empty_graph,
    encode_graph6,
    generate,
    make_graph,
    star,
    turan,
)
from alphaspectral.graph6 import decode_codes, encode_codes, parse_graph6_lines, write_graph6_lines
from alphaspectral.graphs import SizeCapError

from oracle_tools import graph_from_bits, reference_graph6, triangle_bits


def test_triangle_is_Bw():
    # order byte chr(3+63)='B'; bits 111 padded to 111000 -> 56+63=119='w'
    assert encode_graph6(complete(3)) == "Bw"


def test_single_vertex():
    assert encode_graph6(empty_graph(1)) == "@"


def test_single_edge():
    assert encode_graph6(complete(2)) == "A_"


@pytest.mark.parametrize(
    "G",
    [
        empty_graph(1),
        complete(2),
        complete(5),
        cycle(7),
        star(4),
        turan(9, 4),
        generate("split_plus:6:2"),
        generate("wheel:8"),
        make_graph(10, [(0, 9), (3, 7), (2, 4)]),
        empty_graph(62),
    ],
)
def test_round_trip(G):
    assert decode_graph6(encode_graph6(G)) == G


def test_round_trip_text_identity():
    for G in [cycle(5), turan(7, 3), star(6)]:
        key = encode_graph6(G)
        assert encode_graph6(decode_graph6(key)) == key


def test_header_is_stripped():
    assert decode_graph6(">>graph6<<Bw") == complete(3)


def test_encode_rejects_large_orders():
    with pytest.raises(SizeCapError):
        encode_graph6(empty_graph(63))


def test_code_arrays_reject_large_orders():
    # the order byte of 63 would be 126, the long-form marker '~'
    with pytest.raises(SizeCapError):
        encode_codes(63, np.zeros((1, 63 * 62 // 2), np.uint8))


# each malformed input and the exact message that `lambda` prints after `line N:`
MALFORMED = {
    "": "empty graph6 string",
    ">>graph6<<": "empty graph6 string",
    "~??": "graph6 long form (order > 62) is not supported",
    "B": "graph6 body for order 3 needs 1 characters, got 0",
    "Bww": "graph6 body for order 3 needs 1 characters, got 2",
    "B" + chr(30): "graph6 body for order 3 needs 1 characters, got 0",  # stripped as whitespace
    "B!": "invalid graph6 character '!'",  # below the printable offset
    "B" + chr(127): "invalid graph6 character '\\x7f'",  # above it
    "B\u00e9": "invalid graph6 character '\u00e9'",  # not ASCII
    chr(127): "graph6 order 64 exceeds 62",  # past G6_MAX_ORDER
    "Bx": "nonzero padding bits in graph6 string",  # n = 3 pads its 3 bits with 3 zeros
    chr(63): "graph6 order byte '?' decodes to order 0 < 1",
}


@pytest.mark.parametrize("text", MALFORMED)
def test_decode_rejects_malformed(text):
    with pytest.raises(ValueError) as info:
        decode_graph6(text)
    assert str(info.value) == MALFORMED[text]


def test_line_io_round_trip():
    graphs = [complete(3), cycle(4), star(2)]
    text = write_graph6_lines(graphs)
    assert text.startswith("Bw\n") and text.count("\n") == 3
    assert parse_graph6_lines(text) == graphs


def test_line_io_skips_blank_lines():
    assert parse_graph6_lines("\nBw\n  \n\nA_\n") == [complete(3), complete(2)]


def test_line_io_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_graph6_lines("Bw\n~~~\n")


def bit_array(graphs, n):
    """The 0/1 reference triangle bits of order-n graphs, one row each, first bit first."""
    total = n * (n - 1) // 2
    words = [triangle_bits(G.rows, range(n)) for G in graphs]
    return np.array([[w >> total - 1 - i & 1 for i in range(total)] for w in words], np.uint8).reshape(len(words), total)


def assert_codec_agrees(graphs, n):
    """The array codec and its one-graph case code these order-n graphs as
    the reference codec does, both ways."""
    ref = [reference_graph6(G) for G in graphs]
    codes = encode_codes(n, bit_array(graphs, n))
    assert codes.tolist() == [key.encode() for key in ref]
    assert [encode_graph6(G) for G in graphs] == ref
    assert (decode_codes(n, codes) == bit_array(graphs, n)).all()
    assert [decode_graph6(key) for key in ref] == graphs


@st.composite
def same_order_graphs(draw):
    n = draw(st.integers(1, 12))
    total = n * (n - 1) // 2
    words = draw(st.lists(st.integers(0, (1 << total) - 1), max_size=6))
    return n, [graph_from_bits(n, w) for w in words]


@given(same_order_graphs())
@settings(max_examples=200, deadline=None)
def test_codec_matches_scalar_graph6(case):
    n, graphs = case
    assert_codec_agrees(graphs, n)


# n = 1 has no bits, the 6 and 36 bits at n = 4 and n = 9 leave no padding,
# and n = 12 has 66 bits, more than a uint64 holds
@pytest.mark.parametrize("n", [1, 4, 9, 12])
def test_codec_edge_orders(n):
    total = n * (n - 1) // 2
    alternating = int("10" * total, 2) >> total if total else 0
    assert_codec_agrees([empty_graph(n), complete(n), graph_from_bits(n, alternating)], n)
    widths = {1: 1, 4: 2, 9: 7, 12: 12}
    assert encode_codes(n, bit_array([], n)).dtype == np.dtype(f"S{widths[n]}")


# past n = 12 the one-graph codec shifts uint64 rows by up to 61; 13, 16, 17,
# 31, 47 and 61 straddle byte and word edges, and 62 is the short form's cap
@pytest.mark.parametrize("n", [13, 16, 17, 31, 47, 61, 62])
def test_codec_wide_orders(n):
    rng = np.random.default_rng(n)
    total = n * (n - 1) // 2
    graphs = [graph_from_bits(n, int("".join(map(str, rng.integers(0, 2, total))), 2)) for _ in range(5)]
    assert_codec_agrees(graphs + [complete(n), star(n - 1)], n)
