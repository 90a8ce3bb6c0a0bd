"""Isomorphism-class enumeration and exact edge-extremal numbers.

Usage:
    python3 demos/02_enumeration_and_edge_turan.py [n_max]

Counts classes with and without filters, then solves the triangle-free
edge maximization exhaustively and compares against floor(n^2/4), showing
the complete argmax set for each order.
"""

import sys
import time

from alphaspectral import (
    EnumFilter,
    canonical_form,
    complete,
    count_classes,
    enumerate_graphs,
    forbidden_family,
    is_connected,
    turan,
    turan_number,
)


def class_counts(n_max):
    print("=" * 64)
    print("Isomorphism classes by order")
    print("=" * 64)
    triangle = forbidden_family([complete(3)])
    print(f"{'n':>3} {'all':>8} {'connected':>10} {'triangle-free':>14}")
    for n in range(1, n_max + 1):
        total = count_classes(n)
        conn = sum(1 for G in enumerate_graphs(n) if is_connected(G))
        tfree = count_classes(n, EnumFilter(family=triangle))
        print(f"{n:>3} {total:>8} {conn:>10} {tfree:>14}")


def edge_turan(n_max):
    print()
    print("Triangle-free edge maxima (exhaustive)")
    triangle = forbidden_family([complete(3)])
    print(f"{'n':>3} {'optimum':>8} {'floor(n^2/4)':>13} {'argmax':<14} {'searched':>9} {'time':>8}")
    for n in range(3, n_max + 1):
        t0 = time.perf_counter()
        rec = turan_number(n, triangle)
        dt = time.perf_counter() - t0
        marker = "=T_{%d,2}" % n if rec.argmax == (canonical_form(turan(n, 2)),) else "?"
        print(
            f"{n:>3} {rec.optimum:>8} {n * n // 4:>13} "
            f"{','.join(rec.argmax):<14} {rec.classes_searched:>9} {dt:>7.2f}s  {marker}"
        )


def stream_sample():
    print()
    print("First classes of the order-5 stream (ascending canonical key):")
    for G in list(enumerate_graphs(5))[:8]:
        print(f"  {canonical_form(G):<8} e={G.edge_count}")


if __name__ == "__main__":
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    class_counts(min(n_max, 8))
    edge_turan(n_max)
    stream_sample()
