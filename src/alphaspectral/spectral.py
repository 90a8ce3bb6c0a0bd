"""The matrix alpha*D + (1-alpha)*A and its certified largest eigenvalue.

All solves go through a full symmetric eigendecomposition (LAPACK's
Householder tridiagonalization with implicit-shift iteration via
numpy.linalg.eigh); sizes are capped at 64 so there is no need for an
iterative path. Certified radii are solved for a stack of same-order bit
rows at once: the connected graphs share one eigh, each component of the
others is a principal block of the alpha-matrix stack with one eigh per
block size, and `spectral_radius` is the one-graph case. The returned
eigenvector is the Perron vector of a maximizing component embedded in
zeros, which keeps the result deterministic even when the top eigenvalue
is shared by several components: ties within 1e-10 go to the component
with the smaller canonical form.

Contracts: the eigenvector is entrywise nonnegative with unit norm within
1e-12, and the max-norm residual of the eigenpair is at most 1e-10; a solve
that cannot meet them raises instead of returning silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import canonical_form
from .graphs import Graph, components, induced_subgraph

RESIDUAL_TOL = 1e-10
COMPONENT_TIE_TOL = 1e-10
_CLAMP = 1e-12
_BOUND_STEPS = 3


class ConvergenceError(RuntimeError):
    """The eigensolver failed or its certification contract was not met."""


def check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {alpha!r}")
    return a


@dataclass(slots=True)
class SpectralResult:
    """Largest eigenvalue of the alpha matrix with a certified eigenpair.

    min_entry and min_index locate the smallest eigenvector entry (first
    occurrence); iterations counts eigendecompositions performed.
    """

    lambda_alpha: float
    eigvec: np.ndarray
    min_entry: float
    min_index: int
    residual: float
    iterations: int


def _alpha_matrices(rows, a: float) -> np.ndarray:
    """Alpha matrices of bit rows: one graph's n rows give (n, n), a k x n
    stack of same-order graphs gives (k, n, n). Bits are unpacked to uint8,
    so the only full-size temporary takes one byte per entry; the degrees
    are integer sums of those bytes (einsum outpaces sum here), scaled in
    place on the diagonal."""
    R = np.asarray(rows, dtype="<u8")
    n = R.shape[-1]
    U = np.unpackbits(R[..., None].view(np.uint8), axis=-1, count=n, bitorder="little")
    deg = np.einsum("...ij->...i", U)
    A = U.astype(np.float64)
    A *= 1.0 - a
    diag = A.reshape(-1, n * n)[:, :: n + 1]  # every (n+1)-th flat entry is diagonal
    diag[:] = deg
    diag *= a
    return A


def _radius_bounds(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix (lower, upper) bounds on the top eigenvalue of a (k, n, n)
    stack of nonnegative symmetric matrices.

    x runs _BOUND_STEPS shifted power steps x <- x + Mx from the all-ones
    vector, normalised per matrix; the shift keeps x > 0 even on isolated
    vertices. lower is the Rayleigh quotient x.Mx / x.x. upper is the
    Collatz-Wielandt bound max_j (Mx)_j / x_j, which holds for any
    nonnegative M and x > 0, reducible M included: for a nonnegative left
    Perron vector z, rho z.x = z.Mx <= upper z.x with z.x > 0.
    """
    # einsum rather than matmul: a little faster on stacks of small blocks
    x = np.ones(M.shape[:2])
    for _ in range(_BOUND_STEPS):
        x += np.einsum("kij,kj->ki", M, x)
        x /= np.einsum("ki->k", x)[:, None]  # unit 1-norm; einsum outpaces sum(axis=1) here
    y = np.einsum("kij,kj->ki", M, x)
    lower = np.einsum("ki,ki->k", x, y) / np.einsum("ki,ki->k", x, x)
    y /= x  # in place: one k x n temporary fewer at the call's memory peak
    return lower, y.max(axis=1)


def alpha_matrix(G: Graph, alpha: float) -> np.ndarray:
    """Dense n x n matrix with alpha*deg on the diagonal, 1-alpha on edges."""
    return _alpha_matrices(G.rows, check_alpha(alpha))


def lambda_alpha(G: Graph, alpha: float) -> float:
    """Largest eigenvalue only (no eigenvector bookkeeping)."""
    return float(_top_eigenvalues(alpha_matrix(G, alpha)[None])[0])


def lambda_alpha_many(graphs, alpha: float) -> np.ndarray:
    """Largest eigenvalues for a batch of same-order graphs."""
    a = check_alpha(alpha)
    graphs = list(graphs)
    if not graphs:
        return np.empty(0)
    n = graphs[0].n
    if any(G.n != n for G in graphs):
        raise ValueError("batched solve requires graphs of equal order")
    return _top_eigenvalues(_alpha_matrices([G.rows for G in graphs], a))


def _top_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of a (k, n, n) symmetric stack."""
    try:
        return np.linalg.eigvalsh(M)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc


def _split(rows) -> dict[int, list[list[int]]]:
    """Each disconnected graph of a k x n stack of bit rows, by index, to its
    `components`; vertex 0's reach is closed bitwise over the whole stack."""
    R = np.asarray(rows, dtype=np.uint64)
    k, n = R.shape
    shifts, reach, grown = np.arange(n, dtype=np.uint64), np.zeros(k, np.uint64), np.ones(k, np.uint64)
    while (reach != grown).any():
        reach, grown = grown, grown | np.bitwise_or.reduce(R * (grown[:, None] >> shifts & np.uint64(1)), axis=1)
    return {int(i): components(Graph(n, tuple(R[i].tolist()))) for i in np.flatnonzero(reach != (1 << n) - 1)}


def _top_pairs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and nonnegative unit eigenvector of each matrix of a
    (b, m, m) stack of alpha-matrix blocks of connected graphs."""
    try:
        w, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    x = np.ascontiguousarray(vecs[:, :, -1])
    x[x[np.arange(len(x)), np.abs(x).argmax(axis=1)] < 0] *= -1.0  # the sign making the largest entry positive
    x[(x < 0) & (x > -_CLAMP)] = 0.0
    if (x < 0).any():
        raise ConvergenceError("no nonnegative top eigenvector on a connected block")
    x /= np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0]  # the dot product of np.linalg.norm, bit for bit
    return w[:, -1], x


def _perron_stack(rows, a: float, split: dict[int, list[list[int]]]):
    """Certified Perron pairs of a k x n stack of bit rows at one checked
    alpha, split being `_split(rows)`: (lam, X, residual, n_components) as
    arrays over the graphs, X holding one nonnegative unit vector per row."""
    stack = _alpha_matrices(rows, a)
    k, n = stack.shape[:2]
    lams, X, n_components = np.empty(k), np.zeros((k, n)), np.ones(k, int)
    whole = np.ones(k, bool)
    whole[list(split)] = False
    if whole.any():
        lams[whole], X[whole] = _top_pairs(stack[whole])
    solved: dict[int, list[tuple[list[int], float, np.ndarray]]] = {i: [] for i in split}
    for size in {len(verts) for parts in split.values() for verts in parts}:
        blocks = [(i, verts) for i, parts in split.items() for verts in parts if len(verts) == size]
        owner, V = np.array([i for i, _ in blocks])[:, None, None], np.array([verts for _, verts in blocks])
        for (i, verts), lam, x in zip(blocks, *_top_pairs(stack[owner, V[:, :, None], V[:, None, :]])):
            solved[i].append((verts, lam, x))
    for i, items in solved.items():
        n_components[i] = len(items)
        top = max(lam for _, lam, _ in items)
        ties = [item for item in items if item[1] >= top - COMPONENT_TIE_TOL]
        if len(ties) > 1:
            G = Graph(n, tuple(int(row) for row in rows[i]))
            ties.sort(key=lambda item: (canonical_form(induced_subgraph(G, item[0])), item[0][0]))
        verts, lams[i], X[i, verts] = ties[0]
    residual = np.abs(np.matmul(stack, X[:, :, None])[:, :, 0] - lams[:, None] * X).max(axis=1)
    if (residual > RESIDUAL_TOL).any():
        raise ConvergenceError(f"residual {residual[residual > RESIDUAL_TOL][0]:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return lams, X, residual, n_components


def spectral_radius(G: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of the alpha matrix with a nonnegative unit eigenvector.

    For a disconnected graph the vector is supported on one maximizing
    component and zero elsewhere.
    """
    rows = np.array([G.rows], dtype=np.uint64)
    lam, X, residual, n_components = _perron_stack(rows, check_alpha(alpha), _split(rows))
    idx = int(np.argmin(X[0]))
    return SpectralResult(float(lam[0]), X[0], float(X[0, idx]), idx, float(residual[0]), int(n_components[0]))

