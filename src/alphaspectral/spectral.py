"""The matrix alpha*D + (1-alpha)*A and its certified largest eigenvalue.

All solves go through a full symmetric eigendecomposition (LAPACK's
Householder tridiagonalization with implicit-shift iteration via
numpy.linalg.eigh); sizes are capped at 64 so there is no need for an
iterative path. Certified radii are solved for a list of same-order graphs
at once: each component is a principal block of the graphs' alpha-matrix
stack, with one eigh per block-size stack, and `spectral_radius` is the
one-graph case. The returned eigenvector is the Perron vector of a
maximizing component embedded in zeros, which keeps the result
deterministic even when the top eigenvalue is shared by several
components: ties within 1e-10 go to the component with the smaller
canonical form.

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


def _perron_stack(graphs: list[Graph], a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Certified Perron pairs of same-order graphs at one checked alpha.

    Returns (lam, X, residual, n_components) as arrays over the graphs, X
    holding one nonnegative unit vector per row. Every component block is a
    principal submatrix of the graphs' alpha-matrix stack, and the blocks of
    each size share one eigh call; each graph then picks its component and
    checks its residual on its own, as a single-graph solve would.
    """
    stack = _alpha_matrices([G.rows for G in graphs], a)
    k, n = stack.shape[:2]
    by_size: dict[int, list[tuple[int, list[int]]]] = {}
    for i, G in enumerate(graphs):
        for verts in components(G):
            by_size.setdefault(len(verts), []).append((i, verts))
    solved: list[list[tuple[list[int], float, np.ndarray]]] = [[] for _ in graphs]
    for blocks in by_size.values():
        owner = np.array([i for i, _ in blocks])[:, None, None]
        V = np.array([verts for _, verts in blocks])
        try:
            w, vecs = np.linalg.eigh(stack[owner, V[:, :, None], V[:, None, :]])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
        x = np.ascontiguousarray(vecs[:, :, -1])
        rows = np.arange(len(blocks))
        x[x[rows, np.abs(x).argmax(axis=1)] < 0] *= -1.0  # the sign making the largest entry positive
        x[(x < 0) & (x > -_CLAMP)] = 0.0
        if (x < 0).any():
            raise ConvergenceError("no nonnegative top eigenvector on a connected block")
        for (i, verts), lam, x_sub in zip(blocks, w[:, -1].tolist(), x):
            solved[i].append((verts, lam, x_sub))
    lams = np.empty(k)
    X = np.zeros((k, n))
    residual = np.empty(k)
    for i, (G, items) in enumerate(zip(graphs, solved)):
        top = max(lam for _, lam, _ in items)
        ties = [item for item in items if item[1] >= top - COMPONENT_TIE_TOL]
        if len(ties) > 1:
            ties.sort(key=lambda item: (canonical_form(induced_subgraph(G, item[0])), item[0][0]))
        verts, lams[i], x_sub = ties[0]
        x = X[i]
        x[verts] = x_sub / np.linalg.norm(x_sub)
        residual[i] = np.abs(stack[i] @ x - lams[i] * x).max()
        if residual[i] > RESIDUAL_TOL:
            raise ConvergenceError(f"residual {residual[i]:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return lams, X, residual, np.array([len(items) for items in solved])


def spectral_radius(G: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of the alpha matrix with a nonnegative unit eigenvector.

    For a disconnected graph the vector is supported on one maximizing
    component and zero elsewhere.
    """
    lam, X, residual, n_components = _perron_stack([G], check_alpha(alpha))
    x = X[0]
    idx = int(np.argmin(x))
    return SpectralResult(
        lambda_alpha=float(lam[0]),
        eigvec=x,
        min_entry=float(x[idx]),
        min_index=idx,
        residual=float(residual[0]),
        iterations=int(n_components[0]),
    )

