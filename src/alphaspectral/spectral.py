"""The matrix alpha*D + (1-alpha)*A and its certified largest eigenvalue.

All solves go through a full symmetric eigendecomposition (LAPACK's
Householder tridiagonalization with implicit-shift iteration via
numpy.linalg.eigh); sizes are capped at 64 so there is no need for an
iterative path. Disconnected graphs are solved per component and the
returned eigenvector is the Perron vector of a maximizing component
embedded in zeros, which keeps the result deterministic even when the top
eigenvalue is shared by several components: ties within 1e-10 go to the
component with the smaller canonical form.

Contracts: the eigenvector is entrywise nonnegative with unit norm within
1e-12, and the max-norm residual of the eigenpair is at most 1e-10; a solve
that cannot meet them raises instead of returning silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import canonical_form
from .graphs import Graph, components, induced_subgraph, positive_int

RESIDUAL_TOL = 1e-10
COMPONENT_TIE_TOL = 1e-10
_CLAMP = 1e-12


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
    so the only full-size temporary takes one byte per entry; degrees are
    sums of 0/1 floats, hence exact."""
    R = np.asarray(rows, dtype="<u8")
    n = R.shape[-1]
    A = np.unpackbits(R[..., None].view(np.uint8), axis=-1, count=n, bitorder="little").astype(np.float64)
    deg = A.sum(axis=-1)
    A *= 1.0 - a
    A.reshape(-1, n * n)[:, :: n + 1] = a * deg  # every (n+1)-th flat entry is diagonal
    return A


def alpha_matrix(G: Graph, alpha: float) -> np.ndarray:
    """Dense n x n matrix with alpha*deg on the diagonal, 1-alpha on edges."""
    return _alpha_matrices(G.rows, check_alpha(alpha))


def lambda_alpha(G: Graph, alpha: float) -> float:
    """Largest eigenvalue only (no eigenvector bookkeeping)."""
    try:
        return float(np.linalg.eigvalsh(alpha_matrix(G, alpha))[-1])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc


def lambda_alpha_many(graphs, alpha: float) -> np.ndarray:
    """Largest eigenvalues for a batch of same-order graphs."""
    a = check_alpha(alpha)
    graphs = list(graphs)
    if not graphs:
        return np.empty(0)
    n = graphs[0].n
    if any(G.n != n for G in graphs):
        raise ValueError("batched solve requires graphs of equal order")
    stack = _alpha_matrices([G.rows for G in graphs], a)
    try:
        return np.linalg.eigvalsh(stack)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"batched eigenvalue solve failed: {exc}") from exc


def _solve_nonnegative(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair with the eigenvector coerced to the nonnegative choice."""
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    lam = float(w[-1])
    x = V[:, -1].copy()
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    x[(x < 0) & (x > -_CLAMP)] = 0.0
    if (x < 0).any():
        raise ConvergenceError("no nonnegative top eigenvector on a connected block")
    return lam, x / np.linalg.norm(x)


def spectral_radius(G: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of the alpha matrix with a nonnegative unit eigenvector.

    For a disconnected graph the vector is supported on one maximizing
    component and zero elsewhere.
    """
    A = alpha_matrix(G, alpha)
    comps = components(G)
    # each component is solved on its principal block of A
    solved = [(verts, *_solve_nonnegative(A.take(verts, 0).take(verts, 1))) for verts in comps]
    top = max(lam for _, lam, _ in solved)
    ties = [item for item in solved if item[1] >= top - COMPONENT_TIE_TOL]
    if len(ties) > 1:
        ties.sort(key=lambda item: (canonical_form(induced_subgraph(G, item[0])), item[0][0]))
    verts, lam, x_sub = ties[0]
    x = np.zeros(G.n)
    x[verts] = x_sub
    residual = float(np.abs(A @ x - lam * x).max())
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
    idx = int(np.argmin(x))
    return SpectralResult(
        lambda_alpha=lam,
        eigvec=x,
        min_entry=float(x[idx]),
        min_index=idx,
        residual=residual,
        iterations=len(comps),
    )


def blowup_lambda(G: Graph, alpha: float, p: int) -> float:
    """p times the radius of G, which equals the radius of the p-blow-up.

    The blow-up's alpha matrix collapses onto p times G's alpha matrix
    under the vertex-class partition, so the identity is exact; the
    verifier asserts it against an eigensolve of the blown-up graph.
    """
    return positive_int(p, "blow-up factor") * lambda_alpha(G, alpha)
