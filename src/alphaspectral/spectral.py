"""The matrix alpha*D + (1-alpha)*A and its certified largest eigenvalue.

All solves go through a full symmetric eigendecomposition (LAPACK's
Householder tridiagonalization with implicit-shift iteration via
numpy.linalg.eigh); sizes are capped at 64 so there is no need for an
iterative path. Certified radii are solved for a stack of same-order bit
rows at once, at each alpha of a grid: every component, a connected graph
being one of n vertices, is a principal block of the stack with one eigh
per block size, and `spectral_radius` is the one-graph, one-alpha case. The
returned eigenvector is the Perron vector of a maximizing component,
picked by array operations and embedded in zeros; only components tied
within 1e-10 go through the tie rule, the smaller canonical form first.

Contracts: the eigenvector is entrywise nonnegative with unit norm within
1e-12, and the max-norm residual of the eigenpair is at most 1e-10; a solve
that cannot meet them raises instead of returning silently.

The extremal search bounds radii by power steps, polynomials in alpha whose
integer coefficients `_bound_terms` builds once per stack of bit rows. They
are laid out vertex-major, (vertex, graph), so each alpha's bounds reduce
over n rows of k graphs: numpy then runs a few long vectorised loops
instead of one loop of n <= 12 entries per graph, ~2x faster per alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import canonical_form
from .graphs import Graph, induced_subgraph

RESIDUAL_TOL = 1e-10
COMPONENT_TIE_TOL = 1e-10
_CLAMP = 1e-12
_BOUND_STEPS = 3
_BOUND_CELLS = 1 << 13  # matrix entries per chunk of _bound_terms: 64 KB of float64


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
    occurrence); iterations is the number of connected components, each
    solved as its own block.
    """

    lambda_alpha: float
    eigvec: np.ndarray
    min_entry: float
    min_index: int
    residual: float
    iterations: int


def _alpha_matrices(rows, a) -> np.ndarray:
    """Alpha matrices of bit rows at alpha a, or at a[i] for graph i: one
    graph's n rows give (n, n), a k x n stack of same-order graphs (k, n, n).
    Bits are unpacked to uint8, so the only full-size temporary takes one
    byte per entry; the degrees are integer sums of those bytes (einsum
    outpaces sum here), scaled in place on the diagonal."""
    R = np.asarray(rows, dtype="<u8")
    n, a = R.shape[-1], np.asarray(a, dtype=np.float64)
    U = np.unpackbits(R[..., None].view(np.uint8), axis=-1, count=n, bitorder="little")
    deg = np.einsum("...ij->...i", U)
    A = U.astype(np.float64)
    A *= (1.0 - a)[..., None, None]
    diag = A.reshape(-1, n * n)[:, :: n + 1]  # every (n+1)-th flat entry is diagonal
    diag[:] = deg
    diag *= a[..., None]
    return A


def _bound_terms(rows) -> tuple[np.ndarray, np.ndarray]:
    """The alpha-free part of `_radius_bounds` for a k x n stack of bit rows:
    with M = A + alpha (D - A), the coefficients in alpha, lowest power
    first, of x = (I + M)^s 1 (s = _BOUND_STEPS) and of y = Mx, as
    vertex-major arrays (s, n, k) and (s + 1, n, k), the layout of
    `_Classes.degrees`, so the bounds reduce over n rows of k graphs; the
    first step gives 1 + d at every alpha. They are integers below
    (1 + 3 Delta)^(s + 1) (1.4e6 at n = 12), so float64 builds them exactly,
    _BOUND_CELLS matrix entries at a time, each chunk into its columns."""
    R = np.asarray(rows)
    k, n = R.shape
    X, Y = np.empty((_BOUND_STEPS, n, k)), np.empty((_BOUND_STEPS + 1, n, k))
    step = max(1, _BOUND_CELLS // (n * n))
    for s in range(0, k, step):
        A = _alpha_matrices(R[s : s + step], 0.0)  # the adjacency matrices
        deg = np.einsum("kij->ki", A)

        def times_m(C):  # the coefficients of Mc = Ac + alpha (D - A)c, one power more than those C of c
            AC = np.einsum("kij,pkj->pki", A, C)  # einsum outpaces matmul on small blocks
            MC = np.zeros((len(C) + 1, *C.shape[1:]))
            MC[:-1] = AC
            MC[1:] += deg * C - AC
            return MC

        C = 1.0 + deg[None]
        for _ in range(_BOUND_STEPS - 1):  # c <- c + Mc
            MC = times_m(C)
            MC[:-1] += C
            C = MC
        X[..., s : s + step], Y[..., s : s + step] = C.transpose(0, 2, 1), times_m(C).transpose(0, 2, 1)
    return X, Y


def _radius_bounds(terms: tuple[np.ndarray, np.ndarray], a: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-graph (lower, upper) bounds on lambda_alpha at one checked alpha,
    from the stack's vertex-major `_bound_terms`: x >= 1 (M >= 0, and the
    shift I covers isolated vertices) and y = Mx by Horner's rule, with no
    matrix. Both reductions run over the leading (vertex) axis, vectorised
    across the graphs.

    lower is the Rayleigh quotient x.y / x.x. upper is the Collatz-Wielandt
    bound max_j y_j / x_j, which holds for any nonnegative M and x > 0,
    reducible M included: for a nonnegative left Perron vector z,
    rho z.x = z.Mx <= upper z.x with z.x > 0. Both are scale-free, so x is
    not normalised. From exact coefficients, Horner's rule keeps them within
    about 1e-14 of the exact bounds at n <= 12.
    """
    x, y = (C[-1].copy() for C in terms)
    for v, C in zip((x, y), terms):  # Horner's rule, in place
        for c in C[-2::-1]:
            v *= a
            v += c
    lower = np.einsum("ik,ik->k", x, y) / np.einsum("ik,ik->k", x, x)
    y /= x  # in place: one n x k temporary fewer at the call's memory peak
    return lower, y.max(axis=0)


def alpha_matrix(G: Graph, alpha: float) -> np.ndarray:
    """Dense n x n matrix with alpha*deg on the diagonal, 1-alpha on edges."""
    return _alpha_matrices(G.rows, check_alpha(alpha))


def lambda_alpha(G: Graph, alpha: float) -> float:
    """Largest eigenvalue only (no eigenvector bookkeeping)."""
    return float(_top_eigenvalues(alpha_matrix(G, alpha)[None])[0])


def _top_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of a (k, n, n) symmetric stack."""
    try:
        return np.linalg.eigvalsh(M)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc


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


def _perron_stack(rows, alphas):
    """Certified Perron pairs of a k x n stack of bit rows at each of t
    checked alphas: (lam, X, residual, n_components) as arrays whose entry
    i * t + u is graph i at alphas[u], X holding one nonnegative unit vector
    per entry. Components come from each graph's reach, closed in
    n.bit_length() rounds that each OR in the reach of every reached vertex
    (path lengths double); a vertex's root is the least vertex it reaches."""
    R = np.asarray(rows, dtype=np.uint64)
    k, n = R.shape
    t = len(alphas)
    shifts = np.arange(n, dtype=np.uint64)
    reach = R | np.uint64(1) << shifts
    for _ in range(n.bit_length()):
        reach = np.bitwise_or.reduce(reach[:, None, :] * (reach[:, :, None] >> shifts & np.uint64(1)), axis=2)
    U = np.unpackbits(reach.astype("<u8")[..., None].view(np.uint8), axis=-1, count=n, bitorder="little")
    root, size = U.argmax(axis=2), U.sum(axis=2)  # U[i, v, w]: v reaches w
    is_root = root == np.arange(n)
    stack = _alpha_matrices(np.repeat(R, t, 0), np.tile(alphas, k))
    lams, X, n_components = np.empty(k * t), np.zeros((k * t, n)), np.repeat(is_root.sum(axis=1), t)
    groups, top, ties = [], np.full(k * t, -np.inf), {}
    for s in sorted(set(size[is_root].tolist())):  # owner, vertices, radii, vectors
        graph, v = np.nonzero(is_root & (size == s))
        owner = (graph[:, None] * t + np.arange(t)).ravel()  # each component at every alpha
        V = np.repeat(np.nonzero(root[graph] == v[:, None])[1].reshape(-1, s), t, 0)
        groups.append((owner, V, *_top_pairs(stack[owner[:, None, None], V[:, :, None], V[:, None, :]])))
        np.maximum.at(top, owner, groups[-1][2])
    tied = [lam >= top[owner] - COMPONENT_TIE_TOL for owner, _, lam, _ in groups]
    count = sum(np.bincount(owner[tie], minlength=k * t) for (owner, *_), tie in zip(groups, tied))
    for (owner, V, lam, x), tie in zip(groups, tied):
        one = tie & (count[owner] == 1)
        lams[owner[one]], X[owner[one, None], V[one]] = lam[one], x[one]
        for b in np.flatnonzero(tie & ~one).tolist():
            ties.setdefault(int(owner[b]), []).append((V[b].tolist(), lam[b], x[b]))
    for j, items in ties.items():
        G = Graph(n, tuple(R[j // t].tolist()))  # the smaller canonical form, then first vertex
        verts, lams[j], X[j, verts] = min(items, key=lambda it: (canonical_form(induced_subgraph(G, it[0])), it[0][0]))
    residual = np.abs(np.matmul(stack, X[:, :, None])[:, :, 0] - lams[:, None] * X).max(axis=1)
    if (residual > RESIDUAL_TOL).any():
        raise ConvergenceError(f"residual {residual[residual > RESIDUAL_TOL][0]:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return lams, X, residual, n_components


def spectral_radius(G: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of the alpha matrix with a nonnegative unit eigenvector.

    For a disconnected graph the vector is supported on one maximizing
    component and zero elsewhere.
    """
    lam, X, residual, n_components = _perron_stack([G.rows], [check_alpha(alpha)])
    idx = int(np.argmin(X[0]))
    return SpectralResult(float(lam[0]), X[0], float(X[0, idx]), idx, float(residual[0]), int(n_components[0]))

