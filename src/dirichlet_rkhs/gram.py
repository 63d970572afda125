"""Normalized Gram matrices of kernel functions, with certified Hermitian
eigen/solve primitives.

A Gram matrix is one spaces.kernel_matrix call, normalized by the square
roots of its own diagonal.  Dirichlet-series entries, diagonal included,
share one series length N and one shift-correction grid, so each is within
the configured tol plus product rounding of about N u sum |terms|; the
half-plane entries and norms are kernel_value's and kernel_norm's bit for bit.

Eigenvalues come from LAPACK's Hermitian eigensolver (numpy.linalg.eigh);
every returned eigenvalue carries a residual certificate against the
original matrix.  The linear solver is LAPACK's Cholesky factorization
(scipy.linalg.cho_factor, valid for positive definite input) with a pivot
floor, iterative refinement and a residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IllConditionedError, SizeError
from .spaces import PointSequence, SpaceId, _diagonal_norm, kernel_matrix
from .zeta import EvalConfig

_DEFAULT_CFG = EvalConfig()

GRAM_SIZE_CAP = 512


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Normalized kernel Gram matrix G[l][j] = k_{s_j}(s_l) / (|k_j| |k_l|).

    Entries are stored read-only; the diagonal is exactly 1 and the
    off-diagonal part is exactly Hermitian by upper-triangle mirroring.
    norms holds the kernel norms |k_j|, the square roots of the kernel
    matrix's own diagonal (empty for a matrix built from given entries).
    """

    entries: np.ndarray
    space: SpaceId
    sequence: PointSequence
    norms: tuple[float, ...] = ()

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise SizeError(f"entries must be square, got shape {e.shape}")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _normalized_kernel_matrix(space: SpaceId, pts,
                              cfg: EvalConfig) -> tuple[list, list[float]]:
    """G[l][j] = k_{pts[j]}(pts[l]) / (|k_j| |k_l|) as nested lists, and the
    norms |k_j|, from one kernel_matrix call: each norm is the checked square
    root of its own diagonal entry, and the upper triangle is divided in Python
    complex arithmetic and mirrored, so G is Hermitian with diagonal exactly 1.
    """
    n = len(pts)
    k = kernel_matrix(space, pts, pts, cfg).tolist()
    norms = [_diagonal_norm(k[j][j], p) for j, p in enumerate(pts)]
    g = [[1.0 + 0.0j] * n for _ in range(n)]
    for l in range(n):
        for j in range(l + 1, n):
            g[l][j] = k[l][j] / (norms[j] * norms[l])
            g[j][l] = g[l][j].conjugate()
    return g, norms


def gram_matrix(space: SpaceId, seq: PointSequence,
                cfg: EvalConfig = _DEFAULT_CFG,
                cap: int = GRAM_SIZE_CAP) -> GramMatrix:
    """Assemble the normalized Gram matrix for a point sequence.

    One kernel_matrix call gives the entries and, from its own diagonal,
    the norms; see _normalized_kernel_matrix and the module docstring.
    """
    n = len(seq)
    if n > cap:
        raise SizeError(f"sequence of {n} points exceeds cap {cap}")
    g, norms = _normalized_kernel_matrix(space, seq.points, cfg)
    return GramMatrix(np.array(g, dtype=np.complex128), space, seq, tuple(norms))


def smallest_eigenvalue(g: GramMatrix) -> float:
    """Smallest eigenvalue of a Hermitian Gram matrix, residual-certified.

    The certificate checks ||G v - lambda v|| <= 1e-10 for the returned
    eigenpair against the original entries.
    """
    a = np.asarray(g.entries)
    diag, v = np.linalg.eigh(a)
    lam = float(diag[0])
    vec = v[:, 0]
    resid = float(np.linalg.norm(a @ vec - lam * vec))
    if resid > 1e-10 * max(1.0, float(np.linalg.norm(a))):
        raise ConvergenceError(
            f"eigen residual {resid:.3g} exceeds certificate threshold"
        )
    return lam


def eigenvalues(g: GramMatrix) -> np.ndarray:
    """All eigenvalues, ascending, with a residual certificate on every pair."""
    a = np.asarray(g.entries)
    diag, v = np.linalg.eigh(a)
    resid = float(np.linalg.norm(a @ v - v * diag[None, :]))
    if resid > 1e-9 * max(1.0, float(np.linalg.norm(a))) * g.n:
        raise ConvergenceError(f"eigen residual {resid:.3g} too large")
    return diag


def solve_hermitian_pd(g: GramMatrix, b) -> np.ndarray:
    """Solve G c = b for positive definite G (Cholesky plus refinement).

    Raises IllConditionedError when the factorization fails or a squared
    pivot falls below 1e-12, and when refinement cannot bring the residual
    below 1e-10 * ||b||.
    """
    # imported here, so that importing the library does not load scipy
    from scipy.linalg import cho_factor, cho_solve

    a = np.asarray(g.entries)
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.shape != (g.n,):
        raise SizeError(f"rhs shape {rhs.shape} does not match n={g.n}")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros(g.n, dtype=np.complex128)
    try:
        factor = cho_factor(a, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"Cholesky factorization failed: {exc}") from None
    pivots = np.diagonal(factor[0]).real ** 2
    j = int(np.argmin(pivots))
    if pivots[j] < 1e-12:
        raise IllConditionedError(
            f"Cholesky pivot {pivots[j]:.3g} at index {j} below 1e-12"
        )
    x = cho_solve(factor, rhs)
    for _ in range(4):
        r = rhs - a @ x
        if float(np.linalg.norm(r)) <= 1e-10 * b_norm:
            return x
        x = x + cho_solve(factor, r)
    r = rhs - a @ x
    if float(np.linalg.norm(r)) > 1e-10 * b_norm:
        raise IllConditionedError(
            f"solve residual {float(np.linalg.norm(r)):.3g} stuck above "
            f"1e-10 * ||b|| after refinement"
        )
    return x
