"""Assemble and solve the transient-subgraph system (D - A_TT) x = A_TS beta.

With A the graph's adjacency matrix, T the transient nodes and S the seeds,
the system is two slices of A's transient rows: D is their row sums (the
original-graph degrees), A_TT the transient-induced subgraph, and A_TS beta
sums, per transient node, the affinities of its seed neighbors. This is the
harmonic-function system f_u = (D_uu - W_uu)^-1 W_ul f_l of
Zhu-Ghahramani-Lafferty (2003). D - A_TT is symmetric and diagonally
dominant (a row restricted to some columns has no more entries than the
whole row), strictly so wherever a transient node borders a seed. One matrix
and one Jacobi preconditioner serve all l communities; the right-hand sides
are solved by conjugate gradient in blocks of BLOCK columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .markov import AbsorbingChain
from .seeds import SeedSet

DEFAULT_TOL = 1e-8
# right-hand sides solved together: wide enough to amortize the sparse
# matvec's pass over the matrix, small enough to bound working memory at
# O(dim * BLOCK) whatever the number of communities
BLOCK = 32


@dataclass(frozen=True)
class SolveReport:
    """Telemetry for one iterative solve."""

    iterations: int
    relative_residual: float
    converged: bool


@dataclass(frozen=True)
class AbsorbingSystem:
    """The assembled system: sparse D - A_TT (the transient block of the graph
    Laplacian), its diagonal D and all l right-hand sides."""

    chain: AbsorbingChain
    laplacian: scipy.sparse.csr_matrix
    diag: np.ndarray
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return self.rhs.shape[0]

    @property
    def communities(self) -> int:
        return self.rhs.shape[1]

    def matrix(self) -> scipy.sparse.csr_matrix:
        """Sparse D - A_TT over the transient subgraph."""
        return self.laplacian


def assemble(chain: AbsorbingChain, affinities: SeedSet) -> AbsorbingSystem:
    """Slice D - A_TT and the l right-hand sides A_TS beta out of the adjacency.

    The SeedSet must cover exactly the chain's seeds. rhs[v, i] is the sum
    of beta_i(s) over seed neighbors s of transient node v.
    """
    if not np.array_equal(affinities.ids, chain.seeds):
        raise ValueError("seed ids of the affinity set do not match the chain's seeds")
    g = chain.graph
    adjacency = scipy.sparse.csr_matrix((np.ones(g.targets.size), g.targets, g.offsets), shape=(g.n, g.n))
    rows = adjacency[chain.transient]
    diag = np.diff(rows.indptr).astype(np.float64)
    laplacian = (scipy.sparse.diags(diag) - rows[:, chain.transient]).tocsr()
    rhs = rows[:, chain.seeds] @ affinities.rows
    return AbsorbingSystem(chain, laplacian, diag, rhs)


def solve_iterative_all(
    system: AbsorbingSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> tuple[np.ndarray, list[SolveReport]]:
    """PCG over many right-hand sides, BLOCK columns at a time.

    Columns are mathematically and numerically independent (per-column
    step sizes, per-column sums in a fixed order), so every column is
    bit-identical to the solve of a system holding it alone; converged columns freeze
    early. A zero right-hand side short-circuits to the zero vector.

    Each column stops when its true relative residual ||(D-A)x - b|| / ||b||
    drops below tol; on budget exhaustion the best iterate is returned with
    converged=False.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter is None:
        max_iter = 10 * system.dim + 100
    B = system.rhs
    ncol = B.shape[1]
    if system.dim == 0:
        return np.empty((0, ncol)), [SolveReport(0, 0.0, True)] * ncol

    L = system.matrix()
    inv_diag = 1.0 / system.diag
    bnorm = _colnorm(B)
    X = np.zeros_like(B)
    used = np.zeros(ncol, dtype=np.int64)
    rel = np.zeros(ncol)
    live = np.flatnonzero(bnorm > 0)
    for start in range(0, live.size, BLOCK):
        cols = live[start : start + BLOCK]
        X[:, cols], used[cols], rel[cols] = _solve_block(L, inv_diag, B[:, cols], bnorm[cols], tol, max_iter)
    reports = [SolveReport(int(used[j]), float(rel[j]), bool(rel[j] <= tol)) for j in range(ncol)]
    return X, reports


def _solve_block(L, inv_diag, B, bnorm, tol, max_iter):
    """Solve one block of nonzero right-hand sides.

    Returns the solutions, per-column iteration counts and final true
    relative residuals ||(D-A)x - b|| / ||b||.
    """
    X = np.zeros_like(B)
    used = np.zeros(B.shape[1], dtype=np.int64)
    rel = np.zeros(B.shape[1])
    pending = np.arange(B.shape[1])
    # a few restart rounds catch columns whose recursive residual stopped
    # short of the true one (rare)
    for _ in range(4):
        if pending.size == 0:
            break
        used += _pcg_core(L, inv_diag, B, X, tol * bnorm, max_iter - used, pending)
        rel[pending] = _colnorm(B[:, pending] - L @ X[:, pending]) / bnorm[pending]
        pending = pending[(rel[pending] > tol) & (used[pending] < max_iter)]
    return X, used, rel


def _coldot(A, B) -> np.ndarray:
    """Per-column dot products, each summed row by row in order.

    numpy sums the columns of a 2-D array that way once there are two or
    more, but a lone column gets pairwise summation; summing it explicitly
    keeps a column's result independent of how many columns share its block.
    """
    if A.shape[1] == 1:
        return np.cumsum(A[:, 0] * B[:, 0])[-1:]
    return np.einsum("ij,ij->j", A, B)


def _colnorm(A) -> np.ndarray:
    return np.sqrt(_coldot(A, A))


def _pcg_core(L, inv_diag, B, X, thresholds, budget, cols) -> np.ndarray:
    """One PCG run over the given columns, updating X in place.

    Returns per-column iteration counts (full-length array). Columns drop
    out of the working set as their recursive residual passes its threshold
    or their budget runs out.
    """
    used = np.zeros(B.shape[1], dtype=np.int64)
    alive = np.asarray(cols, dtype=np.int64)
    Xw = X[:, alive].copy()
    Rw = B[:, alive] - L @ Xw
    Zw = inv_diag[:, None] * Rw
    Pw = Zw.copy()
    rzw = _coldot(Rw, Zw)
    thw = thresholds[alive]
    remw = budget[alive].copy()

    # already satisfied columns exit immediately
    rn = _colnorm(Rw)
    done = rn <= thw
    if done.any():
        X[:, alive[done]] = Xw[:, done]
        keep = ~done
        alive, Xw, Rw, Pw, rzw, thw, remw = _compact(alive, Xw, Rw, Pw, rzw, thw, remw, keep)

    while alive.size:
        Ap = L @ Pw
        pAp = _coldot(Pw, Ap)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(pAp > 0.0, rzw / pAp, 0.0)
        Xw += alpha * Pw
        Rw -= alpha * Ap
        used[alive] += 1
        remw -= 1

        rn = _colnorm(Rw)
        done = (rn <= thw) | (remw <= 0) | (pAp <= 0.0)
        if done.any():
            X[:, alive[done]] = Xw[:, done]
            keep = ~done
            alive, Xw, Rw, Pw, rzw, thw, remw = _compact(alive, Xw, Rw, Pw, rzw, thw, remw, keep)
            if not alive.size:
                break

        Zw = inv_diag[:, None] * Rw
        rz_new = _coldot(Rw, Zw)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(rzw > 0.0, rz_new / rzw, 0.0)
        Pw = Zw + beta * Pw
        rzw = rz_new

    return used


def _compact(alive, Xw, Rw, Pw, rzw, thw, remw, keep):
    return (
        alive[keep],
        Xw[:, keep],
        Rw[:, keep],
        Pw[:, keep],
        rzw[keep],
        thw[keep],
        remw[keep],
    )
