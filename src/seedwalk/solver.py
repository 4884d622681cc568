"""Assemble and solve the transient-subgraph system (D - A_TT) x = A_TS beta.

With A the graph's adjacency matrix, T the transient nodes and S the seeds,
the system is two slices of A's transient rows: D is their row sums (the
original-graph degrees), A_TT the transient-induced subgraph, and A_TS beta
sums, per transient node, the affinities of its seed neighbors. This is the
harmonic-function system f_u = (D_uu - W_uu)^-1 W_ul f_l of
Zhu-Ghahramani-Lafferty (2003). D - A_TT is symmetric and diagonally
dominant (a row restricted to some columns has no more entries than the
whole row), strictly so wherever a transient node borders a seed. One matrix
and one Jacobi preconditioner serve all l communities. The right-hand sides
stay sparse (most transient nodes border no seed) and are solved by
preconditioned conjugate gradient in balanced blocks of at most BLOCK
columns, in up to `jobs` worker processes; each block densifies only its own
columns, and its solution is written straight into the caller's array.

Every column comes out bit-identical to a solve of it alone, because every
per-column sum runs row by row: the working arrays stay C-ordered and a lone
column is summed explicitly (see _coldot). So blocks may group columns
any way and run in any process: the result does not depend on `jobs`.

scipy is imported by assemble, at the first solve, and by any process that
unpickles a system: commands that never solve (generate, --help, input
errors) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .markov import AbsorbingChain
from .pool import pool_map
from .seeds import SeedSet

if TYPE_CHECKING:
    import scipy.sparse

DEFAULT_TOL = 1e-8
# the widest block of right-hand sides solved together, in any process: wide enough
# to amortize the sparse matvec's pass over the matrix, small enough to bound each
# process's working memory at O(dim * BLOCK) whatever the number of communities.
# Sparse matvec cost per column at dim 9,000 (2 vCPUs): 0.14 ms at 8 columns,
# 0.09-0.11 ms at 16, 0.09-0.13 ms at 32; 16 holds half the memory of 32
BLOCK = 16


@dataclass(frozen=True)
class SolveReport:
    """Telemetry for one iterative solve."""

    iterations: int
    relative_residual: float
    converged: bool


@dataclass(frozen=True)
class AbsorbingSystem:
    """The assembled system: sparse D - A_TT (the transient block of the graph
    Laplacian), its diagonal D and all l right-hand sides A_TS beta as a
    sparse dim x l CSC matrix b. A solve densifies at most BLOCK columns of b
    at a time."""

    laplacian: scipy.sparse.csr_matrix
    diag: np.ndarray
    b: scipy.sparse.csc_matrix

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def communities(self) -> int:
        return self.b.shape[1]

    @property
    def rhs(self) -> np.ndarray:
        """b as a dense dim x l array: a fresh copy, for residual checks only."""
        return self.b.toarray()

    def matrix(self) -> scipy.sparse.csr_matrix:
        """Sparse D - A_TT over the transient subgraph."""
        return self.laplacian


def assemble(chain: AbsorbingChain, affinities: SeedSet) -> AbsorbingSystem:
    """Slice D - A_TT and the l right-hand sides A_TS beta out of the adjacency.

    The SeedSet must cover exactly the chain's seeds. b[v, i] is the sum
    of beta_i(s) over seed neighbors s of transient node v, added in the
    same CSR order as a product with the dense rows would add them.
    """
    if not np.array_equal(affinities.ids, chain.seeds):
        raise ValueError("seed ids of the affinity set do not match the chain's seeds")
    import scipy.sparse

    g = chain.graph
    adjacency = scipy.sparse.csr_matrix((np.ones(g.targets.size), g.targets, g.offsets), shape=(g.n, g.n))
    rows = adjacency[chain.transient]
    diag = np.diff(rows.indptr).astype(np.float64)
    laplacian = (scipy.sparse.diags(diag) - rows[:, chain.transient]).tocsr()
    b = (rows[:, chain.seeds] @ scipy.sparse.csr_matrix(affinities.rows)).tocsc()
    return AbsorbingSystem(laplacian, diag, b)


def solve_iterative_all(
    system: AbsorbingSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    jobs: int = 1,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, list[SolveReport]]:
    """PCG over many right-hand sides in blocks of at most BLOCK columns, in up to `jobs` processes.

    A column converges when its true relative residual ||(D-A)x - b|| / ||b||
    is at most tol; on budget exhaustion its last iterate is returned with
    converged=False. A zero right-hand side short-circuits to the zero vector.
    Solution row i is written to row rows[i] of out, which is returned; by
    default out is a fresh zero dim x l array and rows is 0..dim-1. Columns
    with a zero right-hand side are not written, so out must hold zeros there.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter is None:
        max_iter = 10 * system.dim + 100
    if out is None:
        out = np.zeros((system.dim, system.communities))
    if rows is None:
        rows = np.arange(system.dim)
    used, rel = np.zeros(system.communities, dtype=np.int64), np.zeros(system.communities)
    # a sum of squares is zero exactly when every square is, in any order:
    # these are the columns whose dense norm ||b|| is positive
    b = system.b
    squares = np.bincount(np.repeat(np.arange(b.shape[1]), np.diff(b.indptr)), b.data * b.data, b.shape[1])
    live = np.flatnonzero(squares > 0)
    # ceil(live / BLOCK) balanced blocks, rounded up to a multiple of the workers used
    blocks = max(1, -(-live.size // BLOCK))
    jobs = min(max(jobs, 1), blocks)
    tasks = [(cols, tol, max_iter) for cols in np.array_split(live, -(-blocks // jobs) * jobs)]
    for cols, x, n, r in pool_map(_solve_block, tasks, jobs, shared=(system,)):
        out[np.ix_(rows, cols)], used[cols], rel[cols] = x, n, r
        del x  # free it before this process solves the next block
    reports = [SolveReport(int(used[j]), float(rel[j]), bool(rel[j] <= tol)) for j in range(system.communities)]
    return out, reports


def _solve_block(system, cols, tol, max_iter) -> tuple:
    """(cols, X, iterations, relative residuals) of the right-hand sides cols."""
    # C order, or _coldot would sum ||b|| pairwise instead of row by row; b
    # holds no duplicate or zero entries (assemble's product sums the one and
    # drops the other), so placing its entries is what densifying would add
    b = system.b
    counts = b.indptr[cols + 1] - b.indptr[cols]
    # where the block's entries sit in b.data, column after column
    at = np.arange(counts.sum()) + np.repeat(b.indptr[cols] - (np.cumsum(counts) - counts), counts)
    B = np.zeros((system.dim, cols.size))
    B[b.indices[at], np.repeat(np.arange(cols.size), counts)] = b.data[at]
    bnorm = _colnorm(B)
    X, used, rel = np.zeros_like(B), np.zeros(cols.size, dtype=np.int64), np.zeros(cols.size)
    pending = np.arange(cols.size)
    # a few restarts from the current iterate catch columns whose
    # recursive residual stopped short of the true one (rare)
    for _ in range(4):
        if not pending.size:
            break
        _pcg(system, B, X, used, pending, tol, max_iter)
        rel[pending] = _colnorm(B.take(pending, axis=1) - system.laplacian @ X.take(pending, axis=1)) / bnorm[pending]
        pending = pending[(rel[pending] > tol) & (used[pending] < max_iter)]
    return cols, X, used, rel


def _pcg(system, B, X, used, cols, tol, max_iter) -> None:
    """Jacobi-PCG on the columns cols of B, from their current iterate in X.

    Updates X and the iteration counts in used in place. A column leaves
    the working set, before the next matvec, once its recursive residual
    norm is at most tol * ||b||, its budget max_iter is spent, or its
    curvature p'Ap is not positive. Besides the matvec, an iteration
    allocates nothing block-sized: alpha p, alpha Ap and D^-1 r are each
    written into Ap, whose product is no longer needed by then.
    """
    L = system.matrix()
    inv_diag = (1.0 / system.diag)[:, None]
    x = X.take(cols, axis=1)
    r = B.take(cols, axis=1)  # b, until its norm is taken
    bound = tol * _colnorm(r)
    if x.any():  # on a block's first pass x is zero, and b - L @ 0 is b bit for bit
        r -= L @ x
    p = inv_diag * r
    rz = _coldot(r, p)
    rn = _colnorm(r)
    pAp = np.full(cols.size, np.inf)  # no curvature measured yet
    while True:
        done = (rn <= bound) | (used[cols] >= max_iter) | (pAp <= 0.0)
        if done.any():
            X[:, cols[done]] = x[:, done]
            keep = ~done
            if not keep.any():
                return
            # compress keeps C order; boolean column indexing would return
            # F-ordered arrays, whose columns einsum sums pairwise instead of
            # row by row, so a column's bits would depend on its neighbours.
            # One at a time, so only one old array is held beside its copy
            cols, rz, bound = cols[keep], rz[keep], bound[keep]
            x = np.compress(keep, x, axis=1)
            r = np.compress(keep, r, axis=1)
            p = np.compress(keep, p, axis=1)
        Ap = L @ p
        pAp = _coldot(p, Ap)
        alpha = np.divide(rz, pAp, out=np.zeros_like(pAp), where=pAp > 0.0)
        r -= np.multiply(alpha, Ap, out=Ap)
        x += np.multiply(alpha, p, out=Ap)
        used[cols] += 1
        rn = _colnorm(r)
        z = np.multiply(inv_diag, r, out=Ap)
        rz_new = _coldot(r, z)
        beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=rz > 0.0)
        p *= beta
        p += z
        rz = rz_new
        del Ap, z  # so the next matvec and compress hold no stale block


def _coldot(A, B) -> np.ndarray:
    """Per-column dot products, each summed row by row in order.

    numpy sums the columns of a C-ordered 2-D array that way once there are
    two or more, but a lone column gets pairwise summation; summing it
    explicitly keeps a column's result independent of how many columns
    share its block.
    """
    if A.shape[1] == 1:
        return np.cumsum(A[:, 0] * B[:, 0])[-1:]
    return np.einsum("ij,ij->j", A, B)


def _colnorm(A) -> np.ndarray:
    return np.sqrt(_coldot(A, A))
