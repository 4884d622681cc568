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
preconditioned conjugate gradient in balanced blocks: of at most BLOCK
columns in up to `jobs` worker processes, or, in one process, of as many as
keep one working array within BLOCK_BYTES. Each block densifies only its own
columns, and its solution goes straight to the caller's sink.

Every column comes out bit-identical to a solve of it alone, because every
per-column sum runs row by row: the working arrays stay C-ordered and a lone
column is summed explicitly (see _coldot). So blocks may group columns
any way and run in any process: the result does not depend on `jobs`.

assemble builds both matrices as plain compressed arrays with numpy, straight
from the graph's offsets and targets. Of scipy, a solve uses only the compiled
CSR-times-dense kernel: whichever process runs a solve block loads scipy's
extension file sparse/_sparsetools by itself (_kernels), in under 1 ms and
0.2 MB of RSS, and imports neither the scipy nor the scipy.sparse package,
which would cost 0.15-0.2 s and about 20 MB per process (most of it scipy's
array-API layer cloning numpy). Only AbsorbingSystem.matrix() imports
scipy.sparse. Commands that never solve (generate, --help, input errors) load
no part of scipy, nor does a `detect` whose seed affinities are all zero (it
runs no block) or whose parent leaves every block to worker processes.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import ModuleType
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError
from .graph import csr_ranges
from .markov import AbsorbingChain
from .pool import pool_map
from .seeds import SeedSet

if TYPE_CHECKING:
    import scipy.sparse

DEFAULT_TOL = 1e-8
# the widest block of right-hand sides a pooled solve hands a worker, and the
# narrowest in one process: wide enough to amortize the sparse matvec's pass over
# the matrix, small enough to bound each process's working memory at
# O(dim * BLOCK) whatever the number of communities.
# Sparse matvec cost per column at dim 9,000 (2 vCPUs): 0.14 ms at 8 columns,
# 0.09-0.11 ms at 16, 0.09-0.13 ms at 32; 16 holds half the memory of 32
BLOCK = 16
# a solve in one process widens its blocks while one dim x width working array
# stays within this many bytes, as a small system pays a fixed Python cost per
# block and PCG iteration: an N=1000 graph (dim 900, l 33) solves in one block,
# detect_wide (dim 9,000) in blocks of BLOCK. A pooled solve keeps BLOCK columns,
# so its tasks do not depend on whether one process could hold them all
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SolveReport:
    """Telemetry for one iterative solve."""

    iterations: int
    relative_residual: float
    converged: bool


class Compressed(NamedTuple):
    """A sparse matrix as its compressed arrays, under scipy's attribute names:
    by rows (CSR) for D - A_TT, by columns (CSC) for b. Indices ascend within
    each row (column), and no exact zero is stored."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


@dataclass(frozen=True)
class AbsorbingSystem:
    """The assembled system: D - A_TT (the transient block of the graph
    Laplacian) in CSR arrays, its diagonal D and all l right-hand sides
    A_TS beta as dim x l CSC arrays b. A solve densifies one block's
    columns of b at a time."""

    laplacian: Compressed
    diag: np.ndarray
    b: Compressed

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def communities(self) -> int:
        return self.b.shape[1]

    @property
    def rhs(self) -> np.ndarray:
        """b as a dense dim x l array: a fresh copy, for residual checks only."""
        return _densify(self.b, np.arange(self.communities))

    def matrix(self) -> scipy.sparse.csr_matrix:
        """D - A_TT as a scipy CSR matrix on the laplacian's data and indices (not copied).

        The one place that imports scipy.sparse, kept for perfbench's traced
        tour and the tests: a solve calls scipy's CSR kernel directly
        (_matmul), with products bit-identical to this matrix's.
        """
        import scipy.sparse

        L = self.laplacian
        return scipy.sparse.csr_matrix((L.data, L.indices, L.indptr), shape=L.shape)


def assemble(chain: AbsorbingChain, affinities: SeedSet) -> AbsorbingSystem:
    """D - A_TT and the l right-hand sides A_TS beta, from the graph's arrays.

    The SeedSet must cover exactly the chain's seeds. Row v of D - A_TT holds
    -1.0 at each transient neighbor of v and v's degree at v's own column, in
    ascending column order. b[v, i] is the sum of beta_i(s) over the seed
    neighbors s of transient node v, added from 0.0 in ascending s: the order
    in which a sparse product A_TS @ beta would add them.
    """
    if not np.array_equal(affinities.ids, chain.seeds):
        raise ValueError("seed ids of the affinity set do not match the chain's seeds")
    g, transient, seeds = chain.graph, chain.transient, chain.seeds
    dim, l = transient.size, affinities.l
    # every node's row (and column) in D - A_TT, -1 for the seeds
    place = np.full(g.n, -1, dtype=np.int32)
    place[transient] = np.arange(dim)
    at, degrees = place[g.targets], g.degrees()
    # the edges of A_TS: each seed's transient neighbours, seed by seed
    nbr = at[csr_ranges(g.offsets[seeds], degrees[seeds])]
    edge = nbr >= 0
    seed, t_row = np.repeat(np.arange(seeds.size), degrees[seeds])[edge], nbr[edge]

    # D - A_TT: the transient neighbours of each transient row in CSR order, with
    # the diagonal placed after those of lower index
    degree = degrees[transient]
    per_row = degree - np.bincount(t_row, minlength=dim)
    col = at[np.repeat(place >= 0, degrees) & (at >= 0)]
    r = np.repeat(np.arange(dim, dtype=np.int32), per_row)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(per_row + 1, out=indptr[1:])
    diagonal = indptr[:-1] + np.bincount(r[col < r], minlength=dim)
    off = np.ones(indptr[-1], dtype=bool)
    off[diagonal] = False
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[off] = col
    indices[diagonal] = np.arange(dim)
    data = np.full(indptr[-1], -1.0)
    data[diagonal] = degree
    laplacian = Compressed(indptr, indices, data, (dim, dim))

    # A_TS beta: one term per A_TS edge and nonzero affinity of its seed, seed by
    # seed (zero affinities add nothing and are not stored)
    nonzero = affinities.rows != 0.0
    per_seed = np.count_nonzero(nonzero, axis=1)
    counts = per_seed[seed]
    terms = np.flatnonzero(nonzero)[csr_ranges((np.cumsum(per_seed) - per_seed)[seed], counts)]
    # a sort-based grouping into column-major entries; bincount adds each
    # entry's terms in input order, so in ascending seed
    keys, entry = np.unique(terms % l * dim + np.repeat(t_row, counts), return_inverse=True)
    b_col, b_row = np.divmod(keys, dim)
    b_indptr = np.zeros(l + 1, dtype=np.int64)
    np.cumsum(np.bincount(b_col, minlength=l), out=b_indptr[1:])
    # (astype: numpy's bincount of no entries is int64 whatever the weights)
    b_data = np.bincount(entry, affinities.rows.ravel()[terms], keys.size).astype(np.float64, copy=False)
    b = Compressed(b_indptr, b_row.astype(np.int32), b_data, (dim, l))
    return AbsorbingSystem(laplacian, degree.astype(np.float64), b)


def solve_iterative_all(
    system: AbsorbingSystem,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    sink: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray | None, list[SolveReport]]:
    """PCG over many right-hand sides in balanced blocks, in up to `jobs` processes.

    A block holds at most BLOCK columns when jobs > 1; in one process it
    holds up to max(BLOCK, BLOCK_BYTES // (8 * dim)), so a small system is
    one block. The grouping changes no bit of any column.

    A column converges when its true relative residual ||(D-A)x - b|| / ||b||
    is at most tol. If any column has not after 10 * dim + 100 iterations,
    ConvergenceError(reports) is raised once every block is solved, with the
    report of every column in order. A zero right-hand side gives the zero vector.
    Each block is handed, in task order, to sink(cols, X): X is the C-ordered
    dim x len(cols) solution of the ascending columns cols, and the blocks
    cover, in order, exactly the columns with a nonzero right-hand side; the
    others are zero and never handed over. By default the sink writes the
    blocks into a fresh zero dim x l array, which is returned (else None).
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    max_iter = 10 * system.dim + 100
    out = np.zeros((system.dim, system.communities)) if sink is None else None
    if sink is None:
        def sink(cols, x):
            out[:, cols] = x
    used, rel = np.zeros(system.communities, dtype=np.int64), np.zeros(system.communities)
    # a sum of squares is zero exactly when every square is, in any order:
    # these are the columns whose dense norm ||b|| is positive
    b = system.b
    squares = np.bincount(np.repeat(np.arange(b.shape[1]), np.diff(b.indptr)), b.data * b.data, b.shape[1])
    live = np.flatnonzero(squares > 0)
    # ceil(live / width) balanced blocks, rounded up to a multiple of the workers used
    width = BLOCK if jobs > 1 else max(BLOCK, BLOCK_BYTES // (8 * max(system.dim, 1)))
    blocks = -(-live.size // width)
    jobs = min(max(jobs, 1), blocks)
    tasks = [(cols, tol, max_iter) for cols in np.array_split(live, -(-blocks // jobs) * jobs)] if blocks else []
    for cols, x, n, r in pool_map(_solve_block, tasks, jobs, shared=(system,)):
        sink(cols, x)
        used[cols], rel[cols] = n, r
        del x  # free it before this process solves the next block
    reports = [SolveReport(n, r, r <= tol) for n, r in zip(used.tolist(), rel.tolist())]
    if not all(r.converged for r in reports):
        raise ConvergenceError(reports)
    return out, reports


def solve_row(system: AbsorbingSystem, t: int, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, SolveReport]:
    """Row t of the solution, as l float64 values, and the report of its one solve.

    D - A_TT is symmetric, so row t of (D - A_TT)^-1 b is y'b with y = (D - A_TT)^-1 e_t:
    one PCG column, then one sum per column of b, and no dim x l solution. y[u] is the
    expected visits to u of a walk from t over u's degree: the absorbed walk's Green's
    function (Doyle & Snell 1984). Raises ConvergenceError if that column misses tol.
    """
    e_t = Compressed(np.array([0, 1]), np.array([t], dtype=np.int32), np.ones(1), (system.dim, 1))
    y, (report,) = solve_iterative_all(replace(system, b=e_t), tol=tol)
    b = system.b
    # (astype: numpy's bincount of no entries is int64 whatever the weights)
    row = np.bincount(np.repeat(np.arange(b.shape[1]), np.diff(b.indptr)), y[b.indices, 0] * b.data, b.shape[1])
    return row.astype(np.float64, copy=False), report


def _solve_block(system, cols, tol, max_iter) -> tuple:
    """(cols, X, iterations, relative residuals) of the right-hand sides cols."""
    # the kernel takes one index type: int32, as csr_matrix picks for fewer than 2**31 entries
    L = system.laplacian._replace(indptr=system.laplacian.indptr.astype(np.int32))
    B = _densify(system.b, cols)
    bnorm = _colnorm(B)
    X, used, rel = np.zeros_like(B), np.zeros(cols.size, dtype=np.int64), np.zeros(cols.size)
    pending = np.arange(cols.size)
    # a few restarts from the current iterate catch columns whose
    # recursive residual stopped short of the true one (rare)
    for _ in range(4):
        if not pending.size:
            break
        _pcg(L, system.diag, B, X, used, pending, tol, max_iter)
        rel[pending] = _colnorm(B.take(pending, axis=1) - _matmul(L, X.take(pending, axis=1))) / bnorm[pending]
        pending = pending[(rel[pending] > tol) & (used[pending] < max_iter)]
    return cols, X, used, rel


def _densify(b: Compressed, cols: np.ndarray) -> np.ndarray:
    """The columns cols of the CSC arrays b as a dense C-ordered array.

    C order, or _coldot would sum ||b|| pairwise instead of row by row; b
    holds no duplicate or zero entries, so placing its entries is all that
    densifying adds.
    """
    counts = b.indptr[cols + 1] - b.indptr[cols]
    at = csr_ranges(b.indptr[cols], counts)
    B = np.zeros((b.shape[0], cols.size))
    B[b.indices[at], np.repeat(np.arange(cols.size), counts)] = b.data[at]
    return B


def _pcg(L, diag, B, X, used, cols, tol, max_iter) -> None:
    """Jacobi-PCG with matrix L and diagonal diag on the columns cols of B,
    from their current iterate in X.

    Updates X and the iteration counts in used in place. A column leaves
    the working set, before the next matvec, once its recursive residual
    norm is at most tol * ||b||, its budget max_iter is spent, or its
    curvature p'Ap is not positive. Besides the matvec, an iteration
    allocates nothing block-sized: alpha p, alpha Ap and D^-1 r are each
    written into Ap, whose product is no longer needed by then.
    """
    inv_diag = (1.0 / diag)[:, None]
    x = X.take(cols, axis=1)
    r = B.take(cols, axis=1)  # b, until its norm is taken
    bound = tol * _colnorm(r)
    if x.any():  # on a block's first pass x is zero, and b - L @ 0 is b bit for bit
        r -= _matmul(L, x)
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
        Ap = _matmul(L, p)
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


def _matmul(L: Compressed, X: np.ndarray) -> np.ndarray:
    """L @ X for CSR arrays L (int32 indptr and indices) and a dim x k array X.

    The kernel call that scipy's csr_matrix @ makes, into a zeroed C-ordered
    result: csr_matvec for one column, csr_matvecs for more. So the product is
    bit-identical to system.matrix() @ X.
    """
    out = np.zeros((L.shape[0], X.shape[1]))
    if X.shape[1] == 1:
        _kernels().csr_matvec(*L.shape, L.indptr, L.indices, L.data, X.ravel(), out.ravel())
    else:
        _kernels().csr_matvecs(*L.shape, X.shape[1], L.indptr, L.indices, L.data, X.ravel(), out.ravel())
    return out


def _kernels() -> ModuleType:
    """scipy's compiled sparse kernels (scipy.sparse._sparsetools), loaded once per
    process from their file, without importing the scipy or scipy.sparse packages."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # locates scipy without importing it
        if scipy is None:
            raise ImportError(f"{name} needs scipy, which is not installed", name=name)
        where = os.path.join(scipy.submodule_search_locations[0], "sparse")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no extension file for {name} in {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


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
