"""Assemble and solve the transient-subgraph system (D - A) x = D b.

D is the diagonal of original-graph degrees of the transient nodes, A the
adjacency of the transient-induced subgraph. The right-hand side for
community i collapses to, per transient node, the affinity-weighted count
of its seed neighbors. One matrix and one Jacobi preconditioner serve all l
communities; the right-hand sides are solved by conjugate gradient in
blocks of BLOCK columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import SeedwalkError
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


class AbsorbingSystem:
    """The assembled system: diag, transient-subgraph adjacency, all l RHS."""

    __slots__ = ("chain", "dim", "diag", "sub_offsets", "sub_targets", "rhs", "_matrix")

    def __init__(self, chain, dim, diag, sub_offsets, sub_targets, rhs):
        self.chain = chain
        self.dim = dim
        self.diag = diag
        self.sub_offsets = sub_offsets
        self.sub_targets = sub_targets
        self.rhs = rhs
        self._matrix = None

    @property
    def communities(self) -> int:
        return self.rhs.shape[1]

    def matrix(self) -> scipy.sparse.csr_matrix:
        """Sparse D - A over the transient subgraph (cached)."""
        if self._matrix is None:
            off = scipy.sparse.csr_matrix(
                (np.full(self.sub_targets.size, -1.0), self.sub_targets, self.sub_offsets),
                shape=(self.dim, self.dim),
            )
            self._matrix = (scipy.sparse.diags(self.diag) + off).tocsr()
        return self._matrix


def assemble(chain: AbsorbingChain, affinities: SeedSet) -> AbsorbingSystem:
    """Build diag, transient-subgraph adjacency, and the l right-hand sides.

    The SeedSet must cover exactly the chain's seeds. rhs[v, i] is the sum
    of beta_i(s) over seed neighbors s of transient node v.
    """
    if not np.array_equal(affinities.ids, chain.seeds):
        raise ValueError("seed ids of the affinity set do not match the chain's seeds")
    g = chain.graph
    tnodes = chain.transient
    tau = tnodes.size
    l = affinities.l
    diag = (g.offsets[tnodes + 1] - g.offsets[tnodes]).astype(np.float64)

    if tau == 0:
        return AbsorbingSystem(
            chain, 0, diag, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty((0, l))
        )

    # flatten all transient adjacency rows
    starts = g.offsets[tnodes]
    counts = (g.offsets[tnodes + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    base = np.repeat(starts, counts)
    step = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    nbrs = g.targets[base + step]
    row_of = np.repeat(np.arange(tau, dtype=np.int64), counts)

    abs_idx = chain.absorbing_index[nbrs]
    seed_mask = abs_idx >= 0

    rhs = np.zeros((tau, l))
    np.add.at(rhs, row_of[seed_mask], affinities.rows[abs_idx[seed_mask]])

    keep = ~seed_mask
    sub_targets = chain.transient_index[nbrs[keep]]
    sub_counts = np.bincount(row_of[keep], minlength=tau)
    sub_offsets = np.zeros(tau + 1, dtype=np.int64)
    np.cumsum(sub_counts, out=sub_offsets[1:])

    # SDD by construction: transient-subgraph degree never exceeds the full degree
    if (sub_counts > diag).any():
        raise SeedwalkError("assembled system violates diagonal dominance")

    return AbsorbingSystem(chain, tau, diag, sub_offsets, sub_targets.astype(np.int64), rhs)


def solve_iterative(
    system: AbsorbingSystem,
    community: int,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned CG on one community's right-hand side.

    Stops when the true relative residual ||(D-A)x - b|| / ||b|| drops
    below tol; on budget exhaustion the best iterate is returned with
    converged=False.
    """
    X, reports = solve_iterative_all(system, tol=tol, max_iter=max_iter, columns=[community])
    return X[:, 0], reports[0]


def solve_iterative_all(
    system: AbsorbingSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    columns=None,
) -> tuple[np.ndarray, list[SolveReport]]:
    """PCG over many right-hand sides, BLOCK columns at a time.

    Columns are mathematically and numerically independent (per-column
    step sizes, per-column sums in a fixed order), so every column is
    bit-identical to its one-at-a-time solve; converged columns freeze
    early. A zero right-hand side short-circuits to the zero vector.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 10 * system.dim + 100
    B = system.rhs if columns is None else system.rhs[:, list(columns)]
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
