"""Community detection: the user-facing model.

The affinity of a non-seed node is the absorption-probability-weighted
mix of the seed affinities, realized as one linear solve per community on
a shared system. Crisp assignment takes the argmax per node.
"""

from __future__ import annotations

from typing import IO

import numpy as np

from . import solver
from .errors import ConvergenceError
from .graph import Graph
from .markov import build_chain
from .pool import pool_map
from .seeds import SeedSet


class AffinityMatrix:
    """Per-node affinity vectors: computed rows for transient nodes, the
    given rows for seeds.

    rows holds the raw solver output (ascending transient id); clamping to
    [0, 1] happens only at output boundaries so that linearity in the seed
    affinities stays observable.
    """

    __slots__ = ("transient_ids", "rows", "seed_ids", "seed_rows", "l", "reports")

    def __init__(self, transient_ids, rows, seed_ids, seed_rows, reports=None):
        self.transient_ids = transient_ids
        self.rows = rows
        self.seed_ids = seed_ids
        self.seed_rows = seed_rows
        self.l = rows.shape[1] if rows.size else seed_rows.shape[1]
        self.reports = reports

    @property
    def n(self) -> int:
        return self.transient_ids.size + self.seed_ids.size

    def full_rows(self) -> np.ndarray:
        """(n x l) matrix over all nodes, raw values."""
        out = np.empty((self.n, self.l))
        out[self.transient_ids] = self.rows
        out[self.seed_ids] = self.seed_rows
        return out

    def row_for(self, node: int) -> np.ndarray:
        """Raw affinity vector of one node."""
        if not 0 <= node < self.n:
            raise IndexError(f"node id {node} out of range [0, {self.n})")
        i = np.searchsorted(self.seed_ids, node)
        if i < self.seed_ids.size and self.seed_ids[i] == node:
            return self.seed_rows[i].copy()
        return self.rows[np.searchsorted(self.transient_ids, node)].copy()


def detect_multi(
    g: Graph,
    seeds: SeedSet,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int | None = None,
    jobs: int = 1,
) -> AffinityMatrix:
    """Affinity vectors for all non-seed nodes, one solve per community.

    The system is assembled and preconditioned once; the l right-hand sides
    reuse it in up to `jobs` processes. Raises ReachabilityError if some node
    cannot reach a seed, ConvergenceError if the solver runs out of budget.
    """
    chain = build_chain(g, seeds.ids)
    system = solver.assemble(chain, seeds)
    X, reports = solver.solve_iterative_all(system, tol=tol, max_iter=max_iter, jobs=jobs)
    if not all(r.converged for r in reports):
        raise ConvergenceError(reports)
    return AffinityMatrix(
        transient_ids=chain.transient,
        rows=X,
        seed_ids=seeds.ids.copy(),
        seed_rows=seeds.rows.copy(),
        reports=reports,
    )


def assign_crisp(aff: AffinityMatrix) -> np.ndarray:
    """Argmax community per node id (int64); ties break to the lowest index.

    Seed nodes are assigned from their given affinity rows.
    """
    crisp = np.empty(aff.n, np.int64)
    crisp[aff.transient_ids] = np.argmax(aff.rows, axis=1)
    crisp[aff.seed_ids] = np.argmax(aff.seed_rows, axis=1)
    return crisp


def _csv_field(label: str) -> str:
    """A label as one CSV field: quoted by RFC 4180 only if it holds `,` or `"`."""
    if "," in label or '"' in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def write_affinity_csv(aff: AffinityMatrix, g: Graph, stream: IO[str], jobs: int = 1) -> None:
    """One row per node: label then clamped affinities at 9 significant digits.
    Chunks of 1024 rows are formatted in up to `jobs` processes and written in
    order as they arrive, so the bytes do not depend on `jobs`."""
    stream.write("node," + ",".join(f"c{i}" for i in range(aff.l)) + "\n")
    stream.writelines(pool_map(_format_rows, [(i,) for i in range(0, aff.n, 1024)], jobs, shared=(aff, g.labels)))


def _format_rows(aff: AffinityMatrix, labels, start: int) -> str:
    """Rows of node ids start..start+1023, gathered from rows and seed_rows (both in
    ascending id order) and clipped: the n x l matrix is never held whole as floats."""
    stop = min(start + 1024, aff.n)
    block = np.empty((stop - start, aff.l))
    for ids, values in ((aff.transient_ids, aff.rows), (aff.seed_ids, aff.seed_rows)):
        lo, hi = np.searchsorted(ids, [start, stop])
        block[ids[lo:hi] - start] = values[lo:hi]
    np.clip(block, 0.0, 1.0, out=block)
    row_format = "%s" + ",%.9g" * aff.l + "\n"
    cells = zip(map(_csv_field, labels[start:stop]), block.tolist())
    return "".join(row_format % (label, *row) for label, row in cells)


def write_crisp_csv(aff: AffinityMatrix, g: Graph, stream: IO[str]) -> None:
    stream.write("node,community\n")
    for label, c in zip(map(_csv_field, g.labels), assign_crisp(aff).tolist()):
        stream.write(f"{label},{c}\n")
