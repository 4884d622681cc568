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
    """Per-node affinity vectors in node-id order: the solved rows for
    transient nodes, the given rows for seeds.

    values is (n x l) and holds the raw solver output; clamping to [0, 1]
    happens only at output boundaries so that linearity in the seed
    affinities stays observable.
    """

    __slots__ = ("values", "transient_ids", "reports")

    def __init__(self, values, transient_ids, reports=None):
        self.values = values
        self.transient_ids = transient_ids
        self.reports = reports

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def l(self) -> int:
        return self.values.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The solved rows of the transient nodes, in ascending id (a copy)."""
        return self.values[self.transient_ids]

    def row_for(self, node: int) -> np.ndarray:
        """Raw affinity vector of one node."""
        if not 0 <= node < self.n:
            raise IndexError(f"node id {node} out of range [0, {self.n})")
        return self.values[node].copy()


def detect_multi(
    g: Graph,
    seeds: SeedSet,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int | None = None,
    jobs: int = 1,
) -> AffinityMatrix:
    """Affinity vectors of all nodes, one solve per community.

    The system is assembled and preconditioned once; the l right-hand sides
    reuse it in up to `jobs` processes. Raises ReachabilityError if some node
    cannot reach a seed, ConvergenceError if the solver runs out of budget.
    """
    chain = build_chain(g, seeds.ids)
    system = solver.assemble(chain, seeds)
    X, reports = solver.solve_iterative_all(system, tol=tol, max_iter=max_iter, jobs=jobs)
    del system  # its dense right-hand sides are as large as X: free them before values is allocated
    if not all(r.converged for r in reports):
        raise ConvergenceError(reports)
    values = np.empty((g.n, seeds.l))
    values[chain.transient] = X
    values[seeds.ids] = seeds.rows
    return AffinityMatrix(values, chain.transient, reports)


def assign_crisp(aff: AffinityMatrix) -> np.ndarray:
    """Argmax community per node id (int64); ties break to the lowest index."""
    return np.argmax(aff.values, axis=1).astype(np.int64, copy=False)


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
    """Rows of node ids start..start+1023, clipped: only one block of the
    n x l matrix is ever held as clipped floats and strings."""
    block = np.clip(aff.values[start : start + 1024], 0.0, 1.0)
    row_format = "%s" + ",%.9g" * aff.l + "\n"
    cells = zip(map(_csv_field, labels[start : start + 1024]), block.tolist())
    return "".join(row_format % (label, *row) for label, row in cells)


def write_crisp_csv(aff: AffinityMatrix, g: Graph, stream: IO[str]) -> None:
    stream.write("node,community\n")
    for label, c in zip(map(_csv_field, g.labels), assign_crisp(aff).tolist()):
        stream.write(f"{label},{c}\n")
