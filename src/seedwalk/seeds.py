"""Seed nodes as one ascending id array and one sigma x l array of affinity rows."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ParseError
from .graph import Graph, read_records


class SeedSet:
    """Seed node ids and their affinity rows over l communities.

    ids is a strictly ascending 1-D int64 array of node ids; rows is the
    (len(ids), l) float64 array whose row i holds the affinities of seed
    ids[i]. Every affinity lies in [0, 1].
    """

    __slots__ = ("ids", "rows", "l")

    def __init__(self, ids: np.ndarray, rows: np.ndarray):
        ids = np.asarray(ids)
        rows = np.asarray(rows, dtype=np.float64)
        if ids.size == 0:
            raise ValueError("seed set is empty")
        if ids.dtype != np.int64 or ids.ndim != 1 or (ids[1:] <= ids[:-1]).any():
            raise ValueError("seed ids must be a strictly ascending 1-D int64 array")
        if rows.ndim != 2 or rows.shape[0] != ids.size or rows.shape[1] < 1:
            raise ValueError("affinity rows must form a (len(ids), l >= 1) array")
        if np.isnan(rows).any() or rows.min() < 0.0 or rows.max() > 1.0:
            raise ValueError("affinities must lie in [0, 1]")
        self.ids = ids
        self.rows = rows
        self.l = rows.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, node: int) -> bool:
        i = np.searchsorted(self.ids, node)
        return i < len(self.ids) and self.ids[i] == node


def load_seed_file(source: str | Path | IO[str] | Iterable[str], g: Graph) -> SeedSet:
    """Parse seed affinities: lines of `node-label community-index affinity`.

    A node may appear on several lines, one per community; unlisted
    communities get affinity 0. l is one more than the largest community
    index; an index that no line uses leaves an all-zero column.
    """
    triples: dict[tuple[int, int], float] = {}
    max_comm = -1
    for lineno, (lab, comm_s, aff_s) in read_records(source, "node community affinity"):
        try:
            node = g.id_of(lab)
        except KeyError:
            raise ParseError(f"line {lineno}: node {lab!r} not in graph") from None
        try:
            comm = int(comm_s)
            aff = float(aff_s)
        except ValueError:
            raise ParseError(f"line {lineno}: bad community index or affinity") from None
        if comm < 0:
            raise ParseError(f"line {lineno}: negative community index")
        if not 0.0 <= aff <= 1.0:
            raise ParseError(f"line {lineno}: affinity {aff} outside [0, 1]")
        if (node, comm) in triples:
            raise ParseError(f"line {lineno}: duplicate entry for node {lab!r}, community {comm}")
        triples[(node, comm)] = aff + 0.0  # -0 is stored as 0, so no output shows its sign
        max_comm = max(max_comm, comm)

    if not triples:
        raise ParseError("empty seed file")
    l = max_comm + 1
    nodes = np.fromiter((node for node, _ in triples), np.int64, len(triples))
    ids, seed_of = np.unique(nodes, return_inverse=True)
    try:
        rows = np.zeros((ids.size, l))
    except (ValueError, MemoryError):  # numpy cannot even allocate the rows for l affinities
        raise ParseError(f"community index {max_comm} is too large") from None
    # only now that l fits in memory does every community index fit in int64
    comms = np.fromiter((comm for _, comm in triples), np.int64, len(triples))
    rows[seed_of, comms] = np.fromiter(triples.values(), np.float64, len(triples))
    return SeedSet(ids, rows)


def write_seed_file(seeds: SeedSet, g: Graph, stream: IO[str]) -> None:
    """Inverse of load_seed_file; zero affinities are omitted where possible."""
    for node, row in zip(seeds.ids.tolist(), seeds.rows):
        comms = np.flatnonzero(row)
        if not comms.size:
            # keep the node on record even with an all-zero row
            stream.write(f"{g.labels[node]} 0 0\n")
        for comm, aff in zip(comms.tolist(), row[comms].tolist()):
            stream.write(f"{g.labels[node]} {comm} {aff:.9g}\n")
