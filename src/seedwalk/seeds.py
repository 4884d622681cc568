"""Seed nodes and their per-community affinity rows."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError
from .graph import Graph, read_records


class SeedSet:
    """Map of seed node id -> affinity vector over l communities.

    Every affinity lies in [0, 1]; all vectors have the same length.
    """

    __slots__ = ("ids", "rows", "l")

    def __init__(self, entries: Mapping[int, Sequence[float]]):
        if not entries:
            raise ValueError("seed set is empty")
        ids = np.array(sorted(entries), dtype=np.int64)
        rows = np.array([entries[int(i)] for i in ids], dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ValueError("affinity vectors must share a common length l >= 1")
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

    def items(self) -> Iterable[tuple[int, np.ndarray]]:
        return zip(self.ids.tolist(), self.rows)

    @classmethod
    def from_membership(cls, seed_ids: Iterable[int], membership: Sequence[int], l: int) -> "SeedSet":
        """Indicator affinities: row of seed s is 1 at membership[s], else 0."""
        entries = {}
        for s in seed_ids:
            row = np.zeros(l)
            row[membership[s]] = 1.0
            entries[int(s)] = row
        return cls(entries)


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
        triples[(node, comm)] = aff
        max_comm = max(max_comm, comm)

    if not triples:
        raise ParseError("empty seed file")
    l = max_comm + 1
    entries: dict[int, np.ndarray] = {}
    try:
        for (node, comm), aff in triples.items():
            entries.setdefault(node, np.zeros(l))[comm] = aff
    except (ValueError, MemoryError):  # numpy cannot even allocate a row of l affinities
        raise ParseError(f"community index {max_comm} is too large") from None
    return SeedSet(entries)


def write_seed_file(seeds: SeedSet, g: Graph, stream: IO[str]) -> None:
    """Inverse of load_seed_file; zero affinities are omitted where possible."""
    for node, row in seeds.items():
        if not row.any():
            # keep the node on record even with an all-zero row
            stream.write(f"{g.labels[node]} 0 0\n")
            continue
        for comm, aff in enumerate(row):
            if aff != 0.0:
                stream.write(f"{g.labels[node]} {comm} {aff:.9g}\n")
