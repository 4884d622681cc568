"""Undirected simple graphs in a compact offsets+targets adjacency layout.

Node ids are dense integers 0..n-1; arbitrary external string labels are
kept alongside for input/output. Graphs are immutable after construction
and safe for concurrent reads.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError


class Graph:
    """Immutable undirected simple graph.

    adjacency is stored as two arrays: ``offsets`` (length n+1) and
    ``targets`` (length 2m), with each node's neighbor list sorted
    ascending. ``labels[v]`` is the external label of internal id v.
    """

    __slots__ = ("offsets", "targets", "labels", "_label_ids", "duplicates_collapsed")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        labels: Sequence[str] | None = None,
        duplicates_collapsed: int = 0,
    ):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        n = len(self.offsets) - 1
        self.labels = list(labels) if labels is not None else [str(v) for v in range(n)]
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} nodes")
        self._label_ids = {lab: v for v, lab in enumerate(self.labels)}
        self.duplicates_collapsed = duplicates_collapsed

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @property
    def m(self) -> int:
        return len(self.targets) // 2

    def degree(self, v: int) -> int:
        self._check_node(v)
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an array."""
        return np.diff(self.offsets)

    def sources(self) -> np.ndarray:
        """Source node of every arc, aligned with ``targets``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

    def neighbors(self, v: int) -> np.ndarray:
        self._check_node(v)
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def id_of(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"node id {v} out of range [0, {self.n})")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a graph from (u, w) id pairs, or an (m, 2) int array of them;
        duplicates are collapsed.

        (u, w) and (w, u) are the same edge. Self-loops and endpoints outside
        0..n-1 raise ValueError.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self-loop on node {pairs[loops][0, 0]}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoint out of range")
        lo, hi = np.sort(pairs, axis=1).T
        keys = np.unique(lo * n + hi)
        lo, hi = np.divmod(keys, n)
        # every edge as two arcs, sorted by source then target
        src, dst = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return cls(offsets, dst, labels, duplicates_collapsed=len(pairs) - keys.size)

    def validate(self) -> None:
        """Re-check the structural invariants; raises ValueError on violation."""
        n = self.n
        if self.degrees().sum() != 2 * self.m:
            raise ValueError("degree sum != 2m")
        u = self.sources()
        w = self.targets
        if w.size:
            if (u == w).any():
                raise ValueError("self-loop present")
            if w.min() < 0 or w.max() >= n:
                raise ValueError("neighbor id out of range")
            # sorted, duplicate-free neighbor lists: strictly increasing within rows
            same_row = u[1:] == u[:-1]
            if (np.diff(w) <= 0)[same_row].any():
                raise ValueError("neighbor list not strictly increasing")
            # symmetry: the set of directed arcs equals its reverse
            fwd = np.sort(u * n + w)
            rev = np.sort(w * n + u)
            if not np.array_equal(fwd, rev):
                raise ValueError("adjacency not symmetric")


def read_records(source: str | Path | IO[str] | Iterable[str], layout: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each line of a path (read as UTF-8) or of lines.

    Blank lines and whole-line '#' comments are skipped. Bytes that are not UTF-8, a later
    field starting with '#', or a field count other than ``layout``'s raise ParseError.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                yield from read_records(fh, layout)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source}: not UTF-8 text ({exc.reason})") from None
        return
    width = len(layout.split())
    for lineno, raw in enumerate(source, start=1):
        fields = raw.split()
        if not fields:
            continue
        if "#" in raw:
            if fields[0].startswith("#"):
                continue
            if any(f.startswith("#") for f in fields):
                raise ParseError(f"line {lineno}: a label starts with '#'; comments must be whole lines")
        if len(fields) != width:
            raise ParseError(f"line {lineno}: expected `{layout}`, got {len(fields)} field(s)")
        yield lineno, fields


def load_edge_list(source: str | Path | IO[str] | Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    One edge per line as two labels (see read_records for comments and blank
    lines). Labels are re-indexed densely in order of first appearance.
    Duplicate edges are collapsed (count kept on the returned graph);
    self-loops and malformed lines raise ParseError.
    """
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, (a, b) in read_records(source, "node node"):
        if a == b:
            raise ParseError(f"line {lineno}: self-loop on node {a!r}")
        edges.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    if not edges:
        raise ParseError("empty edge list")
    return Graph.from_edges(len(ids), edges, list(ids))


def write_edge_list(g: Graph, stream: IO[str]) -> None:
    """Write each undirected edge once (lower internal id first)."""
    u = g.sources()
    mask = u < g.targets
    for a, b in zip(u[mask], g.targets[mask]):
        stream.write(f"{g.labels[a]} {g.labels[b]}\n")


def check_seed_reachability(g: Graph, seeds: Iterable[int]) -> np.ndarray:
    """Return the sorted ids of nodes with no path to any seed (empty = ok).

    Undirected BFS from the whole seed set at once.
    """
    seed_arr = np.unique(np.fromiter(seeds, dtype=np.int64))
    if seed_arr.size == 0:
        raise ValueError("seed set is empty")
    if seed_arr[0] < 0 or seed_arr[-1] >= g.n:
        raise ValueError("seed id out of range")
    visited = np.zeros(g.n, dtype=bool)
    visited[seed_arr] = True
    frontier = seed_arr
    while frontier.size:
        starts = g.offsets[frontier]
        counts = g.offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        base = np.repeat(starts, counts)
        step = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        nbrs = g.targets[base + step]
        fresh = np.unique(nbrs[~visited[nbrs]])
        visited[fresh] = True
        frontier = fresh
    return np.flatnonzero(~visited)
