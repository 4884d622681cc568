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

# lines joined into one string per write by write_edge_list and lfr.write_truth
LINES_PER_WRITE = 1 << 16


class Graph:
    """Immutable undirected simple graph.

    adjacency is stored as two arrays: ``offsets`` (length n+1) and
    ``targets`` (length 2m). Node v's neighbors are
    ``targets[offsets[v]:offsets[v + 1]]``, sorted ascending, and its degree
    is ``degrees()[v]``. ``labels[v]`` is the external label of internal id v.
    ``duplicates_collapsed`` counts the input edges dropped as repeats of an
    earlier one, in either orientation.
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

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an array."""
        return np.diff(self.offsets)

    def sources(self) -> np.ndarray:
        """Source node of every arc, aligned with ``targets``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

    def id_of(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

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
        keys = np.minimum(pairs[:, 0], pairs[:, 1])
        keys *= n
        keys += np.maximum(pairs[:, 0], pairs[:, 1])
        keys = unique_sorted(keys)
        # every edge as two arcs source·n+target, lo·n+hi then hi·n+lo, sorted in place
        arcs = np.concatenate([keys, keys])
        rev = arcs[keys.size :]
        rev %= n
        rev *= n
        rev += keys // n
        arcs.sort()
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=offsets[1:])
        arcs %= n
        return cls(offsets, arcs, labels, duplicates_collapsed=len(pairs) - keys.size)

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
    ends: list[int] = []  # both endpoints of every edge, flat: no tuple kept per edge
    for lineno, (a, b) in read_records(source, "node node"):
        if a == b:
            raise ParseError(f"line {lineno}: self-loop on node {a!r}")
        ends += (ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
    if not ends:
        raise ParseError("empty edge list")
    return Graph.from_edges(len(ids), np.array(ends, dtype=np.int64).reshape(-1, 2), list(ids))


def write_edge_list(g: Graph, stream: IO[str]) -> None:
    """Write each undirected edge once (lower internal id first), one
    joined string per LINES_PER_WRITE lines."""
    u = g.sources()
    mask = u < g.targets
    lo, hi = u[mask], g.targets[mask]
    heads = np.array([f"{label} " for label in g.labels], dtype=object)
    tails = np.array([f"{label}\n" for label in g.labels], dtype=object)
    for i in range(0, lo.size, LINES_PER_WRITE):
        block = slice(i, i + LINES_PER_WRITE)
        stream.write("".join(np.stack([heads[lo[block]], tails[hi[block]]], axis=1).ravel().tolist()))


def check_seed_reachability(g: Graph, seeds: np.ndarray) -> np.ndarray:
    """Return the sorted ids of nodes with no path to any seed (empty = ok).

    seeds is the sorted, unique, in-range id array that build_chain makes.
    Undirected BFS from the whole seed set at once.
    """
    visited = np.zeros(g.n, dtype=bool)
    visited[seeds] = True
    frontier = seeds
    while frontier.size:
        starts = g.offsets[frontier]
        nbrs = g.targets[csr_ranges(starts, g.offsets[frontier + 1] - starts)]
        fresh = unique_sorted(nbrs[~visited[nbrs]])
        visited[fresh] = True
        frontier = fresh
    return np.flatnonzero(~visited)


def unique_sorted(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending: np.unique(x) by a sort and a neighbour
    mask. A bare np.unique takes a hash table in numpy >= 2.3, which is much
    slower on int64 keys: 27.6 against 1.1 ms on 138,555 edge keys, 0.50
    against 0.034 ms on 5,000 (numpy 2.4, 2 vCPUs)."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def csr_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], ..., starts[i] + counts[i] - 1 for every i, concatenated in order:
    where the entries of a CSR matrix's chosen rows (or a CSC's columns) sit."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
