"""Community detection: the user-facing model.

The affinity of a non-seed node is the absorption-probability-weighted
mix of the seed affinities, realized as one linear solve per community on
a shared system. Crisp assignment takes the argmax per node.
"""

from __future__ import annotations

import functools
import os
from typing import IO

import numpy as np

from . import solver
from .graph import Graph
from .markov import build_chain
from .pool import AHEAD, SharedFd, pool_map
from .seeds import SeedSet

# cells per CSV chunk, as solver.BLOCK is columns per solve block: a chunk is
# max(1, CHUNK // (l + 8)) rows, a row's label and newline counted as the eight 16-byte
# cells they weigh about as much as. Its rows are read (aff.tile) only where it is
# formatted, so no process holds more than about CHUNK cells as text, work arrays and
# text. Peak RSS of `detect --jobs 2` on detect_wide (n 10^4, l 217; 2 vCPUs, medians
# of 6): 44.94 MB at 2**14, 44.95 at 2**16, 54.46 at 2**18; 2**14 only adds tasks
CHUNK = 1 << 16


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

    def tile(self, i: int, j: int) -> np.ndarray:
        """Rows i to j - 1 of values (a view)."""
        return self.values[i:j]


class SpilledAffinities:
    """The affinities of detect_multi(..., spill=file), held in the file from offset
    base to offset end: each solved block's dim x width columns C-ordered, block after
    block, so the columns follow `live` (the communities whose seed affinities are not
    all zero; the others are zero). The seed rows stay in memory. tile(i, j) builds rows
    i to j - 1 with one positional read per block (os.pread), so pool workers handed this
    object read tiles too, each through its own descriptor of the file, which must stay
    open; write_affinity_csv's pooled workers write their CSV text past end."""

    __slots__ = ("n", "l", "transient_ids", "reports", "end", "_fd", "_base", "_bounds", "_live", "_seeds")

    def __init__(self, file, base: int, blocks: list[np.ndarray], seeds: SeedSet, n: int, transient_ids, reports):
        self.n, self.l, self.transient_ids, self.reports = n, seeds.l, transient_ids, reports
        self._fd, self._base, self._seeds = SharedFd(file.fileno()), base, seeds
        self._bounds = np.cumsum([0] + [cols.size for cols in blocks]).tolist()  # where each block's columns start
        self._live = np.concatenate([np.zeros(0, np.intp), *blocks])
        self.end = base + 8 * transient_ids.size * self._bounds[-1]

    def tile(self, i: int, j: int) -> np.ndarray:
        """Rows i to j - 1 of the n x l affinities (a new array)."""
        j = min(j, self.n)
        a, b = np.searchsorted(self.transient_ids, (i, j)).tolist()
        solved, dim = np.zeros((b - a, self.l)), self.transient_ids.size
        for c0, c1 in zip(self._bounds, self._bounds[1:]):
            size = 8 * (b - a) * (c1 - c0)
            part = os.pread(self._fd, size, self._base + 8 * (dim * c0 + a * (c1 - c0)))
            if len(part) != size:
                raise OSError("the spill file ends before the solved block it should hold")
            solved[:, self._live[c0:c1]] = np.frombuffer(part).reshape(b - a, c1 - c0)
        out = np.zeros((j - i, self.l))
        out[self.transient_ids[a:b] - i] = solved
        s, e = np.searchsorted(self._seeds.ids, (i, j))
        out[self._seeds.ids[s:e] - i] = self._seeds.rows[s:e]
        return out


def detect_multi(g: Graph, seeds: SeedSet, tol: float = solver.DEFAULT_TOL, jobs: int = 1,
                 spill: IO[bytes] | None = None) -> AffinityMatrix | SpilledAffinities:
    """Affinity vectors of all nodes, one solve per community.

    The system is assembled and preconditioned once; the l right-hand sides
    reuse it in up to `jobs` processes. Each solved block is written straight
    into the n x l AffinityMatrix returned, so no whole solution is held twice;
    or, given a binary file `spill`, appended to it from its current position,
    and a SpilledAffinities over that file is returned, so no n x l array is held.
    Raises ReachabilityError if some node cannot reach a seed, and the solver's
    ConvergenceError if some community's solve runs out of budget.
    """
    chain = build_chain(g, seeds.ids)
    system = solver.assemble(chain, seeds)
    if spill is None:
        values = np.zeros((g.n, seeds.l))

        def sink(cols, x):
            values[np.ix_(chain.transient, cols)] = x
    else:
        base, blocks = spill.tell(), []

        def sink(cols, x):
            blocks.append(cols)
            spill.write(x)
    _, reports = solver.solve_iterative_all(system, tol=tol, jobs=jobs, sink=sink)
    if spill is not None:
        spill.flush()  # tiles are read from the file itself, here and in pool workers
        return SpilledAffinities(spill, base, blocks, seeds, g.n, chain.transient, reports)
    # after the solve: pages touched before it would count in every forked worker's RSS
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


def write_affinity_csv(aff: AffinityMatrix | SpilledAffinities, g: Graph, stream: IO[str], jobs: int = 1,
                       crisp: IO[str] | None = None) -> None:
    """One row per node: label then printf `%.9g` of each affinity clamped to [0, 1].
    Chunks of about CHUNK cells (l per row, and 8 for its label and newline) are each
    read by aff.tile shortly before their turn, formatted and written in order, so the
    bytes do not depend on `jobs`. Only a SpilledAffinities is formatted in a pool, of
    up to `jobs` processes whose workers read their own tiles from the spill file
    (_slot_chunks); an AffinityMatrix is written in this process whatever `jobs` is.
    Given a stream crisp, write_crisp_csv's bytes go there, taken from the same tiles."""
    stream.write("node," + ",".join(f"c{i}" for i in range(aff.l)) + "\n")
    if crisp is not None:
        crisp.write("node,community\n")
    if jobs > 1 and isinstance(aff, SpilledAffinities):
        chunks = _slot_chunks(aff, g.labels, jobs, crisp is not None)
    else:
        chunks = (_format_span(aff, g.labels, crisp is not None, i, j) for i, j in _spans(aff))
    for text, lines in chunks:
        stream.write(str(text, "utf-8"))
        if crisp is not None:
            crisp.write(lines)


def _spans(aff: AffinityMatrix | SpilledAffinities) -> list[tuple[int, int]]:
    """Rows i to j - 1 of each CSV chunk, in order: max(1, CHUNK // (l + 8)) rows each."""
    rows = max(1, CHUNK // (aff.l + 8))
    return [(i, min(i + rows, aff.n)) for i in range(0, aff.n, rows)]


def _format_span(aff, labels: list[str], crisp: bool, i: int, j: int) -> tuple[np.ndarray, str]:
    """The affinity CSV text of rows i to j - 1 of aff in UTF-8 and, if crisp, their crisp CSV lines."""
    tile, labels = aff.tile(i, j), labels[i:j]
    return _format_rows(tile, labels), _crisp_lines(tile, labels) if crisp else ""


def _slot_chunks(aff: SpilledAffinities, labels: list[str], jobs: int, crisp: bool):
    """(text, crisp lines) of each CSV chunk of aff, formatted in a pool whose workers
    read their tiles from the spill file themselves. Chunk k's worker writes its text
    into slot k mod (AHEAD * jobs + 1) of the same file past aff.end, read back here
    before pool_map takes task k + AHEAD * jobs + 1, the next to write that slot."""
    spans, ring = _spans(aff), AHEAD * jobs + 1
    # a chunk's text at most: a label's UTF-8 bytes, quoted, a 16-byte cell per value, a newline
    size = (spans[0][1] - spans[0][0]) * (4 * max(map(len, labels)) + 2 + 16 * aff.l + 1)
    tasks = ((i, j, aff.end + k % ring * size) for k, (i, j) in enumerate(spans))
    for k, (count, lines) in enumerate(pool_map(_format_into_slot, tasks, jobs, (aff, labels, crisp))):
        yield os.pread(aff._fd, count, aff.end + k % ring * size), lines


def _format_into_slot(aff: SpilledAffinities, labels: list[str], crisp: bool, i: int, j: int,
                      offset: int) -> tuple[int, str]:
    """Write the affinity CSV text of rows i to j - 1 of aff into aff's file at offset;
    return its byte count and, if crisp, the rows' crisp CSV lines."""
    text, lines = _format_span(aff, labels, crisp, i, j)
    _write_slot(aff._fd, text, offset)
    return text.size, lines


def _write_slot(fd: int, text: np.ndarray, offset: int) -> None:
    """Write all of text into file fd from offset on."""
    done = 0
    while done < text.size:
        done += os.pwrite(fd, text[done:], offset + done)


def _format_rows(values: np.ndarray, labels: list[str]) -> np.ndarray:
    """The given rows as CSV text in UTF-8 (a uint8 array), each value printf
    `%.9g` of it clipped to [0, 1]. Every row is laid out as one byte row
    (label, one 16-byte cell per value, newline), its unused bytes 0xFF, which
    no UTF-8 text holds; one boolean index over the chunk drops them."""
    r, l = values.shape
    enc = [_csv_field(label).encode() for label in labels]
    lens = np.fromiter(map(len, enc), np.intp, r)
    width = 8 * (int(lens.max()) // 8 + 1)  # whole words, never 0
    buf = np.empty((r, width + 16 * l + 8), np.uint8)
    text = np.array(enc, f"S{width}").view(np.uint8).reshape(r, width)
    buf[:, :width] = np.where(np.arange(width) < lens[:, None], text, 0xFF)
    buf[:, -8:] = np.frombuffer(b"\n".ljust(8, b"\xff"), np.uint8)
    _g9_cells(values, buf.view("<u8")[:, width // 8 : -1].reshape(r, l, 2))
    return buf[buf != 0xFF]


def _pack(texts) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian words, padded with 0xFF."""
    return np.frombuffer(b"".join(t.ljust(8, b"\xff") for t in texts), "<u8")


@functools.cache
def _g9_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of _g9_cells, built on first use (1-3 ms).

    - digits[q]: the 4 ASCII digits of q < 10**4 as a word; at q + 10**4 the
      same with trailing zeros as 0xFF (all four for 0);
    - head[10 * i + d0]: the 8 bytes before the last 8 digits in fixed
      notation, ending in the leading digit d0, for decade 10**-i (i = 0..4),
      and `,` then d0 for i = 5 (the value 0; exponent notation overwrites it);
    - exp[-e]: `e-` and the exponent, its leading 0 as 0xFF below 100;
    - pow10[k]: 10**k correctly rounded.
    """
    q = np.arange(10_000)
    ascii4 = (np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + 48).astype(np.uint8)
    trimmed = ascii4.copy()
    for k in range(4):
        trimmed[q % 10 ** (4 - k) == 0, k] = 0xFF
    digits = np.concatenate([ascii4, trimmed]).view("<u4").ravel().astype(np.uint64)
    prefix = [b","] + [b",0." + b"0" * i for i in range(4)] + [b","]
    head = _pack((p + b"%d" % d0).rjust(8, b"\xff") for p in prefix for d0 in range(10))
    exp = _pack(b"e-" + (b"\xff%02d" % e if e < 100 else b"%d" % e) for e in range(301))
    pow10 = np.array([float(10**k) for k in range(309)])
    return digits, head, exp, pow10


def _g9_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """Write `,` and printf `%.9g` of each value clipped to [0, 1] into its
    16-byte cell (r x l x 2 words), padded with 0xFF.

    A value x of decade e = floor(log10(x)) is the integer d = rint(x * 10**(8 - e))
    in [10**8, 10**9], and d = 10**9 carries to 10**8 of decade e + 1. The product
    is within 2.3e-7 of the exact one, so d is correctly rounded unless the product
    lies within 1e-6 of a half. log10 puts x a decade off only within rounding
    error of 10**e, where rint still gives 10**8 or the carried 10**9. Values near
    a half, -0.0, NaN and values below 1e-299 are formatted one at a time.
    """
    digits, head, exp, pow10 = _g9_tables()
    x = np.clip(values, 0.0, 1.0)
    fine = x >= 1e-299  # not NaN, +-0 or tinier; 0 keeps e = -5 and d = 0, whose head is `,0`
    e = np.log10(x, out=np.full(x.shape, -5.0), where=fine)
    e = np.floor(e, out=e).astype(np.int16)  # not int64, which doubled the page faults per chunk
    m = pow10[8 - e]
    m *= x
    d = np.rint(m)
    m -= d
    np.abs(m, out=m)
    unsure = ~(m < 0.5 - 1e-6)  # near a half, or NaN
    del m
    unsure |= np.signbit(x) | (~fine & (x > 0))
    np.copyto(d, 0.0, where=unsure)
    slow = np.flatnonzero(unsure)
    slow_x = x.reshape(-1)[slow].tolist()
    del x, unsure
    d = d.astype(np.uint32)
    carry = d == 10**9  # rounded up into the next decade, into fixed notation from 10**-5
    np.subtract(d, 900_000_000, out=d, where=carry)
    e += carry
    del carry
    rows, cols = np.divmod(np.flatnonzero(fine & (e < -4)), cells.shape[1])  # exponent notation
    del fine
    # d as 1 + 4 + 4 digits; the last 8 without their trailing zeros, as %g drops them
    q = d // 10_000
    d2 = d - q * 10_000
    d0 = q // 10_000
    d1 = q - d0 * 10_000
    del q, d
    d1 += (d2 == 0) * np.uint32(10_000)
    d2 += 10_000
    i = np.minimum(-e, 5)
    i *= 10
    i += d0
    cells[..., 0] = head[i]
    del i
    tail = cells[..., 1]
    tail[...] = digits[d2]
    tail <<= 32
    tail |= digits[d1]
    del d1, d2
    tail = tail[rows, cols]
    lead = 0x2C | (48 + d0[rows, cols].astype(np.uint64)) << 8 | 0x2E << 16
    lead |= (tail == 2**64 - 1) * np.uint64(0xFF << 16)  # no `.` before no digits
    cells[rows, cols, 0] = lead | tail << 24
    cells[rows, cols, 1] = tail >> 40 | exp[-e[rows, cols]] << 24
    for p, v in zip(slow.tolist(), slow_x):
        cells[divmod(p, cells.shape[1])] = np.frombuffer((b",%.9g" % v).ljust(16, b"\xff"), "<u8")


def _crisp_lines(tile: np.ndarray, labels: list[str]) -> str:
    """The crisp CSV rows of the given affinity rows and their labels."""
    cells = zip(map(_csv_field, labels), np.argmax(tile, axis=1).tolist())
    return "".join([f"{label},{c}\n" for label, c in cells])


def write_crisp_csv(aff: AffinityMatrix | SpilledAffinities, g: Graph, stream: IO[str]) -> None:
    """One row per node: label then its argmax community, ties to the lowest index."""
    stream.write("node,community\n")
    for i, j in _spans(aff):
        stream.write(_crisp_lines(aff.tile(i, j), g.labels[i:j]))
