"""Planted-community graphs for the benchmark, generated with numpy alone.

This module imports nothing from seedwalk, so a change to the package's own
LFR generator cannot change what the benchmark feeds it: the same workload
seed always yields byte-identical edge, truth and seed files.

The graphs have the LFR shape the package targets (power-law degrees and
community sizes, a fraction ``mu`` of each node's edges leaving its
community), wired configuration-model style. Every community is threaded
by a random path and the communities by one more, so the graph is connected
and every node can reach any seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Target statistics of a generated graph and its seed fraction."""

    n: int
    avg_k: float
    k_max: int
    mu: float
    s_min: int
    s_max: int
    sigma: float
    gamma: float = 2.0
    beta: float = 2.0


@dataclass
class Planted:
    edges: np.ndarray  # (m, 2) node ids, u < w, sorted
    member: np.ndarray  # community of every node
    seeds: np.ndarray  # sorted seed node ids, every community covered

    @property
    def n(self) -> int:
        return self.member.size

    @property
    def communities(self) -> int:
        return int(self.member.max()) + 1


def _quantiles(exponent: float, lo: int, hi: int, count: int) -> np.ndarray:
    """``count`` values of the truncated discrete power law p(x) ~ x^-exponent
    on [lo, hi], taken at evenly spaced probabilities, largest first.

    Fixed quantiles instead of random draws keep the number of communities and
    the degree multiset the same for every seed, so that the seed changes
    which graph is run but not how much work it is.
    """
    support = np.arange(lo, hi + 1)
    cdf = np.cumsum(support.astype(np.float64) ** -exponent)
    cdf /= cdf[-1]
    u = (np.arange(count) + 0.5) / count
    return support[np.searchsorted(cdf, u)][::-1]


def _k_min_for_mean(avg_k: float, gamma: float, k_max: int, n: int) -> int:
    return min(range(1, k_max + 1), key=lambda lo: abs(_quantiles(gamma, lo, k_max, n).mean() - avg_k))


def _sizes(shape: Shape) -> np.ndarray:
    """Fewest power-law quantile sizes that cover n; the largest absorbs the excess."""
    count = max(1, shape.n // shape.s_max)
    while (sizes := _quantiles(shape.beta, shape.s_min, shape.s_max, count)).sum() < shape.n:
        count += 1
    sizes[0] -= sizes.sum() - shape.n
    return sizes


def _assign(sizes: np.ndarray, wanted: np.ndarray, rng) -> np.ndarray:
    """Place nodes, largest internal degree first, in communities big enough
    to hold their internal edges, drawn in proportion to the free places."""
    free = sizes.copy()
    member = np.empty(wanted.size, dtype=np.int64)
    for v in np.argsort(-wanted, kind="stable").tolist():
        ok = np.flatnonzero((sizes > wanted[v]) & (free > 0))
        if ok.size == 0:
            ok = np.flatnonzero(free > 0)
        weight = np.cumsum(free[ok])
        c = ok[np.searchsorted(weight, rng.random() * weight[-1], side="right")]
        member[v] = c
        free[c] -= 1
    return member


def _pair(stubs: np.ndarray) -> np.ndarray:
    stubs = stubs[: stubs.size - stubs.size % 2]
    return stubs.reshape(-1, 2)


def _paths(groups: list[np.ndarray]) -> np.ndarray:
    pairs = [np.column_stack([g[:-1], g[1:]]) for g in groups if g.size > 1]
    return np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64)


def planted_graph(shape: Shape, seed: int) -> Planted:
    """Deterministic in ``seed``: the same seed gives the same graph and seeds."""
    rng = np.random.default_rng(seed)
    n = shape.n
    sizes = _sizes(shape)
    k_min = _k_min_for_mean(shape.avg_k, shape.gamma, shape.k_max, n)
    degree = rng.permutation(_quantiles(shape.gamma, k_min, shape.k_max, n))
    wanted = np.rint((1.0 - shape.mu) * degree).astype(np.int64)
    member = _assign(sizes, wanted, rng)
    # a node cannot have more internal neighbours than its community has other members
    k_int = np.minimum(wanted, sizes[member] - 1)
    k_ext = degree - k_int

    nodes = np.arange(n)
    stubs = np.repeat(nodes, k_int)
    stubs = stubs[np.lexsort((rng.random(stubs.size), member[stubs]))]
    comm = member[stubs]
    start = np.searchsorted(comm, comm)  # first stub of the same community
    local = np.arange(stubs.size) - start
    nxt = np.arange(1, stubs.size + 1)
    ok = (local % 2 == 0) & (nxt < stubs.size)
    ok[ok] &= comm[nxt[ok]] == comm[ok]
    internal = np.column_stack([stubs[ok], stubs[nxt[ok]]])

    external = _pair(rng.permutation(np.repeat(nodes, k_ext)))
    external = external[member[external[:, 0]] != member[external[:, 1]]]

    order = np.argsort(member, kind="stable")
    groups = np.split(order, np.cumsum(sizes)[:-1])
    within = _paths([rng.permutation(g) for g in groups])
    reps = np.array([rng.choice(g) for g in groups])
    across = _paths([rng.permutation(reps)])

    pairs = np.concatenate([internal, external, within, across]).astype(np.int64)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs.sort(axis=1)
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    edges = np.column_stack([keys // n, keys % n])

    count = int(shape.sigma * n + 0.5)
    one_each = reps  # one seed per community guarantees every column has a seed
    others = rng.permutation(np.setdiff1d(nodes, one_each))[: max(0, count - one_each.size)]
    seeds = np.sort(np.concatenate([one_each, others]))
    return Planted(edges=edges, member=member, seeds=seeds)


def edge_text(pg: Planted) -> str:
    return "".join(f"v{u} v{w}\n" for u, w in pg.edges.tolist())


def truth_text(pg: Planted) -> str:
    return "".join(f"v{v} {c}\n" for v, c in enumerate(pg.member.tolist()))


def seed_text(pg: Planted) -> str:
    return "".join(f"v{s} {pg.member[s]} 1\n" for s in pg.seeds.tolist())


def write_inputs(pg: Planted, prefix: Path) -> dict[str, str]:
    """Write ``prefix.edges``, ``.truth`` and ``.seeds``; return each file's sha256."""
    hashes = {}
    for suffix, text in (("edges", edge_text(pg)), ("truth", truth_text(pg)), ("seeds", seed_text(pg))):
        data = text.encode("utf-8")
        Path(f"{prefix}.{suffix}").write_bytes(data)
        hashes[suffix] = hashlib.sha256(data).hexdigest()
    return hashes


def realized_mixing(pg: Planted) -> float:
    cross = pg.member[pg.edges[:, 0]] != pg.member[pg.edges[:, 1]]
    return float(cross.mean())
