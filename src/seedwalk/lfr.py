"""LFR-style benchmark graphs: power-law degrees and community sizes,
planted single-membership communities, mixing parameter mu.

Each node keeps a fraction 1-mu of its edges inside its own community
(internal stub count ceil((1-mu) * k), so mu=0 yields strictly zero
inter-community edges). Nodes are placed in descending internal degree,
each into a random free slot of a community larger than that degree, which
cannot run out of room on sizes that pass the capacity check. Both edge
classes are wired configuration-model style with a bounded rewiring pass;
unresolvable collisions are dropped and must stay under 1% of the edge
budget and keep the mean degree within 5% of avg_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import GenerationError, ParseError
from .graph import Graph, load_edge_list, read_records
from .seeds import SeedSet

_MAX_ATTEMPTS = 30
_MATCH_PASSES = 12
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class LfrParams:
    """Generation parameters; unset bounds are derived from n and avg_k."""

    n: int
    avg_k: float
    gamma: float
    beta_exp: float
    mu: float
    k_min: int | None = None
    k_max: int | None = None
    s_min: int | None = None
    s_max: int | None = None
    rng_seed: int = 0

    def resolved_bounds(self) -> tuple[int, int, int, int]:
        k_max = self.k_max if self.k_max is not None else max(2, min(int(3 * self.avg_k), self.n // 10))
        k_min = self.k_min if self.k_min is not None else _calibrate_k_min(self.avg_k, self.gamma, k_max)
        s_min = self.s_min if self.s_min is not None else 10
        s_max = self.s_max if self.s_max is not None else max(s_min, self.n // 5)
        return k_min, k_max, s_min, s_max

    def validate(self) -> None:
        if self.n < 2:
            raise GenerationError("n must be at least 2")
        if not 0.0 <= self.mu <= 1.0:
            raise GenerationError(f"mu={self.mu} outside [0, 1]")
        # written so that NaN fails every test
        if not (1 < self.gamma < math.inf and 1 < self.beta_exp < math.inf):
            raise GenerationError("power-law exponents must be finite and exceed 1")
        if not 0 < self.avg_k < math.inf:
            raise GenerationError("avg_k must be positive and finite")
        k_min, k_max, s_min, s_max = self.resolved_bounds()
        if not 1 <= k_min <= k_max:
            raise GenerationError(f"need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
        if k_max >= self.n:
            raise GenerationError(f"k_max={k_max} must be below n={self.n}")
        if not 1 <= s_min <= s_max:
            raise GenerationError(f"need 1 <= s_min <= s_max, got [{s_min}, {s_max}]")
        if self.n < s_min:
            raise GenerationError(f"n={self.n} below the minimum community size {s_min}")
        if s_max > self.n:
            raise GenerationError(f"s_max={s_max} must not exceed n={self.n}")
        if not k_min <= self.avg_k <= k_max:
            raise GenerationError(f"avg_k={self.avg_k} outside degree bounds [{k_min}, {k_max}]")


@dataclass
class PlantedGraph:
    """A generated graph with its ground-truth communities."""

    graph: Graph
    membership: np.ndarray
    sizes: list[int] = field(default_factory=list)

    @property
    def n_communities(self) -> int:
        return len(self.sizes)


def sample_power_law(exponent: float, lo: int, hi: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws from the truncated discrete power law p(x) ~ x^-exponent on [lo, hi]."""
    if exponent <= 1:
        raise ValueError("exponent must exceed 1")
    if not 1 <= lo <= hi:
        raise ValueError(f"empty support [{lo}, {hi}]")
    support = np.arange(lo, hi + 1, dtype=np.float64)
    cdf = np.cumsum(support ** (-exponent))
    cdf /= cdf[-1]
    return (lo + np.searchsorted(cdf, rng.random(count), side="right")).astype(np.int64)


def power_law_mean(exponent: float, lo: int, hi: int) -> float:
    """Mean of the truncated discrete power law, by direct summation."""
    support = np.arange(lo, hi + 1, dtype=np.float64)
    w = support ** (-exponent)
    return float((support * w).sum() / w.sum())


def _calibrate_k_min(avg_k: float, gamma: float, k_max: int) -> int:
    # start at ceil(avg_k / 2) and walk up while closeness to the target improves
    k = max(1, min(int(math.ceil(avg_k / 2)), k_max))
    best, best_err = k, abs(power_law_mean(gamma, k, k_max) - avg_k)
    while k < k_max:
        k += 1
        err = abs(power_law_mean(gamma, k, k_max) - avg_k)
        if err < best_err:
            best, best_err = k, err
        else:
            break
    return best


def internal_degree(k: int | np.ndarray, mu: float):
    """ceil((1-mu) * k), guarded against float fuzz at exact multiples."""
    return np.ceil((1.0 - mu) * np.asarray(k) - _CEIL_EPS).astype(np.int64).clip(min=0)


def generate(params: LfrParams) -> PlantedGraph:
    """Generate a planted-communities graph; deterministic in params.rng_seed.

    Pipeline: calibrated power-law degrees, power-law community sizes
    tiling n, nodes placed in descending internal degree into random free
    slots that fit them (this cannot fail on sizes that pass
    `_sizes_feasible`; see `_assign_membership`), then configuration-model
    matching of internal and external stub pools with rewiring repair.
    Raises GenerationError when the parameters stay infeasible after
    bounded retries.
    """
    params.validate()
    k_min, k_max, s_min, s_max = params.resolved_bounds()
    rng = np.random.default_rng(params.rng_seed)
    failures: list[str] = []
    for _ in range(_MAX_ATTEMPTS):
        degrees, k_min = _draw_degrees(params, k_min, k_max, rng)
        d_int = internal_degree(degrees, params.mu)
        sizes = None
        for _ in range(200):
            cand = _draw_sizes(params.n, params.beta_exp, s_min, s_max, rng)
            if cand is not None and _sizes_feasible(cand, d_int):
                sizes = cand
                break
        if sizes is None:
            failures.append("no community size draw can host the internal degrees")
            continue
        member = _assign_membership(sizes, d_int, rng)
        edges, dropped = _wire(params.n, member, len(sizes), degrees, d_int, params.mu, rng)
        m_target = int(degrees.sum()) // 2
        # the drops must also leave the mean degree in the draw's 5% band
        if dropped > 0.01 * m_target or 2 * len(edges) < 0.95 * params.avg_k * params.n:
            failures.append(f"dropped {dropped:.1f} of {m_target} edges (>1%, or mean degree below avg_k - 5%)")
            continue
        graph = Graph.from_edges(params.n, edges)
        graph.validate()
        return PlantedGraph(graph=graph, membership=member, sizes=sizes)
    raise GenerationError(
        f"generation failed after {_MAX_ATTEMPTS} attempts for {params}; causes: "
        + "; ".join(failures[-3:])
    )


def _draw_degrees(params: LfrParams, k_min: int, k_max: int, rng) -> tuple[np.ndarray, int]:
    band = 0.05 * params.avg_k
    calibrate = params.k_min is None
    cur = k_min
    for _ in range(200):
        deg = sample_power_law(params.gamma, cur, k_max, params.n, rng)
        err = float(deg.mean()) - params.avg_k
        if abs(err) <= band:
            return _even_degree_sum(deg, k_max, rng), cur
        if calibrate:
            if err < 0 and cur < k_max:
                cur += 1
            elif err > 0 and cur > 1:
                cur -= 1
    raise GenerationError(
        f"degree sample mean would not settle within 5% of avg_k={params.avg_k} "
        f"(bounds [{cur}, {k_max}])"
    )


def _even_degree_sum(deg: np.ndarray, k_max: int, rng) -> np.ndarray:
    if deg.sum() % 2:
        j = int(rng.integers(deg.size))
        if deg[j] < k_max:
            deg[j] += 1
        elif deg[j] > 1:
            deg[j] -= 1
        else:
            deg[int(np.argmax(deg < k_max))] += 1
    return deg


def _draw_sizes(n: int, beta_exp: float, s_min: int, s_max: int, rng) -> list[int] | None:
    sizes: list[int] = []
    total = 0
    while total < n:
        s = int(sample_power_law(beta_exp, s_min, s_max, 1, rng)[0])
        sizes.append(s)
        total += s
    excess = total - n
    if excess:
        if sizes[-1] - excess >= s_min:
            sizes[-1] -= excess
        else:
            # drop the overshooting draw, spread the deficit over the rest
            sizes.pop()
            deficit = n - sum(sizes)
            while deficit > 0:
                room = [i for i, s in enumerate(sizes) if s < s_max]
                if not room:
                    return None
                for i in room:
                    sizes[i] += 1
                    deficit -= 1
                    if deficit == 0:
                        break
    return sizes


def _sizes_feasible(sizes: list[int], d_int: np.ndarray) -> bool:
    """Capacity check: nodes needing internal degree >= d only fit into
    communities of size >= d+1, so those must jointly hold all of them."""
    sz = np.sort(np.asarray(sizes, dtype=np.int64))
    suffix = np.concatenate([np.cumsum(sz[::-1])[::-1], [0]])
    d_sorted = np.sort(d_int)
    n = d_int.size
    for d in np.unique(d_int):
        supply = suffix[np.searchsorted(sz, d + 1, side="left")]
        demand = n - np.searchsorted(d_sorted, d, side="left")
        if supply < demand:
            return False
    return True


def _assign_membership(sizes: list[int], d_int: np.ndarray, rng) -> np.ndarray:
    """Place every node in a community larger than its internal degree.

    Nodes go in descending internal degree, ties in random order, each into
    a uniformly random free slot among the communities that fit it. On sizes
    that pass `_sizes_feasible` a free slot always remains: every node placed
    before one of internal degree d has internal degree >= d, so it took a
    slot that also fits d, and the communities that fit d hold at least as
    many slots as there are nodes of internal degree >= d.
    """
    n = d_int.size
    by_size = np.argsort(-np.asarray(sizes, dtype=np.int64), kind="stable")
    room = np.asarray(sizes, dtype=np.int64)[by_size]
    perm = rng.permutation(n)
    order = perm[np.argsort(-d_int[perm], kind="stable")]
    # communities are largest first, so those that fit a node are a prefix
    fits = np.searchsorted(-room, -d_int[order], side="left")
    member = np.empty(n, dtype=np.int64)
    for v, k, x in zip(order.tolist(), fits.tolist(), rng.random(n).tolist()):
        free = np.cumsum(room[:k])
        c = int(np.searchsorted(free, int(x * free[-1]), side="right"))
        room[c] -= 1
        member[v] = by_size[c]
    return member


def _wire(n, member, ncomm, degrees, d_int_base, mu, rng) -> tuple[set[tuple[int, int]], float]:
    """Match internal stubs per community and external stubs globally.

    Returns (edge set, dropped edge-equivalents).
    """
    d_int = d_int_base.copy()
    k_eff = degrees.copy()
    dropped_stubs = 0
    members = [np.flatnonzero(member == c) for c in range(ncomm)]

    # per-community stub parity: shed one internal stub from the largest holder
    for c in range(ncomm):
        nodes_c = members[c]
        if int(d_int[nodes_c].sum()) % 2:
            v = int(nodes_c[np.argmax(d_int[nodes_c])])
            d_int[v] -= 1
            if mu == 0.0:
                # nothing may leak to the external pool at mu=0
                k_eff[v] -= 1
                dropped_stubs += 1

    d_ext = k_eff - d_int
    if int(d_ext.sum()) % 2:
        cands = np.flatnonzero(d_ext > 0)
        v = int(cands[rng.integers(cands.size)])
        d_ext[v] -= 1
        k_eff[v] -= 1
        dropped_stubs += 1

    # the pools cannot collide: internal pools hold disjoint node sets, and
    # an external pair inside one community is rejected anyway
    edges: set[tuple[int, int]] = set()
    dropped_pairs = 0
    for c in range(ncomm):
        placed, still = _match_stubs(np.repeat(members[c], d_int[members[c]]), rng)
        edges |= placed
        dropped_pairs += len(still)

    placed, still = _match_stubs(np.repeat(np.arange(n, dtype=np.int64), d_ext), rng, member)
    edges |= placed
    # an external pair whose only flaw is lying inside one community is
    # kept as an internal edge; every other leftover is dropped
    for u, w in still:
        key = (u, w) if u < w else (w, u)
        if u != w and member[u] == member[w] and key not in edges:
            edges.add(key)
        else:
            dropped_pairs += 1

    return edges, dropped_pairs + dropped_stubs / 2.0


def _match_stubs(stubs, rng, member=None) -> tuple[set[tuple[int, int]], list[tuple[int, int]]]:
    """Pair stubs into simple edges.

    Collisions (self-loops, duplicates, and same-community pairs when
    `member` is given) go through reshuffle passes, then bounded endpoint
    swaps against already-placed pairs. Returns (placed pairs, pairs still
    colliding).
    """
    if stubs.size < 2:
        return set(), []
    batch: list[tuple[int, int]] = []
    edges: set[tuple[int, int]] = set()

    def ok(u: int, w: int) -> bool:
        key = (u, w) if u < w else (w, u)
        return u != w and key not in edges and (member is None or member[u] != member[w])

    def place(u: int, w: int) -> None:
        key = (u, w) if u < w else (w, u)
        batch.append(key)
        edges.add(key)

    pool = stubs.copy()
    for _ in range(_MATCH_PASSES):
        if pool.size < 2:
            break
        rng.shuffle(pool)
        leftover: list[int] = []
        for i in range(0, pool.size - 1, 2):
            u, w = int(pool[i]), int(pool[i + 1])
            if ok(u, w):
                place(u, w)
            else:
                leftover.append(u)
                leftover.append(w)
        if pool.size % 2:
            leftover.append(int(pool[-1]))
        if len(leftover) == pool.size:
            pool = np.array(leftover, dtype=np.int64)
            break
        pool = np.array(leftover, dtype=np.int64)

    # swap phase on whatever still collides
    rng.shuffle(pool)
    bad_pairs = [(int(pool[i]), int(pool[i + 1])) for i in range(0, pool.size - 1, 2)]
    swap_budget = 100 * max(1, stubs.size // 2)
    still: list[tuple[int, int]] = []
    for u, w in bad_pairs:
        if ok(u, w):  # earlier swaps may have cleared the collision
            place(u, w)
            continue
        fixed = False
        tries = min(60, swap_budget)
        for _ in range(tries):
            swap_budget -= 1
            if not batch:
                break
            j = int(rng.integers(len(batch)))
            a, b = batch[j]
            if rng.random() < 0.5:
                a, b = b, a
            e1 = (u, a) if u < a else (a, u)
            e2 = (w, b) if w < b else (b, w)
            if e1 == e2 or not ok(*e1) or not ok(*e2):
                continue
            # retire (a, b), adopt the two rewired edges
            key = batch[j]
            batch[j] = batch[-1]
            batch.pop()
            edges.discard(key)
            place(*e1)
            place(*e2)
            fixed = True
            break
        if not fixed:
            still.append((u, w))
    return edges, still


def seed_count(sigma: float, n: int) -> int:
    """Seeds drawn for fraction sigma of n nodes: sigma * n rounded half up."""
    return int(sigma * n + 0.5)


def sample_seeds(pg: PlantedGraph, sigma: float, rng: np.random.Generator) -> tuple[SeedSet, list[int]]:
    """Uniform seed subset of size round(sigma * n) with indicator affinities.

    Resamples a bounded number of times to put at least one seed in every
    community; communities still uncovered afterwards are returned in the
    second element.
    """
    if not 0 < sigma <= 1:
        raise ValueError(f"sigma={sigma} outside (0, 1]")
    n = pg.graph.n
    count = seed_count(sigma, n)
    if count < 1:
        raise ValueError("sigma too small: no seeds")
    ncomm = pg.n_communities
    best_ids = None
    best_missing = ncomm + 1
    for _ in range(50):
        ids = rng.choice(n, size=count, replace=False)
        covered = np.unique(pg.membership[ids])
        missing = ncomm - covered.size
        if missing < best_missing:
            best_ids, best_missing = ids, missing
        if missing == 0:
            break
    covered = np.zeros(ncomm, dtype=bool)
    covered[pg.membership[best_ids]] = True
    uncovered = np.flatnonzero(~covered).tolist()
    seed_set = SeedSet.from_membership(np.sort(best_ids), pg.membership, ncomm)
    return seed_set, uncovered


def mixing_fraction(pg: PlantedGraph) -> float:
    """Realized fraction of edge endpoints that cross communities."""
    g = pg.graph
    u = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
    inter = pg.membership[u] != pg.membership[g.targets]
    return float(inter.sum() / max(1, g.targets.size))


def write_truth(pg: PlantedGraph, stream: IO[str]) -> None:
    """Ground truth as `node community` lines."""
    g = pg.graph
    for v in range(g.n):
        stream.write(f"{g.labels[v]} {int(pg.membership[v])}\n")


def load_planted(edge_source, truth_source: str | Path | IO[str] | Iterable[str]) -> PlantedGraph:
    """Rebuild a PlantedGraph from an edge list plus a ground truth that lists every node once."""
    g = load_edge_list(edge_source)
    membership = np.full(g.n, -1, dtype=np.int64)
    for lineno, (lab, comm_s) in read_records(truth_source, "node community"):
        try:
            v = g.id_of(lab)
            c = int(comm_s)
        except (KeyError, ValueError):
            raise ParseError(f"line {lineno}: unknown node or bad community index") from None
        if not 0 <= c < g.n:
            # a partition of n nodes has at most n parts
            raise ParseError(f"line {lineno}: community index {c} out of range [0, {g.n})")
        if membership[v] >= 0:
            raise ParseError(f"line {lineno}: duplicate entry for node {lab!r}")
        membership[v] = c
    if (membership < 0).any():
        missing = int((membership < 0).sum())
        raise ParseError(f"{missing} node(s) missing from the ground-truth file")
    sizes = np.bincount(membership).tolist()
    return PlantedGraph(graph=g, membership=membership, sizes=sizes)
