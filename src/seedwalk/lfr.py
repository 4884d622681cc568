"""LFR-style benchmark graphs: power-law degrees and community sizes,
planted single-membership communities, mixing parameter mu.

Each node keeps a fraction 1-mu of its edges inside its own community
(internal stub count ceil((1-mu) * k), so mu=0 yields strictly zero
inter-community edges); a community with an odd internal stub sum sheds one
stub, which goes external at mu > 0 and is dropped at mu = 0, so the external
stubs sum to an even number. Community sizes come from one power-law draw cut
where its running sum reaches n, and must pass a capacity check (one sorted
comparison); an attempt with an internal degree of s_max or more draws no
sizes, as no community can host it. Nodes are placed in descending internal
degree, each into a random free slot of a community larger than that
degree, which cannot run out of room on sizes that pass the check.

Both edge classes are wired configuration-model style in array rounds: one
matcher call pairs all internal stubs, grouped by community, and one pairs
the external stubs across communities. Shuffle passes pair neighbouring
stubs; the pairs that still collide then get up to 16 rounds of 16
degree-preserving double-edge swap proposals each (Maslov-Sneppen), checked
all at once on sorted edge keys. Unresolvable collisions are dropped and
must stay under 1% of the edge budget and keep the mean degree within 5% of
avg_k; otherwise the attempt is redrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import GenerationError, ParseError
from .graph import LINES_PER_WRITE, Graph, load_edge_list, read_records
from .seeds import SeedSet

_MAX_ATTEMPTS = 30
_MATCH_PASSES = 12
_SWAP_ROUNDS = 16
_SWAP_TRIES = 16
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
        k_max = self.k_max if self.k_max is not None else max(2, int(min(3 * self.avg_k, self.n // 10)))
        k_min = self.k_min if self.k_min is not None else _calibrate_k_min(self.avg_k, self.gamma, k_max)
        s_min = self.s_min if self.s_min is not None else 10
        s_max = self.s_max if self.s_max is not None else max(s_min, self.n // 5)
        return k_min, k_max, s_min, s_max

    def validate(self) -> None:
        if self.n < 2:
            raise GenerationError("n must be at least 2")
        # generation draws n-element arrays; numpy cannot shape one past its byte limit
        if self.n * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
            raise GenerationError(f"n={self.n} is more nodes than numpy can shape an array for")
        if not 0.0 <= self.mu <= 1.0:
            raise GenerationError(f"mu={self.mu} outside [0, 1]")
        # written so that NaN fails every test
        if not (1 < self.gamma < math.inf and 1 < self.beta_exp < math.inf):
            raise GenerationError("power-law exponents must be finite and exceed 1")
        if not 0 < self.avg_k < math.inf:
            raise GenerationError("avg_k must be positive and finite")
        # before k_min is resolved: its calibration spans [1, k_max]
        if self.k_max is not None and not 1 <= self.k_max < self.n:
            raise GenerationError(f"need 1 <= k_max < n={self.n}, got k_max={self.k_max}")
        k_min, k_max, s_min, s_max = self.resolved_bounds()
        if not 1 <= k_min <= k_max:
            raise GenerationError(f"need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
        if k_max >= self.n:
            raise GenerationError(f"k_max={k_max} must be below n={self.n}")
        if k_max == 1 and self.n % 2:
            raise GenerationError(f"k_max=1 with odd n={self.n}: every degree is 1, so the degree sum is odd")
        if not 1 <= s_min <= s_max:
            raise GenerationError(f"need 1 <= s_min <= s_max, got [{s_min}, {s_max}]")
        if s_max > self.n:
            raise GenerationError(f"s_max={s_max} must not exceed n={self.n}")
        # some count c of sizes has c * s_min <= n <= c * s_max (this also rejects n < s_min)
        if -(-self.n // s_max) > self.n // s_min:
            raise GenerationError(f"no count of sizes in [{s_min}, {s_max}] sums to n={self.n}")
        if not k_min <= self.avg_k <= k_max:
            raise GenerationError(f"avg_k={self.avg_k} outside degree bounds [{k_min}, {k_max}]")


@dataclass
class PlantedGraph:
    """A generated graph with its ground-truth communities.

    `attempts` counts the wirings `generate` ran and `dropped` the edge
    equivalents the kept one dropped; a loaded graph has 0 of both.
    """

    graph: Graph
    membership: np.ndarray
    sizes: list[int] = field(default_factory=list)
    attempts: int = 0
    dropped: float = 0.0

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
    # weights relative to the first, which stays 1 where the others underflow
    cdf = np.cumsum((support / lo) ** (-exponent))
    cdf /= cdf[-1]
    return (lo + np.searchsorted(cdf, rng.random(count), side="right")).astype(np.int64)


def _calibrate_k_min(avg_k: float, gamma: float, k_max: int) -> int:
    """The k in [1, k_max] whose truncated power-law mean on [k, k_max] is
    closest to avg_k (the smallest such k on a tie)."""
    x = np.arange(1, k_max + 1, dtype=np.float64)
    # tail sums of x^(1-gamma) and x^-gamma give the mean for every k at once
    num = np.cumsum((x ** (1 - gamma))[::-1])[::-1]
    den = np.cumsum((x ** -gamma)[::-1])[::-1]
    # a tail whose weights all underflow puts all its mass on its first value
    return int(np.argmin(np.abs(np.divide(num, den, out=x.copy(), where=den > 0) - avg_k))) + 1


def internal_degree(k: int | np.ndarray, mu: float):
    """ceil((1-mu) * k), guarded against float fuzz at exact multiples."""
    return np.ceil((1.0 - mu) * np.asarray(k) - _CEIL_EPS).astype(np.int64).clip(min=0)


def generate(params: LfrParams) -> PlantedGraph:
    """Generate a planted-communities graph; deterministic in params.rng_seed.

    Pipeline: power-law degrees, all drawn at the one k_min that
    `resolved_bounds` reports, power-law community sizes
    tiling n (up to 200 `_draw_sizes` tries for sizes that pass
    `_sizes_feasible`, none when an internal degree reaches s_max), nodes
    placed in descending internal degree into random free slots that fit
    them (this cannot fail on such sizes; see `_assign_membership`), then
    configuration-model matching of the internal and the external stub pools
    in array rounds of shuffle passes and double-edge swaps (`_match`; at
    most 16 rounds of 16 proposals per colliding pair). An attempt whose
    wiring drops more than 1% of the edge budget, or leaves the mean degree
    below avg_k - 5%, is redrawn from the degrees on. Raises GenerationError
    when the parameters stay infeasible after bounded retries.
    """
    params.validate()
    k_min, k_max, s_min, s_max = params.resolved_bounds()
    rng = np.random.default_rng(params.rng_seed)
    failures: list[str] = []
    attempts = 0
    for _ in range(_MAX_ATTEMPTS):
        degrees = _draw_degrees(params, k_min, k_max, rng)
        d_int = internal_degree(degrees, params.mu)
        sizes = None
        # no community of at most s_max nodes hosts an internal degree >= s_max
        for _ in range(200 if d_int.max() < s_max else 0):
            cand = _draw_sizes(params.n, params.beta_exp, s_min, s_max, rng)
            if cand is not None and _sizes_feasible(cand, d_int):
                sizes = cand
                break
        if sizes is None:
            failures.append("no community size draw can host the internal degrees")
            continue
        member = _assign_membership(sizes, d_int, rng)
        attempts += 1
        edges, dropped = _wire(member, degrees, d_int, params.mu, rng)
        m_target = int(degrees.sum()) // 2
        # the drops must also leave the mean degree in the draw's 5% band
        if dropped > 0.01 * m_target or 2 * len(edges) < 0.95 * params.avg_k * params.n:
            failures.append(f"dropped {dropped:.1f} of {m_target} edges (>1%, or mean degree below avg_k - 5%)")
            continue
        graph = Graph.from_edges(params.n, edges)
        graph.validate()
        return PlantedGraph(graph=graph, membership=member, sizes=sizes, attempts=attempts, dropped=dropped)
    raise GenerationError(
        f"generation failed after {_MAX_ATTEMPTS} attempts for {params}; causes: "
        + "; ".join(failures[-3:])
    )


def _draw_degrees(params: LfrParams, k_min: int, k_max: int, rng) -> np.ndarray:
    """Power-law degrees on [k_min, k_max], redrawn until their mean is
    within 5% of avg_k, with an even sum."""
    for _ in range(200):
        deg = sample_power_law(params.gamma, k_min, k_max, params.n, rng)
        if abs(float(deg.mean()) - params.avg_k) <= 0.05 * params.avg_k:
            return _even_degree_sum(deg, k_max, rng)
    raise GenerationError(
        f"degree sample mean would not settle within 5% of avg_k={params.avg_k} "
        f"(bounds [{k_min}, {k_max}])"
    )


def _even_degree_sum(deg: np.ndarray, k_max: int, rng) -> np.ndarray:
    # an odd sum needs k_max >= 2 (validate rejects k_max 1 with odd n), so
    # a node at k_max can give up a stub without dropping below 1
    if deg.sum() % 2:
        j = int(rng.integers(deg.size))
        deg[j] += 1 if deg[j] < k_max else -1
    return deg


def _draw_sizes(n: int, beta_exp: float, s_min: int, s_max: int, rng) -> list[int] | None:
    """Community sizes in [s_min, s_max] that sum to n, or None.

    One draw of n // s_min + 1 sizes always reaches n; the prefix up to the
    first cumulative sum >= n is kept, which is the law of drawing one size
    at a time until n is reached. An overshoot is trimmed from the last size
    if it stays >= s_min; otherwise that size is dropped and the deficit is
    spread one node at a time over the kept sizes below s_max, in order. None
    when their free room is less than the deficit.
    """
    draws = sample_power_law(beta_exp, s_min, s_max, n // s_min + 1, rng)
    total = np.cumsum(draws)
    cut = int(np.searchsorted(total, n)) + 1
    sizes, excess = draws[:cut], int(total[cut - 1]) - n
    if sizes[-1] - excess >= s_min:
        sizes[-1] -= excess
        return sizes.tolist()
    sizes = sizes[:-1]
    deficit = n - int(sizes.sum())
    # pass p adds a node to each size with more than p free slots, in order;
    # the deficit is below s_min, so the (deficit, len) grid stays under n cells
    slots = np.flatnonzero(s_max - sizes > np.arange(deficit)[:, None])[:deficit]
    if slots.size < deficit:
        return None
    return (sizes + np.bincount(slots % sizes.size, minlength=sizes.size)).tolist()


def _sizes_feasible(sizes: list[int], d_int: np.ndarray) -> bool:
    """Capacity check on sizes that sum to d_int.size: a node of internal
    degree d fits only into a community of size > d. The communities that fit
    a node are nested by degree, so (Hall) a placement exists iff the sorted
    degrees lie below the sorted slot sizes, one slot per node."""
    sz = np.sort(np.asarray(sizes, dtype=np.int64))
    return bool((np.sort(d_int) < np.repeat(sz, sz)).all())


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
    # fits never falls along the order; one uniform ordered sample of the
    # free slots places a whole run of nodes that fit the same prefix
    cuts = [0, *(np.flatnonzero(np.diff(fits)) + 1).tolist(), n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        k = int(fits[lo])
        picked = rng.choice(np.repeat(np.arange(k), room[:k]), size=hi - lo, replace=False)
        room[:k] -= np.bincount(picked, minlength=k)
        member[order[lo:hi]] = by_size[picked]
    return member


def _wire(member, degrees, d_int, mu, rng) -> tuple[np.ndarray, float]:
    """Match the internal stubs inside their communities and the external
    stubs across communities, with one `_match` call each: all internal
    pools at once, grouped by community, then the external pool under the
    cross-community constraint. Each call runs up to 12 shuffle passes and
    16 swap rounds of 16 double-edge swap proposals per colliding pair.
    The stubs of `degrees` beyond `d_int` are external, as is the stub that a
    community with an odd internal sum sheds at mu > 0 (at mu = 0 it is
    dropped); the external stubs sum to an even number.

    Returns (edges as an (m, 2) int array, dropped edge-equivalents).
    """
    n = member.size
    nodes = np.arange(n, dtype=np.int64)

    # per-community stub parity: shed one internal stub from the largest
    # holder (lowest id on ties) of each community with an odd stub sum
    odd = np.flatnonzero(np.bincount(member, weights=d_int).astype(np.int64) % 2)
    by_comm = np.lexsort((-d_int, member))
    shed = by_comm[np.searchsorted(member[by_comm], odd)]
    d_int = d_int.copy()
    d_int[shed] -= 1
    # even: degrees sum to an even number (_even_degree_sum), as do every
    # community's internal stubs after the shed; zero at mu = 0
    d_ext = degrees - d_int
    dropped_stubs = 0
    if mu == 0.0:
        d_ext[shed] = 0
        dropped_stubs = shed.size

    # the pools cannot collide: internal edges stay inside one community,
    # external edges cross two
    stubs = np.repeat(nodes, d_int)
    internal, still = _match(stubs, member[stubs], n, rng)
    stubs = np.repeat(nodes, d_ext)
    external, still_ext = _match(stubs, np.zeros_like(stubs), n, rng, member)
    placed = np.concatenate([internal, external])
    # an external pair whose only flaw is lying inside one community is
    # kept as an internal edge; every other leftover is dropped
    u, w = still_ext.T
    keep = _fresh(u, w, n, np.sort(_keys(*placed.T, n))) & (member[u] == member[w])
    edges = np.concatenate([placed, still_ext[keep]])
    return edges, len(still) + int((~keep).sum()) + dropped_stubs / 2.0


def _keys(u, w, n):
    """Key lo*n + hi of each undirected pair."""
    return np.minimum(u, w) * n + np.maximum(u, w)


def _fresh(u, w, n, taken, member=None) -> np.ndarray:
    """Mask of the pairs that can be placed next to the edges with sorted keys
    `taken`: no self-loop, no key in `taken`, the first of equal keys, and
    (with `member`) the two ends in different communities."""
    key = _keys(u, w, n)
    ok = (u != w) & ~_within(taken, key)
    if member is not None:
        ok &= member[u] != member[w]
    idx = np.flatnonzero(ok)
    _, first = np.unique(key[idx], return_index=True)
    ok[:] = False
    ok[idx[first]] = True
    return ok


def _within(taken: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Mask of the keys found in the sorted array `taken`."""
    if taken.size == 0:
        return np.zeros(key.shape, dtype=bool)
    return taken[np.searchsorted(taken, key).clip(max=taken.size - 1)] == key


def _once(x: np.ndarray) -> np.ndarray:
    """Mask of the entries whose value occurs exactly once in x."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return counts[inverse] == 1


def _match(stubs, group, n, rng, member=None) -> tuple[np.ndarray, np.ndarray]:
    """Pair stubs into simple edges, each inside its stub group, in array rounds.

    `stubs` holds node ids below n and `group` the group of each stub; every
    group holds an even number of stubs. With `member` given, every edge must
    also join two communities.

    - Passes: shuffle the open stubs within their groups and pair neighbours.
      A pair is placed unless it is a self-loop, breaks the constraint or
      repeats an edge (the first of equal new pairs wins). The others go on
      to the next pass, up to _MATCH_PASSES passes or one that places nothing.
    - Swap rounds: each open pair (u, w) proposes _SWAP_TRIES double-edge
      swaps, each against a random placed edge (a, b) of its group: retire
      (a, b), place (u, a) and (w, b), which keeps every degree. A round
      takes each pair's first valid proposal and accepts those that conflict
      with nothing: every retired edge and every new edge occurs once, up to
      _SWAP_ROUNDS rounds.

    Returns (placed, leftover): (m, 2) and (k, 2) int arrays that together
    hold exactly the input stubs.
    """
    empty = np.empty(0, dtype=np.int64)
    a, b, eg = empty, empty, empty  # placed edges and their groups
    u, w, g = empty, empty, empty  # open pairs
    pool, pool_g = stubs, group
    for _ in range(_MATCH_PASSES):
        if pool.size == 0:
            break
        order = np.lexsort((rng.random(pool.size), pool_g))
        pool, pool_g = pool[order], pool_g[order]
        u, w, g = pool[0::2], pool[1::2], pool_g[0::2]
        ok = _fresh(u, w, n, np.sort(_keys(a, b, n)), member)
        a, b, eg = np.concatenate([a, u[ok]]), np.concatenate([b, w[ok]]), np.concatenate([eg, g[ok]])
        u, w, g = u[~ok], w[~ok], g[~ok]
        if not ok.any():
            break
        pool, pool_g = np.concatenate([u, w]), np.concatenate([g, g])

    for _ in range(_SWAP_ROUNDS):
        if u.size == 0:
            break
        taken = np.sort(_keys(a, b, n))
        order = np.argsort(eg, kind="stable")
        a, b, eg = a[order], b[order], eg[order]
        start = np.searchsorted(eg, g)
        count = np.searchsorted(eg, g, side="right") - start
        if not count.any():
            break
        # proposals: row i swaps open pair i against placed edge j[i, t]
        j = start[:, None] + (rng.random((u.size, _SWAP_TRIES)) * count[:, None]).astype(np.int64)
        j = j.clip(max=a.size - 1)
        flip = rng.random(j.shape) < 0.5
        x, y = np.where(flip, b[j], a[j]), np.where(flip, a[j], b[j])
        uu, ww = u[:, None], w[:, None]
        k1, k2 = _keys(uu, x, n), _keys(ww, y, n)
        valid = (count > 0)[:, None] & (uu != x) & (ww != y) & (k1 != k2) & ~_within(taken, k1) & ~_within(taken, k2)
        if member is not None:
            valid &= (member[uu] != member[x]) & (member[ww] != member[y])
        pick = valid.argmax(axis=1)
        i = np.flatnonzero(valid[np.arange(u.size), pick])
        t = pick[i]
        ji, k1i, k2i = j[i, t], k1[i, t], k2[i, t]
        both = _once(np.concatenate([k1i, k2i]))
        acc = _once(ji) & both[: i.size] & both[i.size :]
        i, t, ji = i[acc], t[acc], ji[acc]
        xi, yi = x[i, t], y[i, t]
        # (u, x) takes the retired edge's slot, (w, y) is appended
        a[ji], b[ji] = u[i], xi
        a, b, eg = np.concatenate([a, w[i]]), np.concatenate([b, yi]), np.concatenate([eg, g[i]])
        still = np.ones(u.size, dtype=bool)
        still[i] = False
        u, w, g = u[still], w[still], g[still]
    return np.stack([a, b], axis=1), np.stack([u, w], axis=1)


def seed_count(sigma: float, n: int) -> int:
    """Seeds drawn for fraction sigma of n nodes: sigma * n rounded half up."""
    return int(sigma * n + 0.5)


def sample_seeds(pg: PlantedGraph, sigma: float, rng: np.random.Generator) -> tuple[SeedSet, list[int]]:
    """Uniform seed subset of size round(sigma * n) with indicator affinities.

    Resamples a bounded number of times to put at least one seed in every
    community with members; those still uncovered afterwards are returned in
    the second element.
    """
    if not 0 < sigma <= 1:
        raise ValueError(f"sigma={sigma} outside (0, 1]")
    n = pg.graph.n
    count = seed_count(sigma, n)
    if count < 1:
        raise ValueError("sigma too small: no seeds")
    ncomm = pg.n_communities
    # a truth file may skip a community index: no seed can cover that empty community
    populated = np.asarray(pg.sizes) > 0
    best_ids = best_uncovered = None
    best_missing = ncomm + 1
    for _ in range(50):
        ids = rng.choice(n, size=count, replace=False)
        uncovered = populated & (np.bincount(pg.membership[ids], minlength=ncomm) == 0)
        missing = int(uncovered.sum())
        if missing < best_missing:
            best_ids, best_uncovered, best_missing = ids, uncovered, missing
        if missing == 0:
            break
    ids = np.sort(best_ids)
    rows = np.zeros((count, ncomm))
    rows[np.arange(count), pg.membership[ids]] = 1.0
    return SeedSet(ids, rows), np.flatnonzero(best_uncovered).tolist()


def mixing_fraction(pg: PlantedGraph) -> float:
    """Realized fraction of edge endpoints that cross communities."""
    g = pg.graph
    inter = pg.membership[g.sources()] != pg.membership[g.targets]
    return float(inter.sum() / max(1, g.targets.size))


def write_truth(pg: PlantedGraph, stream: IO[str]) -> None:
    """Ground truth as `node community` lines."""
    labels, comms = pg.graph.labels, pg.membership.tolist()
    for i in range(0, len(labels), LINES_PER_WRITE):
        block = zip(labels[i : i + LINES_PER_WRITE], comms[i : i + LINES_PER_WRITE])
        stream.write("".join([f"{label} {c}\n" for label, c in block]))


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
