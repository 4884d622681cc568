"""Monte Carlo simulation of absorbed random walks.

Independent of the linear-algebra path on purpose: this is the oracle the
solver is checked against. Walks are simulated in vectorized batches; each
batch draws from its own counter-based substream keyed by
(rng-seed, start, batch-index), so batches can run in any order (or in
parallel) and merge by summing counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeedwalkError
from .markov import AbsorbingChain
from .seeds import SeedSet

BATCH = 65536
DEFAULT_STEP_CAP = 10_000_000


@dataclass(frozen=True)
class WalkStats:
    """Absorption tallies for walks from one start node."""

    seed_ids: np.ndarray
    counts: np.ndarray
    walks: int


def run_walks(
    chain: AbsorbingChain,
    start: int,
    walks: int,
    rng_seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
) -> WalkStats:
    """Run absorbed walks from a transient node; deterministic in rng_seed.

    Every walk moves to a uniformly random neighbor until it hits a seed.
    The step cap is a tripwire only: absorption is certain on a valid
    chain, so hitting it means the chain was built wrong.
    """
    if chain.absorbing_index[start] >= 0:
        raise ValueError(f"start node {start} is a seed")
    if walks < 1:
        raise ValueError("walks must be >= 1")
    counts = np.zeros(chain.sigma, dtype=np.int64)
    done = 0
    batch_idx = 0
    while done < walks:
        size = min(BATCH, walks - done)
        counts += _walk_batch(chain, start, size, rng_seed, batch_idx, step_cap)
        done += size
        batch_idx += 1
    return WalkStats(seed_ids=chain.seeds.copy(), counts=counts, walks=walks)


def _walk_batch(chain, start, size, rng_seed, batch_idx, step_cap) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=rng_seed, spawn_key=(start, batch_idx))
    rng = np.random.Generator(np.random.Philox(ss))
    offsets = chain.graph.offsets
    targets = chain.graph.targets
    abs_idx = chain.absorbing_index
    counts = np.zeros(chain.sigma, dtype=np.int64)
    pos = np.full(size, start, dtype=np.int64)
    steps = 0
    while pos.size:
        steps += 1
        if steps > step_cap:
            raise SeedwalkError(
                f"walk exceeded {step_cap} steps from node {start}; chain reachability is broken"
            )
        lo = offsets[pos]
        deg = offsets[pos + 1] - lo
        nxt = targets[lo + (rng.random(pos.size) * deg).astype(np.int64)]
        hit = abs_idx[nxt]
        absorbed = hit >= 0
        if absorbed.any():
            counts += np.bincount(hit[absorbed], minlength=chain.sigma)
            pos = nxt[~absorbed]
        else:
            pos = nxt
    return counts


def estimate_affinity(stats: WalkStats, affinities: SeedSet, community: int) -> float:
    """Plug-in estimate: sum of beta_i(s) * (fraction of walks absorbed at s)."""
    if not np.array_equal(stats.seed_ids, affinities.ids):
        raise ValueError("walk stats and affinity set cover different seeds")
    if not 0 <= community < affinities.l:
        raise ValueError(f"community {community} out of range")
    return float(affinities.rows[:, community] @ stats.counts / stats.walks)
