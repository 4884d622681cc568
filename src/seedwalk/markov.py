"""Absorbed-walk semantics: seeds become absorbing, everything else is transient.

A walk at a transient node moves to a uniformly random neighbor (degree taken
in the original undirected graph); a walk at a seed never leaves. The implicit
transition structure is the block matrix [[Q, R], [0, I]] over the
transient/absorbing partition. Q and R are not built here: the solver slices
the adjacency rows of the transient nodes instead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ReachabilityError
from .graph import Graph, check_seed_reachability, unique_sorted


class AbsorbingChain:
    """Transient/absorbing partition of a graph's walk chain.

    transient lists the non-seed node ids; absorbing_index maps node id ->
    position in 0..sigma-1 (-1 for transient nodes). Both orderings are
    ascending original node id, so results are deterministic across runs.
    """

    __slots__ = ("graph", "seeds", "transient", "absorbing_index")

    def __init__(self, graph: Graph, seeds: np.ndarray):
        self.graph = graph
        self.seeds = seeds
        mask = np.ones(graph.n, dtype=bool)
        mask[seeds] = False
        self.transient = np.flatnonzero(mask)
        self.absorbing_index = np.full(graph.n, -1, dtype=np.int64)
        self.absorbing_index[self.seeds] = np.arange(self.seeds.size)

    @property
    def sigma(self) -> int:
        return self.seeds.size


def build_chain(g: Graph, seeds: Iterable[int]) -> AbsorbingChain:
    """Make seeds absorbing; every non-seed must reach some seed.

    Raises ReachabilityError listing the offending nodes otherwise.
    seeds = all nodes is a valid degenerate chain with no transient node.
    This is the one place seed ids are sorted and deduplicated; an empty set
    or an id outside 0..n-1 raises ValueError.
    """
    seed_arr = unique_sorted(np.fromiter(seeds, dtype=np.int64))
    if seed_arr.size == 0:
        raise ValueError("seed set is empty")
    if seed_arr[0] < 0 or seed_arr[-1] >= g.n:
        raise ValueError("seed id out of range")
    unreachable = check_seed_reachability(g, seed_arr)
    if unreachable.size:
        raise ReachabilityError(unreachable.tolist(), g.labels)
    return AbsorbingChain(g, seed_arr)

