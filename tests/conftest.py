"""Shared fixtures: reference graphs and an independent dense absorption oracle."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import strategies as st

from seedwalk import Graph, SeedSet, load_edge_list, load_seed_file

# 11-node reference graph: two absorbing endpoints s1/s2, a spine
# s1-n2-v-n4-s2, and two 3-node chains hanging off v/n4/s2. A walk from v
# is absorbed at s1 with probability exactly 1/3 and at s2 with 2/3.
FIG_EDGES = """\
s1 n2
n2 v
v n4
n4 s2
v ta
n4 tb
s2 tc
v ba
n4 bb
s2 bc
ta tb
tb tc
ba bb
bb bc
"""

FIG_SEEDS = "s1 0 1\ns2 1 1\n"


@pytest.fixture
def fig_graph() -> Graph:
    return load_edge_list(io.StringIO(FIG_EDGES))


@pytest.fixture
def fig_seeds(fig_graph) -> SeedSet:
    return load_seed_file(io.StringIO(FIG_SEEDS), fig_graph)


def neighbors(g: Graph, v: int) -> np.ndarray:
    """Node v's neighbors, ascending."""
    return g.targets[g.offsets[v] : g.offsets[v + 1]]


def path_graph(k: int) -> Graph:
    """Path s - v1 - ... - vk - t with labels s, v1..vk, t."""
    labels = ["s"] + [f"v{i}" for i in range(1, k + 1)] + ["t"]
    edges = [(i, i + 1) for i in range(k + 1)]
    return Graph.from_edges(k + 2, edges, labels)


def random_connected_graph(rng: np.random.Generator, n: int, extra: float = 2.0) -> Graph:
    """Random spanning tree plus extra random edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(v)), v))
    for _ in range(int(extra * n)):
        u = int(rng.integers(n))
        w = int(rng.integers(n))
        if u != w:
            edges.add((min(u, w), max(u, w)))
    return Graph.from_edges(n, edges)


def one_seed_per_community(rng: np.random.Generator, n: int, l: int) -> tuple[Graph, SeedSet]:
    """A random connected graph on n nodes and l seeds, seed i the indicator of community i."""
    g = random_connected_graph(rng, n)
    ids = np.sort(rng.choice(n, size=l, replace=False))
    return g, SeedSet(ids, np.eye(l))


def dense_absorption_oracle(g: Graph, seed_ids, seed_rows) -> tuple[list[int], np.ndarray]:
    """Brute-force affinities via the full transition matrix.

    Builds P row by row straight from the graph, extracts Q and R, solves
    (I - Q) B = R densely, and mixes the seed rows. Shares no code with
    the package's assemble/solve path.
    """
    n = g.n
    P = np.zeros((n, n))
    for v in range(n):
        nbrs = neighbors(g, v)
        P[v, nbrs] = 1.0 / nbrs.size
    s = sorted(int(x) for x in seed_ids)
    s_set = set(s)
    t = [v for v in range(n) if v not in s_set]
    Q = P[np.ix_(t, t)]
    R = P[np.ix_(t, s)]
    B = np.linalg.solve(np.eye(len(t)) - Q, R)
    return t, B @ np.asarray(seed_rows)


# labels: non-whitespace text that may hold '#' anywhere but first
LABELS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda s: s.split() == [s] and not s.startswith("#")
)


@st.composite
def labelled_edges(draw):
    """(labels, edge list text) with every label on some edge."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=10, unique=True))
    node = st.integers(0, len(labels) - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=1, max_size=30))
    used = {v for p in pairs for v in p}
    text = "".join(f"{labels[u]} {labels[w]}\n" for u, w in pairs)
    return [labels[v] for v in sorted(used)], text
