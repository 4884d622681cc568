import io
import pickle

import numpy as np
import pytest

from seedwalk import ReachabilityError, build_chain, load_edge_list

from conftest import neighbors, path_graph, random_connected_graph


def transition_row(chain, v):
    """Out-transitions of transient node v: (neighbor, 1/deg(v)) per neighbor."""
    if chain.absorbing_index[v] >= 0:
        raise ValueError(f"node {v} is absorbing; its row is the implicit identity")
    nbrs = neighbors(chain.graph, v)
    p = 1.0 / nbrs.size
    return [(int(w), p) for w in nbrs]


def test_path_chain_partition():
    g = path_graph(3)  # s - v1 - v2 - v3 - t
    chain = build_chain(g, {g.id_of("s"), g.id_of("t")})
    assert chain.transient.size == 3
    assert chain.sigma == 2
    row = dict(transition_row(chain, g.id_of("v1")))
    assert row[g.id_of("s")] == pytest.approx(0.5)
    assert row[g.id_of("v2")] == pytest.approx(0.5)


def test_fig_chain_sizes(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    assert chain.transient.size == 9
    assert chain.sigma == 2


def test_all_nodes_seeds_degenerate():
    g = path_graph(1)
    chain = build_chain(g, set(range(g.n)))
    assert chain.transient.size == 0
    assert chain.sigma == g.n


def test_transition_row_uniform(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    v = fig_graph.id_of("v")
    row = transition_row(chain, v)
    assert fig_graph.degrees()[v] == 4
    assert len(row) == 4
    assert all(p == pytest.approx(0.25) for _, p in row)


def test_degree_one_node_to_seed():
    g = load_edge_list(io.StringIO("s a\na b\n"))
    chain = build_chain(g, {g.id_of("s"), g.id_of("b")})
    row = transition_row(chain, g.id_of("a"))
    assert sorted(p for _, p in row) == [0.5, 0.5]
    g2 = load_edge_list(io.StringIO("s a\n"))
    chain2 = build_chain(g2, {g2.id_of("s")})
    assert transition_row(chain2, g2.id_of("a")) == [(g2.id_of("s"), 1.0)]


def test_rows_stochastic_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_connected_graph(rng, 50)
        seeds = set(int(v) for v in rng.choice(g.n, size=8, replace=False))
        chain = build_chain(g, seeds)
        for v in chain.transient:
            total = sum(p for _, p in transition_row(chain, int(v)))
            assert abs(total - 1.0) <= 1e-12


def test_seed_row_is_error(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    with pytest.raises(ValueError, match="absorbing"):
        transition_row(chain, fig_graph.id_of("s1"))


def test_unreachable_nodes_rejected():
    g = load_edge_list(io.StringIO("a b\nc d\n"))
    with pytest.raises(ReachabilityError) as exc:
        build_chain(g, {g.id_of("a")})
    assert set(exc.value.unreachable) == {g.id_of("c"), g.id_of("d")}
    assert str(exc.value) == "2 node(s) cannot reach any seed: c, d"
    # worker processes send it back pickled
    copy = pickle.loads(pickle.dumps(exc.value))
    assert copy.unreachable == exc.value.unreachable and str(copy) == str(exc.value)


def test_empty_seed_set_rejected():
    g = path_graph(1)
    with pytest.raises(ValueError, match="empty"):
        build_chain(g, set())
    with pytest.raises(ValueError, match="out of range"):
        build_chain(g, {0, g.n})


def _dense_q(chain):
    tau = chain.transient.size
    q = np.zeros((tau, tau))
    for i, v in enumerate(chain.transient):
        for w, p in transition_row(chain, int(v)):
            if chain.absorbing_index[w] < 0:
                q[i, np.searchsorted(chain.transient, w)] = p
    return q


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_transient_mass_decays(seed):
    # lim Q^k -> 0: repeated application of Q to the all-ones vector vanishes
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 40)
    seeds = set(int(v) for v in rng.choice(g.n, size=6, replace=False))
    chain = build_chain(g, seeds)
    q = _dense_q(chain)
    vec = np.ones(chain.transient.size)
    norms = []
    for _ in range(400):
        vec = q @ vec
        norms.append(np.abs(vec).max())
    assert norms[-1] < 1e-3
    assert norms[-1] < norms[0]
