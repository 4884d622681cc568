import io

import numpy as np
import pytest

from seedwalk import SeedSet, SeedwalkError, build_chain, estimate_affinity, load_edge_list, run_walks
from seedwalk.markov import AbsorbingChain
from seedwalk.walker import WalkStats

from conftest import path_graph


def test_symmetric_coin_on_tiny_path():
    g = load_edge_list(io.StringIO("s1 a\na s2\n"))
    chain = build_chain(g, {g.id_of("s1"), g.id_of("s2")})
    stats = run_walks(chain, g.id_of("a"), walks=100_000, rng_seed=1)
    assert stats.counts.sum() == stats.walks
    freq = stats.counts / stats.walks
    assert abs(freq[0] - 0.5) <= 0.01
    assert abs(freq[1] - 0.5) <= 0.01


def test_fig_graph_million_walks(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    stats = run_walks(chain, fig_graph.id_of("v"), walks=1_000_000, rng_seed=8)
    freq = stats.counts / stats.walks
    i1 = chain.absorbing_index[fig_graph.id_of("s1")]
    i2 = chain.absorbing_index[fig_graph.id_of("s2")]
    assert abs(freq[i1] - 1 / 3) <= 0.002
    assert abs(freq[i2] - 2 / 3) <= 0.002


def test_single_exit_absorbs_everything():
    g = load_edge_list(io.StringIO("s a\n"))
    chain = build_chain(g, {g.id_of("s")})
    stats = run_walks(chain, g.id_of("a"), walks=500, rng_seed=0)
    assert stats.counts.tolist() == [500]


def test_deterministic_given_seed(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    v = fig_graph.id_of("v")
    a = run_walks(chain, v, walks=30_000, rng_seed=99)
    b = run_walks(chain, v, walks=30_000, rng_seed=99)
    c = run_walks(chain, v, walks=30_000, rng_seed=100)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_start_must_be_transient(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    with pytest.raises(ValueError, match="seed"):
        run_walks(chain, fig_graph.id_of("s1"), walks=10, rng_seed=0)
    with pytest.raises(ValueError, match="walks"):
        run_walks(chain, fig_graph.id_of("v"), walks=0, rng_seed=0)


def test_step_cap_tripwire():
    # hand-built chain over a disconnected graph: walks from the stranded
    # component can never absorb, which is exactly what the cap must catch
    g = load_edge_list(io.StringIO("s a\nx y\n"))
    chain = AbsorbingChain(g, np.array([g.id_of("s")]))
    with pytest.raises(SeedwalkError, match="step"):
        run_walks(chain, g.id_of("x"), walks=4, rng_seed=0, step_cap=1000)


def test_estimate_from_counts():
    seed_ids = np.array([0, 4])
    seeds = SeedSet([0, 4], [[1.0, 0.0], [0.0, 1.0]])
    stats = WalkStats(seed_ids=seed_ids, counts=np.array([500, 500]), walks=1000)
    assert estimate_affinity(stats, seeds, 0) == pytest.approx(0.5)
    all_to_first = WalkStats(seed_ids=seed_ids, counts=np.array([1000, 0]), walks=1000)
    assert estimate_affinity(all_to_first, seeds, 0) == pytest.approx(1.0)


def test_estimate_rejects_other_seeds_and_communities():
    seeds = SeedSet([0, 4], [[1.0, 0.0], [0.0, 1.0]])
    stats = WalkStats(seed_ids=np.array([0, 3]), counts=np.array([5, 5]), walks=10)
    with pytest.raises(ValueError, match="^walk stats and affinity set cover different seeds$"):
        estimate_affinity(stats, seeds, 0)
    stats = WalkStats(seed_ids=np.array([0, 4]), counts=np.array([5, 5]), walks=10)
    for community in (-1, 2):
        with pytest.raises(ValueError, match=f"^community {community} out of range$"):
            estimate_affinity(stats, seeds, community)


def test_estimate_matches_fig_values(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    stats = run_walks(chain, fig_graph.id_of("v"), walks=200_000, rng_seed=12)
    assert estimate_affinity(stats, fig_seeds, 0) == pytest.approx(1 / 3, abs=0.005)
    assert estimate_affinity(stats, fig_seeds, 1) == pytest.approx(2 / 3, abs=0.005)


def test_walker_converges_to_solver_value():
    # 4 sqrt(p(1-p)/walks) band around the exact gambler's-ruin value
    g = path_graph(3)
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[1.0], [0.0]])
    chain = build_chain(g, seeds.ids)
    stats = run_walks(chain, g.id_of("v1"), walks=100_000, rng_seed=31)
    est = estimate_affinity(stats, seeds, 0)
    assert abs(est - 0.75) <= 4 * np.sqrt(0.25 / 100_000) + 1e-6
