import io
import pickle

import numpy as np
import pytest

from seedwalk import (
    Graph,
    ReachabilityError,
    SeedSet,
    assign_crisp,
    build_chain,
    detect_multi,
    estimate_affinity,
    load_edge_list,
    run_walks,
)
from seedwalk.detect import AffinityMatrix, write_affinity_csv, write_crisp_csv
from seedwalk.solver import SolveReport

from conftest import path_graph, random_connected_graph


def test_gamblers_ruin_profile():
    g = path_graph(3)
    seeds = SeedSet({g.id_of("s"): [1.0], g.id_of("t"): [0.0]})
    aff = detect_multi(g, seeds)
    assert aff.row_for(g.id_of("v1"))[0] == pytest.approx(0.75, abs=1e-10)
    assert aff.row_for(g.id_of("v2"))[0] == pytest.approx(0.50, abs=1e-10)
    assert aff.row_for(g.id_of("v3"))[0] == pytest.approx(0.25, abs=1e-10)


def test_all_seeds_one_gives_all_ones():
    g = path_graph(4)
    seeds = SeedSet({g.id_of("s"): [1.0], g.id_of("t"): [1.0]})
    aff = detect_multi(g, seeds)
    assert np.allclose(aff.rows, 1.0, atol=1e-10)


def test_fig_multi_community(fig_graph, fig_seeds):
    aff = detect_multi(fig_graph, fig_seeds)
    row = aff.row_for(fig_graph.id_of("v"))
    assert row[0] == pytest.approx(1 / 3, abs=1e-10)
    assert row[1] == pytest.approx(2 / 3, abs=1e-10)


def test_zero_affinity_column_stays_zero(fig_graph):
    seeds = SeedSet({fig_graph.id_of("s1"): [1.0, 0.0], fig_graph.id_of("s2"): [0.5, 0.0]})
    aff = detect_multi(fig_graph, seeds)
    assert np.array_equal(aff.rows[:, 1], np.zeros(aff.rows.shape[0]))


@pytest.mark.parametrize("total", [0.5, 1.0, 2.0])
def test_conservation(total):
    rng = np.random.default_rng(int(total * 10))
    g = random_connected_graph(rng, 100)
    ids = np.sort(rng.choice(g.n, size=15, replace=False))
    l = 4
    entries = {}
    for v in ids:
        while True:
            row = rng.dirichlet(np.ones(l)) * total
            if row.max() <= 1.0:
                break
        entries[int(v)] = row
    aff = detect_multi(g, SeedSet(entries))
    sums = aff.rows.sum(axis=1)
    assert np.abs(sums - total).max() <= 1e-6


def test_linearity_in_seed_affinities(fig_graph):
    s1, s2 = fig_graph.id_of("s1"), fig_graph.id_of("s2")
    beta1 = {s1: [1.0], s2: [0.0]}
    beta2 = {s1: [0.0], s2: [1.0]}
    alpha, gamma = 0.3, 0.5
    combo = {s1: [alpha * 1.0], s2: [gamma * 1.0]}
    a1 = detect_multi(fig_graph, SeedSet(beta1)).rows
    a2 = detect_multi(fig_graph, SeedSet(beta2)).rows
    ac = detect_multi(fig_graph, SeedSet(combo)).rows
    assert np.abs(ac - (alpha * a1 + gamma * a2)).max() <= 1e-6


def test_crisp_argmax_and_ties(fig_graph, fig_seeds):
    aff = detect_multi(fig_graph, fig_seeds)
    crisp = assign_crisp(aff)
    assert crisp[fig_graph.id_of("v")] == 1
    assert crisp[fig_graph.id_of("s1")] == 0
    assert crisp[fig_graph.id_of("s2")] == 1
    # exact tie breaks to the lowest index
    tied = AffinityMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]), transient_ids=np.array([0]))
    assert assign_crisp(tied).tolist() == [0, 1]
    # one int64 array indexed by node id: the argmax of each node's row,
    # which for a seed is its given row
    rng = np.random.default_rng(71)
    g = random_connected_graph(rng, 80)
    ids = np.sort(rng.choice(g.n, size=12, replace=False))
    seeds = SeedSet({int(v): rng.random(4) for v in ids})
    for aff, given in ((aff, fig_seeds), (detect_multi(g, seeds), seeds)):
        crisp = assign_crisp(aff)
        assert isinstance(crisp, np.ndarray) and crisp.dtype == np.int64 and crisp.shape == (aff.n,)
        assert crisp.tolist() == [int(np.argmax(aff.row_for(v))) for v in range(aff.n)]
        assert np.array_equal(crisp[given.ids], np.argmax(given.rows, axis=1))


def test_values_are_node_ordered(fig_graph):
    # one C-ordered float64 (n x l) array: the given rows at seed ids, the
    # solved rows (rows, in ascending id) at the others
    rng = np.random.default_rng(73)
    for g in (fig_graph, random_connected_graph(rng, 90)):
        ids = np.sort(rng.choice(g.n, size=3, replace=False))
        seeds = SeedSet({int(v): rng.random(3) for v in ids})
        aff = detect_multi(g, seeds)
        assert aff.values.shape == (g.n, 3) and aff.values.dtype == np.float64 and aff.values.flags.c_contiguous
        assert (aff.n, aff.l) == (g.n, 3)
        assert np.array_equal(aff.values[ids], seeds.rows)
        assert np.array_equal(aff.transient_ids, np.setdiff1d(np.arange(g.n), ids))
        assert np.array_equal(aff.rows, aff.values[aff.transient_ids])
        assert all(np.array_equal(aff.row_for(v), aff.values[v]) for v in range(g.n))
        with pytest.raises(IndexError):
            aff.row_for(g.n)


def test_crisp_single_community(fig_graph):
    seeds = SeedSet({fig_graph.id_of("s1"): [1.0], fig_graph.id_of("s2"): [0.2]})
    crisp = assign_crisp(detect_multi(fig_graph, seeds))
    assert set(crisp.tolist()) == {0}


def test_argmax_invariant_under_scaling(fig_graph):
    s1, s2 = fig_graph.id_of("s1"), fig_graph.id_of("s2")
    base = {s1: [1.0, 0.2], s2: [0.1, 0.9]}
    scaled = {k: [0.5 * x for x in v] for k, v in base.items()}
    c1 = assign_crisp(detect_multi(fig_graph, SeedSet(base)))
    c2 = assign_crisp(detect_multi(fig_graph, SeedSet(scaled)))
    assert np.array_equal(c1, c2)


def test_reachability_failure_raises():
    g = load_edge_list(io.StringIO("a b\nc d\n"))
    seeds = SeedSet({g.id_of("a"): [1.0]})
    with pytest.raises(ReachabilityError):
        detect_multi(g, seeds)


def test_all_nodes_seeds_degenerate():
    g = path_graph(1)
    seeds = SeedSet({v: [1.0, 0.0] if v % 2 else [0.0, 1.0] for v in range(g.n)})
    aff = detect_multi(g, seeds)
    assert aff.rows.shape == (0, 2)
    assert aff.reports == [SolveReport(0, 0.0, True)] * 2
    crisp = assign_crisp(aff)
    assert len(crisp) == g.n
    assert crisp[1] == 0 and crisp[0] == 1


def test_iteration_budget_exhaustion_raises():
    from seedwalk import ConvergenceError

    rng = np.random.default_rng(55)
    g = random_connected_graph(rng, 200)
    ids = np.sort(rng.choice(g.n, size=10, replace=False))
    seeds = SeedSet({int(v): [1.0] for v in ids})
    with pytest.raises(ConvergenceError) as exc:
        detect_multi(g, seeds, max_iter=1)
    # worker processes send it back pickled
    copy = pickle.loads(pickle.dumps(exc.value))
    assert copy.reports == exc.value.reports and str(copy) == str(exc.value)


def test_affinity_entries_near_unit_interval():
    rng = np.random.default_rng(61)
    for _ in range(3):
        g = random_connected_graph(rng, 120)
        ids = np.sort(rng.choice(g.n, size=18, replace=False))
        rows = rng.random((ids.size, 3))
        seeds = SeedSet({int(v): rows[i] for i, v in enumerate(ids)})
        aff = detect_multi(g, seeds)
        assert aff.rows.min() >= -1e-6
        assert aff.rows.max() <= 1.0 + 1e-6


def test_solver_walker_agreement():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 150)
    ids = np.sort(rng.choice(g.n, size=25, replace=False))
    half = ids.size // 2
    entries = {int(v): [1.0, 0.0] if i < half else [0.0, 1.0] for i, v in enumerate(ids)}
    seeds = SeedSet(entries)
    aff = detect_multi(g, seeds)
    chain = build_chain(g, seeds.ids)
    for v in chain.transient[rng.choice(chain.transient.size, size=3, replace=False)]:
        stats = run_walks(chain, int(v), walks=100_000, rng_seed=7)
        for i in range(2):
            assert abs(aff.row_for(int(v))[i] - estimate_affinity(stats, seeds, i)) <= 0.01


def test_affinity_csv_format(fig_graph, fig_seeds):
    aff = detect_multi(fig_graph, fig_seeds)
    buf = io.StringIO()
    write_affinity_csv(aff, fig_graph, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "node,c0,c1"
    assert len(lines) == fig_graph.n + 1
    by_node = {line.split(",")[0]: line for line in lines[1:]}
    assert by_node["v"] == "v,0.333333333,0.666666667"
    assert by_node["s1"] == "s1,1,0"


def test_affinity_csv_bytes_match_per_value_formatting():
    # a 2100-node path spans more than one of the writer's 1024-row chunks
    for k in (3, 2100):
        g = path_graph(k)
        rng = np.random.default_rng(67)
        # seeds s and t at ids 0 and k + 1, the solved rows of v1..vk between them
        values = np.vstack([[[1.0, 0.0, 0.5], [0.0, 1.0, 1e-12], [-3e-7, 1.0000002, 1 / 3]],
                            rng.random((k - 2, 3)), [[0.0, 1.0, 0.0]]])
        aff = AffinityMatrix(values.copy(), np.arange(1, k + 1))
        buf = io.StringIO()
        write_affinity_csv(aff, g, buf)
        clamped = np.clip(values, 0.0, 1.0)
        expected = "node,c0,c1,c2\n" + "".join(
            g.labels[v] + "," + ",".join(f"{x:.9g}" for x in clamped[v]) + "\n" for v in range(g.n)
        )
        assert buf.getvalue() == expected
        assert "v1,0,1,1e-12\n" in expected and "v2,0,1,0.333333333\n" in expected


def test_affinity_csv_bytes_independent_of_jobs():
    # three 1024-row chunks, formatted in worker processes, and a label that
    # must be quoted: the bytes equal those written in one process
    k = 2100
    labels = path_graph(k).labels
    labels[1500] = 'x,"y'
    g = Graph.from_edges(k + 2, [(i, i + 1) for i in range(k + 1)], labels)
    rng = np.random.default_rng(71)
    values = np.vstack([np.eye(1, 3), rng.random((k, 3)) * 1.2 - 0.1, np.eye(1, 3, 1)])
    aff = AffinityMatrix(values, np.arange(1, k + 1))
    serial, pooled = io.StringIO(), io.StringIO()
    write_affinity_csv(aff, g, serial, jobs=1)
    write_affinity_csv(aff, g, pooled, jobs=2)
    assert pooled.getvalue() == serial.getvalue()
    assert '\n"x,""y",' in serial.getvalue()


def test_crisp_csv_format(fig_graph, fig_seeds):
    aff = detect_multi(fig_graph, fig_seeds)
    buf = io.StringIO()
    write_crisp_csv(aff, fig_graph, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "node,community"
    assert f"v,1" in lines


def test_clamping_only_on_output():
    g = path_graph(2)
    raw = np.array([[1.0], [-0.25], [1.5], [0.0]])
    aff = AffinityMatrix(raw.copy(), np.array([1, 2]))
    buf = io.StringIO()
    write_affinity_csv(aff, g, buf)
    assert buf.getvalue() == "node,c0\ns,1\nv1,0\nv2,1\nt,0\n"
    # raw values stay untouched for downstream linear algebra
    assert np.array_equal(aff.values, raw)
    assert np.array_equal(aff.rows, [[-0.25], [1.5]])
