import io
import os
import pickle
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seedwalk import (
    Graph,
    ReachabilityError,
    SeedSet,
    assign_crisp,
    build_chain,
    detect_multi,
    estimate_affinity,
    load_edge_list,
    load_seed_file,
    run_walks,
)
from seedwalk import detect, pool, solver
from seedwalk.detect import AffinityMatrix, write_affinity_csv, write_crisp_csv
from seedwalk.solver import BLOCK, SolveReport

from conftest import one_seed_per_community, path_graph, random_connected_graph


def test_gamblers_ruin_profile():
    g = path_graph(3)
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[1.0], [0.0]])
    aff = detect_multi(g, seeds)
    assert aff.values[g.id_of("v1"), 0] == pytest.approx(0.75, abs=1e-10)
    assert aff.values[g.id_of("v2"), 0] == pytest.approx(0.50, abs=1e-10)
    assert aff.values[g.id_of("v3"), 0] == pytest.approx(0.25, abs=1e-10)


def test_all_seeds_one_gives_all_ones():
    g = path_graph(4)
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[1.0], [1.0]])
    aff = detect_multi(g, seeds)
    assert np.allclose(aff.rows, 1.0, atol=1e-10)


def test_fig_multi_community(fig_graph, fig_seeds):
    aff = detect_multi(fig_graph, fig_seeds)
    row = aff.values[fig_graph.id_of("v")]
    assert row[0] == pytest.approx(1 / 3, abs=1e-10)
    assert row[1] == pytest.approx(2 / 3, abs=1e-10)


def test_zero_affinity_column_stays_zero(fig_graph):
    seeds = SeedSet([fig_graph.id_of("s1"), fig_graph.id_of("s2")], [[1.0, 0.0], [0.5, 0.0]])
    aff = detect_multi(fig_graph, seeds)
    assert np.array_equal(aff.rows[:, 1], np.zeros(aff.rows.shape[0]))


@pytest.mark.parametrize("total", [0.5, 1.0, 2.0])
def test_conservation(total):
    rng = np.random.default_rng(int(total * 10))
    g = random_connected_graph(rng, 100)
    ids = np.sort(rng.choice(g.n, size=15, replace=False))
    l = 4
    rows = []
    for _ in ids:
        while True:
            row = rng.dirichlet(np.ones(l)) * total
            if row.max() <= 1.0:
                break
        rows.append(row)
    aff = detect_multi(g, SeedSet(ids, rows))
    sums = aff.rows.sum(axis=1)
    assert np.abs(sums - total).max() <= 1e-6


def test_linearity_in_seed_affinities(fig_graph):
    ids = [fig_graph.id_of("s1"), fig_graph.id_of("s2")]
    beta1 = [[1.0], [0.0]]
    beta2 = [[0.0], [1.0]]
    alpha, gamma = 0.3, 0.5
    combo = [[alpha * 1.0], [gamma * 1.0]]
    a1 = detect_multi(fig_graph, SeedSet(ids, beta1)).rows
    a2 = detect_multi(fig_graph, SeedSet(ids, beta2)).rows
    ac = detect_multi(fig_graph, SeedSet(ids, combo)).rows
    assert np.abs(ac - (alpha * a1 + gamma * a2)).max() <= 1e-6


def test_detect_holds_the_answer_plus_one_block(monkeypatch):
    # each solved block goes straight into the n x l result, so the peak is
    # that array plus one block's PCG working set (about ten dim x BLOCK
    # arrays), never a whole dim x l solution or right-hand side beside it
    g, seeds = one_seed_per_community(np.random.default_rng(41), 3000, 600)
    dim = g.n - len(seeds)
    monkeypatch.setattr(solver, "BLOCK_BYTES", 0)  # blocks of BLOCK columns, as pooled
    tracemalloc.start()
    try:
        detect_multi(g, seeds, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n * seeds.l * 8 + 14 * dim * BLOCK * 8


@pytest.mark.parametrize("l, uncovered, jobs", [(11, 4, 1), (11, 4, 2), (11, None, 2), (1, None, 1)])
def test_spilled_answer_writes_the_bytes_of_the_matrix(monkeypatch, l, uncovered, jobs):
    # the answer read back from the spill file in row tiles prints the same bytes as the
    # n x l matrix. Blocks of at most 4 columns (4, 3, 3 of 10 live ones) and chunks of 5
    # rows split the 62 rows unevenly; an uncovered community is never solved or stored and
    # must print 0, and the seed rows must land inside their tiles. The file holds other
    # bytes before the answer, which the tiles must skip
    monkeypatch.setattr(solver, "BLOCK", 4)
    monkeypatch.setattr(solver, "BLOCK_BYTES", 0)
    monkeypatch.setattr(detect, "CHUNK", 5 * (l + 8))
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, 62)
    ids = np.sort(rng.choice(g.n, size=12, replace=False))
    rows = rng.uniform(0.0, 1.0, (ids.size, l)) * (rng.random((ids.size, l)) < 0.5)
    rows[np.arange(ids.size), rng.integers(l, size=ids.size)] = rng.uniform(0.2, 1.0, ids.size)
    if uncovered is not None:
        rows[:, uncovered] = 0.0
    seeds = SeedSet(ids, rows)
    aff = detect_multi(g, seeds)
    expected_affinity, expected_crisp = io.StringIO(), io.StringIO()
    write_affinity_csv(aff, g, expected_affinity)
    write_crisp_csv(aff, g, expected_crisp)
    with tempfile.TemporaryFile() as fh:
        fh.write(b"\xff" * 13)
        spilled = detect_multi(g, seeds, jobs=jobs, spill=fh)
        assert fh.seek(0, 2) == 13 + (g.n - ids.size) * (l - (uncovered is not None)) * 8
        assert spilled.tile(0, g.n).tobytes() == aff.values.tobytes()
        assert [(r.iterations, r.relative_residual) for r in spilled.reports] == [
            (r.iterations, r.relative_residual) for r in aff.reports]
        affinity, crisp, crisp_alone = io.StringIO(), io.StringIO(), io.StringIO()
        write_affinity_csv(spilled, g, affinity, jobs=jobs, crisp=crisp)
        write_crisp_csv(spilled, g, crisp_alone)
    assert affinity.getvalue() == expected_affinity.getvalue()
    assert crisp.getvalue() == crisp_alone.getvalue() == expected_crisp.getvalue()
    if uncovered is not None:
        assert {line.split(",")[1 + uncovered] for line in affinity.getvalue().splitlines()[1:]} == {"0"}


def test_spilled_chunks_reach_the_pool_as_row_ranges(monkeypatch, tmp_path):
    # at jobs 2 the workers read their tiles from the spill file and write their text into
    # AHEAD * jobs + 1 slots past the answer in that same file: no tile and no chunk text
    # passes through the pool, only row ranges, byte counts and crisp lines, and no
    # descriptor but the spill file's inside aff. Chunks of 3 rows split 62 rows into 21
    # chunks, so every slot is used four or five times; the file never holds more than the
    # answer, intact, and its slots, and both files written hold the bytes of the in-memory write
    l, jobs = 11, 2
    monkeypatch.setattr(solver, "BLOCK", 4)
    monkeypatch.setattr(solver, "BLOCK_BYTES", 0)
    monkeypatch.setattr(detect, "CHUNK", 3 * (l + 8))
    rng = np.random.default_rng(89)
    g = random_connected_graph(rng, 62)
    g.labels[7] = 'x,"é"'
    ids = np.sort(rng.choice(g.n, size=12, replace=False))
    seeds = SeedSet(ids, rng.uniform(0.0, 1.0, (ids.size, l)))
    aff = detect_multi(g, seeds)
    expected_affinity, expected_crisp = io.StringIO(), io.StringIO()
    write_affinity_csv(aff, g, expected_affinity, crisp=expected_crisp)
    calls, results, pool_map = [], [], detect.pool_map

    def spy(fn, tasks, jobs, shared=()):
        tasks = list(tasks)
        calls.append((tasks, shared))
        for result in pool_map(fn, tasks, jobs, shared):
            results.append(result)
            yield result

    monkeypatch.setattr(detect, "pool_map", spy)
    answer = (g.n - ids.size) * l * 8
    with tempfile.TemporaryFile() as spill:
        spilled = detect_multi(g, seeds, spill=spill)
        assert spilled.end == answer
        with open(tmp_path / "a.csv", "w", encoding="utf-8") as affinity:
            with open(tmp_path / "c.csv", "w", encoding="utf-8") as crisp:
                write_affinity_csv(spilled, g, affinity, jobs=jobs, crisp=crisp)
        spill_bytes = os.fstat(spill.fileno()).st_size
        assert spilled.tile(0, g.n).tobytes() == aff.values.tobytes()
    assert (tmp_path / "a.csv").read_bytes() == expected_affinity.getvalue().encode()
    assert (tmp_path / "c.csv").read_bytes() == expected_crisp.getvalue().encode()
    [(tasks, shared)] = calls
    assert len(tasks) == 21 and all(len(task) == 3 and all(type(x) is int for x in task) for task in tasks)
    assert not any(isinstance(x, (np.ndarray, str, bytes)) for x in shared)
    assert shared[0] is spilled and [type(x) for x in shared[1:]] == [list, bool]  # no descriptor but aff's
    assert all(type(count) is int and type(lines) is str for count, lines in results)
    assert "".join(lines for _, lines in results) == expected_crisp.getvalue().split("\n", 1)[1]
    assert sum(count for count, _ in results) == len(expected_affinity.getvalue().split("\n", 1)[1].encode())
    slot = 3 * (4 * max(map(len, g.labels)) + 2 + 16 * l + 1)  # a 3-row chunk's text at most
    assert 0 < spill_bytes - answer <= (pool.AHEAD * jobs + 1) * slot


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
    seeds = SeedSet(ids, rng.random((ids.size, 4)))
    for aff, given in ((aff, fig_seeds), (detect_multi(g, seeds), seeds)):
        crisp = assign_crisp(aff)
        assert isinstance(crisp, np.ndarray) and crisp.dtype == np.int64 and crisp.shape == (aff.n,)
        assert crisp.tolist() == [int(np.argmax(aff.values[v])) for v in range(aff.n)]
        assert np.array_equal(crisp[given.ids], np.argmax(given.rows, axis=1))


def test_values_are_node_ordered(fig_graph):
    # one C-ordered float64 (n x l) array: the given rows at seed ids, the
    # solved rows (rows, in ascending id) at the others
    rng = np.random.default_rng(73)
    for g in (fig_graph, random_connected_graph(rng, 90)):
        ids = np.sort(rng.choice(g.n, size=3, replace=False))
        seeds = SeedSet(ids, rng.random((ids.size, 3)))
        aff = detect_multi(g, seeds)
        assert aff.values.shape == (g.n, 3) and aff.values.dtype == np.float64 and aff.values.flags.c_contiguous
        assert (aff.n, aff.l) == (g.n, 3)
        assert np.array_equal(aff.values[ids], seeds.rows)
        assert np.array_equal(aff.transient_ids, np.setdiff1d(np.arange(g.n), ids))
        assert np.array_equal(aff.rows, aff.values[aff.transient_ids])


def test_crisp_single_community(fig_graph):
    seeds = SeedSet([fig_graph.id_of("s1"), fig_graph.id_of("s2")], [[1.0], [0.2]])
    crisp = assign_crisp(detect_multi(fig_graph, seeds))
    assert set(crisp.tolist()) == {0}


def test_argmax_invariant_under_scaling(fig_graph):
    ids = [fig_graph.id_of("s1"), fig_graph.id_of("s2")]
    base = np.array([[1.0, 0.2], [0.1, 0.9]])
    c1 = assign_crisp(detect_multi(fig_graph, SeedSet(ids, base)))
    c2 = assign_crisp(detect_multi(fig_graph, SeedSet(ids, 0.5 * base)))
    assert np.array_equal(c1, c2)


def test_reachability_failure_raises():
    g = load_edge_list(io.StringIO("a b\nc d\n"))
    seeds = SeedSet([g.id_of("a")], [[1.0]])
    with pytest.raises(ReachabilityError):
        detect_multi(g, seeds)


def test_all_nodes_seeds_degenerate():
    g = path_graph(1)
    seeds = SeedSet(np.arange(g.n), [[1.0, 0.0] if v % 2 else [0.0, 1.0] for v in range(g.n)])
    aff = detect_multi(g, seeds)
    assert aff.rows.shape == (0, 2)
    assert aff.reports == [SolveReport(0, 0.0, True)] * 2
    crisp = assign_crisp(aff)
    assert len(crisp) == g.n
    assert crisp[1] == 0 and crisp[0] == 1


def test_iteration_budget_exhaustion_raises(monkeypatch):
    from seedwalk import ConvergenceError

    rng = np.random.default_rng(55)
    g = random_connected_graph(rng, 200)
    ids = np.sort(rng.choice(g.n, size=10, replace=False))
    seeds = SeedSet(ids, np.ones((ids.size, 1)))
    pcg = solver._pcg

    def one_iteration(L, diag, B, X, used, cols, tol, max_iter):
        pcg(L, diag, B, X, used, cols, tol, 1)  # a budget of one iteration, spent in the first pass

    monkeypatch.setattr(solver, "_pcg", one_iteration)
    with pytest.raises(ConvergenceError) as exc:
        detect_multi(g, seeds)
    # worker processes send it back pickled
    copy = pickle.loads(pickle.dumps(exc.value))
    assert copy.reports == exc.value.reports and str(copy) == str(exc.value)


def test_affinity_entries_near_unit_interval():
    rng = np.random.default_rng(61)
    for _ in range(3):
        g = random_connected_graph(rng, 120)
        ids = np.sort(rng.choice(g.n, size=18, replace=False))
        rows = rng.random((ids.size, 3))
        seeds = SeedSet(ids, rows)
        aff = detect_multi(g, seeds)
        assert aff.rows.min() >= -1e-6
        assert aff.rows.max() <= 1.0 + 1e-6


def test_solver_walker_agreement():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 150)
    ids = np.sort(rng.choice(g.n, size=25, replace=False))
    half = ids.size // 2
    seeds = SeedSet(ids, np.repeat(np.eye(2), [half, ids.size - half], axis=0))
    aff = detect_multi(g, seeds)
    chain = build_chain(g, seeds.ids)
    for v in chain.transient[rng.choice(chain.transient.size, size=3, replace=False)]:
        stats = run_walks(chain, int(v), walks=100_000, rng_seed=7)
        for i in range(2):
            assert abs(aff.values[v, i] - estimate_affinity(stats, seeds, i)) <= 0.01


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


def test_affinity_csv_bytes_match_per_value_formatting(monkeypatch):
    # 1024-row chunks: a 2100-node path spans three of them
    monkeypatch.setattr(detect, "CHUNK", (3 + 8) * 1024)
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


def test_affinity_csv_bytes_independent_of_jobs(monkeypatch):
    # three 1024-row chunks, formatted in worker processes, and a label that
    # must be quoted: the bytes equal those written in one process
    monkeypatch.setattr(detect, "CHUNK", (3 + 8) * 1024)
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


def test_affinity_csv_chunks_carry_only_their_rows(monkeypatch):
    # 50 rows of 3 affinities in chunks of 66 // (3 + 8) = 6 rows: eight full chunks and
    # a short last one, each task holding only its own rows and labels
    k, l = 48, 3
    labels = path_graph(k).labels
    labels[40] = 'x,"y'
    g = Graph.from_edges(k + 2, [(i, i + 1) for i in range(k + 1)], labels)
    aff = AffinityMatrix(np.random.default_rng(73).random((k + 2, l)) * 1.2 - 0.1, np.arange(1, k + 1))
    whole = io.StringIO()
    monkeypatch.setattr(detect, "CHUNK", g.n * (l + 8))
    write_affinity_csv(aff, g, whole)
    calls, pool_map = [], detect.pool_map

    def spy(fn, tasks, jobs, shared=()):
        tasks = list(tasks)
        calls.append((tasks, shared))
        return pool_map(fn, tasks, jobs, shared)

    monkeypatch.setattr(detect, "CHUNK", 66)
    monkeypatch.setattr(detect, "pool_map", spy)
    for jobs in (1, 2, 3):
        buf = io.StringIO()
        write_affinity_csv(aff, g, buf, jobs=jobs)
        assert buf.getvalue() == whole.getvalue()
    assert '\n"x,""y",' in whole.getvalue()
    for tasks, shared in calls:
        assert shared == ()
        assert [len(values) for values, _ in tasks] == [6] * 8 + [2]
        assert all(len(labels) == len(values) for values, labels in tasks)


@pytest.mark.parametrize(
    "l, chunks, jobs",
    [
        pytest.param(1, 16, 1, id="1"),
        pytest.param(2, 16, 1, id="2"),
        pytest.param(2000, 16, 1, id="2000"),
        pytest.param(1, 128, 1, id="1-128chunks"),
        pytest.param(1, 128, 2, id="1-128chunks-pooled"),
    ],
)
def test_affinity_csv_holds_one_chunk_at_a_time(l, chunks, jobs):
    # chunks of CHUNK // (l + 8) rows: 32 rows at l = 2,000, 7,281 at l = 1.
    # Per value the writer holds a 16-byte text cell beside either numeric work arrays
    # or the cell's 16-byte keep mask and the kept text, then the text twice, and a
    # row's label and newline weigh about as much as eight values, so the peak is
    # bounded by CHUNK alone, not by n x l. Nor by the number of chunks: each chunk's
    # label slice is taken only shortly before its turn, here or in a pool
    class Discard:
        def write(self, text):
            pass

        def writelines(self, lines):
            for _ in lines:
                pass

    n = chunks * detect.CHUNK // (l + 8)
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    aff = AffinityMatrix(np.random.default_rng(79).random((n, l)), np.arange(n))
    tracemalloc.start()
    try:
        write_affinity_csv(aff, g, Discard(), jobs=jobs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * detect.CHUNK


# every 10**-k down to the smallest subnormal decade, with both neighbours
POWERS = [y for k in range(325) for x in [float(f"1e-{k}")] for y in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))]
# the double nearest a 9-digit half: (d + 1/2) * 10**e, and binary fractions that are exact ties
TIES = st.one_of(
    st.builds(lambda d, e: (d + 0.5) * 10.0**e, st.integers(10**8, 10**9 - 1), st.integers(-307, -9)),
    st.builds(lambda k, j: k / 2.0**j, st.integers(1, 2**20), st.integers(0, 40)),
)
AFFINITY = st.one_of(
    st.floats(),  # NaN, infinities, subnormals, -0.0 and values far outside [0, 1]
    st.floats(0.0, 1.0),
    st.floats(-330.0, 0.0).map(lambda t: 10.0**t),
    st.sampled_from(POWERS),
    TIES,
)
LABEL = st.text(st.one_of(st.sampled_from(',"é€λ'), st.characters(codec="utf-8")), min_size=1, max_size=6)


def _rfc4180(label):
    return '"' + label.replace('"', '""') + '"' if "," in label or '"' in label else label


@settings(max_examples=200, deadline=None)
@given(st.lists(AFFINITY, min_size=1, max_size=120), st.integers(1, 4), st.lists(LABEL, min_size=1, max_size=5))
@example(
    [0.0, -0.0, np.nan, np.inf, -np.inf, -1.0, 2.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-299,
     103 / 1024, 0.5, 1 / 3, 9.9999999995e-5, 9.99999999949e-5, 0.99999999995, 0.9999999995, 1e-100,
     9.999999999e-100, 1.234567885e-7] + POWERS
    # 9 digits round up to 10**-k, or just do not, at every fixed decade and the first exponent ones
    + [10.0**-k * (1 - f) for k in range(7) for f in (4e-10, 6e-10)],
    3,
    ['x,"y', "ünï,cødé", "€", "λ"],
)
def test_affinity_csv_is_per_value_g9_of_the_clipped_values(values, l, names):
    n = -(-len(values) // l)
    values = np.array(values + [0.0] * (n * l - len(values))).reshape(n, l)
    labels = [names[v % len(names)] for v in range(n)]
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)], labels)
    aff = AffinityMatrix(values, np.arange(n))
    expected = "node," + ",".join(f"c{i}" for i in range(l)) + "\n" + "".join(
        _rfc4180(label) + "".join(f",{x:.9g}" for x in row) + "\n"
        for label, row in zip(labels, np.clip(values, 0.0, 1.0).tolist())
    )
    # one row per chunk, a few rows per chunk, and every row in one chunk
    for chunk in (1, 3 * (l + 8), detect.CHUNK):
        buf = io.StringIO()
        with mock.patch.object(detect, "CHUNK", chunk):
            write_affinity_csv(aff, g, buf)
        assert buf.getvalue() == expected


def test_seed_affinity_written_negative_zero_is_written_as_zero():
    g = load_edge_list(io.StringIO("a b\nb c\nc d\n"))
    seeds = load_seed_file(io.StringIO("a 0 1\nd 1 1\na 1 -0\n"), g)
    assert not np.signbit(seeds.rows).any()
    buf = io.StringIO()
    write_affinity_csv(detect_multi(g, seeds), g, buf)
    assert "\na,1,0\n" in buf.getvalue()


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
