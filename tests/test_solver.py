import dataclasses
import importlib.machinery
import importlib.util
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from seedwalk import Graph, SeedSet, build_chain, detect_multi, load_edge_list, solver
from seedwalk.solver import BLOCK, Compressed, SolveReport, assemble, solve_iterative_all

from conftest import dense_absorption_oracle, neighbors, one_seed_per_community, path_graph, random_connected_graph


def _path_system(k=3, beta_s=1.0, beta_t=0.0):
    g = path_graph(k)
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[beta_s], [beta_t]])
    chain = build_chain(g, seeds.ids)
    return g, chain, assemble(chain, seeds)


def _csc(dense) -> Compressed:
    """A dense array as the CSC arrays that AbsorbingSystem.b holds."""
    m = scipy.sparse.csc_matrix(dense)
    return Compressed(m.indptr, m.indices, m.data, m.shape)


def _column(b: Compressed, j: int) -> Compressed:
    """Column j of the CSC arrays b, as a one-column b of its own."""
    lo, hi = b.indptr[j], b.indptr[j + 1]
    return Compressed(np.array([0, hi - lo]), b.indices[lo:hi], b.data[lo:hi], (b.shape[0], 1))


def test_assemble_path_by_hand():
    g, chain, system = _path_system()
    # transient nodes are v1, v2, v3 in id order; hand-assembled D - A_TT
    # (degree 2 each, edges v1-v2 and v2-v3) and A_TS beta (v1 borders s):
    assert system.dim == 3
    assert np.array_equal(system.diag, [2.0, 2.0, 2.0])
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    L = system.laplacian
    assert L.shape == (3, 3)
    assert np.array_equal(L.indptr, [0, 2, 5, 7])
    assert np.array_equal(L.indices, [0, 1, 0, 1, 2, 1, 2])
    assert np.array_equal(L.data, expected[expected != 0.0])
    assert np.array_equal(system.matrix().toarray(), expected)
    b = system.b
    assert b.shape == (3, 1)
    assert np.array_equal(b.indptr, [0, 1]) and np.array_equal(b.indices, [0]) and np.array_equal(b.data, [1.0])
    assert np.array_equal(system.rhs[:, 0], [1.0, 0.0, 0.0])


def test_rhs_sums_seed_neighbor_affinities():
    # star: v adjacent to seeds s1 (affinity 1) and s2 (affinity 0.5), plus w
    g = load_edge_list(io.StringIO("v s1\nv s2\nv w\n"))
    seeds = SeedSet([g.id_of("s1"), g.id_of("s2")], [[1.0], [0.5]])
    chain = build_chain(g, seeds.ids)
    system = assemble(chain, seeds)
    rhs = {int(chain.transient[i]): system.rhs[i, 0] for i in range(system.dim)}
    assert rhs[g.id_of("v")] == pytest.approx(1.5)
    assert rhs[g.id_of("w")] == 0.0


def test_sparse_rhs_is_the_dense_product_bitwise():
    # fuzzy seed rows, zeros among them: b adds each entry's terms in the
    # same order as the dense product, and stores no zeros
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 400)
    ids = np.sort(rng.choice(g.n, size=60, replace=False))
    rows = rng.random((ids.size, 40)) * (rng.random((ids.size, 40)) < 0.3)
    seeds = SeedSet(ids, rows)
    chain = build_chain(g, seeds.ids)
    system = assemble(chain, seeds)
    adjacency = scipy.sparse.csr_matrix((np.ones(g.targets.size), g.targets, g.offsets), shape=(g.n, g.n))
    dense = adjacency[chain.transient][:, chain.seeds] @ seeds.rows
    b = system.b
    # column-major, rows strictly ascending within each column
    assert b.shape == dense.shape and b.indptr.size == b.shape[1] + 1
    col_of = np.repeat(np.arange(b.shape[1]), np.diff(b.indptr))
    assert (np.diff(col_of * b.shape[0] + b.indices) > 0).all()
    assert (b.data != 0.0).all()
    assert system.rhs.tobytes() == dense.tobytes()


def _oracle_assemble(chain, seeds):
    """D - A_TT, D and b built with scipy.sparse as the package once did:
    slices of the full adjacency, the diagonal subtracted, b a sparse product."""
    g = chain.graph
    adjacency = scipy.sparse.csr_matrix((np.ones(g.targets.size), g.targets, g.offsets), shape=(g.n, g.n))
    rows = adjacency[chain.transient]
    diag = np.diff(rows.indptr).astype(np.float64)
    laplacian = (scipy.sparse.diags(diag) - rows[:, chain.transient]).tocsr()
    b = (rows[:, chain.seeds] @ scipy.sparse.csr_matrix(seeds.rows)).tocsc()
    return laplacian, diag, b


def _same_bytes(ours: Compressed, theirs) -> bool:
    # index arrays compared as int64: scipy picks int32 or int64 by size
    return (ours.shape == theirs.shape
            and ours.indptr.astype(np.int64).tobytes() == theirs.indptr.astype(np.int64).tobytes()
            and ours.indices.astype(np.int64).tobytes() == theirs.indices.astype(np.int64).tobytes()
            and ours.data.dtype == theirs.data.dtype and ours.data.tobytes() == theirs.data.tobytes())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.sampled_from(["indicator", "fuzzy"]))
def test_assemble_equals_the_scipy_construction_bitwise(seed, n, kind):
    # on a random connected graph with one node whose only neighbours are
    # seeds and one that borders no seed: the numpy assembly is byte for byte
    # the scipy one, with indicator seeds or fuzzy rows holding zeros
    rng = np.random.default_rng(seed)
    core = random_connected_graph(rng, n)
    ids = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    edges = [(u, int(w)) for u in range(n) for w in neighbors(core, u) if u < w]
    edges += [(n, int(s)) for s in rng.choice(ids, size=min(2, ids.size), replace=False)]
    edges.append((n + 1, int(rng.choice(np.setdiff1d(np.arange(n), ids)))))
    g = Graph.from_edges(n + 2, edges)
    l = int(rng.integers(1, 2 * BLOCK))
    if kind == "indicator":
        rows = np.eye(l)[rng.integers(l, size=ids.size)]
    else:
        rows = rng.random((ids.size, l)) * (rng.random((ids.size, l)) < 0.5)
    seeds = SeedSet(ids, rows)
    chain = build_chain(g, seeds.ids)
    system = assemble(chain, seeds)
    laplacian, diag, b = _oracle_assemble(chain, seeds)
    assert _same_bytes(system.laplacian, laplacian)
    assert system.laplacian.indices.dtype == np.int32 and system.b.indices.dtype == np.int32
    assert system.diag.tobytes() == diag.tobytes()
    assert _same_bytes(system.b, b)
    # node n borders seeds only, so its row of D - A_TT is the diagonal alone
    # and its row of b the sum of their rows; node n + 1 borders no seed, so
    # b stores nothing in its row
    only_seeds, no_seed = np.searchsorted(chain.transient, [n, n + 1])
    assert np.diff(system.laplacian.indptr)[only_seeds] == 1
    assert np.array_equal(system.rhs[only_seeds], rows[np.searchsorted(ids, neighbors(g, n))].sum(axis=0))
    assert no_seed not in system.b.indices


def test_assemble_memory_stays_below_a_dense_rhs():
    # one indicator seed per community: b holds one entry per transient-seed
    # edge, so assembling costs a fraction of a dense dim x l right-hand side
    g, seeds = one_seed_per_community(np.random.default_rng(41), 3000, 600)
    chain = build_chain(g, seeds.ids)
    tracemalloc.start()
    try:
        system = assemble(chain, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < system.dim * system.communities * 8 / 4


def test_assemble_rejects_mismatched_seed_ids():
    g = path_graph(2)
    chain = build_chain(g, {g.id_of("s"), g.id_of("t")})
    wrong = SeedSet([g.id_of("s"), g.id_of("v1")], [[1.0], [0.0]])
    with pytest.raises(ValueError, match="seed ids"):
        assemble(chain, wrong)


def _solve_exact(system, community):
    X, reports = solve_iterative_all(system, tol=1e-12)
    assert reports[community].converged
    return X[:, community]


def test_direct_gamblers_ruin():
    _, _, system = _path_system()
    x = _solve_exact(system, 0)
    assert np.allclose(x, [0.75, 0.5, 0.25], atol=1e-12)


def test_direct_fig_pair(fig_graph, fig_seeds):
    chain = build_chain(fig_graph, fig_seeds.ids)
    system = assemble(chain, fig_seeds)
    x0 = _solve_exact(system, 0)
    x1 = _solve_exact(system, 1)
    iv = np.searchsorted(chain.transient, fig_graph.id_of("v"))
    assert x0[iv] == pytest.approx(1 / 3, abs=1e-12)
    assert x1[iv] == pytest.approx(2 / 3, abs=1e-12)


def test_constant_seed_affinity_extends_as_ones():
    g, chain, _ = _path_system()
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[1.0], [1.0]])
    system = assemble(chain, seeds)
    assert np.allclose(_solve_exact(system, 0), 1.0, atol=1e-12)


def test_iterative_matches_direct_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(30, 200)))
        sigma = max(2, g.n // 8)
        ids = np.sort(rng.choice(g.n, size=sigma, replace=False))
        rows = rng.random((sigma, 2))
        seeds = SeedSet(ids, rows)
        chain = build_chain(g, seeds.ids)
        system = assemble(chain, seeds)
        _, oracle = dense_absorption_oracle(g, seeds.ids, seeds.rows)
        iterative, reports = solve_iterative_all(system)
        assert all(r.converged for r in reports)
        assert np.abs(oracle - iterative).max() <= 1e-6


def _multi_block_system():
    """More than two blocks' worth of right-hand sides, one of them zero, in a
    count that BLOCK does not divide."""
    rng = np.random.default_rng(31)
    g = random_connected_graph(rng, 300)
    ids = np.sort(rng.choice(g.n, size=30, replace=False))
    rows = rng.random((ids.size, 2 * BLOCK + 7))
    rows[:, BLOCK - 1] = 0.0
    seeds = SeedSet(ids, rows)
    return assemble(build_chain(g, seeds.ids), seeds)


def test_blocked_solve_matches_single_columns_bitwise(monkeypatch):
    # every column must equal the solve of a system holding that column
    # alone, bit for bit; no block budget, so the solve runs three blocks
    monkeypatch.setattr(solver, "BLOCK_BYTES", 0)
    system = _multi_block_system()
    X, reports = solve_iterative_all(system)
    for j in range(system.communities):
        x, (report,) = solve_iterative_all(dataclasses.replace(system, b=_column(system.b, j)))
        assert np.array_equal(x[:, 0], X[:, j])
        assert report == reports[j]
    assert reports[BLOCK - 1].iterations == 0


def test_a_solve_in_one_process_widens_its_blocks_to_the_byte_budget(monkeypatch):
    # 38 live columns at dim 270: one block within 1 MiB, blocks of at most
    # 20 columns within a 20-column budget, and of at most BLOCK without one
    system = _multi_block_system()
    widths, solve_block = [], solver._solve_block

    def counted(system, cols, *rest):
        widths.append(cols.size)
        return solve_block(system, cols, *rest)

    monkeypatch.setattr(solver, "_solve_block", counted)
    for budget, expected in ((solver.BLOCK_BYTES, [38]), (8 * system.dim * 20, [19, 19]), (0, [13, 13, 12])):
        monkeypatch.setattr(solver, "BLOCK_BYTES", budget)
        widths.clear()
        solve_iterative_all(system)
        assert widths == expected


@pytest.mark.parametrize("jobs", [2, 3])
def test_solve_is_bitwise_independent_of_jobs(jobs):
    # the blocks regroup and run in worker processes, but X and every report
    # stay those of the in-process solve
    system = _multi_block_system()
    X, reports = solve_iterative_all(system, jobs=1)
    X_jobs, reports_jobs = solve_iterative_all(system, jobs=jobs)
    assert np.array_equal(X_jobs, X)
    assert reports_jobs == reports


def test_solve_is_bitwise_independent_of_block_width(monkeypatch):
    # the block width only groups columns, so any width gives the same bytes
    # and reports: 41 live fuzzy columns make 6, 3 and 2 blocks
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 400)
    ids = np.sort(rng.choice(g.n, size=40, replace=False))
    seeds = SeedSet(ids, rng.random((ids.size, 41)))
    system = assemble(build_chain(g, seeds.ids), seeds)
    monkeypatch.setattr(solver, "BLOCK_BYTES", 0)  # so the width is BLOCK's
    results = []
    for width in (7, 16, 32):
        monkeypatch.setattr(solver, "BLOCK", width)
        results.append(solve_iterative_all(system))
    for X, reports in results[1:]:
        assert X.tobytes() == results[0][0].tobytes()
        assert reports == results[0][1]


def test_one_block_holds_few_block_sized_arrays():
    # B, X and the PCG vectors, with no temporaries for alpha p, alpha Ap or
    # D^-1 r and one array at a time while the working set compresses
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 2000)
    ids = np.sort(rng.choice(g.n, size=200, replace=False))
    # sparse fuzzy rows, so columns converge at different iterations
    seeds = SeedSet(ids, rng.random((ids.size, 16)) * (rng.random((ids.size, 16)) < 0.05))
    system = assemble(build_chain(g, seeds.ids), seeds)
    cols = np.arange(16)
    tracemalloc.start()
    try:
        _, _, used, _ = solver._solve_block(system, cols, 1e-8, 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used.min() > 1 and used.max() > used.min()  # several iterations, and compressions
    assert peak <= 8.25 * system.dim * 16 * 8


@pytest.mark.parametrize("n", [300, 1000, 3000])
def test_columns_leaving_a_block_early_keep_the_others_bitwise(n):
    # nodes whose only neighbours are seeds have diagonal-only rows in D - A_TT,
    # so a unit right-hand side on one of them converges in one iteration and
    # half the block leaves after the first step; the dense columns that stay
    # must still equal their lone solves bit for bit
    rng = np.random.default_rng(n)
    core = random_connected_graph(rng, n)
    seed_ids = rng.choice(n, size=n // 10, replace=False)
    pendants = range(n, n + BLOCK // 2)
    edges = [(u, int(w)) for u in range(n) for w in neighbors(core, u) if u < w]
    edges += [(v, int(s)) for v in pendants for s in rng.choice(seed_ids, size=2, replace=False)]
    g = Graph.from_edges(n + BLOCK // 2, edges)
    seeds = SeedSet(np.sort(seed_ids), np.ones((seed_ids.size, 1)))
    chain = build_chain(g, seeds.ids)
    system = assemble(chain, seeds)
    rhs = np.zeros((system.dim, BLOCK))
    rhs[:, 0::2] = rng.random((system.dim, BLOCK // 2))
    rhs[np.searchsorted(chain.transient, list(pendants)), np.arange(1, BLOCK, 2)] = 1.0
    system = dataclasses.replace(system, b=_csc(rhs))
    X, reports = solve_iterative_all(system)
    assert all(reports[j].iterations == 1 for j in range(1, BLOCK, 2))
    for j in range(BLOCK):
        x, (report,) = solve_iterative_all(dataclasses.replace(system, b=_column(system.b, j)))
        assert np.array_equal(x[:, 0], X[:, j])
        assert report == reports[j]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.booleans())
def test_multi_block_solve_properties(seed, n, stochastic):
    # on a random connected graph with random fractional seed rows over more
    # than one block: every column equals its lone solve bit for bit, obeys
    # the maximum principle, and seed rows summing to 1 give affinity rows
    # summing to 1
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    ids = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    rows = rng.random((ids.size, BLOCK + 5))
    if stochastic:
        rows /= rows.sum(axis=1, keepdims=True)
    seeds = SeedSet(ids, rows)
    system = assemble(build_chain(g, seeds.ids), seeds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOCK_BYTES", 0)  # BLOCK + 5 columns in two blocks
        X, reports = solve_iterative_all(system, tol=1e-12)
    for j in range(system.communities):
        x, (report,) = solve_iterative_all(dataclasses.replace(system, b=_column(system.b, j)), tol=1e-12)
        assert np.array_equal(x[:, 0], X[:, j])
        assert report == reports[j]
    assert all(r.converged for r in reports)
    assert (X >= seeds.rows.min(axis=0) - 1e-9).all()
    assert (X <= seeds.rows.max(axis=0) + 1e-9).all()
    if stochastic:
        assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-6


def test_a_block_restarts_from_its_current_iterate(monkeypatch):
    # a pass whose true residual stays above tol is followed by one that
    # restarts from its iterate (r = b - L x); PCG at these sizes meets tol in
    # its first pass, so the first pass of each block is made to stop at 1e4 tol
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 500)
    ids = np.sort(rng.choice(g.n, size=50, replace=False))
    seeds = SeedSet(ids, rng.random((ids.size, BLOCK + 4)))
    system = assemble(build_chain(g, seeds.ids), seeds)
    tol = 1e-10
    plain, _ = solve_iterative_all(system, tol=tol)
    pcg, restarted = solver._pcg, []

    def loose_first_pass(L, diag, B, X, used, cols, tol, max_iter):
        restarted.append(X.any())  # a block's X is zero until its first pass ends
        pcg(L, diag, B, X, used, cols, tol if restarted[-1] else 1e4 * tol, max_iter)

    monkeypatch.setattr(solver, "_pcg", loose_first_pass)
    monkeypatch.setattr(solver, "BLOCK_BYTES", 0)  # BLOCK + 4 columns in two blocks
    forced, reports = solve_iterative_all(system, tol=tol)
    assert restarted.count(False) == 2 and any(restarted)
    assert all(r.converged and r.relative_residual <= tol for r in reports)
    assert np.abs(forced - plain).max() <= 10 * tol


@pytest.mark.parametrize("fuzzy", [False, True], ids=["indicator", "fuzzy"])
def test_adjoint_row_matches_the_row_of_detect_multi(fuzzy):
    # row t of (D - A_TT)^-1 b from the one column (D - A_TT)^-1 e_t: each solve
    # meets tol on its own, so the two rows agree to within a few tol
    rng = np.random.default_rng(47)
    g = random_connected_graph(rng, 300)
    ids = np.sort(rng.choice(g.n, size=30, replace=False))
    rows = np.eye(5)[rng.integers(0, 5, ids.size)]
    if fuzzy:  # every third seed also in the next community, every affinity below 1
        rows[::3] += 0.5 * np.roll(rows[::3], 1, axis=1)
        rows *= rng.uniform(0.2, 0.6, (ids.size, 1))
    seeds = SeedSet(ids, rows)
    chain = build_chain(g, seeds.ids)
    system = assemble(chain, seeds)
    for tol in (1e-6, 1e-8, 1e-10):
        aff = detect_multi(g, seeds, tol=tol)
        for t in range(0, system.dim, 9):
            row, report = solver.solve_row(system, t, tol=tol)
            assert row.dtype == np.float64 and row.shape == (5,)
            assert report.converged and 0 < report.iterations and report.relative_residual <= tol
            assert np.abs(row - aff.values[chain.transient[t]]).max() <= 10 * tol


def test_adjoint_row_of_all_zero_seeds_is_float64_zero():
    rng = np.random.default_rng(53)
    g = random_connected_graph(rng, 60)
    ids = np.sort(rng.choice(g.n, size=6, replace=False))
    system = assemble(build_chain(g, ids), SeedSet(ids, np.zeros((ids.size, 3))))
    assert system.b.data.size == 0
    for t in range(system.dim):
        row, report = solver.solve_row(system, t)
        assert row.dtype == np.float64 and row.tolist() == [0.0, 0.0, 0.0] and not np.signbit(row).any()
        assert report.converged


def test_zero_rhs_short_circuits():
    g, chain, _ = _path_system()
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[0.0], [0.0]])
    system = assemble(chain, seeds)
    x, (report,) = solve_iterative_all(system)
    assert np.array_equal(x, np.zeros((3, 1)))
    assert report.iterations == 0
    assert report.converged


def test_rhs_whose_norm_underflows_short_circuits_like_zero():
    # an affinity of 1e-200 is stored in b, but its square, and so ||b||, is
    # 0: the column is skipped as a zero one, not divided by a zero norm
    g, chain, _ = _path_system()
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[1e-200], [0.0]])
    x, (report,) = solve_iterative_all(assemble(chain, seeds))
    assert np.array_equal(x, np.zeros((3, 1)))
    assert report == SolveReport(0, 0.0, True)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), float("nan")])
def test_tolerance_must_be_positive_and_finite(tol):
    # nan used to end in a misleading ConvergenceError, inf in zero "solutions"
    _, _, system = _path_system()
    with pytest.raises(ValueError, match="tol"):
        solve_iterative_all(system, tol=tol)


def test_iterative_tight_tolerance_on_path():
    _, _, system = _path_system()
    x, (report,) = solve_iterative_all(system, tol=1e-10)
    assert report.converged
    assert np.abs(x[:, 0] - np.array([0.75, 0.5, 0.25])).max() <= 1e-8


def test_assembled_systems_are_sdd():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_connected_graph(rng, 60)
        ids = np.sort(rng.choice(g.n, size=10, replace=False))
        seeds = SeedSet(ids, np.ones((ids.size, 1)))
        system = assemble(build_chain(g, seeds.ids), seeds)
        L = system.matrix()
        assert (L != L.T).nnz == 0
        assert np.array_equal(L.diagonal(), system.diag)
        offdiag_rowsum = np.asarray(abs(L).sum(axis=1)).ravel() - system.diag
        assert (system.diag >= offdiag_rowsum).all()
        # strict somewhere: at least one transient node borders a seed
        assert (system.diag > offdiag_rowsum).any()


@pytest.mark.parametrize("kind", ["indicator", "fuzzy"])
def test_kernel_product_is_the_scipy_matrix_product_bitwise(kind):
    # a solve calls scipy's private CSR kernel without csr_matrix (checked on
    # scipy 1.17.1): its products must stay those of system.matrix() @ X, bit
    # for bit, on one column, on several, and across more than one block width
    rng = np.random.default_rng(59)
    for n in (4, 60, 400):
        g = random_connected_graph(rng, n)
        ids = np.sort(rng.choice(n, size=max(1, n // 8), replace=False))
        fuzzy = rng.random((ids.size, 3)) * (rng.random((ids.size, 3)) < 0.7)
        rows = np.eye(ids.size) if kind == "indicator" else fuzzy
        system = assemble(build_chain(g, ids), SeedSet(ids, rows))
        # the arrays as _solve_block passes them
        L = system.laplacian._replace(indptr=system.laplacian.indptr.astype(np.int32))
        for k in (1, 2, 16, 33):
            X = rng.standard_normal((system.dim, k)) * 10.0 ** rng.integers(-150, 150, (system.dim, k))
            product, expected = solver._matmul(L, X), system.matrix() @ X
            assert product.shape == expected.shape == (system.dim, k)
            assert product.tobytes() == expected.tobytes()


def test_a_missing_kernel_file_is_an_import_error(monkeypatch, tmp_path):
    # no fallback to importing scipy.sparse: the error names the file it sought
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools in .*sparse"):
        solver._kernels()


KERNEL_PROBE = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from seedwalk import Graph, SeedSet, detect_multi
n = 60
g = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)] + [(v, (v + 7) % n) for v in range(n)])
ids = np.array([0, 20, 40])
aff = detect_multi(g, SeedSet(ids, np.random.default_rng(1).random((3, 20))), jobs=1)
print(json.dumps([bool(aff.values.any()), sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
"""


def test_serial_solve_loads_only_the_kernel_extension():
    # a serial detect_multi solves in-process, with scipy's compiled kernel
    # alone: neither the scipy nor the scipy.sparse package is imported
    src = str(Path(solver.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", KERNEL_PROBE, src], check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, ["scipy.sparse._sparsetools"]]


def test_maximum_principle():
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 120)
    ids = np.sort(rng.choice(g.n, size=20, replace=False))
    lo, hi = 0.3, 0.7
    seeds = SeedSet(ids, lo + (hi - lo) * rng.random((ids.size, 1)))
    system = assemble(build_chain(g, seeds.ids), seeds)
    x = _solve_exact(system, 0)
    assert x.min() >= lo - 1e-9
    assert x.max() <= hi + 1e-9


def test_solution_matches_dense_oracle():
    rng = np.random.default_rng(29)
    g = random_connected_graph(rng, 90)
    ids = np.sort(rng.choice(g.n, size=12, replace=False))
    rows = rng.random((ids.size, 3))
    seeds = SeedSet(ids, rows)
    chain = build_chain(g, seeds.ids)
    system = assemble(chain, seeds)
    x, reports = solve_iterative_all(system, tol=1e-12)
    assert all(r.converged for r in reports)
    t_nodes, expected = dense_absorption_oracle(g, seeds.ids, seeds.rows)
    assert t_nodes == chain.transient.tolist()
    assert np.abs(x - expected).max() <= 1e-9
