"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is part of the default suite.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from seedwalk import (
    LfrParams,
    SeedSet,
    build_chain,
    detect_multi,
    estimate_affinity,
    generate,
    mixing_fraction,
    run_sweep,
    run_walks,
    sample_seeds,
)
from seedwalk.cli import main
from seedwalk.solver import assemble, solve_iterative_all

from conftest import FIG_EDGES, FIG_SEEDS, dense_absorption_oracle, path_graph, random_connected_graph


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_figure_example_exactness(fig_graph, fig_seeds):
    start = time.perf_counter()
    aff = detect_multi(fig_graph, fig_seeds)
    elapsed = time.perf_counter() - start
    row = aff.values[fig_graph.id_of("v")]
    assert abs(row[0] - 1 / 3) <= 1e-9
    assert abs(row[1] - 2 / 3) <= 1e-9
    assert elapsed < 1.0
    _report("1 (figure-example exactness)")


@pytest.mark.parametrize("k", [1, 2, 5, 20, 100])
def test_criterion_2_gamblers_ruin_closed_form(k):
    g = path_graph(k)
    seeds = SeedSet([g.id_of("s"), g.id_of("t")], [[1.0], [0.0]])
    expected = np.array([1 - i / (k + 1) for i in range(1, k + 1)])
    aff = detect_multi(g, seeds, tol=1e-10)
    got = np.array([aff.values[g.id_of(f"v{i}"), 0] for i in range(1, k + 1)])
    assert np.abs(got - expected).max() <= 1e-8
    if k == 100:
        _report("2 (gambler's-ruin closed form)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for graph_idx in range(50):
        n = int(rng.integers(20, 201))
        g = random_connected_graph(rng, n)
        sigma = max(2, n // 6)
        ids = np.sort(rng.choice(n, size=sigma, replace=False))
        half = sigma // 2
        seeds = SeedSet(ids, np.repeat(np.eye(2), [half, sigma - half], axis=0))
        chain = build_chain(g, seeds.ids)
        system = assemble(chain, seeds)
        _, oracle = dense_absorption_oracle(g, seeds.ids, seeds.rows)
        iterative, reports = solve_iterative_all(system)
        assert all(r.converged for r in reports)
        assert np.abs(oracle - iterative).max() <= 1e-6

        sample = rng.choice(chain.transient.size, size=min(10, chain.transient.size), replace=False)
        for t_idx in sample:
            v = int(chain.transient[t_idx])
            stats = run_walks(chain, v, walks=100_000, rng_seed=graph_idx * 1000 + v)
            for i in range(2):
                est = estimate_affinity(stats, seeds, i)
                assert abs(oracle[t_idx, i] - est) <= 0.01
                assert abs(iterative[t_idx, i] - est) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(f"3 (oracle equivalence, {elapsed:.0f}s)")


def test_criterion_4_conservation():
    rng = np.random.default_rng(404)
    targets = [0.5, 1.0, 2.0]
    for graph_idx in range(20):
        total = targets[graph_idx % 3]
        n = int(rng.integers(30, 150))
        g = random_connected_graph(rng, n)
        ids = np.sort(rng.choice(n, size=max(2, n // 8), replace=False))
        l = 4
        rows = []
        for _ in ids:
            while True:
                row = rng.dirichlet(np.ones(l)) * total
                if row.max() <= 1.0:
                    break
            rows.append(row)
        aff = detect_multi(g, SeedSet(ids, rows))
        if aff.rows.size:
            assert np.abs(aff.rows.sum(axis=1) - total).max() <= 1e-6
    _report("4 (conservation)")


def test_criterion_5_benchmark_shape():
    start = time.perf_counter()
    base = dict(n=500, avg_k=20, gamma=2.0, beta_exp=2.0)
    cells = [
        (LfrParams(mu=0.0, **base), 0.2),
        (LfrParams(mu=0.3, **base), 0.2),
        (LfrParams(mu=0.3, **base), 0.05),
        (LfrParams(mu=0.1, **base), 0.1),
        (LfrParams(mu=0.4, **base), 0.1),
        (LfrParams(mu=0.8, **base), 0.1),
    ]
    _, summaries = run_sweep(cells, trials=100, rng_seed=1914, jobs=2)
    q = {(s.params.mu, s.sigma): s.q_mean for s in summaries}
    assert q[(0.0, 0.2)] >= 0.99
    assert 0.82 <= q[(0.3, 0.2)] <= 1.0
    assert q[(0.3, 0.05)] <= 0.60
    assert q[(0.1, 0.1)] > q[(0.4, 0.1)] > q[(0.8, 0.1)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    _report(
        "5 (benchmark shape: "
        f"mu0/s.2={q[(0.0, 0.2)]:.3f}, mu.3/s.2={q[(0.3, 0.2)]:.3f}, "
        f"mu.3/s.05={q[(0.3, 0.05)]:.3f}, mono {q[(0.1, 0.1)]:.3f}>"
        f"{q[(0.4, 0.1)]:.3f}>{q[(0.8, 0.1)]:.3f}, {elapsed:.0f}s)"
    )


def test_criterion_6_scale_runtime():
    start = time.perf_counter()
    params = LfrParams(
        n=10_000, avg_k=30, gamma=2.0, beta_exp=2.0, mu=0.3,
        k_max=50, s_min=15, s_max=300, rng_seed=0,
    )
    pg = generate(params)
    assert pg.n_communities >= 200
    assert 1.2e5 <= pg.graph.m <= 1.8e5
    assert abs(mixing_fraction(pg) - 0.3) <= 0.05
    seeds, _ = sample_seeds(pg, 0.1, np.random.default_rng(6))
    aff = detect_multi(pg.graph, seeds)
    assert aff.l == pg.n_communities
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _report(f"6 (scale: {pg.n_communities} communities, {pg.graph.m} edges, {elapsed:.0f}s)")


def test_criterion_7_cli_determinism(tmp_path):
    edges = tmp_path / "fig.edges"
    seeds = tmp_path / "fig.seeds"
    edges.write_text(FIG_EDGES)
    seeds.write_text(FIG_SEEDS)

    def run_twice(argv_fn, outputs) -> None:
        blobs = []
        for tag in ("r1", "r2"):
            assert main(argv_fn(tag)) == 0
            blobs.append([Path(str(o).format(tag=tag)).read_bytes() for o in outputs])
        assert blobs[0] == blobs[1]

    run_twice(
        lambda t: ["detect", str(edges), str(seeds), "--out", str(tmp_path / t)],
        [str(tmp_path) + "/{tag}.affinity.csv", str(tmp_path) + "/{tag}.crisp.csv"],
    )
    run_twice(
        lambda t: ["generate", "--n", "300", "--avg-k", "12", "--gamma", "2", "--beta-exp", "2",
                   "--mu", "0.2", "--rng-seed", "11", "--out", str(tmp_path / ("g" + t))],
        [str(tmp_path) + "/g{tag}.edges", str(tmp_path) + "/g{tag}.truth"],
    )
    run_twice(
        lambda t: ["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.1,0.4", "--sigma", "0.2",
                   "--trials", "3", "--rng-seed", "21", "--jobs", "2",
                   "--out", str(tmp_path / f"s{t}.csv")],
        [str(tmp_path) + "/s{tag}.csv"],
    )
    assert main(["generate", "--n", "250", "--avg-k", "12", "--gamma", "2", "--beta-exp", "2",
                 "--mu", "0.1", "--rng-seed", "31", "--out", str(tmp_path / "hbase")]) == 0
    run_twice(
        lambda t: ["histogram", str(tmp_path / "hbase.edges"), str(tmp_path / "hbase.truth"),
                   "--sigma", "0.2", "--runs", "5", "--bins", "10", "--rng-seed", "41",
                   "--jobs", "2", "--out", str(tmp_path / f"h{t}.csv")],
        [str(tmp_path) + "/h{tag}.csv"],
    )
    _report("7 (CLI determinism)")
