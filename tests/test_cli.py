import contextlib
import csv
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seedwalk import bench, lfr, write_seed_file
from seedwalk.cli import main
from seedwalk.solver import BLOCK

from conftest import FIG_EDGES, FIG_SEEDS

PATH_EDGES = "s v1\nv1 v2\nv2 v3\nv3 t\n"
PATH_SEEDS = "s 0 1\nt 0 0\n"


@pytest.fixture
def fig_files(tmp_path):
    edges = tmp_path / "fig.edges"
    seeds = tmp_path / "fig.seeds"
    edges.write_text(FIG_EDGES)
    seeds.write_text(FIG_SEEDS)
    return edges, seeds


@pytest.fixture
def path_files(tmp_path):
    edges = tmp_path / "path.edges"
    seeds = tmp_path / "path.seeds"
    edges.write_text(PATH_EDGES)
    seeds.write_text(PATH_SEEDS)
    return edges, seeds


def test_detect_path_fixture(path_files, tmp_path):
    edges, seeds = path_files
    out = tmp_path / "run"
    assert main(["detect", str(edges), str(seeds), "--out", str(out)]) == 0
    affinity = (tmp_path / "run.affinity.csv").read_text()
    assert "0.75" in affinity
    assert "0.5" in affinity
    assert "0.25" in affinity
    assert (tmp_path / "run.crisp.csv").exists()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["subcommand"] == "detect"


def test_detect_fig_fixture(fig_files, tmp_path):
    edges, seeds = fig_files
    out = tmp_path / "fig"
    assert main(["detect", str(edges), str(seeds), "--out", str(out)]) == 0
    lines = (tmp_path / "fig.affinity.csv").read_text().splitlines()
    v_row = next(line for line in lines if line.startswith("v,"))
    assert v_row == "v,0.333333333,0.666666667"


def test_detect_disconnected_exit_2(tmp_path):
    edges = tmp_path / "two.edges"
    seeds = tmp_path / "two.seeds"
    edges.write_text("a b\nc d\n")
    seeds.write_text("a 0 1\n")
    assert main(["detect", str(edges), str(seeds), "--out", str(tmp_path / "x")]) == 2


def test_detect_parse_error_exit_1(tmp_path):
    edges = tmp_path / "bad.edges"
    seeds = tmp_path / "bad.seeds"
    edges.write_text("a a\n")
    seeds.write_text("a 0 1\n")
    assert main(["detect", str(edges), str(seeds), "--out", str(tmp_path / "x")]) == 1
    edges.write_text("a b\n")
    seeds.write_text("a zero 1\n")
    assert main(["detect", str(edges), str(seeds), "--out", str(tmp_path / "x")]) == 1


def test_verify_fig_node(fig_files):
    edges, seeds = fig_files
    assert main(["verify", str(edges), str(seeds), "--node", "v",
                 "--walks", "100000", "--rng-seed", "3"]) == 0


def test_verify_seed_node_is_usage_error(fig_files):
    edges, seeds = fig_files
    assert main(["verify", str(edges), str(seeds), "--node", "s1", "--walks", "100"]) == 64


def test_verify_single_walk_runs_vacuously(fig_files):
    edges, seeds = fig_files
    # the 4*sqrt(0.25/walks) threshold exceeds any possible gap at walks=1,
    # so the check is vacuous but must still run cleanly
    assert main(["verify", str(edges), str(seeds), "--node", "v",
                 "--walks", "1", "--rng-seed", "0"]) == 0


def test_verify_gap_violation_exit_5(fig_files, monkeypatch):
    edges, seeds = fig_files
    # the gap check is a tripwire for solver/walker inconsistencies, which a
    # correct build cannot produce; fake a broken walker to cover the path
    import numpy as np

    from seedwalk import cli
    from seedwalk.walker import WalkStats

    def broken_walks(chain, start, walks, rng_seed, step_cap=0):
        counts = np.zeros(chain.sigma, dtype=np.int64)
        counts[0] = walks  # everything to the first seed, regardless of structure
        return WalkStats(start=start, seed_ids=chain.seeds.copy(), counts=counts, walks=walks)

    monkeypatch.setattr(cli.walker, "run_walks", broken_walks)
    assert main(["verify", str(edges), str(seeds), "--node", "v",
                 "--walks", "100000", "--rng-seed", "0"]) == 5


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_verify_step_cap_below_one_is_usage_error(path_files, cap, capsys):
    edges, seeds = path_files
    code = main(["verify", str(edges), str(seeds), "--node", "v2", "--walks", "100", "--step-cap", cap])
    err = capsys.readouterr().err
    assert code == 64
    assert "error:" in err and "--step-cap" in err and "Traceback" not in err


def test_verify_walk_hitting_step_cap_is_usage_error(path_files, capsys):
    edges, seeds = path_files
    # every walk from v2 needs at least two steps to reach s or t
    code = main(["verify", str(edges), str(seeds), "--node", "v2", "--walks", "100", "--step-cap", "1"])
    err = capsys.readouterr().err
    assert code == 64
    assert "error:" in err and "--step-cap 1" in err and "Traceback" not in err


def test_generate_outputs(tmp_path):
    out = tmp_path / "bench"
    code = main(["generate", "--n", "400", "--avg-k", "15", "--gamma", "2",
                 "--beta-exp", "2", "--mu", "0.2", "--rng-seed", "1", "--out", str(out)])
    assert code == 0
    edges = (tmp_path / "bench.edges").read_text().splitlines()
    truth = (tmp_path / "bench.truth").read_text().splitlines()
    assert len(truth) == 400
    assert len(edges) > 1000
    manifest = json.loads((tmp_path / "bench.manifest.json").read_text())
    assert manifest["realized"]["n"] == 400
    assert manifest["realized"]["attempts"] >= 1
    dropped = manifest["realized"]["dropped_edges"]
    assert 0 <= dropped <= 0.01 * (manifest["realized"]["m"] + dropped)


def test_generate_infeasible_exit_4(tmp_path):
    code = main(["generate", "--n", "100", "--avg-k", "15", "--gamma", "2",
                 "--beta-exp", "2", "--mu", "0.2", "--k-max", "200",
                 "--out", str(tmp_path / "x")])
    assert code == 4


def test_sweep_zero_trials_usage_error(tmp_path):
    code = main(["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.1",
                 "--sigma", "0.2", "--trials", "0", "--out", str(tmp_path / "s.csv")])
    assert code == 64


def test_sweep_single_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.0",
                 "--sigma", "0.25", "--trials", "3", "--rng-seed", "5",
                 "--jobs", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("N,avg_k,gamma")
    assert lines[1].split(",")[7] == "1.000000"  # q_mean at mu=0


def test_histogram_command(tmp_path):
    gen = tmp_path / "g"
    assert main(["generate", "--n", "250", "--avg-k", "12", "--gamma", "2",
                 "--beta-exp", "2", "--mu", "0.0", "--rng-seed", "2", "--out", str(gen)]) == 0
    out = tmp_path / "hist.csv"
    code = main(["histogram", str(tmp_path / "g.edges"), str(tmp_path / "g.truth"),
                 "--sigma", "0.2", "--runs", "6", "--bins", "10",
                 "--rng-seed", "4", "--jobs", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,freq"
    freqs = [float(line.split(",")[2]) for line in lines[1:]]
    assert sum(1 for f in freqs if f > 0) == 1  # constant Q at mu=0


def test_histogram_bins_the_resamples_that_succeed(tmp_path, capsys):
    # two components, each holding both communities: 4 of these 8 seed
    # draws leave one component without a seed
    (tmp_path / "split.edges").write_text("a b\nb c\nd e\ne f\n")
    (tmp_path / "split.truth").write_text("a 0\nb 0\nc 1\nd 0\ne 1\nf 1\n")
    out = tmp_path / "h.csv"
    code = main(["histogram", str(tmp_path / "split.edges"), str(tmp_path / "split.truth"),
                 "--sigma", "0.3", "--runs", "8", "--rng-seed", "0", "--jobs", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.out + captured.err
    assert "warning: 4 re-sample(s) failed" in captured.err
    freqs = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert sum(freqs) == pytest.approx(1.0)
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["runs_ok"] == 4
    assert manifest["failure_causes"] == {"ReachabilityError": 4}
    assert manifest["uncovered"] == 0


def test_sweep_manifest_records_failures_and_coverage_gaps(tmp_path, capsys):
    # 10 seeds among ~10 communities: at mu=0 a community without a seed is
    # a component no walk leaves; at mu=0.3 it is reachable and scored as Q
    out = tmp_path / "s.csv"
    code = main(["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.0,0.3", "--sigma", "0.05",
                 "--trials", "3", "--rng-seed", "1", "--jobs", "1", "--out", str(out)])
    assert code == 0
    # the manifest reports what the same trials record when run in-process
    base = lfr.LfrParams(n=200, avg_k=10, gamma=2.0, beta_exp=2.0, mu=0.0)
    records, _ = bench.run_sweep([(base, 0.05), (replace(base, mu=0.3), 0.05)], trials=3, rng_seed=1)
    assert f"warning: {sum(not r.ok for r in records)} trial(s) failed" in capsys.readouterr().err
    cells = json.loads(out.with_suffix(".manifest.json").read_text())["cells"]
    for cell, trials in zip(cells, (records[:3], records[3:])):
        good = [r for r in trials if r.ok]
        assert cell["failures"] == len(trials) - len(good)
        assert cell["failure_causes"] == dict(Counter(type(r.failure).__name__ for r in trials if not r.ok))
        assert cell["uncovered"] == sum(r.uncovered > 0 for r in trials)
        # realized mixing and wiring attempts average over the successful trials only
        assert cell["mixing_mean"] == (float(np.mean([r.mixing for r in good])) if good else None)
        assert cell["attempts_mean"] == (float(np.mean([r.attempts for r in good])) if good else None)
    assert cells[0]["failures"] >= 1 and set(cells[0]["failure_causes"]) == {"ReachabilityError"}
    assert cells[1]["failures"] == 0
    assert abs(cells[1]["mixing_mean"] - 0.3) <= 0.05
    assert cells[1]["attempts_mean"] >= 1


def test_histogram_usage_errors(tmp_path):
    gen = tmp_path / "g"
    main(["generate", "--n", "250", "--avg-k", "12", "--gamma", "2",
          "--beta-exp", "2", "--mu", "0.0", "--rng-seed", "2", "--out", str(gen)])
    args = ["histogram", str(tmp_path / "g.edges"), str(tmp_path / "g.truth"),
            "--out", str(tmp_path / "h.csv")]
    assert main(args + ["--sigma", "0.2", "--runs", "0"]) == 64
    assert main(args + ["--sigma", "1.5", "--runs", "5"]) == 64


def _read_bytes(path: Path) -> bytes:
    return path.read_bytes()


def test_detect_rerun_is_byte_identical(fig_files, tmp_path):
    edges, seeds = fig_files
    a, b = tmp_path / "a", tmp_path / "b"
    main(["detect", str(edges), str(seeds), "--out", str(a)])
    main(["detect", str(edges), str(seeds), "--out", str(b)])
    assert _read_bytes(tmp_path / "a.affinity.csv") == _read_bytes(tmp_path / "b.affinity.csv")
    assert _read_bytes(tmp_path / "a.crisp.csv") == _read_bytes(tmp_path / "b.crisp.csv")


def test_detect_outputs_independent_of_jobs(tmp_path):
    # more than one solve block and more than one CSV chunk, so --jobs 2 runs
    # both in worker processes; they get their state through the pool
    # initializer, so workers that inherit no memory (spawn, forkserver) give the same bytes
    prefix = tmp_path / "g"
    assert main(["generate", "--n", "1200", "--avg-k", "10", "--mu", "0.3", "--s-min", "10", "--s-max", "40",
                 "--rng-seed", "3", "--out", str(prefix)]) == 0
    pg = lfr.load_planted(f"{prefix}.edges", f"{prefix}.truth")
    seeds, _ = lfr.sample_seeds(pg, 0.1, np.random.default_rng(3))
    assert seeds.l > BLOCK and pg.graph.n > 1024
    with open(f"{prefix}.seeds", "w", encoding="utf-8") as fh:
        write_seed_file(seeds, pg.graph, fh)
    argv = ["detect", f"{prefix}.edges", f"{prefix}.seeds", "--out"]
    for jobs in ("1", "2"):
        assert main([*argv, str(tmp_path / jobs), "--jobs", jobs]) == 0
    src = str(Path(lfr.__file__).resolve().parents[1])
    code = (f"import multiprocessing, sys; sys.path.insert(0, {src!r}); multiprocessing.set_start_method(sys.argv[1]); "
            "from seedwalk.cli import main; sys.exit(main(sys.argv[2:]))")
    for method in ("spawn", "forkserver"):
        subprocess.run([sys.executable, "-c", code, method, *argv, str(tmp_path / method), "--jobs", "2"], check=True)
    for run in ("2", "spawn", "forkserver"):
        for suffix in (".affinity.csv", ".crisp.csv"):
            assert (tmp_path / f"{run}{suffix}").read_bytes() == (tmp_path / f"1{suffix}").read_bytes()
        m1, m = (json.loads((tmp_path / f"{r}.manifest.json").read_text()) for r in ("1", run))
        for key in ("solver_iterations", "solver_residuals"):
            assert m[key] == m1[key]


def test_detect_with_one_block_and_one_chunk_starts_no_pool(fig_files, tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    edges, seeds = fig_files
    assert main(["detect", str(edges), str(seeds), "--jobs", "4", "--out", str(tmp_path / "x")]) == 0


def test_detect_nonconvergence_exit_3(fig_files, tmp_path, monkeypatch):
    edges, seeds = fig_files
    from seedwalk import cli
    from seedwalk.errors import ConvergenceError
    from seedwalk.solver import SolveReport

    def never_converges(*args, **kwargs):
        raise ConvergenceError([SolveReport(5, 0.5, False)])

    monkeypatch.setattr(cli, "detect_multi", never_converges)
    assert main(["detect", str(edges), str(seeds), "--out", str(tmp_path / "x")]) == 3


def test_detect_direct_over_cap_is_usage_error(tmp_path):
    # a 2100-node path, past the size the retired dense solver accepted,
    # solves; the retired --solver flag is a usage error
    n = 2102
    lines = [f"n{i} n{i+1}" for i in range(n - 1)]
    edges = tmp_path / "long.edges"
    seeds = tmp_path / "long.seeds"
    edges.write_text("\n".join(lines) + "\n")
    seeds.write_text(f"n0 0 1\nn{n-1} 0 0\n")
    assert main(["detect", str(edges), str(seeds), "--out", str(tmp_path / "ok")]) == 0
    assert main(["detect", str(edges), str(seeds), "--solver", "direct",
                 "--out", str(tmp_path / "x")]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "only-edges", "--out", "x"],
        ["no-such-command"],
        ["detect", "e", "s", "--out", "x", "--tol", "notanumber"],
        ["detect", "e", "s", "--out", "x", "--solver", "iterative"],
        ["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.1", "--sigma", "0.2", "--out", "x", "--tol", "1e-6"],
        ["histogram", "e", "t", "--sigma", "0.2", "--out", "x", "--tol", "1e-6"],
        ["detect", "e", "s", "--out", "x", "--tol", "nan"],
        ["detect", "e", "s", "--out", "x", "--tol", "inf"],
        ["detect", "e", "s", "--out", "x", "--tol", "0"],
        ["verify", "e", "s", "--node", "v", "--walks", "0"],
        ["histogram", "e", "t", "--sigma", "0.2", "--out", "x", "--bins", "0"],
        ["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.1", "--sigma", "0.2", "--out", "x", "--jobs", "0"],
        ["histogram", "e", "t", "--sigma", "0.2", "--out", "x", "--jobs", "-2"],
        ["detect", "e", "s", "--out", "x", "--jobs", "0"],
    ],
    ids=["missing-positional", "unknown-subcommand", "bad-tol", "solver-flag", "sweep-tol", "histogram-tol",
         "tol-nan", "tol-inf", "tol-zero", "walks-zero", "bins-zero", "sweep-jobs-zero", "histogram-jobs-negative",
         "detect-jobs-zero"],
)
def test_argparse_usage_errors_exit_64(argv, capsys):
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


LFR_FLAGS = ["--n", "200", "--avg-k", "10", "--mu", "0.1"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["detect", "{edges}", "{seeds}", "--out", "{tmp}/missing/x"], 1),
        (["generate", *LFR_FLAGS, "--out", "{tmp}/missing/x"], 1),
        (["sweep", *LFR_FLAGS, "--sigma", "0.2", "--trials", "1", "--jobs", "1", "--out", "{tmp}/missing/s.csv"], 1),
        (["histogram", "{edges}", "{truth}", "--sigma", "0.3", "--runs", "1", "--jobs", "1",
          "--out", "{tmp}/missing/h.csv"], 1),
        (["generate", "--n", "200", "--avg-k", "nan", "--mu", "0.1", "--out", "{tmp}/x"], 4),
        (["sweep", "--n", "200", "--avg-k", "nan", "--mu", "0.1", "--sigma", "0.2", "--trials", "1",
          "--jobs", "1", "--out", "{tmp}/s.csv"], 4),
        (["generate", *LFR_FLAGS, "--s-max", "1000000000000", "--out", "{tmp}/x"], 4),
        (["histogram", "{split_edges}", "{split_truth}", "--sigma", "0.2", "--runs", "2", "--jobs", "2",
          "--out", "{tmp}/h.csv"], 2),
        (["histogram", "{edges}", "{huge_truth}", "--sigma", "0.3", "--runs", "1", "--jobs", "1",
          "--out", "{tmp}/h.csv"], 1),
    ],
    ids=["detect-out", "generate-out", "sweep-out", "histogram-out", "generate-avg-k-nan", "sweep-avg-k-nan",
         "generate-s-max-above-n",
         "histogram-unreachable-pooled", "histogram-huge-community"],
)
def test_runtime_errors_exit_with_their_code(argv, code, fig_files, tmp_path, capsys, monkeypatch):
    edges, seeds = fig_files
    calls = []

    def spy(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return call

    for name in ("run_sweep", "seed_resamples"):
        monkeypatch.setattr(bench, name, spy(getattr(bench, name)))
    truth = tmp_path / "fig.truth"
    truth.write_text("".join(f"{lab} 0\n" for lab in dict.fromkeys(FIG_EDGES.split())))
    # an index beyond int64 must be a parse error, not an OverflowError
    huge_truth = tmp_path / "huge.truth"
    huge_truth.write_text(truth.read_text().replace(" 0\n", " 1000000000000000000000000000000\n", 1))
    # two 3-node communities in separate components: one seed leaves the other unreachable
    (tmp_path / "split.edges").write_text("a b\nb c\nd e\ne f\n")
    (tmp_path / "split.truth").write_text("a 0\nb 0\nc 0\nd 1\ne 1\nf 1\n")
    paths = {"edges": edges, "seeds": seeds, "truth": truth, "huge_truth": huge_truth, "tmp": tmp_path,
             "split_edges": tmp_path / "split.edges", "split_truth": tmp_path / "split.truth"}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    # an unwritable --out fails before any trial or re-sample runs, and a
    # failed run leaves no output behind
    if code == 1:
        assert calls == []
    out = Path(argv[argv.index("--out") + 1])
    assert not list(out.parent.glob(out.name + "*"))


def test_detect_quotes_labels_holding_comma_or_quote(tmp_path):
    edges, seeds = tmp_path / "q.edges", tmp_path / "q.seeds"
    edges.write_text('a,b c\nc "d\n')
    seeds.write_text('a,b 0 1\n"d 1 1\n')
    assert main(["detect", str(edges), str(seeds), "--out", str(tmp_path / "q")]) == 0
    assert (tmp_path / "q.crisp.csv").read_text() == 'node,community\n"a,b",0\nc,0\n"""d",1\n'
    for suffix, header in (("affinity", ["node", "c0", "c1"]), ("crisp", ["node", "community"])):
        with open(tmp_path / f"q.{suffix}.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        assert records[0] == header
        assert [r[0] for r in records[1:]] == ["a,b", "c", '"d']
        assert all(len(r) == len(header) for r in records)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_sweep_sigma_without_seeds_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--n", "200", "--avg-k", "10", "--mu", "0.1",
                 "--sigma", "0.001", "--trials", "1", "--jobs", "1", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 64
    assert "error:" in err and "Traceback" not in err


def test_histogram_sigma_without_seeds_is_usage_error(tmp_path, capsys):
    gen = tmp_path / "g"
    assert main(["generate", "--n", "250", "--avg-k", "12", "--gamma", "2",
                 "--beta-exp", "2", "--mu", "0.1", "--rng-seed", "2", "--out", str(gen)]) == 0
    code = main(["histogram", str(tmp_path / "g.edges"), str(tmp_path / "g.truth"),
                 "--sigma", "0.001", "--runs", "2", "--jobs", "1", "--out", str(tmp_path / "h.csv")])
    err = capsys.readouterr().err
    assert code == 64
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", ["edges", "seeds", "truth"])
def test_non_utf8_input_is_parse_error(bad, fig_files, tmp_path, capsys):
    edges, seeds = fig_files
    truth = tmp_path / "fig.truth"
    truth.write_text("".join(f"{lab} 0\n" for lab in dict.fromkeys(FIG_EDGES.split())))
    target = {"edges": edges, "seeds": seeds, "truth": truth}[bad]
    target.write_bytes(target.read_bytes() + b"caf\xe9 n2 0\n")
    if bad == "truth":
        argv = ["histogram", str(edges), str(truth), "--sigma", "0.3", "--runs", "1",
                "--jobs", "1", "--out", str(tmp_path / "h.csv")]
    else:
        argv = ["detect", str(edges), str(seeds), "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "UTF-8" in err and "Traceback" not in err


def test_cli_import_leaves_out_dense_linear_algebra():
    import seedwalk

    src = str(Path(seedwalk.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import seedwalk.cli; sys.exit('scipy.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], check=False).returncode == 0


PUBLIC_API = [
    "AbsorbingChain", "AffinityMatrix", "ConvergenceError", "GenerationError", "Graph", "LfrParams",
    "ParseError", "PlantedGraph", "ReachabilityError", "SeedSet", "SeedwalkError", "assign_crisp",
    "build_chain", "detect_multi", "estimate_affinity", "generate", "load_edge_list", "load_seed_file",
    "mixing_fraction", "run_sweep", "run_walks", "sample_seeds", "seed_resample_qualities",
    "write_edge_list", "write_seed_file",
]


def test_public_surface_is_the_documented_list():
    import seedwalk

    assert set(seedwalk.__all__) == set(PUBLIC_API)
    assert len(seedwalk.__all__) == len(PUBLIC_API)
    for name in PUBLIC_API:
        assert getattr(seedwalk, name) is not None
    readme = (Path(seedwalk.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    assert all(f"`{name}`" in readme for name in PUBLIC_API)


LABEL = st.sampled_from(["a", "b", "c", "d", "e", "a#b", "x,y"])
BAD_FIELD = st.sampled_from(["#c", "zz", "-1", "1.5", "-0.1", "nan", "inf", "abc", "1e3", str(10**30)])


@st.composite
def _malformed_inputs(draw) -> tuple[bytes, bytes, bytes]:
    """Edge, seed and truth files, mostly well formed: a line at times loses or
    gains a field, gets a bad field (a `#` label, an unknown node, a number out
    of range or not a number) or becomes a self-loop; a file at times ends in
    bytes that are not UTF-8."""

    def text(lines: list[list[str]]) -> bytes:
        out = []
        for fields in lines:
            kind = draw(st.sampled_from(["ok"] * 7 + ["drop", "add", "bad", "loop", "comment"]))
            if kind == "drop":
                fields = fields[:-1]
            elif kind == "add":
                fields = [*fields, draw(LABEL)]
            elif kind == "bad":
                fields = [*fields]
                fields[draw(st.integers(0, len(fields) - 1))] = draw(BAD_FIELD)
            elif kind == "loop":
                fields = [fields[0], fields[0], *fields[2:]]
            out.append(("# " if kind == "comment" else "") + " ".join(fields) + "\n")
        return "".join(out).encode() + draw(st.sampled_from([b""] * 7 + [b"caf\xe9 b 0\n"]))

    pairs = draw(st.lists(st.lists(LABEL, min_size=2, max_size=2, unique=True), min_size=1, max_size=8))
    labels = list(dict.fromkeys(lab for pair in pairs for lab in pair))
    affinity = st.sampled_from(["0", "1", "0.5", "0.25"])
    seeds = [[draw(st.sampled_from(labels)), str(draw(st.integers(0, 3))), draw(affinity)]
             for _ in range(draw(st.integers(1, 4)))]
    truth = [[lab, str(draw(st.integers(0, 2)))] for lab in labels]
    return text(pairs), text(seeds), text(truth)


@settings(max_examples=200, deadline=None)
@given(_malformed_inputs(), LABEL)
def test_malformed_inputs_exit_with_a_documented_code(files, node):
    # every detect, verify and histogram run on random, mostly well-formed
    # inputs ends in a documented exit code, with no traceback
    with tempfile.TemporaryDirectory() as tmp:
        e, s, t = (str(Path(tmp, name)) for name in ("edges", "seeds", "truth"))
        for path, data in zip((e, s, t), files):
            Path(path).write_bytes(data)
        runs = [
            ["detect", e, s, "--jobs", "1", "--out", f"{tmp}/d"],
            ["verify", e, s, "--node", node, "--walks", "20"],
            ["histogram", e, t, "--sigma", "0.5", "--runs", "2", "--bins", "2", "--jobs", "1", "--out", f"{tmp}/h.csv"],
        ]
        for argv in runs:
            _assert_documented_exit(argv)


def _assert_documented_exit(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4, 5, 64), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


# a size or degree bound: absent, at 0, 1 or 2, next to n, or far too large to
# allocate a support for
BOUND = st.sampled_from([None, "0", "1", "2", "n-1", "n", "n+1", "100000000000"])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.sampled_from(["0", "1"]), st.sampled_from(["1", "2", "3"]),
       st.lists(BOUND, min_size=4, max_size=4))
# every degree 1 on an odd n: no even degree sum stays within k_max
@example(11, "0", "1", [None, "n", "1", "1"])
def test_generator_flags_exit_with_a_documented_code(n, mu, avg_k, bounds):
    # tiny graphs at mu 0 and 1 with every size and degree bound at an edge:
    # empty stub groups, one group holding every stub, and at mu=1 with one
    # community an external pool with no valid pair; a written graph keeps
    # every degree within the resolved k_max
    flags = ["--n", str(n), "--avg-k", avg_k, "--mu", mu]
    for flag, bound in zip(("--s-min", "--s-max", "--k-min", "--k-max"), bounds):
        if bound is not None:
            flags += [flag, str({"n-1": n - 1, "n": n, "n+1": n + 1}.get(bound, bound))]
    with tempfile.TemporaryDirectory() as tmp:
        if _assert_documented_exit(["generate", *flags, "--out", f"{tmp}/g"]) == 0:
            k_max = json.loads(Path(f"{tmp}/g.manifest.json").read_text())["resolved_bounds"]["k_max"]
            assert max(Counter(Path(f"{tmp}/g.edges").read_text().split()).values()) <= k_max
        _assert_documented_exit(["sweep", *flags, "--sigma", "0.5", "--trials", "1", "--jobs", "1",
                                 "--out", f"{tmp}/s.csv"])
