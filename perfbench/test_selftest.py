"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_selftest.py -q

The generator must be deterministic and independent of seedwalk, and every
output check must accept what the CLI writes and reject a corrupted copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from gen import Shape, planted_graph, write_inputs  # noqa: E402

TINY = Shape(n=300, avg_k=12, k_max=30, mu=0.2, s_min=10, s_max=60, sigma=0.15)


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run([sys.executable, "-m", "seedwalk.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> Path:
    prefix = tmp_path_factory.mktemp("tiny") / "g"
    write_inputs(planted_graph(TINY, 7), prefix)
    return prefix


def test_generator_is_deterministic_and_seeds_reach_everything(tmp_path):
    a = write_inputs(planted_graph(TINY, 3), tmp_path / "a")
    b = write_inputs(planted_graph(TINY, 3), tmp_path / "b")
    c = write_inputs(planted_graph(TINY, 4), tmp_path / "c")
    assert a == b
    assert a["edges"] != c["edges"]
    pg = planted_graph(TINY, 3)
    adj = scipy.sparse.coo_matrix((np.ones(len(pg.edges)), pg.edges.T), shape=(pg.n, pg.n))
    assert scipy.sparse.csgraph.connected_components(adj, directed=False)[0] == 1
    assert np.unique(pg.member[pg.seeds]).size == pg.communities


def test_generator_imports_nothing_from_seedwalk():
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import gen, checks; " \
           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'seedwalk'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _copy_with(src: Path, dst: Path, edit) -> None:
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(edit(lines)))


def test_detect_check_accepts_cli_output_and_rejects_corruption(tiny, tmp_path):
    out = tmp_path / "run"
    cli("detect", f"{tiny}.edges", f"{tiny}.seeds", "--out", str(out))
    files = [f"{tiny}.edges", f"{tiny}.seeds", f"{tiny}.truth"]
    info = checks.check_detect(*files, f"{out}.affinity.csv", f"{out}.crisp.csv", tol=1e-8, q_floor=0.5)
    assert info["q"] >= 0.5
    seeds = {line.split()[0] for line in Path(f"{tiny}.seeds").read_text().splitlines()}
    row = next(i for i, ln in enumerate(Path(f"{out}.affinity.csv").read_text().splitlines())
               if i and ln.split(",")[0] not in seeds)

    def perturb(lines):
        fields = lines[row].rstrip("\n").split(",")
        fields[1] = repr(min(1.0, float(fields[1]) + 1e-3))
        fields[2] = repr(max(0.0, float(fields[2]) - 1e-3))  # keeps the row sum at 1
        lines[row] = ",".join(fields) + "\n"
        return lines

    corrupt = {
        "perturbed row": ("affinity", perturb),
        "dropped row": ("affinity", lambda lines: lines[:-1]),
        "wrong crisp": ("crisp", lambda lines: lines[:row] + [lines[row].rsplit(",", 1)[0] + ",999\n"]
                        + lines[row + 1:]),
    }
    for name, (kind, edit) in corrupt.items():
        bad = tmp_path / name.replace(" ", "_")
        for suffix in ("affinity", "crisp"):
            shutil.copy(f"{out}.{suffix}.csv", f"{bad}.{suffix}.csv")
        _copy_with(Path(f"{out}.{kind}.csv"), Path(f"{bad}.{kind}.csv"), edit)
        with pytest.raises(checks.CheckError):
            checks.check_detect(*files, f"{bad}.affinity.csv", f"{bad}.crisp.csv", tol=1e-8, q_floor=0.5)


def test_sweep_checks_accept_cli_output_and_reject_corruption(tmp_path):
    out = tmp_path / "sweep.csv"
    mus, sigmas = [0.1, 0.3, 0.4], [0.1, 0.2]
    cli("sweep", "--n", "200", "--avg-k", "10", "--mu", "0.1,0.3,0.4", "--sigma", "0.1,0.2",
        "--trials", "1", "--rng-seed", "3", "--jobs", "1", "--out", str(out))
    q = checks.check_sweep_csv(out, 200, 10.0, mus, sigmas, 1)
    assert set(q) == {(m, s) for m in mus for s in sigmas}
    bad = tmp_path / "bad.csv"
    _copy_with(out, bad, lambda lines: lines[:-1])
    with pytest.raises(checks.CheckError):
        checks.check_sweep_csv(bad, 200, 10.0, mus, sigmas, 1)
    with pytest.raises(checks.CheckError):
        checks.check_sweep_csv(out, 200, 10.0, mus, sigmas, 2)
    with pytest.raises(checks.CheckError):
        checks.check_sweep_bands({(0.3, 0.2): 0.8, (0.1, 0.1): 0.9, (0.4, 0.1): 0.5})
    with pytest.raises(checks.CheckError):
        checks.check_sweep_bands({(0.3, 0.2): 0.9, (0.1, 0.1): 0.5, (0.4, 0.1): 0.6})
    checks.check_sweep_bands({(0.3, 0.2): 0.9, (0.1, 0.1): 0.9, (0.4, 0.1): 0.6})


def test_histogram_check_accepts_cli_output_and_rejects_corruption(tiny, tmp_path):
    out = tmp_path / "hist.csv"
    cli("histogram", f"{tiny}.edges", f"{tiny}.truth", "--sigma", "0.15", "--runs", "6", "--bins", "10",
        "--rng-seed", "5", "--jobs", "1", "--out", str(out))
    checks.check_histogram(out, 6, 10, q_floor=0.3)

    def shift(lines):
        lo, hi, freq = lines[-1].strip().split(",")
        lines[-1] = f"{lo},{hi},{float(freq) + 0.05:.6f}\n"
        return lines

    for name, edit in {"shifted": shift, "dropped": lambda lines: lines[:-1]}.items():
        bad = tmp_path / f"{name}.csv"
        _copy_with(out, bad, edit)
        shutil.copy(out.with_suffix(".manifest.json"), bad.with_suffix(".manifest.json"))
        with pytest.raises(checks.CheckError):
            checks.check_histogram(bad, 6, 10, q_floor=0.3)
    with pytest.raises(checks.CheckError):
        checks.check_histogram(out, 6, 10, q_floor=0.999)
