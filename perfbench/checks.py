"""Output checks that use numpy and scipy only, never seedwalk.

Each check reads the files the CLI wrote, re-derives what they must satisfy
from the input files, and raises ``CheckError`` naming the first violation.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import scipy.sparse

# the affinity CSV holds 9 significant digits: each value is off by at most half
# a unit in its ninth digit
CSV_REL_ROUNDING = 5e-9
ROW_SUM_TOL = 1e-6


class CheckError(Exception):
    """An output file violates what the inputs imply."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def read_graph(edges_path) -> tuple[dict[str, int], scipy.sparse.csr_matrix]:
    """Label -> id in order of first appearance, and the symmetric adjacency."""
    ids: dict[str, int] = {}
    pairs = []
    for line in _lines(edges_path):
        a, b = line.split()
        pairs.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    u, w = np.array(pairs, dtype=np.int64).T
    n = len(ids)
    adj = scipy.sparse.coo_matrix((np.ones(2 * u.size), (np.r_[u, w], np.r_[w, u])), shape=(n, n)).tocsr()
    adj.sum_duplicates()
    adj.data[:] = 1.0
    return ids, adj


def read_labelled(path, ids: dict[str, int], columns: int) -> np.ndarray:
    """Rows of `label,c0,...` as an (n x columns) array in id order."""
    lines = _lines(path)
    header = lines[0].split(",")
    _require(header[0] == "node" and len(header) == columns + 1, f"{path}: bad header {lines[0][:60]!r}")
    _require(len(lines) - 1 == len(ids), f"{path}: {len(lines) - 1} rows for {len(ids)} nodes")
    labels, rest = zip(*(ln.split(",", 1) for ln in lines[1:]))
    try:
        order = np.array([ids[lab] for lab in labels])
    except KeyError as exc:
        raise CheckError(f"{path}: unknown node {exc}") from None
    _require(np.unique(order).size == order.size, f"{path}: a node appears twice")
    values = np.loadtxt(io.StringIO("\n".join(rest)), delimiter=",", ndmin=2)
    _require(values.shape == (len(ids), columns), f"{path}: expected {columns} values per row")
    out = np.empty_like(values)
    out[order] = values
    return out


def check_detect(edges, seeds, truth, affinity_csv, crisp_csv, tol: float, q_floor: float) -> dict:
    """Residual, conservation, range, crisp argmax and quality of one detect run."""
    ids, adj = read_graph(edges)
    n = len(ids)
    seed_rows = [line.split() for line in _lines(seeds)]
    l = 1 + max(int(c) for _, c, _ in seed_rows)
    seed_ids = np.array(sorted({ids[lab] for lab, _, _ in seed_rows}))
    beta = np.zeros((n, l))
    for lab, c, a in seed_rows:
        beta[ids[lab], int(c)] = float(a)

    x = read_labelled(affinity_csv, ids, l)
    _require(np.isfinite(x).all() and x.min() >= 0.0 and x.max() <= 1.0, "affinity outside [0, 1]")
    _require(np.array_equal(x[seed_ids], beta[seed_ids]), "seed rows differ from the seed file")
    row_err = np.abs(x.sum(axis=1) - 1.0).max()
    _require(row_err <= ROW_SUM_TOL, f"affinity rows sum to 1 only within {row_err:.2e}")

    # (D - A_TT) x_T = A_TS beta_S over the transient (non-seed) nodes
    transient = np.setdiff1d(np.arange(n), seed_ids)
    degree = np.asarray(adj.sum(axis=1)).ravel()
    a_tt = adj[transient][:, transient]
    lap = scipy.sparse.diags(degree[transient]) - a_tt
    b = adj[transient][:, seed_ids] @ beta[seed_ids]
    xt = x[transient]
    bnorm = np.linalg.norm(b, axis=0)
    live = bnorm > 0
    resid = np.linalg.norm(lap @ xt - b, axis=0)[live] / bnorm[live]
    # what the 9-digit rounding alone can add to the residual, bounded through |L|
    rounding = np.linalg.norm(abs(lap) @ (CSV_REL_ROUNDING * np.abs(xt) + 1e-15), axis=0)[live] / bnorm[live]
    worst = int(np.argmax(resid - (tol + 2 * rounding)))
    _require(
        resid[worst] <= tol + 2 * rounding[worst],
        f"column residual {resid[worst]:.3e} exceeds tol {tol:g} + rounding {2 * rounding[worst]:.3e}",
    )

    crisp = read_labelled(crisp_csv, ids, 1)[:, 0].astype(np.int64)
    best = x.max(axis=1)
    tied = (x == best[:, None]).sum(axis=1) > 1
    first = np.argmax(x, axis=1)
    # where rounding made two leaders equal, the CSV cannot tell which one led
    ok = np.where(tied, x[np.arange(n), np.clip(crisp, 0, l - 1)] == best, crisp == first)
    _require(ok.all(), f"crisp community is not the argmax for {int((~ok).sum())} node(s)")

    member = np.full(n, -1)
    for line in _lines(truth):
        lab, c = line.split()
        member[ids[lab]] = int(c)
    q = float((crisp == member).mean())
    _require(q >= q_floor, f"Q = {q:.4f} against the planted truth is below the floor {q_floor}")
    return {
        "q": q,
        "max_rel_residual_csv": float(resid.max()),
        "max_row_sum_error": float(row_err),
        "tied_rows": int(tied.sum()),
    }


SWEEP_HEADER = "N,avg_k,gamma,beta_exp,mu,sigma,trials,q_mean,q_std,q_min,q_max"


def check_sweep_csv(path, n: int, avg_k: float, mus, sigmas, trials: int) -> dict[tuple[float, float], float]:
    """Structure of one sweep result table; returns q_mean per (mu, sigma) cell."""
    lines = _lines(path)
    _require(lines and lines[0] == SWEEP_HEADER, f"{path}: bad header")
    cells = [(mu, s) for mu in mus for s in sigmas]
    _require(len(lines) - 1 == len(cells), f"{path}: {len(lines) - 1} rows for {len(cells)} cells")
    q = {}
    for line, (mu, sigma) in zip(lines[1:], cells):
        f = [float(v) for v in line.split(",")]
        _require(f[:6] == [n, avg_k, 2.0, 2.0, mu, sigma], f"{path}: unexpected cell {line}")
        _require(f[6] == trials, f"{path}: cell mu={mu} sigma={sigma} completed {f[6]:g} of {trials} trials")
        q_mean, q_std, q_min, q_max = f[7:]
        _require(0.0 <= q_min <= q_mean <= q_max <= 1.0 and q_std >= 0.0, f"{path}: inconsistent Q in {line}")
        q[(mu, sigma)] = q_mean
    return q


def check_sweep_bands(q: dict[tuple[float, float], float]) -> None:
    """The acceptance-criterion-5 bands on the cells this grid shares with it."""
    _require(0.82 <= q[(0.3, 0.2)] <= 1.0, f"Q(mu=0.3, sigma=0.2) = {q[(0.3, 0.2)]:.4f} outside [0.82, 1]")
    _require(q[(0.1, 0.1)] > q[(0.4, 0.1)], "Q does not fall from mu=0.1 to mu=0.4 at sigma=0.1")


def check_histogram(path, runs: int, bins: int, q_floor: float) -> float:
    """Bins tile [0, 1], frequencies are counts over runs summing to 1, and the
    manifest's q_mean lies inside the occupied bins and above the floor."""
    lines = _lines(path)
    _require(lines and lines[0] == "bin_lo,bin_hi,freq", f"{path}: bad header")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]]).reshape(-1, 3)
    _require(table.shape[0] == bins, f"{path}: {table.shape[0]} bins, expected {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    _require(np.allclose(table[:, 0], edges[:-1]) and np.allclose(table[:, 1], edges[1:]), f"{path}: bins do not tile [0, 1]")
    freq = table[:, 2]
    counts = freq * runs
    slack = runs * 5e-7 + 1e-9  # frequencies are printed to 6 decimals
    _require((freq >= 0).all() and np.abs(counts - np.rint(counts)).max() <= slack, f"{path}: frequencies are not counts / {runs}")
    _require(int(np.rint(counts).sum()) == runs, f"{path}: frequencies sum to {freq.sum():.6f}, not 1")
    q_mean = float(json.loads(Path(path).with_suffix(".manifest.json").read_text())["q_mean"])
    occupied = np.flatnonzero(np.rint(counts) > 0)
    lo, hi = table[occupied[0], 0], table[occupied[-1], 1]
    _require(lo <= q_mean <= hi, f"q_mean {q_mean:.4f} outside the occupied bins [{lo}, {hi}]")
    _require(q_mean >= q_floor, f"q_mean {q_mean:.4f} below the floor {q_floor}")
    return q_mean
