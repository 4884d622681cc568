"""Quality measurement and experiment orchestration.

Q is the fraction of nodes whose crisp assignment matches the planted
community (seeds included; their given indicator rows make them correct by
construction). Sweeps run one trial per (cell, trial-index) with rng
substreams derived from the master seed, so results are independent of
execution order and worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter
from typing import IO, Sequence

import numpy as np

from .detect import assign_crisp, detect_multi
from .errors import SeedwalkError
from .lfr import LfrParams, PlantedGraph, generate, sample_seeds


@dataclass(frozen=True)
class TrialResult:
    """One benchmark run: generated graph + sampled seeds + detection."""

    params: LfrParams
    sigma: float
    trial_index: int
    rng_seed: int
    q: float
    seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CellSummary:
    params: LfrParams
    sigma: float
    trials: int
    failures: int
    q_mean: float
    q_std: float
    q_min: float
    q_max: float
    seconds_mean: float


def membership_quality(pg: PlantedGraph, predicted: np.ndarray) -> float:
    """Q: the fraction of nodes whose crisp community (indexed by node id) is the planted one."""
    if np.shape(predicted) != pg.membership.shape:
        raise ValueError("truth and prediction cover different node sets")
    return float(np.mean(predicted == pg.membership))


def _derived_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(
    params: LfrParams,
    sigma: float,
    cell_index: int,
    trial_index: int,
    master_seed: int,
) -> TrialResult:
    """Generate, sample seeds, detect, assign, score. Failures are recorded,
    not raised, so a sweep cell can be marked incomplete."""
    graph_seed = _derived_seed(master_seed, cell_index, trial_index)
    seed_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(cell_index, trial_index, 1))
    )
    trial_params = replace(params, rng_seed=graph_seed)
    start = perf_counter()
    try:
        pg = generate(trial_params)
        seeds, _uncovered = sample_seeds(pg, sigma, seed_rng)
        aff = detect_multi(pg.graph, seeds)
        q = membership_quality(pg, assign_crisp(aff))
        err = None
    except SeedwalkError as exc:
        q = float("nan")
        err = f"{type(exc).__name__}: {exc}"
    return TrialResult(
        params=trial_params,
        sigma=sigma,
        trial_index=trial_index,
        rng_seed=master_seed,
        q=q,
        seconds=perf_counter() - start,
        error=err,
    )


def _trial_task(args) -> tuple[int, TrialResult]:
    cell_index, trial_index, params, sigma, master_seed = args
    return cell_index, run_trial(params, sigma, cell_index, trial_index, master_seed)


def run_sweep(
    cells: Sequence[tuple[LfrParams, float]],
    trials: int,
    rng_seed: int,
    jobs: int = 1,
) -> tuple[list[TrialResult], list[CellSummary]]:
    """All trials for every (params, sigma) cell, optionally in parallel.

    Deterministic under rng_seed regardless of jobs: every trial's
    randomness comes from (rng_seed, cell, trial) substreams and
    aggregation is order-independent.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tasks = [
        (ci, ti, params, sigma, rng_seed)
        for ci, (params, sigma) in enumerate(cells)
        for ti in range(trials)
    ]
    by_cell: dict[int, list[TrialResult]] = {ci: [] for ci in range(len(cells))}
    if jobs > 1 and len(tasks) > 1:
        # one trial per hand-out: trial cost is heavy-tailed (a generation
        # retry can cost ten median trials), so coarser chunks leave a worker
        # idle behind the slowest chunk
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for ci, result in pool.map(_trial_task, tasks, chunksize=1):
                by_cell[ci].append(result)
    else:
        for task in tasks:
            ci, result = _trial_task(task)
            by_cell[ci].append(result)

    results: list[TrialResult] = []
    summaries: list[CellSummary] = []
    for ci, (params, sigma) in enumerate(cells):
        cell_results = sorted(by_cell[ci], key=lambda r: r.trial_index)
        results.extend(cell_results)
        summaries.append(_summarize(params, sigma, cell_results))
    return results, summaries


def _summarize(params: LfrParams, sigma: float, cell_results: list[TrialResult]) -> CellSummary:
    good = [r for r in cell_results if r.ok]
    qs = np.array([r.q for r in good]) if good else np.array([float("nan")])
    return CellSummary(
        params=params,
        sigma=sigma,
        trials=len(good),
        failures=len(cell_results) - len(good),
        q_mean=float(qs.mean()),
        q_std=float(qs.std()),
        q_min=float(qs.min()),
        q_max=float(qs.max()),
        seconds_mean=float(np.mean([r.seconds for r in cell_results])),
    )


def _resample_task(args) -> float:
    pg, sigma, run_index, master_seed = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,)))
    seeds, _ = sample_seeds(pg, sigma, rng)
    aff = detect_multi(pg.graph, seeds)
    return membership_quality(pg, assign_crisp(aff))


def seed_resample_qualities(
    pg: PlantedGraph,
    sigma: float,
    runs: int,
    rng_seed: int,
    jobs: int = 1,
) -> list[float]:
    """Q for repeated random seed choices on one fixed graph."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    tasks = [(pg, sigma, i, rng_seed) for i in range(runs)]
    if jobs > 1 and runs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_resample_task, tasks, chunksize=8))
    return [_resample_task(t) for t in tasks]


def histogram(values: Sequence[float], bins: int) -> list[tuple[float, float, float]]:
    """Equal-width bins over [0, 1]; relative frequencies sum to 1."""
    if len(values) == 0:
        raise ValueError("no values to bin")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    freqs = counts / arr.size
    return [(float(edges[i]), float(edges[i + 1]), float(freqs[i])) for i in range(bins)]


def write_results_csv(summaries: Sequence[CellSummary], stream: IO[str]) -> None:
    """Stable sweep-result table (timing lives in the run manifest)."""
    stream.write("N,avg_k,gamma,beta_exp,mu,sigma,trials,q_mean,q_std,q_min,q_max\n")
    for s in summaries:
        p = s.params
        stream.write(
            f"{p.n},{p.avg_k:g},{p.gamma:g},{p.beta_exp:g},{p.mu:g},{s.sigma:g},"
            f"{s.trials},{s.q_mean:.6f},{s.q_std:.6f},{s.q_min:.6f},{s.q_max:.6f}\n"
        )


def write_histogram_csv(bins: Sequence[tuple[float, float, float]], stream: IO[str]) -> None:
    stream.write("bin_lo,bin_hi,freq\n")
    for lo, hi, freq in bins:
        stream.write(f"{lo:.9g},{hi:.9g},{freq:.6f}\n")
