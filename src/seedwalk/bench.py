"""Quality measurement and experiment orchestration.

Q is the fraction of nodes whose crisp assignment matches the planted
community (seeds included; their given indicator rows make them correct by
construction). A community that no seed covers has an all-zero affinity
column, so none of its nodes is assigned to it and all of them count as
wrong; the run still counts, and its record says how many communities the
seeds missed.

Sweep trials and histogram re-samples run through one runner. ``_run``
times one run on a given graph: it samples seeds, detects, assigns and
scores, and records a ``SeedwalkError`` in the run's ``TrialResult``
instead of raising it. The graph depends only on the generator parameters,
so a sweep groups its cells by equal ``LfrParams``: ``run_trial`` generates
trial t's graph once per group, from the (rng seed, first cell, t)
substream, and runs it at the σ of every cell in the group, each drawing
its seeds from its own (rng seed, cell, t, 1) substream. ``pool_map`` runs
these (group, trial) tasks, or the re-samples, serially or in a process
pool; the re-samples' graph goes to each worker once. Every draw comes from
a substream of its own, so results are independent of execution order and
worker count. ``summarize`` tallies each set of runs, a sweep cell's trials
or the re-samples, into one ``CellSummary``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter
from typing import IO, Sequence

import numpy as np

from .detect import assign_crisp, detect_multi
from .errors import SeedwalkError
from .lfr import LfrParams, PlantedGraph, generate, mixing_fraction, sample_seeds
from .pool import pool_map


@dataclass(frozen=True)
class TrialResult:
    """One run: a sweep trial (params set: the generator parameters with the
    rng seed of its graph, which every sigma of those params scores at that
    trial index), or a seed re-sample on a fixed graph (params None)."""

    params: LfrParams | None
    sigma: float
    trial_index: int
    q: float
    seconds: float
    uncovered: int  # communities the sampled seeds missed
    failure: SeedwalkError | None = None
    mixing: float = float("nan")  # realized mixing of a sweep trial's graph
    attempts: int = 0  # wirings its generation took

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class CellSummary:
    """The tally of one set of runs: a sweep cell's trials, or the re-samples
    on one graph (params None). Q, mixing and attempts cover the runs that
    succeeded, seconds every run."""

    params: LfrParams | None
    sigma: float
    trials: int  # runs that succeeded
    failures: int
    q_mean: float
    q_std: float
    q_min: float
    q_max: float
    seconds_mean: float
    mixing_mean: float | None  # None if no run succeeded
    attempts_mean: float | None
    failure_causes: dict[str, int]  # exception class name -> runs it failed
    uncovered: int  # runs whose seeds missed at least one community


def membership_quality(pg: PlantedGraph, predicted: np.ndarray) -> float:
    """Q: the fraction of nodes whose crisp community (indexed by node id) is the planted one."""
    if np.shape(predicted) != pg.membership.shape:
        raise ValueError("truth and prediction cover different node sets")
    return float(np.mean(predicted == pg.membership))


def _derived_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run(pg: PlantedGraph, sigma: float, index: int, master_seed: int, key: tuple) -> TrialResult:
    """Sample seeds from the `key` substream, detect, assign and score on pg,
    timed. Failures are recorded, not raised."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
    q, uncovered, failure = float("nan"), [], None
    start = perf_counter()
    try:
        seeds, uncovered = sample_seeds(pg, sigma, rng)
        q = membership_quality(pg, assign_crisp(detect_multi(pg.graph, seeds)))
    except SeedwalkError as exc:
        failure = exc.with_traceback(None)  # its frames would keep the failed run's graph alive
    return TrialResult(None, sigma, index, q, perf_counter() - start, len(uncovered), failure)


def run_trial(
    params: LfrParams, cells: Sequence[tuple[int, float]], trial_index: int, master_seed: int
) -> list[TrialResult]:
    """Trial trial_index of the (cell index, sigma) cells that share params,
    one record per cell in the given order.

    One graph, from the (master_seed, first cell, trial) substream, is
    generated and then run at each sigma by `_run`. Its generation seconds are
    split evenly among the records, and its realized mixing and attempts are
    copied to each; a GenerationError is recorded in each.
    """
    graph_params = replace(params, rng_seed=_derived_seed(master_seed, cells[0][0], trial_index))
    start = perf_counter()
    try:
        pg = generate(graph_params)
    except SeedwalkError as exc:
        failure = exc.with_traceback(None)
        share = (perf_counter() - start) / len(cells)
        return [TrialResult(graph_params, sigma, trial_index, float("nan"), share, 0, failure) for _, sigma in cells]
    shared = dict(params=graph_params, mixing=mixing_fraction(pg), attempts=pg.attempts)
    share = (perf_counter() - start) / len(cells)
    runs = [_run(pg, sigma, trial_index, master_seed, (ci, trial_index, 1)) for ci, sigma in cells]
    return [replace(r, seconds=r.seconds + share, **shared) for r in runs]


def run_sweep(
    cells: Sequence[tuple[LfrParams, float]],
    trials: int,
    rng_seed: int,
    jobs: int = 1,
) -> tuple[list[TrialResult], list[CellSummary]]:
    """All trials for every (params, sigma) cell, optionally in parallel;
    deterministic under rng_seed regardless of jobs.

    Cells with equal params share trial t's graph (see `run_trial`); the
    first cell of each params gets the records it would get if no other cell
    shared them. The records come cell by cell, trials in order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    groups: dict[LfrParams, list[tuple[int, float]]] = {}
    for ci, (params, sigma) in enumerate(cells):
        groups.setdefault(params, []).append((ci, sigma))
    tasks = [(params, group, ti, rng_seed) for params, group in groups.items() for ti in range(trials)]
    results: list[TrialResult] = [None] * (len(cells) * trials)
    for (_, group, ti, _), records in zip(tasks, pool_map(run_trial, tasks, jobs)):
        for (ci, _), r in zip(group, records):
            results[ci * trials + ti] = r
    summaries = [
        summarize(params, sigma, results[ci * trials : (ci + 1) * trials]) for ci, (params, sigma) in enumerate(cells)
    ]
    return results, summaries


def summarize(params: LfrParams | None, sigma: float, records: Sequence[TrialResult]) -> CellSummary:
    """The tally of records, which are the runs of one sweep cell or one graph's re-samples."""
    good = [r for r in records if r.ok]
    qs = np.array([r.q for r in good]) if good else np.array([float("nan")])
    return CellSummary(
        params=params,
        sigma=sigma,
        trials=len(good),
        failures=len(records) - len(good),
        q_mean=float(qs.mean()),
        q_std=float(qs.std()),
        q_min=float(qs.min()),
        q_max=float(qs.max()),
        seconds_mean=float(np.mean([r.seconds for r in records])),
        mixing_mean=float(np.mean([r.mixing for r in good])) if good else None,
        attempts_mean=float(np.mean([r.attempts for r in good])) if good else None,
        failure_causes=dict(Counter(type(r.failure).__name__ for r in records if not r.ok)),
        uncovered=sum(r.uncovered > 0 for r in records),
    )


def seed_resamples(pg: PlantedGraph, sigma: float, runs: int, rng_seed: int, jobs: int = 1) -> list[TrialResult]:
    """One record per random seed choice on one fixed graph, in run order."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return list(pool_map(_run, [(sigma, i, rng_seed, (i,)) for i in range(runs)], jobs, shared=(pg,)))


def seed_resample_qualities(pg: PlantedGraph, sigma: float, runs: int, rng_seed: int, jobs: int = 1) -> list[float]:
    """Q of each re-sample that succeeded, in run order."""
    return [r.q for r in seed_resamples(pg, sigma, runs, rng_seed, jobs) if r.ok]


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
