import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedwalk import GenerationError, LfrParams, ParseError, ReachabilityError, load_edge_list, run_sweep
from seedwalk import bench
from seedwalk.bench import (
    TrialResult,
    histogram,
    membership_quality,
    run_trial,
    seed_resample_qualities,
    seed_resamples,
    summarize,
    write_histogram_csv,
    write_results_csv,
)
from seedwalk.lfr import PlantedGraph, generate


def _planted(truth):
    # a path over len(truth) nodes, labelled 0, 1, ... in node id order
    g = load_edge_list(io.StringIO("".join(f"{i} {i + 1}\n" for i in range(len(truth) - 1))))
    return PlantedGraph(graph=g, membership=np.array(truth, dtype=np.int64), sizes=np.bincount(truth).tolist())


def test_quality_identical_maps():
    truth = [1, 2, 1]
    assert membership_quality(_planted(truth), np.array(truth)) == 1.0


def test_quality_all_wrong():
    assert membership_quality(_planted([0, 0]), np.array([1, 1])) == 0.0


def test_quality_three_of_four():
    assert membership_quality(_planted([0, 1, 2, 3]), np.array([0, 1, 2, 0])) == 0.75


def test_quality_key_mismatch():
    with pytest.raises(ValueError, match="different node sets"):
        membership_quality(_planted([0, 0]), np.array([0, 0, 0]))


def test_histogram_single_spike():
    bins = histogram([0.5] * 25, 10)
    freqs = [f for _, _, f in bins]
    assert sum(freqs) == pytest.approx(1.0)
    assert sorted(freqs)[-1] == 1.0
    assert sum(1 for f in freqs if f > 0) == 1


def test_histogram_uniform_grid():
    values = np.linspace(0.005, 0.995, 100)
    bins = histogram(values, 10)
    assert all(f == pytest.approx(0.1) for _, _, f in bins)


def test_histogram_bounds_and_errors():
    bins = histogram([0.0, 1.0], 4)
    assert bins[0][2] == pytest.approx(0.5)
    assert bins[-1][2] == pytest.approx(0.5)  # 1.0 lands in the last bin
    with pytest.raises(ValueError, match="no values"):
        histogram([], 5)
    with pytest.raises(ValueError, match="bins"):
        histogram([0.5], 0)


def test_sweep_sigma_one_is_exact():
    cells = [(LfrParams(n=200, avg_k=10, gamma=2.0, beta_exp=2.0, mu=0.4), 1.0)]
    _, summaries = run_sweep(cells, trials=3, rng_seed=1)
    assert summaries[0].q_mean == 1.0
    assert summaries[0].q_std == 0.0


def test_sweep_requires_trials():
    with pytest.raises(ValueError, match="trials"):
        run_sweep([], trials=0, rng_seed=0)


def _all_but_seconds(records):
    # a failed run's Q (and any run's mixing but a sweep trial's) is nan, which
    # equals nothing, so compare it as text
    return [
        (r.params, r.sigma, r.trial_index, repr(r.q), r.uncovered, repr(r.failure), repr(r.mixing), r.attempts)
        for r in records
    ]


def test_seed_resamples_requires_runs():
    with pytest.raises(ValueError, match="^runs must be >= 1$"):
        seed_resamples(_planted([0, 0, 1, 1]), 0.5, runs=0, rng_seed=0)


def test_sweep_deterministic_across_workers():
    # the first and last cells share their params, and so each trial's graph
    cells = [
        (LfrParams(n=250, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.2), 0.15),
        (LfrParams(n=250, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.5), 0.15),
        (LfrParams(n=250, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.2), 0.3),
    ]
    r1, s1 = run_sweep(cells, trials=4, rng_seed=13, jobs=1)
    r2, s2 = run_sweep(cells, trials=4, rng_seed=13, jobs=2)
    assert [t.q for t in r1] == [t.q for t in r2]
    assert _all_but_seconds(r1) == _all_but_seconds(r2)  # failure and uncovered included
    assert [c.q_mean for c in s1] == [c.q_mean for c in s2]
    assert [(t.sigma, t.trial_index) for t in r1] == [(c[1], t) for c in cells for t in range(4)]


def test_sigma_cells_of_the_same_params_share_each_trial_graph():
    params = LfrParams(n=200, avg_k=10, gamma=2.0, beta_exp=2.0, mu=0.3)
    alone, _ = run_sweep([(params, 0.1)], trials=3, rng_seed=4)
    both, _ = run_sweep([(params, 0.1), (params, 0.2)], trials=3, rng_seed=4)
    # adding a sigma leaves the first cell's records as they were
    assert _all_but_seconds(both[:3]) == _all_but_seconds(alone)
    # the second cell runs trial t on the first cell's trial-t graph: its
    # generator seed, realized mixing and attempts, with seeds of its own
    first, second = both[:3], both[3:]
    assert [(r.params, r.mixing, r.attempts) for r in second] == [(r.params, r.mixing, r.attempts) for r in first]
    assert len({r.params.rng_seed for r in first}) == 3  # one graph per trial
    assert all(r.ok and r.sigma == 0.2 for r in second)


def _split_graph():
    # two 3-node components, each holding nodes of both communities: two
    # seeds in one component leave the other unreachable
    g = load_edge_list(io.StringIO("a b\nb c\nd e\ne f\n"))
    return PlantedGraph(graph=g, membership=np.array([0, 0, 1, 0, 1, 1], dtype=np.int64), sizes=[3, 3])


def test_seed_resamples_deterministic_across_workers():
    r1 = seed_resamples(_split_graph(), 0.3, runs=8, rng_seed=0, jobs=1)
    r2 = seed_resamples(_split_graph(), 0.3, runs=8, rng_seed=0, jobs=2)
    assert _all_but_seconds(r1) == _all_but_seconds(r2)
    assert [r.trial_index for r in r1] == list(range(8))
    assert sum(r.ok for r in r1) == 4
    assert all(isinstance(r.failure, ReachabilityError) for r in r1 if not r.ok)
    assert seed_resample_qualities(_split_graph(), 0.3, runs=8, rng_seed=0) == [r.q for r in r1 if r.ok]


def test_uncovered_community_is_recorded_and_scored_as_wrong():
    # one seed on a connected path: the other community has no seed, so its
    # affinity column is zero and none of its nodes is assigned to it
    for r in seed_resamples(_planted([0, 0, 1, 1]), 0.25, runs=4, rng_seed=0):
        assert r.ok and r.params is None
        assert r.uncovered == 1
        assert r.q == 0.5


def test_trial_records_generation_failure(monkeypatch):
    bad = LfrParams(n=500, avg_k=200, gamma=2.0, beta_exp=2.0, mu=0.2)
    [result] = run_trial(bad, [(0, 0.1)], 0, master_seed=0)
    assert not result.ok
    assert isinstance(result.failure, GenerationError)
    assert np.isnan(result.q)
    # a cell with no successful trial has no realized mixing or attempts to average
    _, [summary] = run_sweep([(bad, 0.1)], trials=2, rng_seed=0)
    assert summary.failures == 2
    assert summary.mixing_mean is None and summary.attempts_mean is None
    # a graph that two sigma cells share fails once per trial, and that failure
    # is recorded in both cells
    calls = []
    monkeypatch.setattr(bench, "generate", lambda params: calls.append(params) or generate(params))
    records, summaries = run_sweep([(bad, 0.1), (bad, 0.2)], trials=2, rng_seed=0)
    assert len(calls) == 2
    assert [s.failures for s in summaries] == [2, 2]
    assert all(isinstance(r.failure, GenerationError) and np.isnan(r.q) for r in records)
    assert [r.params for r in records[2:]] == [r.params for r in records[:2]] == calls


def test_seed_resample_deterministic_and_binnable():
    pg = generate(LfrParams(n=250, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.0, rng_seed=2))
    qs1 = seed_resample_qualities(pg, 0.2, runs=5, rng_seed=3)
    qs2 = seed_resample_qualities(pg, 0.2, runs=5, rng_seed=3)
    assert qs1 == qs2
    # mu=0 with full coverage detects perfectly: the histogram is one bin
    bins = histogram(qs1, 10)
    assert sum(1 for _, _, f in bins if f > 0) == 1


def test_results_csv_columns():
    cells = [(LfrParams(n=200, avg_k=10, gamma=2.0, beta_exp=2.0, mu=0.1), 0.2)]
    _, summaries = run_sweep(cells, trials=2, rng_seed=5)
    buf = io.StringIO()
    write_results_csv(summaries, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N,avg_k,gamma,beta_exp,mu,sigma,trials,q_mean,q_std,q_min,q_max"
    fields = lines[1].split(",")
    assert fields[0] == "200"
    assert fields[6] == "2"


def test_histogram_csv_format():
    buf = io.StringIO()
    write_histogram_csv(histogram([0.25, 0.75], 2), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "bin_lo,bin_hi,freq"
    assert lines[1] == "0,0.5,0.500000"
    assert lines[2] == "0.5,1,0.500000"


def test_seed_choice_spreads_quality():
    # same graph, different seed draws: detection quality genuinely varies
    pg = generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.2, rng_seed=14))
    qs = seed_resample_qualities(pg, 0.1, runs=15, rng_seed=15)
    assert len(set(qs)) > 1
    assert float(np.std(qs)) > 0.0


FAILURES = st.sampled_from([GenerationError("no wiring"), ParseError("bad line"), ReachabilityError([0], ["a"])])
SUCCESS = st.builds(
    TrialResult, st.none(), st.just(0.1), st.integers(0, 99), st.floats(0, 1), st.floats(0, 10), st.integers(0, 2),
    mixing=st.floats(0, 1), attempts=st.integers(1, 30),
)
FAILURE = st.builds(
    TrialResult, st.none(), st.just(0.1), st.integers(0, 99), st.just(float("nan")), st.floats(0, 10),
    st.integers(0, 2), FAILURES,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(SUCCESS, FAILURE), min_size=1, max_size=12))
def test_summary_counts_every_run_once(records):
    s = summarize(None, 0.1, records)
    good = [r for r in records if r.ok]
    assert s.trials == len(good) and s.trials + s.failures == len(records)
    assert s.failure_causes == Counter(type(r.failure).__name__ for r in records if not r.ok)
    assert s.uncovered == sum(r.uncovered > 0 for r in records)
    assert s.seconds_mean == pytest.approx(math.fsum(r.seconds for r in records) / len(records))
    # Q covers the successful runs only: a failed run's Q is NaN
    if good:
        qs = [r.q for r in good]
        assert (s.q_min, s.q_max) == (min(qs), max(qs))
        assert s.q_mean == pytest.approx(math.fsum(qs) / len(qs))
        assert s.q_std == pytest.approx(float(np.std(qs)))
    else:
        assert all(math.isnan(x) for x in (s.q_mean, s.q_std, s.q_min, s.q_max))
    assert (s.mixing_mean is None) == (s.attempts_mean is None) == (not good)
