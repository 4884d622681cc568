import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seedwalk import GenerationError, LfrParams, ParseError, generate, lfr, mixing_fraction, sample_seeds
from seedwalk.graph import LINES_PER_WRITE, Graph, load_edge_list, write_edge_list
from seedwalk.lfr import PlantedGraph, internal_degree, load_planted, sample_power_law, write_truth

from conftest import labelled_edges, random_connected_graph


def test_power_law_degenerate_support():
    rng = np.random.default_rng(0)
    draws = sample_power_law(2.0, 5, 5, 1000, rng)
    assert (draws == 5).all()


def test_power_law_two_point_pmf():
    # p(1) = 1 / (1 + 1/4) = 4/5, p(2) = 1/5
    rng = np.random.default_rng(1)
    n = 100_000
    draws = sample_power_law(2.0, 1, 2, n, rng)
    p1 = (draws == 1).mean()
    sigma = np.sqrt(0.8 * 0.2 / n)
    assert abs(p1 - 0.8) <= 3 * sigma


def test_power_law_truncated_mean():
    # analytic mean by direct summation of the truncated pmf
    exponent, lo, hi = 3.0, 10, 50
    xs = list(range(lo, hi + 1))
    weights = [x ** -exponent for x in xs]
    total = sum(weights)
    mean = sum(x * w for x, w in zip(xs, weights)) / total
    var = sum((x - mean) ** 2 * w for x, w in zip(xs, weights)) / total
    rng = np.random.default_rng(2)
    n = 100_000
    draws = sample_power_law(exponent, lo, hi, n, rng)
    assert abs(draws.mean() - mean) <= 3 * np.sqrt(var / n)


def test_power_law_invalid_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exponent"):
        sample_power_law(1.0, 1, 5, 10, rng)
    with pytest.raises(ValueError, match="support"):
        sample_power_law(2.0, 6, 5, 10, rng)


def _truncated_mean(exponent, lo, hi):
    """Mean of the truncated discrete power law on [lo, hi], by direct summation."""
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    w = xs ** -exponent
    return float((xs * w).sum() / w.sum())


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 80.0), st.floats(1.1, 4.0), st.integers(1, 120))
# the N=1000 default: 9 is closest (mean 19.43), but a walk up from
# ceil(avg_k / 2) = 10 (mean 20.88) never looks below its start
@example(20.0, 2.0, 60)
def test_k_min_calibration_is_closest_over_the_whole_range(avg_k, gamma, k_max):
    k_min = lfr._calibrate_k_min(avg_k, gamma, k_max)
    assert 1 <= k_min <= k_max
    miss = [abs(_truncated_mean(gamma, k, k_max) - avg_k) for k in range(1, k_max + 1)]
    assert miss[k_min - 1] <= min(miss) + 1e-9


@pytest.mark.parametrize("n", [500, 1000])
def test_every_degree_draw_uses_the_reported_k_min(monkeypatch, n):
    # degree draws are the sample_power_law calls of n values; size draws
    # make n // s_min + 1
    lows = []
    draw = lfr.sample_power_law

    def spy(exponent, lo, hi, count, rng):
        if count == n:
            lows.append(lo)
        return draw(exponent, lo, hi, count, rng)

    monkeypatch.setattr(lfr, "sample_power_law", spy)
    for seed in range(100, 140):
        params = LfrParams(n=n, avg_k=20, gamma=2, beta_exp=2, mu=0.3, rng_seed=seed)
        generate(params)
        assert set(lows) == {params.resolved_bounds()[0]}, seed
        lows.clear()


def test_internal_degree_rounding():
    assert internal_degree(20, 0.0) == 20
    assert internal_degree(20, 1.0) == 0
    # 0.95 * 20 is 19 exactly; float fuzz must not push the ceiling to 20
    assert internal_degree(20, 0.05) == 19
    assert internal_degree(10, 0.3) == 7
    assert internal_degree(7, 0.5) == 4


def test_mu_zero_is_purely_intra():
    pg = generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.0, rng_seed=3))
    assert mixing_fraction(pg) == 0.0


def test_mu_one_nearly_no_intra():
    pg = generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=1.0, rng_seed=4))
    g = pg.graph
    intra_edges = (pg.membership[g.sources()] == pg.membership[g.targets]).sum() // 2
    assert intra_edges <= 0.01 * g.m


def test_paper_setting_shape():
    pg = generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.05, rng_seed=5))
    g = pg.graph
    g.validate()
    assert 19 <= 2 * g.m / g.n <= 21
    assert 5 <= pg.n_communities <= 40
    assert sum(pg.sizes) == 500
    assert (pg.membership >= 0).all()
    assert np.bincount(pg.membership).tolist() == pg.sizes


@pytest.mark.parametrize("mu", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_realized_mixing_tracks_mu(mu):
    pg = generate(LfrParams(n=600, avg_k=20, gamma=2.0, beta_exp=2.0, mu=mu, rng_seed=6))
    assert abs(mixing_fraction(pg) - mu) <= 0.05


def test_generation_deterministic():
    params = LfrParams(n=400, avg_k=15, gamma=2.0, beta_exp=2.0, mu=0.25, rng_seed=7)
    a, b = generate(params), generate(params)
    assert np.array_equal(a.graph.offsets, b.graph.offsets)
    assert np.array_equal(a.graph.targets, b.graph.targets)
    assert np.array_equal(a.membership, b.membership)
    assert a.sizes == b.sizes


def test_degree_exponent_recoverable():
    # loose distributional check: grid-search MLE over the truncated pmf
    params = LfrParams(n=5000, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.5, rng_seed=8)
    pg = generate(params)
    deg = pg.graph.degrees()
    k_min, k_max = int(deg.min()), int(deg.max())
    xs = np.arange(k_min, k_max + 1, dtype=float)
    best, best_ll = None, -np.inf
    for alpha in np.arange(1.2, 4.01, 0.02):
        w = xs ** -alpha
        ll = -alpha * np.log(deg).sum() - deg.size * np.log(w.sum())
        if ll > best_ll:
            best, best_ll = alpha, ll
    assert abs(best - 2.0) <= 0.3


@pytest.mark.filterwarnings("error")
def test_infeasible_parameters_rejected():
    with pytest.raises(GenerationError, match="k_max"):
        generate(LfrParams(n=100, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.1, k_max=150))
    with pytest.raises(GenerationError, match="avg_k"):
        generate(LfrParams(n=500, avg_k=200, gamma=2.0, beta_exp=2.0, mu=0.1))
    with pytest.raises(GenerationError, match="mu"):
        generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=1.5))
    with pytest.raises(GenerationError):
        generate(LfrParams(n=8, avg_k=2, gamma=2.0, beta_exp=2.0, mu=0.1, s_min=10))
    with pytest.raises(GenerationError, match="s_max"):
        generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.2, s_max=10**12))
    # k_max 0 with k_min unset: no k_min calibration on the empty support
    with pytest.raises(GenerationError, match="k_max"):
        generate(LfrParams(n=10, avg_k=1, gamma=2.0, beta_exp=2.0, mu=0.0, k_max=0))
    # every degree is 1, so an odd n has an odd degree sum; evening it out
    # used to give node 0 degree 2 > k_max
    for seed in range(5):
        with pytest.raises(GenerationError, match="odd n=11"):
            generate(LfrParams(n=11, avg_k=1, gamma=2, beta_exp=2, mu=0.5, k_min=1, k_max=1, s_min=2, s_max=11,
                               rng_seed=seed))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["gamma", "beta_exp"])
def test_exponents_whose_weights_underflow(field):
    # x^-500 underflows to 0 beyond x = 4, so each law's mass sits on its
    # lowest value: k_min resolves to avg_k and every size is s_min
    assert (sample_power_law(500.0, 10, 50, 1000, np.random.default_rng(3)) == 10).all()
    params = replace(LfrParams(n=100, avg_k=5, gamma=2.0, beta_exp=2.0, mu=0.1), **{field: 500.0})
    pg = generate(params)
    if field == "gamma":
        assert params.resolved_bounds()[0] == 5
    else:
        assert pg.sizes == [10] * 10


def test_unhostable_internal_degrees_fail_without_a_size_draw(monkeypatch):
    # every node has internal degree >= 1 and no community exceeds 1 node
    calls = []
    monkeypatch.setattr(lfr, "_draw_sizes", lambda *args: calls.append(args))
    with pytest.raises(GenerationError, match="no community size draw"):
        generate(LfrParams(n=24, avg_k=1, gamma=2.0, beta_exp=2.0, mu=0.0, s_min=1, s_max=1))
    assert calls == []


def test_size_bounds_that_cannot_tile_n_fail_without_a_size_draw(monkeypatch):
    # four sizes of 5 make 20 nodes and five make 25: none makes 24
    calls = []
    monkeypatch.setattr(lfr, "_draw_sizes", lambda *args: calls.append(args))
    with pytest.raises(GenerationError, match="sums to n=24"):
        generate(LfrParams(n=24, avg_k=2, gamma=2.0, beta_exp=2.0, mu=0.1, s_min=5, s_max=5))
    assert calls == []


def _sizes_one_at_a_time(draws, n, s_min, s_max):
    """Reference rule: take draws until their sum reaches n; trim the last
    size, or drop it and add one node per pass to each size below s_max."""
    sizes = []
    for s in draws.tolist():
        if sum(sizes) >= n:
            break
        sizes.append(s)
    excess = sum(sizes) - n
    if sizes[-1] - excess >= s_min:
        sizes[-1] -= excess
        return sizes
    sizes.pop()
    deficit = n - sum(sizes)
    while deficit:
        room = [i for i, s in enumerate(sizes) if s < s_max][:deficit]
        if not room:
            return None
        for i in room:
            sizes[i] += 1
        deficit -= len(room)
    return sizes


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.data(), st.floats(1.1, 4.0), st.integers(0, 2**32 - 1))
def test_size_draw_tiles_n_or_lacks_room(n, data, beta_exp, seed):
    s_min = data.draw(st.integers(1, n))
    s_max = data.draw(st.integers(s_min, n))
    sizes = lfr._draw_sizes(n, beta_exp, s_min, s_max, np.random.default_rng(seed))
    draws = sample_power_law(beta_exp, s_min, s_max, n // s_min + 1, np.random.default_rng(seed))
    assert sizes == _sizes_one_at_a_time(draws, n, s_min, s_max)
    if sizes is not None:
        assert sum(sizes) == n
        assert all(s_min <= s <= s_max for s in sizes)
        return
    # the sizes kept before the one that reaches n have less room below
    # s_max than the deficit
    kept = draws[: int(np.argmax(np.cumsum(draws) >= n))]
    assert int((s_max - kept).sum()) < n - int(kept.sum())


def _assert_placed(member, sizes, d_int):
    assert (np.bincount(member, minlength=len(sizes)) == sizes).all()
    assert (d_int < np.asarray(sizes)[member]).all()


def test_placement_never_fails_on_a_generated_input(monkeypatch):
    # the first placement input of this generate call is one that a
    # place-and-evict loop often gave up on
    inputs = []
    place = lfr._assign_membership

    def spy(sizes, d_int, rng):
        inputs.append((list(sizes), d_int.copy()))
        return place(sizes, d_int, rng)

    monkeypatch.setattr(lfr, "_assign_membership", spy)
    generate(LfrParams(n=500, avg_k=20, gamma=2, beta_exp=2, mu=0.1, rng_seed=1))
    sizes, d_int = inputs[0]
    for seed in range(50):
        _assert_placed(place(sizes, d_int, np.random.default_rng(seed)), sizes, d_int)


def _fits_every_threshold(sizes, d_int) -> bool:
    """For every t, the nodes of internal degree >= t fit into the
    communities larger than t."""
    return all((d_int >= t).sum() <= sum(s for s in sizes if s > t) for t in range(max(sizes) + 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=8), st.booleans(), st.data())
def test_placement_fills_feasible_sizes(sizes, witness, data):
    # a witness placement, each slot holding a degree below its community's
    # size, makes the sizes feasible by construction; free degrees up to the
    # largest size are often infeasible
    n = sum(sizes)
    if witness:
        d_int = np.array([data.draw(st.integers(0, s - 1)) for s in sizes for _ in range(s)])
    else:
        d_int = np.array(data.draw(st.lists(st.integers(0, max(sizes)), min_size=n, max_size=n)))
    feasible = lfr._sizes_feasible(sizes, d_int)
    assert feasible == _fits_every_threshold(sizes, d_int)
    assert feasible or not witness
    if feasible:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        _assert_placed(lfr._assign_membership(sizes, d_int, rng), sizes, d_int)


def test_wiring_rarely_retries_at_mu_zero(monkeypatch):
    # the paper's N=500 setting: at mu=0 dense small communities make wirings drop most
    calls = []
    wire = lfr._wire

    def spy(*args):
        calls.append(1)
        return wire(*args)

    monkeypatch.setattr(lfr, "_wire", spy)
    graphs = [generate(LfrParams(n=500, avg_k=20, gamma=2, beta_exp=2, mu=0.0, rng_seed=s)) for s in range(100, 140)]
    assert sum(pg.attempts for pg in graphs) == len(calls)
    assert len(calls) / len(graphs) <= 1.5


@st.composite
def _stub_pools(draw):
    """Stubs over n nodes, each node in one group (every group holds an even
    number of stubs once an odd group sheds one), and an optional community
    per node. Degrees up to 8 on at most 16 nodes make many pools too dense
    for the passes alone, so the swap rounds run."""
    n = draw(st.integers(1, 16))
    group_of = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    stubs = np.repeat(np.arange(n), draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
    groups = group_of[stubs]
    for g in np.flatnonzero(np.bincount(groups, minlength=3) % 2):
        drop = np.flatnonzero(groups == g)[-1]
        stubs, groups = np.delete(stubs, drop), np.delete(groups, drop)
    member = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n).map(np.array))
    return n, stubs, groups, group_of, member


@settings(max_examples=200, deadline=None)
@given(_stub_pools(), st.integers(0, 2**32 - 1))
def test_matcher_places_simple_edges_and_keeps_every_stub(pool, seed):
    n, stubs, groups, group_of, member = pool
    placed, leftover = lfr._match(stubs, groups, n, np.random.default_rng(seed), member)
    assert placed.shape[1] == leftover.shape[1] == 2
    assert np.array_equal(np.sort(np.concatenate([placed.ravel(), leftover.ravel()])), np.sort(stubs))
    u, w = placed.T
    assert (group_of[u] == group_of[w]).all()
    assert (u != w).all()
    keys = np.minimum(u, w) * n + np.maximum(u, w)
    assert np.unique(keys).size == keys.size
    if member is not None:
        assert (member[u] != member[w]).all()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_wire_accounts_for_every_stub(data, mu, seed):
    # every stub of an even degree sum ends in an edge or a drop: an odd
    # external pool would leave _match pairing arrays of unequal length
    n = data.draw(st.integers(2, 24))
    member = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    degrees = np.array(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)))
    degrees[0] += degrees.sum() % 2
    edges, dropped = lfr._wire(member, degrees, internal_degree(degrees, mu), mu, np.random.default_rng(seed))
    assert 2 * len(edges) + 2 * dropped == degrees.sum()
    u, w = edges.T
    assert (u != w).all()
    keys = np.minimum(u, w) * n + np.maximum(u, w)
    assert np.unique(keys).size == keys.size
    assert (np.bincount(edges.ravel(), minlength=n) <= degrees).all()
    if mu == 0.0:
        assert (member[u] == member[w]).all()


@pytest.mark.parametrize("field", ["avg_k", "gamma", "beta_exp"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_parameters_rejected(field, value):
    params = replace(LfrParams(n=300, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.2), **{field: value})
    with pytest.raises(GenerationError):
        params.validate()


def test_sample_seeds_all_nodes():
    pg = generate(LfrParams(n=300, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.2, rng_seed=9))
    seeds, uncovered = sample_seeds(pg, 1.0, np.random.default_rng(0))
    assert len(seeds) == 300
    assert uncovered == []
    for v, row in zip(seeds.ids, seeds.rows):
        assert row[pg.membership[v]] == 1.0
        assert row.sum() == 1.0


def test_sample_seeds_count_and_indicators():
    pg = generate(LfrParams(n=500, avg_k=20, gamma=2.0, beta_exp=2.0, mu=0.2, rng_seed=10))
    seeds, _ = sample_seeds(pg, 0.1, np.random.default_rng(1))
    assert len(seeds) == 50
    assert seeds.l == pg.n_communities
    for v, row in zip(seeds.ids, seeds.rows):
        assert row[pg.membership[v]] == 1.0


def test_sample_seeds_flags_uncovered_community():
    # hand-built planted graph with a singleton community that the sampler
    # cannot be forced to hit when it draws a single seed elsewhere
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 10)
    membership = np.zeros(10, dtype=np.int64)
    membership[9] = 1
    pg = PlantedGraph(graph=g, membership=membership, sizes=[9, 1])
    hits = []
    for seed in range(40):
        _, uncovered = sample_seeds(pg, 0.1, np.random.default_rng(seed))
        hits.append(tuple(uncovered))
    assert (1,) in hits  # some draws leave the singleton community seedless


def test_sample_seeds_ignores_empty_communities():
    # a truth file may skip a community index; no seed can cover that empty
    # community, so it must not count as missed. The draws are those of the
    # same truth without the gap.
    g = random_connected_graph(np.random.default_rng(4), 12)
    membership = np.repeat([0, 1, 2], 4)
    gapless = PlantedGraph(graph=g, membership=membership, sizes=[4, 4, 4])
    shifted = PlantedGraph(graph=g, membership=membership + (membership >= 1), sizes=[4, 0, 4, 4])
    for seed in range(20):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        (s1, u1), (s2, u2) = sample_seeds(gapless, 0.25, rngs[0]), sample_seeds(shifted, 0.25, rngs[1])
        assert np.array_equal(s1.ids, s2.ids) and rngs[0].random() == rngs[1].random()
        assert u2 == [c + (c >= 1) for c in u1]
        assert s2.l == 4 and not s2.rows[:, 1].any()


def test_sample_seeds_sigma_range():
    pg = generate(LfrParams(n=300, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.2, rng_seed=11))
    with pytest.raises(ValueError, match="sigma"):
        sample_seeds(pg, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sigma"):
        sample_seeds(pg, 1.2, np.random.default_rng(0))
    # 0.001 of 300 nodes rounds to no seed at all
    with pytest.raises(ValueError, match="^sigma too small: no seeds$"):
        sample_seeds(pg, 0.001, np.random.default_rng(0))


def test_truth_round_trip(tmp_path):
    pg = generate(LfrParams(n=300, avg_k=12, gamma=2.0, beta_exp=2.0, mu=0.3, rng_seed=12))
    edges = io.StringIO()
    write_edge_list(pg.graph, edges)
    truth = io.StringIO()
    write_truth(pg, truth)
    loaded = load_planted(io.StringIO(edges.getvalue()), io.StringIO(truth.getvalue()))
    by_label_orig = {pg.graph.labels[v]: int(pg.membership[v]) for v in range(pg.graph.n)}
    by_label_load = {loaded.graph.labels[v]: int(loaded.membership[v]) for v in range(loaded.graph.n)}
    assert by_label_orig == by_label_load
    assert sorted(loaded.sizes) == sorted(pg.sizes)


def test_edge_list_and_truth_text_match_per_line_writes():
    # 70,000 labelled nodes on a path with chords: both files span two
    # LINES_PER_WRITE blocks, each written with one call
    k = 70_000
    rng = np.random.default_rng(5)
    chords = rng.integers(0, k, size=(5_000, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    g = Graph.from_edges(k, np.vstack([np.c_[np.arange(k - 1), np.arange(1, k)], chords]),
                         [f"n{v}é" for v in rng.permutation(k)])
    pg = PlantedGraph(graph=g, membership=rng.integers(0, 300, size=k), sizes=[])
    u = g.sources()
    mask = u < g.targets
    lines = {
        "edges": [f"{g.labels[a]} {g.labels[b]}\n" for a, b in zip(u[mask], g.targets[mask])],
        "truth": [f"{g.labels[v]} {int(pg.membership[v])}\n" for v in range(k)],
    }
    assert min(map(len, lines.values())) > LINES_PER_WRITE
    for name, dump in (("edges", lambda out: write_edge_list(g, out)), ("truth", lambda out: write_truth(pg, out))):
        out = io.StringIO()
        calls = []
        out.write = lambda text, write=out.write: calls.append(write(text))
        dump(out)
        assert out.getvalue() == "".join(lines[name])
        assert len(calls) == -(-len(lines[name]) // LINES_PER_WRITE)


def test_truth_file_node_listed_twice_rejected():
    edges = io.StringIO("a b\nb c\n")
    with pytest.raises(ParseError, match="line 4: duplicate entry for node 'b'"):
        load_planted(edges, io.StringIO("a 0\nb 0\nc 1\nb 1\n"))
    # a partition of 3 nodes has at most 3 parts; 10^30 does not even fit int64
    for index in ("3", "-1", "1000000000000000000000000000000"):
        with pytest.raises(ParseError, match=f"line 2: community index {index} out of range"):
            load_planted(io.StringIO("a b\nb c\n"), io.StringIO(f"a 0\nb {index}\nc 1\n"))
    # every node of the graph must be listed
    with pytest.raises(ParseError, match=r"^1 node\(s\) missing from the ground-truth file$"):
        load_planted(io.StringIO("a b\nb c\n"), io.StringIO("a 0\nc 1\n"))


@settings(max_examples=100, deadline=None)
@given(labelled_edges(), st.data())
def test_truth_round_trip_property(case, data):
    g = load_edge_list(io.StringIO(case[1]))
    # a partition of n nodes has at most n parts, so indices stay below n
    membership = np.array(data.draw(st.lists(st.integers(0, min(3, g.n - 1)), min_size=g.n, max_size=g.n)))
    pg = PlantedGraph(graph=g, membership=membership, sizes=np.bincount(membership).tolist())
    edges, truth = io.StringIO(), io.StringIO()
    write_edge_list(g, edges)
    write_truth(pg, truth)
    loaded = load_planted(io.StringIO(edges.getvalue()), io.StringIO(truth.getvalue()))
    by_label = {g.labels[v]: int(membership[v]) for v in range(g.n)}
    assert {loaded.graph.labels[v]: int(loaded.membership[v]) for v in range(loaded.graph.n)} == by_label


def test_seed_file_round_trip_through_detection(tmp_path):
    # seed files written for a planted graph load back to identical affinities
    import numpy as np

    from seedwalk import load_seed_file, write_seed_file

    pg = generate(LfrParams(n=200, avg_k=10, gamma=2.0, beta_exp=2.0, mu=0.2, rng_seed=13))
    seeds, _ = sample_seeds(pg, 0.2, np.random.default_rng(3))
    path = tmp_path / "s.seeds"
    with open(path, "w") as fh:
        write_seed_file(seeds, pg.graph, fh)
    loaded = load_seed_file(path, pg.graph)
    assert np.array_equal(loaded.ids, seeds.ids)
    assert np.allclose(loaded.rows, seeds.rows)
