import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedwalk import Graph, ParseError, load_edge_list, write_edge_list
from seedwalk.graph import check_seed_reachability

from conftest import LABELS, labelled_edges, neighbors, random_connected_graph


def test_load_path_of_three():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.n == 3
    assert g.m == 2
    assert g.degrees().tolist() == [1, 2, 1]


def test_duplicate_edges_collapse():
    g = load_edge_list(io.StringIO("a b\nb a\n"))
    assert g.n == 2
    assert g.m == 1
    assert g.duplicates_collapsed == 1


def test_self_loop_rejected():
    with pytest.raises(ParseError, match="line 1: self-loop"):
        load_edge_list(io.StringIO("x x\n"))
    with pytest.raises(ParseError, match="line 4: self-loop"):
        load_edge_list(io.StringIO("a b\n\n# c c\nx x\n"))


def test_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list(io.StringIO("a b\nb c\na b c\n"))


def test_empty_input_rejected():
    with pytest.raises(ParseError, match="empty"):
        load_edge_list(io.StringIO("# only a comment\n\n"))


@pytest.mark.parametrize("text", ["a #b\nc #b\n", "a b # trailing comment\n"])
def test_later_field_starting_with_hash_rejected(text):
    # a comment is a whole line; "#b" as a label would not survive write_edge_list
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list(io.StringIO(text))


def test_comments_and_blank_lines_skipped():
    g = load_edge_list(io.StringIO("# header\na b\n\nb c\n"))
    assert g.n == 3
    assert g.m == 2


def test_complete_graph_degrees():
    edges = [(u, w) for u in range(4) for w in range(u + 1, 4)]
    g = Graph.from_edges(4, edges)
    assert g.degrees().tolist() == [3, 3, 3, 3]


def test_edge_endpoint_out_of_range():
    for edges in ([(0, 2)], [(-1, 1)], np.array([[0, 1], [3, 1]])):
        with pytest.raises(ValueError, match="^edge endpoint out of range$"):
            Graph.from_edges(2, edges)


@st.composite
def _edge_lists(draw):
    """(n, id pairs) with repeats in both orientations, self-loops dropped."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    return n, [(u, w) for u, w in pairs if u != w]


@settings(max_examples=200, deadline=None)
@given(_edge_lists())
def test_from_edges_matches_set_reference(case):
    # duplicates in both orientations collapse to one edge each
    n, edges = case
    g = Graph.from_edges(n, edges)
    distinct = {(min(u, w), max(u, w)) for u, w in edges}
    adj = [sorted({w for u, w in distinct if u == v} | {u for u, w in distinct if w == v}) for v in range(n)]
    assert g.offsets.tolist() == [0] + np.cumsum([len(a) for a in adj]).tolist()
    assert g.targets.tolist() == [w for a in adj for w in a]
    assert g.duplicates_collapsed == len(edges) - len(distinct)
    g.validate()


@st.composite
def _edge_texts(draw):
    """(label pairs in file order, edge-list text) with repeats, reversed
    repeats, blank lines and comment lines among the edges."""
    labels = draw(st.lists(LABELS, min_size=2, max_size=8, unique=True))
    node = st.sampled_from(labels)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=1, max_size=30))
    pairs += [p[::-1] for p in draw(st.lists(st.sampled_from(pairs), max_size=8))]
    filler = st.lists(st.sampled_from(["", " \t", "# a b", "#x"]), max_size=2)
    lines = [line for a, b in pairs for line in (*draw(filler), f"{a} {b}")]
    return pairs, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_edge_texts())
def test_load_edge_list_matches_from_edges_of_interned_pairs(case):
    # labels get ids in order of first appearance, endpoint a before b
    pairs, text = case
    ids: dict[str, int] = {}
    interned = [(ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))) for a, b in pairs]
    expected = Graph.from_edges(len(ids), interned, list(ids))
    g = load_edge_list(io.StringIO(text))
    assert g.labels == expected.labels
    assert np.array_equal(g.offsets, expected.offsets)
    assert np.array_equal(g.targets, expected.targets)
    assert g.duplicates_collapsed == expected.duplicates_collapsed


@pytest.mark.parametrize(
    "offsets, targets, message",
    [
        ([0, 1, 2, 3], [1, 0, 0], "degree sum != 2m"),
        ([0, 1, 2], [0, 1], "self-loop present"),
        ([0, 1, 2], [1, 2], "neighbor id out of range"),
        ([0, 2, 3, 4], [2, 1, 0, 0], "neighbor list not strictly increasing"),
        ([0, 2, 3, 4], [1, 2, 2, 0], "adjacency not symmetric"),
    ],
    ids=["odd-arc-count", "self-loop", "target-out-of-range", "unsorted-row", "one-way-arc"],
)
def test_validate_reports_each_corruption(offsets, targets, message):
    # each adjacency breaks exactly one invariant, and the checks before it pass
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(np.array(offsets), np.array(targets)).validate()


def test_labels_must_cover_every_node():
    with pytest.raises(ValueError, match="^1 labels for 2 nodes$"):
        Graph(np.array([0, 1, 2]), np.array([1, 0]), ["a"])


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(0, 0)])


def test_reachability_connected():
    g = load_edge_list(io.StringIO("a b\nb c\nc d\n"))
    assert check_seed_reachability(g, np.array([0])).size == 0


def test_reachability_two_components():
    g = load_edge_list(io.StringIO("a b\nc d\n"))
    unreachable = check_seed_reachability(g, np.array([g.id_of("a")]))
    assert sorted(unreachable.tolist()) == [g.id_of("c"), g.id_of("d")]


def test_reachability_isolated_node():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert check_seed_reachability(g, np.array([0])).tolist() == [3]


def test_round_trip_preserves_adjacency():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 60)
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2.n == g.n
    assert g2.m == g.m
    before = {frozenset((g.labels[u], g.labels[w])) for u in range(g.n) for w in neighbors(g, u)}
    after = {frozenset((g2.labels[u], g2.labels[w])) for u in range(g2.n) for w in neighbors(g2, u)}
    assert before == after


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_graph_invariants(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 80)
    g.validate()
    deg = g.degrees()
    assert deg.sum() == 2 * g.m
    # symmetry by direct scan
    for v in range(g.n):
        for w in neighbors(g, v):
            assert v in neighbors(g, w)


def test_seed_file_sparse_community_indices():
    from seedwalk import load_seed_file

    g = load_edge_list(io.StringIO("a b\nb c\n"))
    s = load_seed_file(io.StringIO("a 0 1\nc 2 0.5\n"), g)
    assert s.l == 3
    row = dict(zip(s.ids.tolist(), s.rows.tolist()))
    assert row[g.id_of("a")] == [1.0, 0.0, 0.0]
    assert row[g.id_of("c")] == [0.0, 0.0, 0.5]


def test_seed_file_errors():
    from seedwalk import load_seed_file

    g = load_edge_list(io.StringIO("a b\n"))
    with pytest.raises(ParseError, match="^line 1: node 'zz' not in graph$"):
        load_seed_file(io.StringIO("zz 0 1\n"), g)
    with pytest.raises(ParseError, match=r"^line 1: affinity 1.5 outside \[0, 1\]$"):
        load_seed_file(io.StringIO("a 0 1.5\n"), g)
    with pytest.raises(ParseError, match="^line 1: negative community index$"):
        load_seed_file(io.StringIO("a -1 1\n"), g)
    with pytest.raises(ParseError, match="^line 2: duplicate entry for node 'a', community 0$"):
        load_seed_file(io.StringIO("a 0 1\na 0 0.5\n"), g)
    # the first bad line wins: the duplicate on line 2, not the affinity on line 3
    with pytest.raises(ParseError, match="^line 2: duplicate entry for node 'a', community 0$"):
        load_seed_file(io.StringIO("a 0 1\na 0 0.5\nb 0 2\n"), g)
    with pytest.raises(ParseError, match="^empty seed file$"):
        load_seed_file(io.StringIO("# nothing\n"), g)
    # an index numpy cannot size the rows for was a ValueError or MemoryError
    for index in (str(10**18), str(10**30)):
        with pytest.raises(ParseError, match=f"^community index {index} is too large$"):
            load_seed_file(io.StringIO(f"a {index} 1\n"), g)


def test_seed_file_holds_little_beside_its_rows():
    # the parser scatters every line into one sigma x l array, so its peak is
    # those rows plus per-line records and SeedSet's NaN mask, never a second
    # copy of the rows
    from seedwalk import load_seed_file

    k = 3000
    g = Graph.from_edges(k, [(v, v + 1) for v in range(k - 1)])
    text = "".join(f"{v} {v} 1\n" for v in range(k))
    tracemalloc.start()
    try:
        seeds = load_seed_file(io.StringIO(text), g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seeds.rows.shape == (k, k)
    assert np.array_equal(seeds.rows, np.eye(k))
    assert peak <= 1.25 * seeds.rows.nbytes


def test_seed_set_contract():
    from seedwalk import SeedSet

    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    seeds = SeedSet(np.array([1, 4]), rows)
    assert (len(seeds), seeds.l) == (2, 2)
    assert 4 in seeds and 2 not in seeds
    assert seeds.rows is rows  # a float64 array is taken as it is, not copied
    bad = [
        ([4, 1], rows),  # unsorted
        ([1, 1], rows),  # duplicate
        ([1, 4, 5], rows),  # one row short
        ([], np.zeros((0, 2))),  # empty
        ([1, 4], np.zeros((2, 0))),  # no community
        ([1, 4], [[1.0, 0.0], [0.5, 1.5]]),  # affinity above 1
        ([1, 4], [[1.0, 0.0], [0.5, np.nan]]),
    ]
    for ids, r in bad:
        with pytest.raises(ValueError):
            SeedSet(np.array(ids, dtype=np.int64), r)


def _edge_set(g):
    return {frozenset((g.labels[u], g.labels[w])) for u in range(g.n) for w in neighbors(g, u)}


@settings(max_examples=100, deadline=None)
@given(labelled_edges())
def test_edge_list_round_trip(case):
    labels, text = case
    g = load_edge_list(io.StringIO(text))
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert set(g.labels) == set(g2.labels) == set(labels)
    assert _edge_set(g2) == _edge_set(g)


@settings(max_examples=100, deadline=None)
@given(labelled_edges(), st.data())
def test_seed_file_round_trip(case, data):
    from seedwalk import SeedSet, load_seed_file, write_seed_file

    g = load_edge_list(io.StringIO(case[1]))
    ids = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    l = data.draw(st.integers(1, 4))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = data.draw(st.lists(st.lists(value, min_size=l, max_size=l), min_size=len(ids), max_size=len(ids)))
    order = np.argsort(ids)
    seeds = SeedSet(np.array(ids)[order], np.array(rows)[order])
    buf = io.StringIO()
    write_seed_file(seeds, g, buf)
    loaded = load_seed_file(io.StringIO(buf.getvalue()), g)
    assert np.array_equal(loaded.ids, seeds.ids)
    # the file holds 9 significant digits; communities that are zero in every
    # row after the last listed one are not written
    expected = np.vectorize(lambda x: float(f"{x:.9g}"))(seeds.rows)
    assert np.array_equal(loaded.rows, expected[:, : loaded.l])
    assert not expected[:, loaded.l :].any()
