import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gspnn import graphs, recsys
from gspnn.cli import _write_metrics
from gspnn.graphs import (
    Graph,
    GraphError,
    ShiftKind,
    ShiftOperator,
    build_shift,
    random_graph,
)
from gspnn.neural import forward_batch, init_state, model_backward
from gspnn.filters import FilterError
from gspnn.recsys import (
    MODEL_FAMILIES,
    DataError,
    RatingProblem,
    RatingSamples,
    RatingsTable,
    RecSample,
    SimilarityGraph,
    build_item_shift,
    build_model_spec,
    build_similarity,
    evaluate_rmse,
    ingest_movielens,
    make_samples,
    predict,
    select_top_items,
    train_rating_model,
    transfer_rmse,
    _build_table,
    _index_map,
    _item_correlation,
)

from conftest import (
    float64_count_item_correlation,
    loop_similarity_edges,
    most_rated_items,
    per_user_samples,
    raw_id_top_items,
    write_bench_ratings,
    write_synthetic_fixture,
)

TABLE_FIELDS = ("user_ids", "item_ids", "user_idx", "item_idx", "ratings")


@pytest.fixture(scope="module")
def fixture_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "u.data"
    write_synthetic_fixture(path)
    return ingest_movielens(path)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_ingest_three_line_fixture(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("3\t10\t4\t874965758\n1\t10\t5\t0\n2\t20\t1\t0\n")
    table = ingest_movielens(path)
    assert table.n_users == 3 and table.n_items == 2 and table.n_ratings == 3
    assert table.user_ids.tolist() == [1, 2, 3]
    assert table.item_ids.tolist() == [10, 20]
    x, mask = table.rating_matrix
    assert x[2, 0] == 4.0 and x[0, 0] == 5.0 and x[1, 1] == 1.0
    assert mask.sum() == 3


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("")
    with pytest.raises(DataError, match="no ratings"):
        ingest_movielens(path)


def test_ingest_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t2\t3\t0\n1\tbogus\t3\t0\n")
    with pytest.raises(DataError, match=":2:"):
        ingest_movielens(path)


def test_ingest_rejects_duplicates_and_range(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t2\t3\t0\n1\t2\t4\t0\n")
    with pytest.raises(DataError, match="duplicate"):
        ingest_movielens(path)
    path.write_text("1\t2\t9\t0\n")
    with pytest.raises(DataError, match="out of"):
        ingest_movielens(path)


@pytest.mark.parametrize("text,message", [
    ("1\t2\t3\t0\n\n  \n\t\n1\tbogus\t3\t0\n", ":5: non-integer field"),
    ("1 2 3 0\n\n\n1 2\n", ":4: expected user item rating"),
    ("\n1 2 3 0\n5 6 4 0\n\n1 2 4 0\n1 2 5 0\n",
     ":5: duplicate rating for user 1, item 2"),
    ("1 2 3 0\n\n4 4 0 0\n1 2 4 0\n", ":3: rating 0 out of 1..5"),
    ("1 2 3 0\n\n1 2 4 0\n4 4 0 0\n", ":3: duplicate rating"),
    ("1 2 3.5 0\n", ":1: non-integer field"),
    ("1 2 3 0\n\n1 2.0 4 0\n", ":3: non-integer field"),
    ("1 2 9 0\n1 x 3 0\n", ":2: non-integer field"),
    ("1 2 3 0\n3 4 5 0\n3 4 1 0\n1 2 4 0\n3 4 2 0\n",
     ":3: duplicate rating for user 3, item 4"),
    ("\n\n1 2 3 0\n\n5 5 5 0\n \n\t\n5 5 1 0\n1 2 2 0\n",
     ":8: duplicate rating for user 5, item 5"),
    ("1 2 3 0\n1 3 7 0\n\n1 2 4 0\n1 3 4 0\n", ":2: rating 7 out of 1..5"),
    ("1 2 3 0\n\n99999999999999999999 2 3 0\n",
     ":3: field 99999999999999999999 is beyond int64"),
    ("1 2 3 0\n1 -9223372036854775809 3 0\n",
     ":2: field -9223372036854775809 is beyond int64"),
    ("1 x 3 0\n99999999999999999999 2 3 0\n", ":1: non-integer field"),
    ("1 2 3 0\n1 2_0 3 0\n", ":2: non-integer field"),
    ("1 2 3 0\n\n1 \u0663 3 0\n", ":3: non-integer field"),
    ("+1 2 3 0\n-1 2 3 0\n1 2 3 0\n", ":3: duplicate rating for user 1, item 2"),
], ids=["bad field after blanks", "short line after blanks", "duplicate",
        "range before a later duplicate", "duplicate before a later range",
        "decimal rating", "decimal item after blanks",
        "parse error before an earlier range error",
        "earliest of several duplicates", "duplicate after blank lines",
        "range error before later duplicates", "user beyond int64",
        "item below int64", "parse error before a field beyond int64",
        "digit separator", "non-ASCII digit", "signed fields"])
def test_ingest_names_the_file_line(tmp_path, text, message):
    path = tmp_path / "u.data"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(f"{path}{message}")):
        ingest_movielens(path)


def test_ingest_rejects_a_field_numpy_only_warns_about(tmp_path, monkeypatch):
    # numpy releases that still parse "3.5" as the integer 3 only warn
    def truncating_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.array([[1, 2, 3]])
    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "u.data"
    path.write_text("\n1 2 3.5 0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: non-integer field")):
        ingest_movielens(path)


def _ingest_loop_oracle(path):
    """A line-by-line parse of the `u.data` layout."""
    users, items, ratings = [], [], []
    with open(path) as fh:
        for raw in fh:
            if raw.strip():
                u, i, r = (int(tok) for tok in raw.split()[:3])
                users.append(u)
                items.append(i)
                ratings.append(r)
    users, items = np.array(users), np.array(items)
    user_ids, item_ids = np.unique(users), np.unique(items)
    return {"user_ids": user_ids, "item_ids": item_ids,
            "user_idx": np.searchsorted(user_ids, users),
            "item_idx": np.searchsorted(item_ids, items),
            "ratings": np.array(ratings, dtype=float)}


def test_ingest_equals_the_loop_oracle(tmp_path):
    path = tmp_path / "u.data"
    write_synthetic_fixture(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("\n \n".join(lines))
    got = ingest_movielens(path)
    for name, want in _ingest_loop_oracle(path).items():
        a = getattr(got, name)
        assert a.dtype == want.dtype and np.array_equal(a, want), name
    assert got.n_ratings == len(lines)


INT64 = np.iinfo(np.int64)


def _move_extremes(ids, low, high):
    return np.where(ids == ids.max(), high, np.where(ids == ids.min(), low, ids))


# each case rewrites the user and the item ids of the synthetic fixture,
# a function of (ids, row count); and whether they still map with no sort
ID_CASES = {
    "offset +2**62": (lambda ids, rows: ids + 2 ** 62, True),
    "offset -2**62": (lambda ids, rows: ids - 2 ** 62, True),
    "negative": (lambda ids, rows: ids - 15, True),
    "span at the rule": (lambda ids, rows: _move_extremes(
        ids, ids.min(), ids.min() + 2 * rows - 1), True),
    "span past the rule": (lambda ids, rows: _move_extremes(
        ids, ids.min(), ids.min() + 2 * rows), False),
    # the span, 2**64, overflows int64
    "int64 limits": (lambda ids, rows: _move_extremes(ids, INT64.min, INT64.max),
                     False),
}


@pytest.mark.parametrize("case", sorted(ID_CASES))
def test_ingest_equals_the_loop_oracle_on_remapped_ids(tmp_path, monkeypatch, case):
    remap, sort_free = ID_CASES[case]
    path = tmp_path / "u.data"
    write_synthetic_fixture(path)
    rows = np.loadtxt(path, dtype=np.int64)
    for col in (0, 1):
        rows[:, col] = remap(rows[:, col], len(rows))
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows.tolist()))
    want = _ingest_loop_oracle(path)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    got = ingest_movielens(path)
    for name, w in want.items():
        a = getattr(got, name)
        assert a.dtype == w.dtype and np.array_equal(a, w), name
    assert len(sorts) == (0 if sort_free else 2)


def test_ingest_sorts_no_ids_on_the_synthetic_fixture(tmp_path, monkeypatch):
    path = tmp_path / "u.data"
    write_synthetic_fixture(path)

    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    assert ingest_movielens(path).n_ratings > 0


@given(st.lists(st.integers(-3, 3) | st.integers(INT64.min, INT64.max), max_size=8))
def test_index_map_equals_unique(ids):
    ids = np.array(ids, dtype=np.int64)
    for got, want in zip(_index_map(ids), np.unique(ids, return_inverse=True)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Top-item selection
# ---------------------------------------------------------------------------

def test_select_all_items_is_identity(fixture_table):
    sub = select_top_items(fixture_table, fixture_table.n_items)
    assert sub.n_ratings == fixture_table.n_ratings
    assert np.array_equal(sub.item_ids, fixture_table.item_ids)


def test_select_top_counts():
    users = np.array([1, 2, 3, 1, 2, 1])
    items = np.array([7, 7, 7, 8, 8, 9])
    ratings = np.ones(6)
    table = _build_table(users, items, ratings)
    sub = select_top_items(table, 2)
    assert sub.item_ids.tolist() == [7, 8]
    assert sub.n_ratings == 5


def test_select_tie_keeps_lower_id():
    users = np.array([1, 2, 1, 2, 1])
    items = np.array([5, 5, 9, 9, 3])
    table = _build_table(users, items, np.ones(5))
    sub = select_top_items(table, 1)  # items 5 and 9 tie at two ratings
    assert sub.item_ids.tolist() == [5]


@pytest.mark.parametrize("count", [-1, 0, True, False, 1.5, "2", None])
def test_select_top_items_rejects_a_bad_count(fixture_table, count):
    with pytest.raises(DataError, match=re.escape(
            f"count must be an integer >= 1, got {count!r}")):
        select_top_items(fixture_table, count)


def test_select_top_items_takes_a_numpy_count(fixture_table):
    assert_tables_equal(select_top_items(fixture_table, np.int64(3)),
                        raw_id_top_items(fixture_table, 3))


def assert_tables_equal(got, want):
    for name in TABLE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_samples_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a.user_id) is int and a.user_id == b.user_id
        assert type(a.target) is float and a.target == b.target
        assert a.input.dtype == b.input.dtype
        assert a.input.tobytes() == b.input.tobytes()


def check_cut_and_samples(table, count, split, seed):
    """The cut equals the raw-id oracle bit for bit, and so do the samples
    of every kept item."""
    top = select_top_items(table, count)
    assert_tables_equal(top, raw_id_top_items(table, count))
    graph = SimilarityGraph(Graph(top.n_items, ()))
    for item in top.item_ids.tolist():
        got = make_samples(top, graph, item, split=split, seed=seed)
        want = per_user_samples(top, item, split=split, seed=seed)
        for got_part, want_part in zip(got, want):
            assert_samples_equal(got_part, want_part)


def test_top_items_and_samples_equal_their_oracles_on_the_fixture(fixture_table):
    for count in range(1, fixture_table.n_items + 1):
        check_cut_and_samples(fixture_table, count, split=0.7, seed=count)


def test_top_items_and_samples_equal_their_oracles_on_the_edge_cases():
    # items 10, 30 and 50 tie at three ratings, items 20 and 40 at one; user
    # 8 rated only item 20, which the cut to three items drops and the cut
    # to four keeps over item 40, with its one rater
    rows = [(5, 30, 4), (1, 10, 2), (8, 20, 5), (2, 30, 1), (5, 10, 3),
            (2, 10, 5), (1, 30, 3), (9, 40, 2), (3, 50, 1), (1, 50, 4),
            (9, 50, 5)]
    users, items, ratings = map(np.array, zip(*rows))
    table = _build_table(users, items, ratings)
    top = select_top_items(table, 3)
    counts = np.bincount(top.item_idx)
    assert top.item_ids.tolist() == [10, 30, 50] and counts.tolist() == [3, 3, 3]
    assert 8 not in top.user_ids.tolist() and top.n_users == table.n_users - 1
    assert np.bincount(table.item_idx).tolist() == [3, 1, 3, 1, 3]
    check_cut_and_samples(table, 3, split=0.5, seed=1)
    check_cut_and_samples(table, 4, split=1.0, seed=2)  # keeps item 20 too


@st.composite
def rating_tables(draw):
    """Small tables with few users, items and ratings per item, so counts
    tie, a cut leaves users with no rating and items have one rater."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 8)),
                          min_size=1, max_size=30, unique=True))
    ratings = draw(st.lists(st.integers(1, 5), min_size=len(pairs),
                            max_size=len(pairs)))
    users, items = map(np.array, zip(*pairs))
    return _build_table(users * 7, items * 11, np.array(ratings))


@given(rating_tables(), st.data())
def test_top_items_and_samples_equal_their_oracles(table, data):
    count = data.draw(st.integers(1, table.n_items), label="count")
    split = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="split")
    check_cut_and_samples(table, count, split, seed=data.draw(
        st.integers(0, 3), label="seed"))


def test_a_table_keeps_no_writeable_array(fixture_table):
    x, mask = fixture_table.rating_matrix
    assert fixture_table.rating_matrix[0] is x
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    train_set, test_set = make_samples(fixture_table, sim, target, seed=3)
    arrays = [getattr(fixture_table, name) for name in TABLE_FIELDS]
    arrays += [x, mask, train_set[0].input, test_set[-1].input]
    arrays += [getattr(block, name) for block in (train_set, test_set)
               for name in ("inputs", "targets", "user_ids")]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_a_table_copies_the_arrays_it_is_given():
    fields = [np.array([3, 4]), np.array([7]), np.array([0, 1]),
              np.array([0, 0]), np.array([2.0, 5.0])]
    table = RatingsTable(*fields)
    for arr in fields:
        arr[...] = 0
    assert table.user_ids.tolist() == [3, 4] and table.ratings.tolist() == [2.0, 5.0]
    view = np.arange(4)[::2]
    view.flags.writeable = False
    assert RatingsTable(view, *fields[1:]).user_ids.base is None


def test_a_table_copies_a_read_only_array_it_is_given():
    # a caller that hands over frozen arrays and thaws one again must not
    # reach the table through it
    fields = [np.array([3, 4]), np.array([7]), np.array([0, 1]),
              np.array([0, 0]), np.array([2.0, 5.0])]
    for arr in fields:
        arr.flags.writeable = False
    table = RatingsTable(*fields)
    fields[4].flags.writeable = True
    fields[4][0] = 9.0
    assert table.ratings.tolist() == [2.0, 5.0]
    assert not any(np.shares_memory(getattr(table, name), arr)
                   for name, arr in zip(TABLE_FIELDS, fields))


def test_a_sample_block_copies_the_arrays_it_is_given():
    arrays = [np.arange(6.0).reshape(2, 3), np.array([4.0, 5.0]), np.array([7, 8])]
    arrays[0].flags.writeable = False
    block = RatingSamples(*arrays)
    for arr in arrays:
        arr.flags.writeable = True
        arr[...] = 0
    assert block.inputs.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert block.targets.tolist() == [4.0, 5.0] and block.user_ids.tolist() == [7, 8]
    for arr in (block.inputs, block.targets, block.user_ids):
        assert not arr.flags.writeable
    assert [(smp.user_id, smp.target) for smp in block] == [(7, 4.0), (8, 5.0)]


def test_ingested_and_cut_tables_hold_read_only_arrays_they_own(fixture_table):
    for table in (fixture_table, select_top_items(fixture_table, 5)):
        for name in TABLE_FIELDS:
            arr = getattr(table, name)
            assert arr.flags.owndata and not arr.flags.writeable, name


# ---------------------------------------------------------------------------
# Similarity graph
# ---------------------------------------------------------------------------

def test_identical_ratings_give_correlation_one():
    users = np.tile(np.arange(1, 6), 2)
    items = np.repeat([1, 2], 5)
    ratings = np.array([1, 2, 3, 4, 5, 1, 2, 3, 4, 5], dtype=float)
    table = _build_table(users, items, ratings)
    sim = build_similarity(table)
    assert len(sim.graph.edges) == 1
    i, j, w = sim.graph.edges[0]
    assert w == pytest.approx(1.0)


def test_anticorrelated_items_get_no_edge():
    users = np.tile(np.arange(1, 6), 2)
    items = np.repeat([1, 2], 5)
    ratings = np.array([1, 2, 3, 4, 5, 5, 4, 3, 2, 1], dtype=float)
    table = _build_table(users, items, ratings)
    sim = build_similarity(table)
    assert len(sim.graph.edges) == 0
    # the shift is built lazily: only asking for it raises, every time
    for _ in range(2):
        with pytest.raises(GraphError, match="no edges"):
            build_item_shift(sim)


def test_pearson_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    n_users, n_items = 15, 5
    rows = []
    for u in range(1, n_users + 1):
        for i in range(1, n_items + 1):
            if rng.random() < 0.3:
                continue
            rows.append((u, i, int(rng.integers(1, 6))))
    users, items, ratings = map(np.array, zip(*rows))
    table = _build_table(users, items, ratings.astype(float))
    x, mask = table.rating_matrix

    # definitional oracle: own-item means, sums over co-rating users
    def pearson(a, b):
        co = mask[:, a] & mask[:, b]
        if co.sum() < 2:
            return 0.0
        mu_a = x[mask[:, a], a].mean()
        mu_b = x[mask[:, b], b].mean()
        da = x[co, a] - mu_a
        db = x[co, b] - mu_b
        denom = np.sqrt((da * da).sum() * (db * db).sum())
        if denom == 0.0:
            return 0.0
        return float((da * db).sum() / denom)

    sim = build_similarity(table)
    weights = {(i, j): w for i, j, w in sim.graph.edges}
    for a in range(n_items):
        for b in range(a + 1, n_items):
            rho = pearson(a, b)
            if (a, b) in weights:
                assert weights[(a, b)] == pytest.approx(rho, abs=1e-12)
            else:
                assert rho <= 0.0 or _dropped_by_topk(sim, a, b)


def _dropped_by_topk(sim, a, b):
    # with 5 items and top-10, nothing is dropped by the top-k rule
    return False


def test_top_k_sparsification_cap(monkeypatch):
    rng = np.random.default_rng(4)
    n_users, n_items = 60, 15
    rows = []
    for u in range(1, n_users + 1):
        for i in range(1, n_items + 1):
            rows.append((u, i, int(rng.integers(1, 6))))
    users, items, ratings = map(np.array, zip(*rows))
    table = _build_table(users, items, ratings.astype(float))
    monkeypatch.setattr(recsys, "TOP_EDGES_PER_NODE", 3)
    sim = build_similarity(table)
    per_node = np.zeros(n_items, dtype=int)
    adjacency = {i: set() for i in range(n_items)}
    for i, j, _ in sim.graph.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    # union symmetrization can exceed k, but the pre-union pick was capped:
    # every node has at most k + (edges chosen by others) <= n-1 neighbors,
    # and at least one node must sit at exactly <= k chosen edges
    assert all(len(v) <= n_items - 1 for v in adjacency.values())
    assert len(sim.graph.edges) <= n_items * 3  # union of <=3 picks per node


def test_similarity_deterministic(fixture_table):
    a = build_similarity(fixture_table)
    b = build_similarity(fixture_table)
    assert a.graph.edges == b.graph.edges


def _coarse_ratings_table(seed):
    """25 items rated 1, 3 or 5 by 4 + seed users, a fifth of the pairs
    unrated: few users and few rating values give many exactly equal
    correlations."""
    rng = np.random.default_rng(seed)
    users, items = np.nonzero(rng.random((4 + seed, 25)) >= 0.2)
    ratings = rng.choice([1.0, 3.0, 5.0], size=users.size)
    return _build_table(users + 1, items + 1, ratings)


@pytest.mark.parametrize("top_edges", [0, 1, 2, 3, 10, 40])
@pytest.mark.parametrize("seed", range(4))
def test_similarity_edges_equal_the_per_node_sort_oracle(seed, top_edges,
                                                         monkeypatch):
    table = _coarse_ratings_table(seed)
    corr = _item_correlation(table)
    want = loop_similarity_edges(corr, top_edges)
    monkeypatch.setattr(recsys, "TOP_EDGES_PER_NODE", top_edges)
    got = build_similarity(table).graph.edges
    assert got == want
    assert [tuple(map(type, e)) for e in got] == [(int, int, float)] * len(want)


def test_similarity_ties_keep_the_lower_node_index(monkeypatch):
    # items 2, 3 and 4 carry item 1's ratings, so item 1 ties three ways
    users = np.tile(np.arange(1, 6), 4)
    items = np.repeat([1, 2, 3, 4], 5)
    ratings = np.tile([1.0, 2.0, 4.0, 3.0, 5.0], 4)
    table = _build_table(users, items, ratings)
    corr = _item_correlation(table)
    assert corr[0, 1] == corr[0, 2] == corr[0, 3] > 0.0
    monkeypatch.setattr(recsys, "TOP_EDGES_PER_NODE", 1)
    sim = build_similarity(table)
    assert sim.graph.edges == loop_similarity_edges(corr, 1)
    assert [(i, j) for i, j, _ in sim.graph.edges] == [(0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("source", ["bench seed 17", *range(4)])
def test_item_correlation_equals_the_float64_count_oracle_bitwise(tmp_path,
                                                                  source):
    # the co-rater counts come from a float32 product of the mask; they are
    # whole numbers below 2**24, so only the (co_counts < 2) test reads them
    if source == "bench seed 17":
        write_bench_ratings(tmp_path / "u.data")
        table = select_top_items(ingest_movielens(tmp_path / "u.data"), 200)
    else:
        table = _coarse_ratings_table(source)
    got = _item_correlation(table)
    assert got.tobytes() == float64_count_item_correlation(table).tobytes()
    assert np.count_nonzero(got) > 0


def test_similarity_ties_occur_in_the_oracle_tables():
    ties = 0
    for seed in range(4):
        for row in _item_correlation(_coarse_ratings_table(seed)):
            positive = row[row > 0.0]
            ties += positive.size - np.unique(positive).size
    assert ties > 50


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

def test_user_who_rated_only_target(tmp_path):
    path = tmp_path / "u.data"
    # user 9 rated only the target item 1; others rate both items
    path.write_text("9\t1\t4\t0\n1\t1\t5\t0\n1\t2\t3\t0\n2\t1\t2\t0\n2\t2\t4\t0\n"
                    "3\t1\t3\t0\n3\t2\t5\t0\n")
    table = ingest_movielens(path)
    sim = build_similarity(table)
    train_set, test_set = make_samples(table, sim, target_item=1, split=1.0,
                                       seed=0)
    assert len(test_set) == 0
    sample = next(s for s in train_set if s.user_id == 9)
    assert np.all(sample.input == 0.0)
    assert sample.target == 4.0


def test_samples_mask_target_entry(fixture_table):
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    node = fixture_table.item_node(target)
    train_set, test_set = make_samples(fixture_table, sim, target, seed=5)
    for sample in list(train_set) + list(test_set):
        assert sample.input[node] == 0.0


def test_split_deterministic(fixture_table):
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    a = make_samples(fixture_table, sim, target, seed=42)
    b = make_samples(fixture_table, sim, target, seed=42)
    assert [s.user_id for s in a[0]] == [s.user_id for s in b[0]]
    assert [s.user_id for s in a[1]] == [s.user_id for s in b[1]]


def test_unknown_target_item(fixture_table):
    sim = build_similarity(fixture_table)
    with pytest.raises(DataError, match="unknown item"):
        make_samples(fixture_table, sim, target_item=99999)


@pytest.mark.parametrize("split", [True, "0.5", None, -0.1, 1.5, float("nan")])
def test_make_samples_rejects_a_split_that_is_not_a_fraction(fixture_table, split):
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    with pytest.raises(DataError, match="split"):
        make_samples(fixture_table, sim, target, split=split)


def test_make_samples_takes_an_integer_or_numpy_split(fixture_table):
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    raters = int(np.count_nonzero(fixture_table.rating_matrix[1][
        :, fixture_table.item_node(target)]))
    for split, n_train in ((1, raters), (0, 0), (np.float32(0.5), raters // 2)):
        train_set, test_set = make_samples(fixture_table, sim, target, split=split)
        assert (len(train_set), len(test_set)) == (n_train, raters - n_train)


def test_the_train_and_eval_path_builds_no_per_user_sample(fixture_table,
                                                           monkeypatch):
    built = []

    class CountedSample(RecSample):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(recsys, "RecSample", CountedSample)
    sim = build_similarity(fixture_table)
    target, other = most_rated_items(fixture_table, 2)
    for family in MODEL_FAMILIES:
        model = train_rating_model(fixture_table, sim, family, target, seed=1,
                                   epochs=2)
        _, test_set = make_samples(fixture_table, sim, target, seed=1)
        predict(model.spec, model.state, model.shift, test_set, model.target_node)
        evaluate_rmse(model.spec, model.state, model.shift, test_set,
                      model.target_node)
        transfer_rmse(model, fixture_table, sim, other)
    assert built == []
    # the guard sees the rows a block does build
    assert len(list(test_set)) == len(built) > 0


@pytest.mark.parametrize("family", MODEL_FAMILIES)
def test_predict_on_a_block_equals_predict_on_its_rows(fixture_table, family):
    # a list of rows is the path of callers that build their own samples
    sim = build_similarity(fixture_table)
    shift = build_item_shift(sim)
    spec = build_model_spec(family)
    state = init_state(spec, np.random.default_rng(4), shift=shift)
    target = most_rated_items(fixture_table, 1)[0]
    node = fixture_table.item_node(target)
    for block in make_samples(fixture_table, sim, target, split=0.6, seed=4):
        rows = list(block)
        assert predict(spec, state, shift, block, node).tobytes() \
            == predict(spec, state, shift, rows, node).tobytes()
        assert evaluate_rmse(spec, state, shift, block, node) \
            == evaluate_rmse(spec, state, shift, rows, node)


# ---------------------------------------------------------------------------
# RMSE
# ---------------------------------------------------------------------------

def test_rmse_oracle_values(fixture_table):
    # direct hand arithmetic on {(3,4),(5,3)}: sqrt(mean(1,4)) = sqrt(2.5)
    preds = np.array([3.0, 5.0])
    targets = np.array([4.0, 3.0])
    rmse = float(np.sqrt(np.mean((preds - targets) ** 2)))
    assert rmse == pytest.approx(np.sqrt(2.5))
    assert rmse == pytest.approx(1.5811, abs=1e-4)


# ---------------------------------------------------------------------------
# End-to-end training on the synthetic fixture
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["gcnn", "edgenet", "arma", "fir"])
def test_training_improves_over_init(fixture_table, family):
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    model = train_rating_model(fixture_table, sim, family, target, seed=0,
                               epochs=15)
    assert np.isfinite(model.train_rmse)
    # fitting the training split must beat the trivial all-zeros predictor
    zeros_rmse = np.sqrt(np.mean(np.array(
        [s.target for s in make_samples(fixture_table, sim, target, seed=0)[0]]
    ) ** 2))
    assert model.train_rmse < zeros_rmse


def test_arma_training_solves_the_item_spectrum_once(fixture_table, monkeypatch):
    # build_shift solves it once to normalize A by its norm and keeps the
    # scaled eigenvalues: init_state's lambda_max and both pole margins
    # (init_state's and RatingProblem's) read them
    calls = []
    original = graphs.symmetric_eigenvalues

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(graphs, "symmetric_eigenvalues", counting)
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    train_rating_model(fixture_table, sim, "arma", target, seed=0, epochs=3)
    assert len(calls) == 1


def test_the_item_shift_is_built_once_per_graph(fixture_table):
    sim = build_similarity(fixture_table)
    shift = build_item_shift(sim)
    assert build_item_shift(sim) is shift
    assert shift.kind is ShiftKind.NORMALIZED_ADJACENCY
    assert not shift.matrix.flags.writeable
    assert build_item_shift(build_similarity(fixture_table)) is not shift


def test_every_family_and_a_transfer_share_one_spectrum_solve(fixture_table,
                                                              count_linalg):
    sim = build_similarity(fixture_table)
    targets = most_rated_items(fixture_table, 2)
    models = [train_rating_model(fixture_table, sim, family, targets[0],
                                 seed=0, epochs=1)
              for family in MODEL_FAMILIES]
    shift = build_item_shift(sim)
    assert np.isfinite(transfer_rmse(models[2], fixture_table, sim, targets[1]))
    assert count_linalg == {"eigvalsh": 1}
    assert all(model.shift is shift for model in models)


def test_arma_training_matches_the_solved_item_spectrum(fixture_table,
                                                        monkeypatch):
    # the item shift's norm is now max |eigvalsh(A)| / ||A|| = 1.0, not the
    # norm of A / ||A|| solved again (1 - 8e-16 here), so the drawn poles and
    # the pole margin move by an ulp: a tolerance, not bitwise equality
    sim = build_similarity(fixture_table)
    target = most_rated_items(fixture_table, 1)[0]
    got = train_rating_model(fixture_table, sim, "arma", target, seed=0, epochs=3)
    monkeypatch.setattr(recsys, "build_item_shift", lambda graph: ShiftOperator(
        ShiftKind.NORMALIZED_ADJACENCY, build_item_shift(graph).matrix))
    want = train_rating_model(fixture_table, sim, "arma", target, seed=0, epochs=3)
    assert want.shift.operator_norm != 1.0 == got.shift.operator_norm
    got_run = [row[2] for row in got.history] + [got.train_rmse, got.test_rmse]
    want_run = [row[2] for row in want.history] + [want.train_rmse, want.test_rmse]
    np.testing.assert_allclose(got_run, want_run, rtol=1e-12, atol=0.0)


def test_edgenet_predict_keeps_no_full_output_tape():
    # MovieLens-100k eval shape: 200 items, 440 users, the default recipe
    # (64 features, order 4). The full-output forward tapes every chain
    # state, about 225 MB here.
    r = np.random.default_rng(8)
    shift = build_shift(random_graph(200, 0.065, r, weighted=True),
                        ShiftKind.NORMALIZED_ADJACENCY)
    spec = build_model_spec("edgenet")
    state = init_state(spec, r, shift=shift)
    samples = [RecSample(u, r.normal(size=200), 3.0) for u in range(440)]
    tracemalloc.start()
    try:
        preds = predict(spec, state, shift, samples, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.shape == (440,)
    assert peak < 50e6, f"predict peak {peak / 1e6:.1f} MB"


def test_edgenet_full_output_step_keeps_no_dense_step_matrices():
    # One full-output forward + backward of the default recipe on a single
    # signal: each step is applied on its nnz coordinates, so the peak is
    # the chain states and gathers, not (K, F*G, N, N) step matrices.
    r = np.random.default_rng(8)
    shift = build_shift(random_graph(200, 0.065, r, weighted=True),
                        ShiftKind.NORMALIZED_ADJACENCY)
    spec = build_model_spec("edgenet")
    state = init_state(spec, r, shift=shift)
    x = r.normal(size=(1, 200, 1))
    tracemalloc.start()
    try:
        out, tape = forward_batch(spec, state, shift, x)
        grads = model_backward(tape, spec, state, np.ones(out.shape))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads.layers[0].values.shape == state.layers[0].values.shape
    assert peak < 30e6, f"forward + backward peak {peak / 1e6:.1f} MB"


def test_transfer_protocol_runs(fixture_table):
    sim = build_similarity(fixture_table)
    targets = most_rated_items(fixture_table, 2)
    model = train_rating_model(fixture_table, sim, "gcnn", targets[0], seed=1,
                               epochs=5)
    rmse_other = transfer_rmse(model, fixture_table, sim, targets[1])
    assert np.isfinite(rmse_other)


def test_rating_problem_rejects_a_pole_inside_the_margin(fixture_table):
    sim = build_similarity(fixture_table)
    shift = build_item_shift(sim)
    spec = build_model_spec("arma")
    state = init_state(spec, np.random.default_rng(0), shift=shift)
    target = most_rated_items(fixture_table, 1)[0]
    samples, _ = make_samples(fixture_table, sim, target)
    node = fixture_table.item_node(target)
    RatingProblem(spec, state, shift, samples, node)
    state.layers[0].gamma[2, 0, 0] = 1e-4  # the shift's diagonal is zero
    with pytest.raises(FilterError, match=r"layers\.0\.gamma\[2, 0, 0\] = 0\.0001 "
                                          r"is within"):
        RatingProblem(spec, state, shift, samples, node)


def test_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    _write_metrics(path, "gcnn", 1, 50, 0.91)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "model,seed,target,rmse"
    assert lines[1].startswith("gcnn,1,50,")
