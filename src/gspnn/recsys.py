"""Movie rating prediction on an item-similarity graph.

Ratings are ingested from the MovieLens `u.data` tab-separated layout, cut
down to the most-rated items, and turned into a graph whose edges carry the
Pearson correlation between item rating vectors. Each user is then a graph
signal (their ratings, zeros where unrated); predicting a held-out rating is
interpolation of one zeroed entry, read off a per-node readout at the target
item's node.

Training and prediction read that one node only, so they run the model with
``out_nodes=[target_node]``: the last layer computes its rows at the target
item once per batch instead of its output at every item. An edgenet's rows
at one item depend only on the weights of the support entries within reach
of it (the rows of step k within K - k hops, ``filters.edge_varying_reach``),
so its training sweeps, differentiates and ADAM-updates those alone: 2063
of the 11584 (step, entry) columns of ``values`` on the benchmark's
200-item graph at seed 17. The others keep their initial values, and the
checkpoint keeps every weight, because ``transfer_rmse`` reads the model at
other items, where those weights count.

Each piece of data is built once and kept read-only: a ``RatingsTable``
holds its arrays and, from first use, its (users x items) rating matrix and
mask, which the correlation and every ``make_samples`` call share; a
``SimilarityGraph`` holds its item shift from first use, so the models
trained and evaluated on one graph share one spectrum solve; a
``RatingSamples`` block holds one split's inputs as one (users x items)
array, which training and evaluation batch without building or stacking
per-user rows.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .filters import check_poles, pole_margin
from .graphs import Graph, ShiftKind, ShiftOperator, build_shift, check_count
from .neural import (
    ArmaLayerParams,
    LayerSpec,
    ModelSpec,
    ModelState,
    ReadoutSpec,
    forward_batch,
    init_state,
    model_backward,
    out_node_reach,
    save_checkpoint,
)
from .optim import LossSpec, Problem, TrainConfig, loss_eval, project_poles, train

TOP_ITEMS = 200
TOP_EDGES_PER_NODE = 10
MODEL_FAMILIES = ("fir", "gcnn", "arma", "edgenet")

# training recipe for all model families
N_FEATURES = 64
FILTER_ORDER = 4
N_EPOCHS = 40
BATCH_SIZE = 5
LEARNING_RATE = 5e-3
ARMA_POLES = 1
ARMA_ITERS = 1


# what loadtxt parses as an integer field; int() also takes "1_0" and
# non-ASCII digits
_INTEGER_FIELD = re.compile(r"[+-]?[0-9]+")


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class RatingsTable:
    """Deduplicated (user, item, rating) triples with index maps sorted by
    original id.

    The constructor stores a read-only copy of every array it is given, so
    no caller can change the table through an array it still holds.
    ``_build_table`` and ``select_top_items`` hand over the arrays they
    build through ``_adopt``, so a table they make copies nothing.
    ``rating_matrix`` is built once, on first use, and is read-only too, so
    every reader of one table shares it.
    """

    user_ids: np.ndarray    # sorted original user ids
    item_ids: np.ndarray    # sorted original item ids
    user_idx: np.ndarray    # per-triple internal user index
    item_idx: np.ndarray    # per-triple internal item index
    ratings: np.ndarray     # per-triple rating in 1..5

    def __post_init__(self):
        _hold_copies(self)

    @property
    def n_users(self) -> int:
        return self.user_ids.size

    @property
    def n_items(self) -> int:
        return self.item_ids.size

    @property
    def n_ratings(self) -> int:
        return self.ratings.size

    def item_node(self, original_item_id: int) -> int:
        pos = np.searchsorted(self.item_ids, original_item_id)
        if pos >= self.item_ids.size or self.item_ids[pos] != original_item_id:
            raise DataError(f"unknown item id {original_item_id}")
        return int(pos)

    @cached_property
    def rating_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(users x items) rating matrix and its rated mask, both read-only."""
        x = np.zeros((self.n_users, self.n_items))
        x[self.user_idx, self.item_idx] = self.ratings
        mask = np.zeros((self.n_users, self.n_items), dtype=bool)
        mask[self.user_idx, self.item_idx] = True
        x.flags.writeable = mask.flags.writeable = False
        return x, mask


def ingest_movielens(path) -> RatingsTable:
    """Parse the `u.data` layout: user, item, rating, timestamp per line.

    Blank lines are skipped; every other line needs three integer fields,
    a rating in 1..5 and a (user, item) pair not seen before. Errors name
    the file line as ``path:lineno:``. A line that does not parse is
    reported before any range or duplicate error, wherever it is; among
    range and duplicate errors the earliest line wins.
    """
    try:
        with warnings.catch_warnings():
            # older numpy releases read a field like "3.5" as 3 and only warn
            warnings.simplefilter("error", DeprecationWarning)
            # a file of blank lines is the DataError below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, dtype=np.int64, usecols=(0, 1, 2),
                              ndmin=2, comments=None)
    except (ValueError, DeprecationWarning) as exc:
        raise _parse_error(path, exc) from exc
    if not data.size:
        raise DataError(f"{path}: no ratings")
    users, items, ratings = data.T
    errors = []
    bad = np.flatnonzero((ratings < 1) | (ratings > 5))
    if bad.size:
        errors.append((bad[0], f"rating {ratings[bad[0]]} out of 1..5"))
    table = _build_table(users, items, ratings)
    pairs = table.user_idx * table.n_items + table.item_idx
    keys = np.sort(pairs)
    if np.any(keys[1:] == keys[:-1]):
        # only a file with a duplicate pays for the search that names it
        _, first = np.unique(pairs, return_index=True)
        repeat = np.ones(data.shape[0], dtype=bool)
        repeat[first] = False
        e = np.argmax(repeat)  # the first row whose pair came before
        errors.append((e, f"duplicate rating for user {users[e]}, item {items[e]}"))
    if errors:
        row, message = min(errors, key=lambda err: err[0])
        raise DataError(f"{path}:{_data_lineno(path, row)}: {message}")
    return table


# The error paths alone read the file as text, to name its lines.

def _data_lineno(path, row: int) -> int | None:
    """File line (from 1) of the ``row``-th non-blank line (from 0)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    filled = [i for i, line in enumerate(lines, start=1) if line.strip()]
    return filled[row] if 0 <= row < len(filled) else None


def _parse_error(path, exc: Exception) -> DataError:
    """A loadtxt failure as a DataError naming the first file line that
    is short of three fields or has a field that is not an integer or does
    not fit in int64."""
    limits = np.iinfo(np.int64)
    with open(path) as fh:
        lines = fh.read().split("\n")
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 3:
            return DataError(f"{path}:{lineno}: expected user item rating [...]")
        if not all(_INTEGER_FIELD.fullmatch(field) for field in fields[:3]):
            return DataError(f"{path}:{lineno}: non-integer field")
        wide = [field for field in fields[:3]
                if not limits.min <= int(field) <= limits.max]
        if wide:
            return DataError(f"{path}:{lineno}: field {wide[0]} is beyond int64")
    return DataError(f"{path}: {exc}")


def _build_table(users: np.ndarray, items: np.ndarray,
                 ratings: np.ndarray) -> RatingsTable:
    user_ids, user_idx = _index_map(users)
    item_ids, item_idx = _index_map(items)
    return _adopt(RatingsTable, user_ids, item_ids, user_idx, item_idx,
                  ratings.astype(float))


# the widest id span, in ids per row, that _index_map maps through a
# presence mask over the span rather than a sort
_MASK_SPAN_FACTOR = 2


def _index_map(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for 1-D integer ids: the
    same values, dtypes and shapes. Ids spanning at most
    ``_MASK_SPAN_FACTOR`` times their count need no sort: a presence mask
    over the span gives the sorted ids, and its cumsum each id's rank.
    The span is taken in Python integers, so ids near the int64 limits
    cannot overflow it."""
    if ids.size:
        low = int(ids.min())
        span = int(ids.max()) - low + 1
        if span <= _MASK_SPAN_FACTOR * ids.size:
            offsets = ids - low
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            rank = np.cumsum(present) - 1
            return ((np.flatnonzero(present) + low).astype(ids.dtype, copy=False),
                    rank[offsets])
    return np.unique(ids, return_inverse=True)


def _hold_copies(holder) -> None:
    """Replace each array field of a frozen ``holder`` by a read-only copy:
    the public constructors' rule."""
    for field in fields(holder):
        arr = np.array(getattr(holder, field.name))
        arr.flags.writeable = False
        object.__setattr__(holder, field.name, arr)


def _adopt(cls, *arrays: np.ndarray):
    """A ``cls`` (``RatingsTable`` or ``RatingSamples``) that takes
    ``arrays`` as its fields without the constructor's copy, marking them
    read-only; only for arrays the caller just built and no one else
    holds."""
    holder = object.__new__(cls)
    for field, arr in zip(fields(cls), arrays, strict=True):
        arr.flags.writeable = False
        object.__setattr__(holder, field.name, arr)
    return holder


def select_top_items(table: RatingsTable, count: int = TOP_ITEMS) -> RatingsTable:
    """Keep the ``count`` items with the most ratings; ties keep lower ids
    (positions follow the sorted ids, so a stable sort by count keeps them).
    Users left with no rating leave the table."""
    check_count("count", count, 1, DataError)
    if count > table.n_items:
        raise DataError(f"asked for {count} items, table has {table.n_items}")
    counts = np.bincount(table.item_idx, minlength=table.n_items)
    keep = np.zeros(table.n_items, dtype=bool)
    keep[np.argsort(-counts, kind="stable")[:count]] = True
    # integer positions: a take is several times faster than a boolean
    # index that keeps a scattered 40% of the rows
    rows = np.flatnonzero(keep[table.item_idx])
    users = table.user_idx[rows]
    rated = np.zeros(table.n_users, dtype=bool)
    rated[users] = True
    # cumsum - 1 maps a kept position to its index among the kept ones
    return _adopt(RatingsTable, table.user_ids[rated], table.item_ids[keep],
                  (np.cumsum(rated) - 1)[users],
                  (np.cumsum(keep) - 1)[table.item_idx[rows]],
                  table.ratings[rows])


@dataclass(frozen=True)
class SimilarityGraph:
    """An item graph and its read-only ``shift``, the normalized adjacency
    A / ||A||, built once on first use and shared by every model trained or
    evaluated on the graph; an edgeless graph raises only when asked for it."""

    graph: Graph

    @cached_property
    def shift(self) -> ShiftOperator:
        return build_shift(self.graph, ShiftKind.NORMALIZED_ADJACENCY)


def build_similarity(table: RatingsTable) -> SimilarityGraph:
    """Item graph weighted by Pearson correlation over co-rating users.

    Item means are taken over each item's own rated entries; the correlation
    is then accumulated over users who rated both items. Pairs with fewer
    than two co-raters or no co-rating variance get weight zero; negative
    correlations are dropped. Each node keeps its ``TOP_EDGES_PER_NODE``
    strongest edges, equal weights keeping the lower node index, and the
    result is symmetrized by union.
    """
    if table.n_items < 2:
        raise DataError("need at least two items to build a similarity graph")
    corr = _item_correlation(table)
    n = table.n_items
    i, j = np.nonzero(_strongest(corr, min(TOP_EDGES_PER_NODE, n)) & (corr > 0.0))
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    lo, hi = keys // n, keys % n
    edges = tuple(zip(lo.tolist(), hi.tolist(), corr[lo, hi].tolist()))
    return SimilarityGraph(Graph(n, edges))


def _strongest(corr: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's ``k`` (0 <= k <= columns) largest entries, equal
    entries keeping the lower column: what the first ``k`` of a stable
    descending sort pick, found by a partition instead of a sort."""
    n = corr.shape[1]
    if k == 0:
        return np.zeros(corr.shape, dtype=bool)
    kth = np.partition(corr, n - k, axis=1)[:, n - k, None]  # the k-th largest
    above = corr > kth
    ties = corr == kth
    # the ties fill the places the larger entries leave, lowest column first
    room = k - np.count_nonzero(above, axis=1, keepdims=True)
    return above | (ties & (np.cumsum(ties, axis=1) <= room))


def _item_correlation(table: RatingsTable) -> np.ndarray:
    """(items x items) Pearson correlation over co-rating users, zero on
    the diagonal and where ``build_similarity`` gives a pair weight zero."""
    x, mask = table.rating_matrix
    rated_counts = mask.sum(axis=0)
    means = np.zeros(table.n_items)
    np.divide(x.sum(axis=0), rated_counts, out=means, where=rated_counts > 0)
    centered = (x - means[None, :]) * mask

    maskf = mask.astype(float)
    gram = centered.T @ centered                     # co-rated covariances
    sq = centered * centered
    var_ab = sq.T @ maskf                            # sum_a (x-mu)^2 over co-raters
    co_counts = maskf.T @ maskf

    with np.errstate(invalid="ignore", divide="ignore"):
        corr = gram / np.sqrt(var_ab * var_ab.T)
    invalid = (co_counts < 2) | (var_ab <= 0) | (var_ab.T <= 0)
    corr[invalid] = 0.0
    np.fill_diagonal(corr, 0.0)
    return corr


@dataclass(frozen=True)
class RecSample:
    """One user's sample: the row type of a ``RatingSamples`` block, and
    what a caller builds to hand its own signals to ``predict``."""

    user_id: int
    input: np.ndarray   # item ratings, zeros where unrated, target zeroed
    target: float


@dataclass(frozen=True, eq=False)
class RatingSamples(Sequence):
    """A block of samples as three read-only arrays: the (k, N) ``inputs``,
    the (k,) ``targets`` and the (k,) ``user_ids``.

    ``RatingProblem``, ``predict`` and ``evaluate_rmse`` read the arrays
    directly. Indexing or iterating the block yields ``RecSample`` rows,
    each with an ``int`` user id, a ``float`` target and a read-only view
    of its input row. The constructor stores read-only copies of the
    arrays it is given; ``make_samples`` hands over the blocks it gathers
    through ``_adopt`` instead.
    """

    inputs: np.ndarray
    targets: np.ndarray
    user_ids: np.ndarray

    def __post_init__(self):
        _hold_copies(self)

    @classmethod
    def of(cls, samples: Iterable[RecSample]) -> RatingSamples:
        """``samples`` as a block: a block itself, or any non-empty iterable
        of ``RecSample`` stacked once."""
        if isinstance(samples, RatingSamples):
            return samples
        rows = list(samples)
        if not rows:
            raise DataError("no samples")
        return _adopt(cls, np.stack([smp.input for smp in rows]),
                      np.array([smp.target for smp in rows]),
                      np.array([smp.user_id for smp in rows]))

    def __len__(self) -> int:
        return self.targets.size

    def __getitem__(self, i: int) -> RecSample:
        return RecSample(int(self.user_ids[i]), self.inputs[i],
                         float(self.targets[i]))

    def __iter__(self) -> Iterator[RecSample]:
        for user, inp, target in zip(self.user_ids.tolist(), self.inputs,
                                     self.targets.tolist()):
            yield RecSample(user, inp, target)


def make_samples(table: RatingsTable, graph: SimilarityGraph, target_item: int,
                 split: float = 0.9, seed: int = 0
                 ) -> tuple[RatingSamples, RatingSamples]:
    """The (train, test) samples of one target item, split at the user level.

    Each user who rated the item gives one row: their ratings with the
    target zeroed, and the target rating. The seeded permutation of the
    raters orders both blocks, and its first ``int(split * raters)`` users
    train. Each block is gathered once from the table's rating matrix;
    no per-user object is built. ``split`` must be a float or an integer
    (``graphs.check_count``, never a bool) in [0, 1].
    """
    if not isinstance(split, (float, np.floating)):
        # a split that is no float must pass the integer rule, which
        # rejects a bool, a string and None
        check_count("split", split, 0, DataError)
    if not 0.0 <= split <= 1.0:
        raise DataError(f"split must be in [0, 1], got {split!r}")
    node = table.item_node(target_item)
    if graph.graph.n_nodes != table.n_items:
        raise DataError("graph does not match the table's item set")
    x, mask = table.rating_matrix
    raters = np.flatnonzero(mask[:, node])
    rows = raters[np.random.default_rng(seed).permutation(raters.size)]
    n_train = int(split * rows.size)

    def block(part: np.ndarray) -> RatingSamples:
        inputs = x[part]
        targets = inputs[:, node].copy()
        inputs[:, node] = 0.0
        return _adopt(RatingSamples, inputs, targets, table.user_ids[part])

    return block(rows[:n_train]), block(rows[n_train:])


# ---------------------------------------------------------------------------
# Models and training
# ---------------------------------------------------------------------------

def build_item_shift(graph: SimilarityGraph) -> ShiftOperator:
    """Adjacency scaled by its spectral norm, keeping powers bounded: the
    graph's ``shift``, built on the first call and the same read-only
    operator on every later one."""
    return graph.shift


def build_model_spec(family: str) -> ModelSpec:
    if family not in MODEL_FAMILIES:
        raise DataError(f"unknown model family {family!r}; "
                        f"choose from {MODEL_FAMILIES}")
    if family == "fir":
        layer = LayerSpec("fir", 1, N_FEATURES, FILTER_ORDER,
                          nonlinearity="identity")
    elif family == "gcnn":
        layer = LayerSpec("fir", 1, N_FEATURES, FILTER_ORDER,
                          nonlinearity="relu")
    elif family == "arma":
        layer = LayerSpec("arma", 1, N_FEATURES, FILTER_ORDER,
                          n_poles=ARMA_POLES, jacobi_iters=ARMA_ITERS,
                          nonlinearity="relu")
    else:
        layer = LayerSpec("edge_varying", 1, N_FEATURES, FILTER_ORDER,
                          nonlinearity="relu")
    return ModelSpec((layer,), ReadoutSpec("per_node_linear", 1))


def checked_pole_bounds(state: ModelState, shift: ShiftOperator):
    """The (shift diagonal, pole margin) that ``project_poles`` keeps ARMA
    poles outside, computed once per shift, or None without ARMA layers.
    Raises naming ``layers.{i}.gamma`` and the pole if one is inside."""
    poles = [(f"layers.{i}.gamma", params.gamma)
             for i, params in enumerate(state.layers)
             if isinstance(params, ArmaLayerParams)]
    if not poles:
        return None
    bounds = (shift.diagonal(), pole_margin(shift))
    for name, gamma in poles:
        check_poles(gamma, *bounds, name=name)
    return bounds


class RatingProblem(Problem):
    """Smooth-L1 fit of the readout at the target node to held-out ratings.

    ``samples`` is a ``RatingSamples`` block, whose arrays the batches
    index directly, or any iterable of ``RecSample``, stacked once.
    """

    def __init__(self, spec: ModelSpec, state: ModelState, shift: ShiftOperator,
                 samples: Iterable[RecSample], target_node: int):
        samples = RatingSamples.of(samples)
        self.spec = spec
        self.state = state
        self.shift = shift
        self.target_node = target_node
        self.inputs = samples.inputs[:, :, None]
        self.targets = samples.targets
        self.loss = LossSpec("smooth_l1")
        self.pole_bounds = checked_pole_bounds(state, shift)
        self._reach = out_node_reach(spec, state, [target_node])

    def n_samples(self) -> int:
        return self.targets.size

    def batch_loss(self, indices):
        xs = self.inputs[indices]
        out, tape = forward_batch(self.spec, self.state, self.shift, xs,
                                  out_nodes=[self.target_node])
        value, dpred = loss_eval(self.loss, out[:, 0, 0], self.targets[indices])
        grads = model_backward(tape, self.spec, self.state, dpred[:, None, None])
        return value, grads

    def reach(self) -> dict:
        return self._reach

    def post_step(self):
        for params in self.state.layers:
            if isinstance(params, ArmaLayerParams):
                project_poles(params.gamma, *self.pole_bounds)


def predict(spec: ModelSpec, state: ModelState, shift: ShiftOperator,
            samples: Iterable[RecSample], target_node: int) -> np.ndarray:
    """Each sample's predicted rating: the readout at ``target_node`` only.

    ``samples`` is a ``RatingSamples`` block, whose ``inputs`` array is the
    batch, or any iterable of ``RecSample``, stacked once; both give
    bitwise equal predictions. The model's last layer runs through its rows
    at that node (``forward_batch(..., out_nodes=[target_node])``), so no
    other node's output is computed or taped.
    """
    samples = RatingSamples.of(samples)
    if not samples:
        raise DataError("no samples to predict on")
    out, _ = forward_batch(spec, state, shift, samples.inputs[:, :, None],
                           out_nodes=[target_node])
    return out[:, 0, 0]


def evaluate_rmse(spec: ModelSpec, state: ModelState, shift: ShiftOperator,
                  samples: Iterable[RecSample], target_node: int) -> float:
    samples = RatingSamples.of(samples)
    preds = predict(spec, state, shift, samples, target_node)
    return float(np.sqrt(np.mean((preds - samples.targets) ** 2)))


@dataclass
class TrainedRating:
    spec: ModelSpec
    state: ModelState
    shift: ShiftOperator
    target_item: int
    target_node: int
    family: str
    seed: int
    history: list
    train_rmse: float
    test_rmse: float


def train_rating_model(table: RatingsTable, graph: SimilarityGraph,
                       family: str, target_item: int, seed: int,
                       epochs: int = N_EPOCHS,
                       split: float = 0.9) -> TrainedRating:
    shift = build_item_shift(graph)
    node = table.item_node(target_item)
    train_set, test_set = make_samples(table, graph, target_item,
                                       split=split, seed=seed)
    if not train_set:
        raise DataError("empty training split")
    spec = build_model_spec(family)
    state = init_state(spec, np.random.default_rng(seed), shift=shift)
    problem = RatingProblem(spec, state, shift, train_set, node)
    history = train(problem, TrainConfig(
        epochs=epochs, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
        seed=seed))
    train_rmse = evaluate_rmse(spec, state, shift, train_set, node)
    test_rmse = evaluate_rmse(spec, state, shift, test_set, node) \
        if test_set else float("nan")
    return TrainedRating(spec, state, shift, target_item, node, family, seed,
                         history, train_rmse, test_rmse)


def transfer_rmse(model: TrainedRating, table: RatingsTable,
                  graph: SimilarityGraph, other_item: int,
                  split: float = 0.9) -> float:
    """Evaluate a trained model on another item without retraining."""
    node = table.item_node(other_item)
    _, test_set = make_samples(table, graph, other_item, split=split,
                               seed=model.seed)
    if not test_set:
        raise DataError(f"no test users for item {other_item}")
    return evaluate_rmse(model.spec, model.state, model.shift, test_set, node)


def checkpoint_metadata(model: TrainedRating) -> dict:
    return {
        "experiment": "recsys",
        "family": model.family,
        "seed": model.seed,
        "target_item": model.target_item,
        "target_node": model.target_node,
        "shift_kind": model.shift.kind.value,
        "train_rmse": model.train_rmse,
        "test_rmse": model.test_rmse,
    }


def save_rating_checkpoint(path, model: TrainedRating) -> None:
    save_checkpoint(path, model.spec, model.state,
                    metadata=checkpoint_metadata(model))

