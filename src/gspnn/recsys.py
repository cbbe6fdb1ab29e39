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
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import check_poles, pole_margin
from .graphs import Graph, ShiftKind, ShiftOperator, build_shift
from .neural import (
    ArmaLayerParams,
    LayerSpec,
    ModelSpec,
    ModelState,
    ReadoutSpec,
    apply_tap_constraints,
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


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class RatingsTable:
    """Deduplicated (user, item, rating) triples with index maps sorted by
    original id."""

    user_ids: np.ndarray    # sorted original user ids
    item_ids: np.ndarray    # sorted original item ids
    user_idx: np.ndarray    # per-triple internal user index
    item_idx: np.ndarray    # per-triple internal item index
    ratings: np.ndarray     # per-triple rating in 1..5

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

    def rating_matrix(self):
        """(users x items) rating matrix and its rated mask."""
        x = np.zeros((self.n_users, self.n_items))
        x[self.user_idx, self.item_idx] = self.ratings
        mask = np.zeros((self.n_users, self.n_items), dtype=bool)
        mask[self.user_idx, self.item_idx] = True
        return x, mask


def ingest_movielens(path) -> RatingsTable:
    """Parse the `u.data` layout: user, item, rating, timestamp per line.

    Blank lines are skipped; every other line needs three integer fields,
    a rating in 1..5 and a (user, item) pair not seen before. Errors name
    the file line as ``path:lineno:``. A line that does not parse is
    reported before any range or duplicate error, wherever it is; among
    range and duplicate errors the earliest line wins.
    """
    with open(path) as fh:
        text = fh.read()
    if not text or text.isspace():
        raise DataError(f"{path}: no ratings")
    try:
        with warnings.catch_warnings():
            # older numpy releases read a field like "3.5" as 3 and only warn
            warnings.simplefilter("error", DeprecationWarning)
            data = np.loadtxt(path, dtype=np.int64, usecols=(0, 1, 2),
                              ndmin=2, comments=None)
    except (ValueError, DeprecationWarning) as exc:
        raise _parse_error(path, text, exc) from exc
    users, items, ratings = data.T
    errors = []
    bad = np.flatnonzero((ratings < 1) | (ratings > 5))
    if bad.size:
        errors.append((bad[0], f"rating {ratings[bad[0]]} out of 1..5"))
    table = _build_table(users, items, ratings)
    _, first = np.unique(table.user_idx * table.n_items + table.item_idx,
                         return_index=True)
    if first.size < data.shape[0]:
        repeat = np.ones(data.shape[0], dtype=bool)
        repeat[first] = False
        e = np.argmax(repeat)  # the first row whose pair came before
        errors.append((e, f"duplicate rating for user {users[e]}, item {items[e]}"))
    if errors:
        row, message = min(errors, key=lambda err: err[0])
        raise DataError(f"{path}:{_data_lineno(text, row)}: {message}")
    return table


def _data_lineno(text: str, row: int) -> int | None:
    """File line (from 1) of the ``row``-th non-blank line (from 0)."""
    filled = [i for i, line in enumerate(text.split("\n"), start=1) if line.strip()]
    return filled[row] if 0 <= row < len(filled) else None


def _parse_error(path, text: str, exc: Exception) -> DataError:
    """A loadtxt failure as a DataError naming the first file line that
    is short of three fields or has a field that is not an integer."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 3:
            return DataError(f"{path}:{lineno}: expected user item rating [...]")
        try:
            [int(field) for field in fields[:3]]
        except ValueError:
            return DataError(f"{path}:{lineno}: non-integer field")
    return DataError(f"{path}: {exc}")


def _build_table(users: np.ndarray, items: np.ndarray,
                 ratings: np.ndarray) -> RatingsTable:
    user_ids, user_idx = np.unique(users, return_inverse=True)
    item_ids, item_idx = np.unique(items, return_inverse=True)
    return RatingsTable(user_ids, item_ids, user_idx, item_idx,
                        ratings.astype(float))


def select_top_items(table: RatingsTable, count: int = TOP_ITEMS) -> RatingsTable:
    """Keep the ``count`` items with the most ratings; ties keep lower ids."""
    if count > table.n_items:
        raise DataError(f"asked for {count} items, table has {table.n_items}")
    counts = np.bincount(table.item_idx, minlength=table.n_items)
    order = np.lexsort((table.item_ids, -counts))  # by count desc, then id asc
    keep_positions = np.sort(order[:count])
    keep_mask = np.zeros(table.n_items, dtype=bool)
    keep_mask[keep_positions] = True
    row_keep = keep_mask[table.item_idx]
    return _build_table(table.user_ids[table.user_idx[row_keep]],
                        table.item_ids[table.item_idx[row_keep]],
                        table.ratings[row_keep])


@dataclass(frozen=True)
class SimilarityGraph:
    graph: Graph


def build_similarity(table: RatingsTable,
                     top_edges: int = TOP_EDGES_PER_NODE) -> SimilarityGraph:
    """Item graph weighted by Pearson correlation over co-rating users.

    Item means are taken over each item's own rated entries; the correlation
    is then accumulated over users who rated both items. Pairs with fewer
    than two co-raters or no co-rating variance get weight zero; negative
    correlations are dropped. Each node keeps its ``top_edges`` strongest
    edges, equal weights keeping the lower node index, and the result is
    symmetrized by union.
    """
    if table.n_items < 2:
        raise DataError("need at least two items to build a similarity graph")
    if top_edges < 0:
        raise DataError(f"top_edges must be >= 0, got {top_edges}")
    corr = _item_correlation(table)
    n = table.n_items
    # a stable sort keeps the lower node index among equal weights
    picks = np.argsort(-corr, axis=1, kind="stable")[:, :top_edges]
    i, rank = np.nonzero(np.take_along_axis(corr, picks, axis=1) > 0.0)
    j = picks[i, rank]
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    lo, hi = keys // n, keys % n
    edges = tuple(zip(lo.tolist(), hi.tolist(), corr[lo, hi].tolist()))
    return SimilarityGraph(Graph(n, edges))


def _item_correlation(table: RatingsTable) -> np.ndarray:
    """(items x items) Pearson correlation over co-rating users, zero on
    the diagonal and where ``build_similarity`` gives a pair weight zero."""
    x, mask = table.rating_matrix()
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
    user_id: int
    input: np.ndarray   # item ratings, zeros where unrated, target zeroed
    target: float


def make_samples(table: RatingsTable, graph: SimilarityGraph, target_item: int,
                 split: float = 0.9, seed: int = 0):
    """Per-user samples for one target item, split at the user level."""
    if not 0.0 <= split <= 1.0:
        raise DataError("split must be in [0, 1]")
    node = table.item_node(target_item)
    if graph.graph.n_nodes != table.n_items:
        raise DataError("graph does not match the table's item set")
    x, mask = table.rating_matrix()
    raters = np.nonzero(mask[:, node])[0]
    samples = []
    for u in raters:
        inp = x[u].copy()
        target = float(inp[node])
        inp[node] = 0.0
        samples.append(RecSample(int(table.user_ids[u]), inp, target))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_train = int(split * len(samples))
    train_set = [samples[i] for i in order[:n_train]]
    test_set = [samples[i] for i in order[n_train:]]
    return train_set, test_set


# ---------------------------------------------------------------------------
# Models and training
# ---------------------------------------------------------------------------

def build_item_shift(graph: SimilarityGraph) -> ShiftOperator:
    """Adjacency scaled by its spectral norm, keeping powers bounded."""
    return build_shift(graph.graph, ShiftKind.NORMALIZED_ADJACENCY)


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
    """Smooth-L1 fit of the readout at the target node to held-out ratings."""

    def __init__(self, spec: ModelSpec, state: ModelState, shift: ShiftOperator,
                 samples: list[RecSample], target_node: int):
        self.spec = spec
        self.state = state
        self.shift = shift
        self.target_node = target_node
        self.inputs = np.stack([smp.input for smp in samples])[:, :, None]
        self.targets = np.array([smp.target for smp in samples])
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
        for layer_spec, params in zip(self.spec.layers, self.state.layers):
            if isinstance(params, ArmaLayerParams):
                project_poles(params.gamma, *self.pole_bounds)
            if layer_spec.family == "fir":
                apply_tap_constraints(layer_spec, params.taps)


def predict(spec: ModelSpec, state: ModelState, shift: ShiftOperator,
            samples: list[RecSample], target_node: int) -> np.ndarray:
    """Each sample's predicted rating: the readout at ``target_node`` only.

    The model's last layer runs through its rows at that node
    (``forward_batch(..., out_nodes=[target_node])``), so no other node's
    output is computed or taped.
    """
    if not samples:
        raise DataError("no samples to predict on")
    xs = np.stack([smp.input for smp in samples])[:, :, None]
    out, _ = forward_batch(spec, state, shift, xs, out_nodes=[target_node])
    return out[:, 0, 0]


def evaluate_rmse(spec: ModelSpec, state: ModelState, shift: ShiftOperator,
                  samples: list[RecSample], target_node: int) -> float:
    preds = predict(spec, state, shift, samples, target_node)
    targets = np.array([smp.target for smp in samples])
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


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


def save_metrics_csv(path, rows: list[dict]) -> None:
    """`model,seed,target,rmse` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "seed", "target", "rmse"])
        for row in rows:
            writer.writerow([row["model"], row["seed"], row["target"],
                             repr(float(row["rmse"]))])


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

