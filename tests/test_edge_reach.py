"""An edge-varying last layer read at a few output nodes runs on their reach.

Step k of an order-K layer reaches output nodes T only through the support
entries whose row lies within K - k hops of T (``filters.edge_varying_reach``).
The restricted rows, their VJP and the recsys edgenet training run on those
entries alone. The full-width rows path that ran before,
``conftest.edge_rows_oracle``, is the oracle, and every comparison is exact:
a kept row keeps all its entries in the same order, and a dropped entry
only ever added an exact +-0. The one difference is the sign of a zero: a
value gradient off the reach is +0.0 now (it is never computed), where the
full-width path summed products with a zero into +-0.0, so gradients are
compared with ``==``, which equates the two zeros, and only trained
parameters, checkpoints and losses are compared bit for bit.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gspnn import neural, optim
from gspnn.filters import edge_varying_reach
from gspnn.neural import (
    forward_batch,
    init_state,
    iter_params,
    load_checkpoint,
    model_backward,
    out_node_reach,
)
from gspnn.recsys import (
    BATCH_SIZE,
    LEARNING_RATE,
    RatingProblem,
    build_item_shift,
    build_model_spec,
    build_similarity,
    evaluate_rmse,
    ingest_movielens,
    make_samples,
    save_rating_checkpoint,
    select_top_items,
    train_rating_model,
    transfer_rmse,
)

from conftest import (
    edge_rows_oracle,
    full_shape_grads,
    most_rated_items,
    train_step_peaks,
)

ROOT = Path(__file__).resolve().parents[1]
SEED = 17
TRAIN_USERS, EPOCHS = 10, 4     # the benchmark round's recipe


@pytest.fixture(scope="module")
def ml100k(tmp_path_factory):
    """The benchmark's MovieLens-100k-shaped table at seed 17 cut to its 200
    most-rated items, with the round's target item, two transfer items and
    its split (10 training users for the target)."""
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path_factory.mktemp("ml100k") / "u.data"
    path.write_text("\n".join(inputs.movielens_like_lines(SEED)) + "\n")
    top = select_top_items(ingest_movielens(path), 200)
    sim = build_similarity(top)
    items = most_rated_items(top, 3)
    raters = np.bincount(top.item_idx)[top.item_node(items[0])]
    return top, sim, items, (TRAIN_USERS + 0.5) / raters


@pytest.fixture(scope="module")
def edgenet(ml100k):
    top, sim, items, _ = ml100k
    shift = build_item_shift(sim)
    spec = build_model_spec("edgenet")
    state = init_state(spec, np.random.default_rng(SEED), shift=shift)
    return spec, state, shift, [top.item_node(item) for item in items]


def hop_distances(support, nodes):
    """Breadth-first hop count from ``nodes`` over the support's edges,
    row to column; unreached nodes get n."""
    n = support.n_nodes
    dist = np.full(n, n)
    dist[nodes] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[nodes] = True
    for hop in range(1, n):
        step = np.zeros(n, dtype=bool)
        step[support.cols[frontier[support.rows]]] = True
        frontier = step & (dist == n)
        if not frontier.any():
            break
        dist[frontier] = hop
    return dist


def node_sets(nodes):
    target, transfer, other = nodes
    return {"target": [target], "transfer": [transfer],
            "repeated": [target, transfer, target],
            "several": [other, target, 3, 150, transfer]}


NODE_SETS = ["target", "transfer", "repeated", "several"]


# ---------------------------------------------------------------------------
# The reach
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", NODE_SETS)
def test_reach_holds_the_entries_within_k_minus_k_hops(edgenet, which):
    _, state, _, nodes = edgenet
    sup = state.layers[0].support
    picked = np.array(node_sets(nodes)[which])
    reach = edge_varying_reach(sup, 4, picked)
    dist = hop_distances(sup, picked)
    assert len(reach) == 4
    for k, entries in enumerate(reach, start=1):
        want = np.flatnonzero(dist[sup.rows] <= 4 - k)
        assert entries.dtype.kind == "i" and np.array_equal(entries, want), k


def test_the_target_reaches_2063_of_11584_value_columns(edgenet):
    spec, state, shift, nodes = edgenet
    reach = edge_varying_reach(state.layers[0].support, 4, np.array(nodes[:1]))
    assert [e.size for e in reach] == [994, 840, 217, 12]
    (name, index), = out_node_reach(spec, state, nodes[:1]).items()
    assert name == "layers.0.values"
    assert state.layers[0].values[index].shape == (64, 1, 2063)
    assert state.layers[0].values.shape == (64, 1, 4, 2896)


# ---------------------------------------------------------------------------
# Rows and gradients against the full-width oracle
# ---------------------------------------------------------------------------

def restricted_and_oracle(params, nodes, r):
    """(rows, diag gradient, full-shape value gradient) of the restricted
    path and of the oracle for one random xbar."""
    w, vjp = neural._edge_rows(params, nodes)
    w_full, vjp_full = edge_rows_oracle(params, nodes)
    xbar = r.normal(size=w.shape)
    got, want = vjp(xbar), vjp_full(xbar)
    gvals = np.zeros_like(params.values)
    # the reach _edge_rows ran on, patched or not
    reach = neural.edge_varying_reach(params.support, 4, nodes)
    gvals[neural._reach_index(reach)] = got.values
    return (w, got.diag, gvals), (w_full, want.diag, want.values)


@pytest.mark.parametrize("which", NODE_SETS)
def test_restricted_rows_and_gradients_equal_the_full_width_oracle(edgenet, which):
    _, state, _, nodes = edgenet
    params = state.layers[0]
    picked = np.array(node_sets(nodes)[which])
    got, want = restricted_and_oracle(params, picked, np.random.default_rng(3))
    for name, g, w in zip(("rows", "diag gradient", "values gradient"), got, want):
        assert g.shape == w.shape and np.all(g == w), name
    gvals = got[2]
    live = np.zeros(gvals.shape[2:], dtype=bool)
    for k, entries in enumerate(edge_varying_reach(params.support, 4, picked)):
        live[k, entries] = True
    assert np.all(gvals[..., live] != 0.0)
    assert np.all(want[2][..., ~live] == 0.0)
    assert not np.signbit(gvals[..., ~live]).any()


@pytest.mark.parametrize("which", NODE_SETS)
def test_model_outputs_and_gradients_equal_the_oracle_patched_model(
        edgenet, which, monkeypatch):
    spec, state, shift, nodes = edgenet
    picked = node_sets(nodes)[which]
    r = np.random.default_rng(4)
    x = r.normal(size=(5, 200, 1))

    def run():
        out, tape = forward_batch(spec, state, shift, x, out_nodes=picked)
        dout = np.random.default_rng(5).normal(size=out.shape)
        return out, model_backward(tape, spec, state, dout)

    out, grads = run()
    (name, index), = out_node_reach(spec, state, picked).items()
    assert grads.layers[0].values.shape == state.layers[0].values[index].shape
    monkeypatch.setattr(neural, "_edge_rows", edge_rows_oracle)
    out_full, grads_full = run()
    assert out.tobytes() == out_full.tobytes()
    got = full_shape_grads(spec, state, grads, picked)
    for (name, g), (_, w) in zip(got, iter_params(grads_full)):
        assert g.shape == w.shape and np.all(g == w), name


@pytest.mark.parametrize("step", [1, 2, 3, 4])
def test_dropping_one_live_entry_breaks_the_match(edgenet, step, monkeypatch):
    # the positive control of the oracle tests: without one entry of one
    # step's reach, the rows or the gradients no longer equal the oracle's
    _, state, _, nodes = edgenet
    params = state.layers[0]

    def short_reach(support, order, picked):
        reach = list(edge_varying_reach(support, order, picked))
        reach[step - 1] = reach[step - 1][:-1]
        return tuple(reach)

    monkeypatch.setattr(neural, "edge_varying_reach", short_reach)
    got, want = restricted_and_oracle(params, np.array(nodes[:1]),
                                      np.random.default_rng(3))
    assert any(g.shape != w.shape or np.any(g != w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_round(ml100k, tmp_path, label):
    """The edgenet part of the benchmark round: train, checkpoint, reload and
    evaluate, and evaluate at the transfer items. Returns the trained model,
    the checkpoint bytes and the round's fingerprint entries."""
    top, sim, items, split = ml100k
    model = train_rating_model(top, sim, "edgenet", items[0], seed=SEED,
                               epochs=EPOCHS, split=split)
    path = tmp_path / f"{label}.npz"
    save_rating_checkpoint(path, model)
    spec, state, _ = load_checkpoint(path)
    _, test_set = make_samples(top, sim, items[0], split=split, seed=SEED)
    fingerprint = [row[2] for row in model.history] + [
        model.train_rmse, model.test_rmse,
        evaluate_rmse(spec, state, model.shift, test_set, model.target_node)]
    fingerprint += [transfer_rmse(model, top, sim, item, split=split)
                    for item in items[1:]]
    return model, path.read_bytes(), fingerprint


def test_edgenet_training_moves_only_its_reach_and_equals_the_full_width_training(
        ml100k, tmp_path, monkeypatch):
    top, sim, items, _ = ml100k
    model, checkpoint, fingerprint = train_round(ml100k, tmp_path, "reach")
    init = init_state(model.spec, np.random.default_rng(SEED), shift=model.shift)
    (_, index), = out_node_reach(model.spec, init, [model.target_node]).items()
    moved = np.zeros(init.layers[0].values.shape, dtype=bool)
    moved[index] = True
    trained = model.state.layers[0].values
    assert trained[~moved].tobytes() == init.layers[0].values[~moved].tobytes()
    assert np.any(trained[moved] != init.layers[0].values[moved])

    # the full-width rows path with ADAM on every weight
    monkeypatch.setattr(neural, "_edge_rows", edge_rows_oracle)
    monkeypatch.setattr(RatingProblem, "reach", lambda self: {})
    full, full_checkpoint, full_fingerprint = train_round(ml100k, tmp_path, "full")
    assert np.array(fingerprint).tobytes() == np.array(full_fingerprint).tobytes()
    for (name, a), (_, b) in zip(iter_params(model.state), iter_params(full.state)):
        assert a.tobytes() == b.tobytes(), name
    assert checkpoint == full_checkpoint


def test_edgenet_training_steps_allocate_no_full_value_array(ml100k, monkeypatch):
    top, sim, items, split = ml100k
    shift = build_item_shift(sim)
    spec = build_model_spec("edgenet")
    state = init_state(spec, np.random.default_rng(SEED), shift=shift)
    train_set, _ = make_samples(top, sim, items[0], split=split, seed=SEED)
    problem = RatingProblem(spec, state, shift, train_set, top.item_node(items[0]))
    moments = []
    step = optim.adam_step

    def adam_step(adam, params, grads, param_names=None):
        moments.append([m.shape for m in adam.first_moment + adam.second_moment])
        step(adam, params, grads, param_names)

    monkeypatch.setattr(optim, "adam_step", adam_step)
    history, peaks = train_step_peaks(problem, optim.TrainConfig(
        epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
        seed=SEED))
    # about 3.8 MB a step, most of it the gathers and bincount operands of
    # one step of the sweep or the chain; a full-shape gradient, moment or
    # parameter copy alone is 5.9 MB
    full = state.layers[0].values.nbytes
    assert len(peaks) == len(history) == 8
    assert max(peaks) < full, [f"{p / 1e6:.2f} MB" for p in peaks]
    values_moment = (64, 1, 2063)
    assert all(shapes[1] == shapes[5] == values_moment for shapes in moments)
