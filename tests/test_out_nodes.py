"""The last layer restricted to the output nodes a loss reads.

``forward_batch(..., out_nodes=T)`` runs the last layer through its rows at
T instead of its output at every node, which changes the summation order.
The full-output path is the oracle: outputs and every gradient must match
it, sliced at T (outputs) or with the loss gradient scattered at T, to a
relative tolerance. An edge-varying last layer gives its value gradient on
the reach of T only; it is compared at full shape, zero off the reach.
"""

import numpy as np
import pytest

from gspnn.graphs import ShiftKind, build_shift, permute_shift
from gspnn.neural import (
    LayerSpec,
    ModelError,
    ModelSpec,
    ReadoutSpec,
    forward_batch,
    init_state,
    iter_params,
    model_backward,
)
from gspnn.recsys import RecSample, build_model_spec, predict

from conftest import full_shape_grads, make_random_graph

RTOL = 1e-12


def rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def normalized_shift(seed, n=12):
    g, r = make_random_graph(seed, n=n, edge_prob=0.35)
    return build_shift(g, ShiftKind.NORMALIZED_ADJACENCY), r


ARMA = {"n_poles": 2, "jacobi_iters": 3}
NO_POLES = {"n_poles": 0, "jacobi_iters": 3}   # the pole axis is empty
LAST_LAYERS = {
    "fir": ("fir", 3, {}),
    "arma": ("arma", 2, ARMA),
    "arma_order0": ("arma", 0, ARMA),
    "arma_no_poles": ("arma", 2, NO_POLES),
    "arma_order0_no_poles": ("arma", 0, NO_POLES),
    "edge_order0": ("edge_varying", 0, {}),
    "edge_order3": ("edge_varying", 3, {}),
}
NODES = [np.array([4]), np.array([9, 2, 4, 2, 0])]  # one; unsorted, repeated


def last_layer(name, g_in, f_out):
    family, order, kwargs = LAST_LAYERS[name]
    return LayerSpec(family, g_in, f_out, order, nonlinearity="tanh", **kwargs)


def assert_matches_full(spec, state, s, x, nodes, r):
    full, full_tape = forward_batch(spec, state, s, x)
    part, part_tape = forward_batch(spec, state, s, x, out_nodes=nodes)
    assert part.shape == (x.shape[0], nodes.size, full.shape[2])
    assert rel(part, full[:, nodes]) <= RTOL
    dpart = r.normal(size=part.shape)
    dfull = np.zeros_like(full)
    np.add.at(dfull, (slice(None), nodes), dpart)
    want = iter_params(model_backward(full_tape, spec, state, dfull))
    got = full_shape_grads(spec, state,
                           model_backward(part_tape, spec, state, dpart), nodes)
    for (name, gw), (_, gg) in zip(want, got):
        assert rel(gg, gw) <= RTOL, f"{name}: {rel(gg, gw):.2e}"


@pytest.mark.parametrize("nodes", NODES, ids=["one", "repeated"])
@pytest.mark.parametrize("name", sorted(LAST_LAYERS))
def test_restricted_layer_matches_full_output(name, nodes):
    s, r = normalized_shift(11)
    spec = ModelSpec((last_layer(name, 2, 3),), ReadoutSpec("per_node_linear", 2))
    state = init_state(spec, r, shift=s)
    x = r.normal(size=(4, s.n_nodes, 2))
    assert_matches_full(spec, state, s, x, nodes, r)


@pytest.mark.parametrize("name", ["fir", "arma", "edge_order3"])
def test_restricted_last_layer_input_gradient_in_two_layer_model(name):
    # the first layer runs in full and reads the restricted layer's dx
    s, r = normalized_shift(12)
    spec = ModelSpec((LayerSpec("arma", 2, 3, 1, nonlinearity="tanh", **ARMA),
                      last_layer(name, 3, 2)))
    state = init_state(spec, r, shift=s)
    x = r.normal(size=(3, s.n_nodes, 2))
    assert_matches_full(spec, state, s, x, NODES[1], r)


@pytest.mark.parametrize("name", ["fir", "arma", "edge_order3"])
def test_restricted_gradients_match_finite_differences(name):
    s, r = normalized_shift(13, n=7)
    spec = ModelSpec((last_layer(name, 2, 2),), ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    nodes = np.array([5, 1, 5])
    x = r.normal(size=(2, s.n_nodes, 2))
    y = r.normal(size=(2, nodes.size, 1))

    def loss():
        out, _ = forward_batch(spec, state, s, x, out_nodes=nodes)
        return 0.5 * float(np.sum((out - y) ** 2))

    out, tape = forward_batch(spec, state, s, x, out_nodes=nodes)
    grads = full_shape_grads(spec, state, model_backward(tape, spec, state, out - y),
                             nodes)
    h = 1e-5
    for (name, arr), (_, ga) in zip(iter_params(state), grads):
        gn = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), gn.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        assert rel(ga, gn) <= 1e-4 or np.linalg.norm(gn) < 1e-8, name


@pytest.mark.parametrize("family", ["fir", "gcnn", "arma"])
def test_restricted_predict_is_permutation_equivariant(family):
    s, r = normalized_shift(14, n=15)
    spec = build_model_spec(family)
    state = init_state(spec, r, shift=s)
    samples = [RecSample(u, r.normal(size=s.n_nodes), 3.0) for u in range(6)]
    perm = r.permutation(s.n_nodes)
    inv = np.argsort(perm)
    moved = [RecSample(smp.user_id, smp.input[perm], smp.target)
             for smp in samples]
    for node in (0, 7, 14):
        base = predict(spec, state, s, samples, node)
        got = predict(spec, state, permute_shift(s, perm), moved, int(inv[node]))
        assert np.any(base != 0.0)
        assert rel(got, base) <= 1e-10


# ---------------------------------------------------------------------------
# out_nodes is checked at the call
# ---------------------------------------------------------------------------

def one_layer_model(shift_mode="static"):
    s, r = normalized_shift(15, n=6)
    spec = ModelSpec((LayerSpec("fir", 1, 2, 2),), ReadoutSpec("per_node_linear", 1),
                     shift_mode=shift_mode)
    return spec, init_state(spec, r), s, r.normal(size=(2, s.n_nodes, 1))


def test_out_nodes_needs_a_shift():
    spec, state, _, x = one_layer_model()
    with pytest.raises(ModelError, match="out_nodes"):
        forward_batch(spec, state, None, x, out_nodes=[0])


def test_out_nodes_rejects_time_varying_models():
    spec, state, s, x = one_layer_model("time_varying")
    with pytest.raises(ModelError, match="out_nodes"):
        forward_batch(spec, state, s, x, out_nodes=[0])


@pytest.mark.parametrize("nodes", [[], [[0, 1]], [0.0, 1.0], [True], 3],
                         ids=["empty", "2-D", "float", "bool", "scalar"])
def test_out_nodes_must_be_nonempty_1d_integers(nodes):
    spec, state, s, x = one_layer_model()
    with pytest.raises(ModelError, match="out_nodes"):
        forward_batch(spec, state, s, x, out_nodes=nodes)


@pytest.mark.parametrize("bad", [-1, 6])
def test_out_nodes_must_lie_in_the_graph(bad):
    spec, state, s, x = one_layer_model()
    with pytest.raises(ModelError, match=rf"out_nodes holds node {bad}\b"):
        forward_batch(spec, state, s, x, out_nodes=[0, bad])


def test_restricted_tape_rejects_full_output_loss_grad():
    spec, state, s, x = one_layer_model()
    full, _ = forward_batch(spec, state, s, x)
    _, tape = forward_batch(spec, state, s, x, out_nodes=[2])
    with pytest.raises(ModelError, match=r"loss_grad has shape \(2, 6, 1\)"):
        model_backward(tape, spec, state, np.zeros_like(full))
