import json
import re
from dataclasses import replace

import numpy as np
import pytest

from gspnn.filters import (
    ArmaParams,
    EdgeVaryingParams,
    FilterError,
    FirTaps,
    arma_apply_jacobi,
    edge_varying_apply,
    fir_apply,
)
from gspnn.graphs import (
    GraphSignal,
    ShiftKind,
    ShiftOperator,
    build_shift,
    eigendecompose,
)
from gspnn.neural import (
    ArmaLayerParams,
    EdgeLayerParams,
    FirLayerParams,
    LayerSpec,
    ModelError,
    ModelSpec,
    ModelState,
    ReadoutSpec,
    apply_tap_constraints,
    equivariant_forward_check,
    forward_batch,
    init_state,
    iter_params,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
    validate_state,
)

from conftest import delayed_stack_oracle, edge_chain_oracle, make_random_graph
from test_graphs import REPEATED_SPECTRUM_GRAPHS, path3_graph, two_node_graph


def small_shift(seed=0, n=8):
    g, r = make_random_graph(seed, n=n)
    return eigendecompose(build_shift(g, ShiftKind.ADJACENCY)), r


# ---------------------------------------------------------------------------
# Forward behavior
# ---------------------------------------------------------------------------

def test_identity_filter_relu_on_nonnegative():
    s, r = small_shift(1)
    spec = ModelSpec((LayerSpec("fir", 1, 1, 0, nonlinearity="relu"),))
    state = ModelState([FirLayerParams(np.ones((1, 1, 1)))])
    x = GraphSignal(np.abs(r.normal(size=s.n_nodes)))
    out, _ = model_forward(spec, state, s, x)
    assert np.array_equal(out.values, x.values)


def test_two_input_features_sum_through_identity_filters():
    s, r = small_shift(2)
    spec = ModelSpec((LayerSpec("fir", 2, 1, 0, nonlinearity="relu"),))
    state = ModelState([FirLayerParams(np.ones((1, 2, 1)))])
    x = r.normal(size=(s.n_nodes, 2))
    out, _ = model_forward(spec, state, s, GraphSignal(x))
    assert np.allclose(out.values[:, 0], np.maximum(x.sum(axis=1), 0.0), atol=1e-14)


def test_path3_single_shift_relu():
    s = build_shift(path3_graph(), ShiftKind.ADJACENCY)
    spec = ModelSpec((LayerSpec("fir", 1, 1, 1, nonlinearity="relu"),))
    state = ModelState([FirLayerParams(np.array([0.0, 1.0]).reshape(1, 1, 2))])
    x = np.array([-1.0, 2.0, -1.0])
    out, _ = model_forward(spec, state, s, GraphSignal(x))
    # dense oracle: relu(Sx) = relu([2, -2, 2]) = [2, 0, 2]
    assert np.allclose(out.values[:, 0],
                       np.maximum(s.dense() @ x, 0.0), atol=1e-15)
    assert np.array_equal(out.values[:, 0], [2.0, 0.0, 2.0])


def test_linear_single_layer_reproduces_fir_bitwise():
    s, r = small_shift(3)
    taps = r.normal(size=4)
    spec = ModelSpec((LayerSpec("fir", 1, 1, 3, nonlinearity="identity"),))
    state = ModelState([FirLayerParams(taps.reshape(1, 1, 4))])
    x = GraphSignal(r.normal(size=s.n_nodes))
    out, _ = model_forward(spec, state, s, x)
    ref = fir_apply(FirTaps(taps), s, x)
    assert np.array_equal(out.values, ref.values)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_edge_varying_layer_reproduces_edge_varying_apply_bitwise(order):
    # the layer and edge_varying_apply share one chain kernel
    for seed in range(20):
        s, r = small_shift(50 + seed)
        spec = ModelSpec((LayerSpec("edge_varying", 1, 1, order,
                                    nonlinearity="identity"),))
        state = init_state(spec, r, shift=s)
        params = state.layers[0]
        x = GraphSignal(r.normal(size=s.n_nodes))
        out, _ = model_forward(spec, state, s, x)
        ref = edge_varying_apply(EdgeVaryingParams(
            params.support, params.diag[0, 0], params.values[0, 0]), x)
        assert np.array_equal(out.values, ref.values), seed


@pytest.mark.parametrize("order", [0, 1, 3])
def test_edge_varying_layer_matches_bincount_chain_oracle(order):
    s, r = small_shift(5)
    spec = ModelSpec((LayerSpec("edge_varying", 2, 2, order,
                                nonlinearity="identity"),))
    state = init_state(spec, r, shift=s)
    params = state.layers[0]
    x = r.normal(size=(3, s.n_nodes, 2))
    out, _ = forward_batch(spec, state, s, x)
    for f in range(2):
        want = sum(edge_chain_oracle(params.support, params.diag[f, g],
                                     params.values[f, g], x[:, :, g].T)
                   for g in range(2)).T
        err = np.linalg.norm(out[:, :, f] - want) / np.linalg.norm(want)
        assert err <= 1e-12, (f, err)


def test_order_zero_edge_varying_layer_scales_by_its_diagonal():
    s, r = small_shift(6)
    spec = ModelSpec((LayerSpec("edge_varying", 2, 3, 0,
                                nonlinearity="identity"),))
    state = init_state(spec, r, shift=s)
    diag = state.layers[0].diag                      # (F, G, N)
    x = r.normal(size=(4, s.n_nodes, 2))
    out, _ = forward_batch(spec, state, s, x)
    want = (diag[None] * x.transpose(0, 2, 1)[:, None]).sum(axis=2)
    assert np.array_equal(out, want.transpose(0, 2, 1))


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("iters", [1, 3])
def test_single_pole_arma_layer_reproduces_arma_apply_jacobi_bitwise(order, iters):
    # the layer and arma_apply_jacobi share one Jacobi recursion
    for seed in range(10):
        s, r = small_shift(30 + seed)
        alpha, beta = r.normal(size=order + 1), r.normal()
        gamma = 2.0 * s.operator_norm
        spec = ModelSpec((LayerSpec("arma", 1, 1, order, n_poles=1,
                                    jacobi_iters=iters,
                                    nonlinearity="identity"),))
        state = ModelState([ArmaLayerParams(alpha.reshape(1, 1, -1),
                                            np.full((1, 1, 1), beta),
                                            np.full((1, 1, 1), gamma))])
        x = GraphSignal(r.normal(size=s.n_nodes))
        out, _ = model_forward(spec, state, s, x)
        ref = arma_apply_jacobi(ArmaParams([gamma], [beta], alpha, iters), s, x)
        assert np.array_equal(out.values, ref.values), seed


def test_zero_input_zero_bias_gives_zero_output():
    s, r = small_shift(4)
    spec = ModelSpec((LayerSpec("fir", 1, 3, 2, nonlinearity="relu"),),
                     ReadoutSpec("per_node_linear", 2))
    state = init_state(spec, r, shift=s)
    out, _ = model_forward(spec, state, s, GraphSignal(np.zeros(s.n_nodes)))
    assert np.all(out.values == 0.0)


def test_two_layer_hand_forward_on_two_nodes():
    s = build_shift(two_node_graph(), ShiftKind.ADJACENCY)
    spec = ModelSpec((
        LayerSpec("fir", 1, 1, 1, nonlinearity="relu"),
        LayerSpec("fir", 1, 1, 1, nonlinearity="identity"),
    ))
    # layer 1: u = 1*x + 2*Sx; layer 2: v = relu(u) - S relu(u)
    state = ModelState([
        FirLayerParams(np.array([1.0, 2.0]).reshape(1, 1, 2)),
        FirLayerParams(np.array([1.0, -1.0]).reshape(1, 1, 2)),
    ])
    x = np.array([1.0, -2.0])
    # u = [1 - 4, -2 + 2] = [-3, 0] -> relu [0, 0] -> out [0, 0]
    out, _ = model_forward(spec, state, s, GraphSignal(x))
    assert np.array_equal(out.values[:, 0], [0.0, 0.0])
    x2 = np.array([1.0, 1.0])
    # u = [3, 3] -> relu [3, 3] -> v = [3-3, 3-3] = [0, 0]
    out2, _ = model_forward(spec, state, s, GraphSignal(x2))
    assert np.array_equal(out2.values[:, 0], [0.0, 0.0])
    x3 = np.array([2.0, 0.0])
    # u = [2, 4] -> relu [2, 4] -> v = [2-4, 4-2] = [-2, 2]
    out3, _ = model_forward(spec, state, s, GraphSignal(x3))
    assert np.array_equal(out3.values[:, 0], [-2.0, 2.0])


def test_model_spec_validation():
    with pytest.raises(ModelError):
        ModelSpec((LayerSpec("fir", 1, 2, 1), LayerSpec("fir", 3, 1, 1)))
    with pytest.raises(ModelError):
        ModelSpec((LayerSpec("fir", 1, 1, 1),), shift_mode="sometimes")
    with pytest.raises(ModelError):
        ModelSpec((LayerSpec("fir", 1, 1, 1), LayerSpec("fir", 1, 1, 1)),
                  shift_mode="time_varying")
    with pytest.raises(ModelError):
        LayerSpec("fir", 1, 1, 1, nonlinearity="sigmoid")


# ---------------------------------------------------------------------------
# Gradient checks against central finite differences
# ---------------------------------------------------------------------------

def analytic_grads(spec, state, s, x, y):
    out, tape = model_forward(spec, state, s, GraphSignal(x))
    loss_grad = out.values - y
    return model_backward(tape, spec, state, GraphSignal(loss_grad))


def numeric_grads(spec, state, s, x, y, h=1e-5):
    def loss():
        out, _ = model_forward(spec, state, s, GraphSignal(x))
        return 0.5 * float(np.sum((out.values - y) ** 2))

    grads = []
    for name, arr in iter_params(state):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append((name, g))
    return grads


def assert_grads_close(spec, state, s, rng, rtol=1e-4, check_names=()):
    x = rng.normal(size=(s.n_nodes, spec.in_features))
    out, _ = model_forward(spec, state, s, GraphSignal(x))
    y = rng.normal(size=out.values.shape)
    ana = analytic_grads(spec, state, s, x, y)
    ana_list = list(iter_params(ana))
    num_list = numeric_grads(spec, state, s, x, y)
    seen = set()
    for (name_a, ga), (name_n, gn) in zip(ana_list, num_list):
        assert name_a == name_n
        seen.add(name_a.split(".")[-1].split("[")[0])
        scale = max(np.linalg.norm(gn), 1e-8)
        assert np.linalg.norm(ga - gn) / scale <= rtol, \
            f"{name_a}: rel err {np.linalg.norm(ga - gn) / scale:.2e}"
    for want in check_names:
        assert any(want in name for name, _ in ana_list), f"missing {want}"


def test_gradients_fir_two_layers_with_readout():
    s, r = small_shift(10)
    spec = ModelSpec((
        LayerSpec("fir", 2, 3, 2, nonlinearity="tanh"),
        LayerSpec("fir", 3, 2, 3, nonlinearity="tanh"),
    ), ReadoutSpec("per_node_linear", 2))
    state = init_state(spec, r, shift=s)
    assert_grads_close(spec, state, s, r, check_names=("taps", "weight", "bias"))


def test_gradients_arma_all_parameter_classes():
    s, r = small_shift(11)
    spec = ModelSpec((
        LayerSpec("arma", 2, 2, 2, n_poles=2, jacobi_iters=3,
                  nonlinearity="tanh"),
    ), ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    assert_grads_close(spec, state, s, r,
                       check_names=("alpha", "beta", "gamma"))


def test_gradients_arma_inner_layer_input_path():
    # gamma/beta gradients must also flow through a downstream layer
    s, r = small_shift(12)
    spec = ModelSpec((
        LayerSpec("arma", 1, 2, 1, n_poles=1, jacobi_iters=2,
                  nonlinearity="tanh"),
        LayerSpec("fir", 2, 1, 2, nonlinearity="tanh"),
    ))
    state = init_state(spec, r, shift=s)
    assert_grads_close(spec, state, s, r)


def test_gradients_edge_varying():
    s, r = small_shift(13)
    spec = ModelSpec((
        LayerSpec("edge_varying", 2, 2, 2, nonlinearity="tanh"),
    ), ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    assert_grads_close(spec, state, s, r, check_names=("diag", "values"))


def test_gradients_edge_varying_inner_layer():
    s, r = small_shift(14)
    spec = ModelSpec((
        LayerSpec("edge_varying", 1, 2, 1, nonlinearity="tanh"),
        LayerSpec("fir", 2, 1, 1, nonlinearity="identity"),
    ))
    state = init_state(spec, r, shift=s)
    assert_grads_close(spec, state, s, r)


def test_gradients_order_zero_edge_varying_inner_layer():
    s, r = small_shift(16)
    spec = ModelSpec((
        LayerSpec("edge_varying", 1, 2, 0, nonlinearity="tanh"),
        LayerSpec("fir", 2, 1, 2, nonlinearity="identity"),
    ))
    state = init_state(spec, r, shift=s)
    assert_grads_close(spec, state, s, r, check_names=("diag", "taps"))


def test_gradients_relu_away_from_kink():
    s, r = small_shift(15)
    spec = ModelSpec((LayerSpec("fir", 1, 2, 2, nonlinearity="relu"),))
    state = init_state(spec, r, shift=s)
    x = r.normal(size=(s.n_nodes, 1))
    out, _ = model_forward(spec, state, s, GraphSignal(x))
    # the pre-activations are the same layer's output under identity
    linear = ModelSpec((replace(spec.layers[0], nonlinearity="identity"),))
    pre, _ = model_forward(linear, state, s, GraphSignal(x))
    assert np.min(np.abs(pre.values)) > 1e-3  # no unit near the kink
    y = r.normal(size=out.values.shape)
    ana = list(iter_params(analytic_grads(spec, state, s, x, y)))
    num = numeric_grads(spec, state, s, x, y)
    for (_, ga), (_, gn) in zip(ana, num):
        assert np.linalg.norm(ga - gn) / max(np.linalg.norm(gn), 1e-8) <= 1e-4


def tape_model(nonlinearity, seed):
    """A FIR -> ARMA model with a readout, its state, shift and input."""
    s, r = small_shift(seed)
    spec = ModelSpec((LayerSpec("fir", 1, 3, 2, nonlinearity=nonlinearity),
                      LayerSpec("arma", 3, 2, 1, n_poles=1, jacobi_iters=2,
                                nonlinearity=nonlinearity)),
                     ReadoutSpec("per_node_linear", 1))
    return spec, init_state(spec, r, shift=s), s, r.normal(size=(3, s.n_nodes, 1))


def test_relu_tape_keeps_a_bool_mask_per_layer():
    spec, state, s, x = tape_model("relu", 41)
    _, tape = forward_batch(spec, state, s, x)
    masks = tape.nonlin_saved
    assert [m.dtype for m in masks] == [np.bool_, np.bool_]
    assert [m.shape for m in masks] == [(3, s.n_nodes, 3), (3, s.n_nodes, 2)]
    assert np.array_equal(masks[1], tape.readout_input > 0.0)
    linear = ModelSpec((replace(spec.layers[0], nonlinearity="identity"),))
    pre, _ = forward_batch(linear, ModelState(state.layers[:1]), s, x)
    assert np.array_equal(masks[0], pre > 0.0)


def test_tanh_tape_keeps_one_float_array_per_layer():
    spec, state, s, x = tape_model("tanh", 42)
    _, tape = forward_batch(spec, state, s, x)
    saved = tape.nonlin_saved
    assert len(saved) == 2
    assert all(a.dtype == np.float64 for a in saved)
    assert saved[1] is tape.readout_input             # the output itself
    linear = ModelSpec((replace(spec.layers[0], nonlinearity="identity"),))
    pre, _ = forward_batch(linear, ModelState(state.layers[:1]), s, x)
    assert saved[0].tobytes() == np.tanh(pre).tobytes()


@pytest.mark.parametrize("nonlinearity", ["relu", "tanh", "identity"])
def test_model_backward_twice_on_one_tape_gives_equal_gradients(nonlinearity):
    spec, state, s, x = tape_model(nonlinearity, 43)
    out, tape = forward_batch(spec, state, s, x)
    dout = np.random.default_rng(5).normal(size=out.shape)
    first = model_backward(tape, spec, state, dout)
    second = model_backward(tape, spec, state, dout)
    for (name, a), (_, b) in zip(iter_params(first), iter_params(second)):
        assert a.tobytes() == b.tobytes(), name


FIRST_LAYERS = {
    "fir": LayerSpec("fir", 2, 3, 2, nonlinearity="tanh"),
    "arma": LayerSpec("arma", 2, 3, 1, n_poles=2, jacobi_iters=2,
                      nonlinearity="tanh"),
    "edge_varying": LayerSpec("edge_varying", 2, 3, 2, nonlinearity="relu"),
}


def two_layer_model(family, seed):
    """Two layers of ``family`` into a readout, and a batch."""
    s, r = small_shift(seed)
    first = FIRST_LAYERS[family]
    layers = (first, replace(first, in_features=3, out_features=2))
    spec = ModelSpec(layers, ReadoutSpec("per_node_linear", 2))
    return spec, init_state(spec, r, shift=s), s, r.normal(size=(3, s.n_nodes, 2))


def test_model_backward_adds_into_the_given_gradients_in_place():
    spec, state, s, x = two_layer_model("arma", 49)
    out, tape = forward_batch(spec, state, s, x)
    dout = np.random.default_rng(9).normal(size=out.shape)
    acc = model_backward(tape, spec, state, dout)
    arrays = [g for _, g in iter_params(acc)]
    want = [a + g for a, (_, g) in zip(arrays, iter_params(
        model_backward(tape, spec, state, 0.5 * dout)))]
    assert model_backward(tape, spec, state, 0.5 * dout, into=acc) is acc
    for (name, got), w, a in zip(iter_params(acc), want, arrays):
        assert got is a and got.tobytes() == w.tobytes(), name
    for family, message in (("fir", "into holds FirLayerParams where the "
                                     "gradient is ArmaLayerParams"),
                            ("edge_varying", "into holds EdgeLayerParams")):
        other, other_state, _, _ = two_layer_model(family, 49)
        with pytest.raises(ModelError, match=message):
            model_backward(tape, spec, state, dout, into=other_state)
    wide = replace(spec, layers=(replace(spec.layers[0], order=2),
                                 spec.layers[1]))
    with pytest.raises(ModelError, match=r"into holds a \(3, 2, 3\) array "
                                         r"where the gradient is \(3, 2, 2\)"):
        model_backward(tape, spec, state, dout,
                       into=init_state(wide, np.random.default_rng(0), shift=s))


SHIFTLESS_CASES = {
    # a static order-2 FIR model failed inside filters.shifted_stack with
    # AttributeError: 'NoneType' object has no attribute 'apply'
    "fir": ((LayerSpec("fir", 1, 1, 2),), r"layer 0 \(fir\)"),
    "arma after edge_varying": ((LayerSpec("edge_varying", 1, 2, 1),
                                 LayerSpec("arma", 2, 1, 1, n_poles=1)),
                                r"layer 1 \(arma\)"),
}


@pytest.mark.parametrize("case", sorted(SHIFTLESS_CASES))
def test_forward_batch_without_a_shift_names_the_layer_that_applies_it(case):
    layers, message = SHIFTLESS_CASES[case]
    s, r = small_shift(44, n=30)
    state = init_state(ModelSpec(layers), r, shift=s)
    with pytest.raises(ModelError, match=rf"{message} applies the shift, but s "
                                         r"is None"):
        forward_batch(ModelSpec(layers), state, None, np.ones((1, 30, 1)))


def test_edge_varying_model_runs_without_a_shift():
    s, r = small_shift(45)
    spec = ModelSpec((LayerSpec("edge_varying", 1, 2, 2),
                      LayerSpec("edge_varying", 2, 1, 1)))
    state = init_state(spec, r, shift=s)
    x = r.normal(size=(2, s.n_nodes, 1))
    with_shift, _ = forward_batch(spec, state, s, x)
    without, _ = forward_batch(spec, state, None, x)
    assert np.array_equal(with_shift, without)


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    s, r = small_shift(16)
    spec = ModelSpec((LayerSpec("arma", 1, 2, 1, n_poles=1, jacobi_iters=2),),
                     ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    out, tape = model_forward(spec, state, s,
                              GraphSignal(r.normal(size=s.n_nodes)))
    grads = model_backward(tape, spec, state,
                           GraphSignal(np.zeros_like(out.values)))
    for _, arr in iter_params(grads):
        assert np.all(arr == 0.0)


def test_single_tap_quadratic_gradient_closed_form():
    # J = 0.5 || h0 x - y ||^2  =>  dJ/dh0 = <h0 x - y, x>
    s, r = small_shift(17)
    spec = ModelSpec((LayerSpec("fir", 1, 1, 0, nonlinearity="identity"),))
    h0 = 0.8
    state = ModelState([FirLayerParams(np.array(h0).reshape(1, 1, 1))])
    x = r.normal(size=s.n_nodes)
    y = r.normal(size=(s.n_nodes, 1))
    out, tape = model_forward(spec, state, s, GraphSignal(x))
    grads = model_backward(tape, spec, state, GraphSignal(out.values - y))
    expected = float((h0 * x[:, None] - y)[:, 0] @ x)
    assert grads.layers[0].taps.reshape(()) == pytest.approx(expected, rel=1e-12)


def test_stale_tape_rejected():
    s, r = small_shift(18)
    spec = ModelSpec((LayerSpec("fir", 1, 1, 1),))
    state = init_state(spec, r, shift=s)
    out, tape = model_forward(spec, state, s, GraphSignal(r.normal(size=s.n_nodes)))
    state.bump_version()
    with pytest.raises(ModelError, match="stale"):
        model_backward(tape, spec, state, GraphSignal(np.zeros_like(out.values)))


def test_loss_grad_of_wrong_shape_rejected():
    # a (4, 1, 1) gradient would broadcast over the nodes of a (4, 10, 1)
    # output and give wrong gradients
    s, r = small_shift(19, n=10)
    spec = ModelSpec((LayerSpec("edge_varying", 1, 2, 2),),
                     ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    out, tape = forward_batch(spec, state, s, r.normal(size=(4, 10, 1)))
    assert out.shape == (4, 10, 1)
    with pytest.raises(ModelError, match=r"loss_grad has shape \(4, 1, 1\).*"
                                         r"\(4, 10, 1\)"):
        model_backward(tape, spec, state, np.ones((4, 1, 1)))


# ---------------------------------------------------------------------------
# Equivariance
# ---------------------------------------------------------------------------

def test_identity_permutation_error_is_zero():
    s, r = small_shift(20)
    spec = ModelSpec((LayerSpec("fir", 1, 2, 2),))
    state = init_state(spec, r, shift=s)
    x = GraphSignal(r.normal(size=s.n_nodes))
    rep = equivariant_forward_check(spec, state, s, x, np.arange(s.n_nodes))
    assert rep["relative_error"] == 0.0
    assert rep["family_expected_equivariant"]


@pytest.mark.parametrize("family,kwargs", [
    ("fir", {}),
    ("arma", {"n_poles": 1, "jacobi_iters": 2}),
])
def test_convolutional_models_are_permutation_equivariant(family, kwargs):
    cases = [make_random_graph(300 + seed,
                               n=int(np.random.default_rng(seed).integers(4, 13)))
             for seed in range(12)]
    # seeds for which both families' relu outputs are nonzero on C8 and K5
    cases += [(g, np.random.default_rng(g.n_nodes + 1))
              for g in REPEATED_SPECTRUM_GRAPHS.values()]
    for g, r in cases:
        s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
        spec = ModelSpec((
            LayerSpec(family, 1, 3, 2, nonlinearity="relu", **kwargs),
            LayerSpec(family, 3, 2, 2, nonlinearity="relu", **kwargs),
        ), ReadoutSpec("per_node_linear", 2))
        # An all-zero relu output is equivariant whatever the model does:
        # redraw from the case's own generator until the output is live.
        for _ in range(20):
            state = init_state(spec, r, shift=s)
            x = GraphSignal(r.normal(size=s.n_nodes))
            _, tape = model_forward(spec, state, s, x)
            if np.any(tape.readout_input != 0.0):
                break
        assert np.any(tape.readout_input != 0.0), "no live relu output drawn"
        perm = r.permutation(s.n_nodes)
        rep = equivariant_forward_check(spec, state, s, x, perm)
        assert rep["relative_error"] <= 1e-10


def test_edge_varying_generically_not_equivariant():
    s, r = small_shift(21)
    spec = ModelSpec((LayerSpec("edge_varying", 1, 2, 2),))
    state = init_state(spec, r, shift=s)
    x = GraphSignal(r.normal(size=s.n_nodes))
    perm = r.permutation(s.n_nodes)
    while np.all(perm == np.arange(s.n_nodes)):
        perm = r.permutation(s.n_nodes)
    rep = equivariant_forward_check(spec, state, s, x, perm)
    assert not rep["family_expected_equivariant"]
    assert rep["relative_error"] >= 0.0  # report only; generically > 0


# ---------------------------------------------------------------------------
# Readout locality
# ---------------------------------------------------------------------------

def test_readout_locality_within_l_times_k_hops():
    # path graph: perturbing node 0 must not reach nodes beyond L*K hops
    n = 9
    from gspnn.graphs import Graph
    g = Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))
    s = build_shift(g, ShiftKind.ADJACENCY)
    r = np.random.default_rng(0)
    spec = ModelSpec((
        LayerSpec("fir", 1, 2, 2, nonlinearity="relu"),
        LayerSpec("fir", 2, 2, 1, nonlinearity="relu"),
    ), ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    x = r.normal(size=n)
    base, _ = model_forward(spec, state, s, GraphSignal(x))
    x2 = x.copy()
    x2[0] += 1.0
    moved, _ = model_forward(spec, state, s, GraphSignal(x2))
    diff = np.abs(moved.values - base.values)[:, 0]
    reach = 2 * 1 + 1 * 2  # sum of layer orders
    assert np.all(diff[reach + 1:] == 0.0)


def test_init_state_checks_drawn_poles_against_the_shift():
    spec = ModelSpec((LayerSpec("fir", 1, 2, 1),
                      LayerSpec("arma", 2, 2, 1, n_poles=2)))
    # the same seed draws the same poles with or without a shift
    drawn = init_state(spec, np.random.default_rng(0), lambda_max=1.0)
    pole = float(drawn.layers[1].gamma[1, 0, 1])
    s = ShiftOperator.from_dense(np.diag([0.0, pole, 0.5]))
    with pytest.raises(FilterError, match=re.escape(
            f"layers.1.gamma[1, 0, 1] = {pole!r} is within")):
        init_state(spec, np.random.default_rng(0), shift=s, lambda_max=1.0)
    s, _ = small_shift()
    state = init_state(spec, np.random.default_rng(0), shift=s)
    assert np.all(np.abs(state.layers[1].gamma) >= 1.5 * s.operator_norm)


# ---------------------------------------------------------------------------
# Fir variant constraints
# ---------------------------------------------------------------------------

def test_layer_spec_checks_fir_variant_orders():
    for variant, order in (("plain", 0), ("gcn", 1), ("sgc", 1), ("sgc", 3),
                           ("gin", 1)):
        LayerSpec("fir", 1, 1, order, fir_variant=variant)
    for variant, order, message in (
            ("gcn", 2, "gcn is defined for order 1, got 2"),
            ("gin", 0, "gin needs order >= 1"),
            ("sgc", 0, "sgc needs order >= 1"),
            ("twisted", 1, "unknown FIR variant 'twisted'")):
        with pytest.raises(ModelError, match=message):
            LayerSpec("fir", 1, 1, order, fir_variant=variant)


def test_tap_constraints_gcn_sgc_gin():
    taps = np.arange(12.0).reshape(2, 2, 3)
    layer = LayerSpec("fir", 2, 2, 2, fir_variant="sgc")
    apply_tap_constraints(layer, taps)
    assert np.all(taps[..., :2] == 0.0)

    taps = np.arange(8.0).reshape(2, 2, 2) + 1.0
    layer = LayerSpec("fir", 2, 2, 1, fir_variant="gcn")
    apply_tap_constraints(layer, taps)
    assert np.all(taps[..., 0] == 0.0) and np.all(taps[..., 1] != 0.0)

    taps = np.arange(8.0).reshape(2, 2, 2) + 1.0
    layer = LayerSpec("fir", 2, 2, 1, fir_variant="gin", gin_epsilon=0.25)
    apply_tap_constraints(layer, taps)
    assert np.allclose(taps[..., 0], 1.25 * taps[..., 1])


def test_gin_gradient_matches_tied_finite_difference():
    s, r = small_shift(22)
    spec = ModelSpec((LayerSpec("fir", 1, 2, 1, fir_variant="gin",
                                gin_epsilon=0.3, nonlinearity="tanh"),))
    state = init_state(spec, r, shift=s)
    x = r.normal(size=(s.n_nodes, 1))
    out, tape = model_forward(spec, state, s, GraphSignal(x))
    y = r.normal(size=out.values.shape)
    grads = model_backward(tape, spec, state, GraphSignal(out.values - y))
    gt = grads.layers[0].taps
    assert np.all(gt[..., 0] == 0.0)  # folded onto the trainable tap

    # numeric: perturb h1 and resync h0 = (1+eps) h1 (the executed tying)
    h = 1e-6
    taps = state.layers[0].taps

    def tied_loss():
        apply_tap_constraints(spec.layers[0], taps)
        o, _ = model_forward(spec, state, s, GraphSignal(x))
        return 0.5 * float(np.sum((o.values - y) ** 2))

    for f in range(2):
        orig = taps[f, 0, 1]
        taps[f, 0, 1] = orig + h
        up = tied_loss()
        taps[f, 0, 1] = orig - h
        down = tied_loss()
        taps[f, 0, 1] = orig
        apply_tap_constraints(spec.layers[0], taps)
        fd = (up - down) / (2 * h)
        assert gt[f, 0, 1] == pytest.approx(fd, rel=1e-5)


# ---------------------------------------------------------------------------
# Time-varying mode
# ---------------------------------------------------------------------------

def random_hollow_matrix(rng, n):
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m


def delayed_forward(spec, state, shifts, signals):
    """Time-varying forward on the oracle's delayed stack; returns the
    (N, F) output and the tape."""
    zs = delayed_stack_oracle(shifts, signals, spec.layers[0].order)
    out, tape = forward_batch(spec, state, None, zs[:, :, 0], first_layer_zs=zs)
    return out[0], tape


FIRST_LAYER_ZS_CASES = {
    # an ARMA first layer ignored the stack, or met s=None inside its forward
    "arma static": (LayerSpec("arma", 2, 3, 1, n_poles=1), True, 2,
                    "layer 0 is arma"),
    "arma no shift": (LayerSpec("arma", 2, 3, 1, n_poles=1), False, 2,
                      "layer 0 is arma"),
    # an order-3 FIR layer given three slots failed inside a numpy reshape
    "fir short stack": (LayerSpec("fir", 2, 3, 3), True, 3,
                        r"shape \(4, 8, 3, 2\), the order-3 layer 0 reads "
                        r"\(4, 8, 4, 2\)"),
}


@pytest.mark.parametrize("case", sorted(FIRST_LAYER_ZS_CASES))
def test_forward_batch_checks_first_layer_zs(case):
    layer, static, slots, message = FIRST_LAYER_ZS_CASES[case]
    s, r = small_shift(31)
    spec = ModelSpec((layer,))
    state = init_state(spec, r, shift=s)
    zs = r.normal(size=(4, s.n_nodes, slots, 2))
    with pytest.raises(ModelError, match=rf"first_layer_zs.*{message}"):
        forward_batch(spec, state, s if static else None, zs[:, :, 0],
                      first_layer_zs=zs)


def test_delayed_model_matches_public_delayed_filter():
    r = np.random.default_rng(7)
    n, order = 6, 2
    shifts = [random_hollow_matrix(r, n) for _ in range(order)]
    signals = [r.normal(size=(n, 1)) for _ in range(order + 1)]
    taps = r.normal(size=order + 1)
    spec = ModelSpec((LayerSpec("fir", 1, 1, order, nonlinearity="identity"),),
                     shift_mode="time_varying")
    state = ModelState([FirLayerParams(taps.reshape(1, 1, order + 1))])
    out, _ = delayed_forward(spec, state, shifts, signals)
    # sum_k h_k S(t) ... S(t-k+1) x(t-k) by explicit products
    ref = taps[0] * signals[0] + taps[1] * (shifts[0] @ signals[1]) \
        + taps[2] * (shifts[0] @ shifts[1] @ signals[2])
    assert np.allclose(out, ref, atol=1e-13)


def test_delayed_model_static_reduction():
    s, r = small_shift(23)
    order = 3
    spec = ModelSpec((LayerSpec("fir", 1, 2, order, nonlinearity="tanh"),),
                     ReadoutSpec("per_node_linear", 1),
                     shift_mode="time_varying")
    state = init_state(spec, r, shift=s)
    x = GraphSignal(r.normal(size=s.n_nodes))
    out_tv, _ = delayed_forward(spec, state, [s.dense()] * order,
                                [x.values] * (order + 1))
    static_spec = ModelSpec(spec.layers, spec.readout, shift_mode="static")
    out_st, _ = model_forward(static_spec, state, s, x)
    assert np.allclose(out_tv, out_st.values, atol=1e-13)


def test_delayed_gradients_match_finite_differences():
    r = np.random.default_rng(9)
    n, order = 5, 2
    shifts = [random_hollow_matrix(r, n) for _ in range(order)]
    signals = [r.normal(size=(n, 2)) for _ in range(order + 1)]
    spec = ModelSpec((LayerSpec("fir", 2, 3, order, nonlinearity="tanh"),),
                     ReadoutSpec("per_node_linear", 2),
                     shift_mode="time_varying")
    state = init_state(spec, r)
    out, tape = delayed_forward(spec, state, shifts, signals)
    y = r.normal(size=out.shape)
    grads = model_backward(tape, spec, state, GraphSignal(out - y))

    def loss():
        o, _ = delayed_forward(spec, state, shifts, signals)
        return 0.5 * float(np.sum((o - y) ** 2))

    h = 1e-5
    for (name, arr), (_, gana) in zip(iter_params(state), iter_params(grads)):
        flat, gflat = arr.reshape(-1), np.zeros(arr.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        gnum = gflat.reshape(arr.shape)
        scale = max(np.linalg.norm(gnum), 1e-8)
        assert np.linalg.norm(gana - gnum) / scale <= 1e-4, name


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_reproduces_outputs(tmp_path):
    s, r = small_shift(24)
    spec = ModelSpec((
        LayerSpec("fir", 1, 3, 2, nonlinearity="relu"),
        LayerSpec("arma", 3, 2, 1, n_poles=2, jacobi_iters=2,
                  nonlinearity="tanh"),
    ), ReadoutSpec("per_node_linear", 1))
    state = init_state(spec, r, shift=s)
    path = tmp_path / "model.json"
    save_checkpoint(path, spec, state, metadata={"shift_kind": s.kind.value,
                                                 "seed": 24})
    spec2, state2, meta = load_checkpoint(path)
    assert meta["shift_kind"] == "adjacency" and meta["seed"] == 24
    assert spec2 == spec
    x = GraphSignal(r.normal(size=s.n_nodes))
    out1, _ = model_forward(spec, state, s, x)
    out2, _ = model_forward(spec2, state2, s, x)
    assert np.allclose(out1.values, out2.values, atol=1e-12, rtol=0)


def test_checkpoint_roundtrip_edge_varying(tmp_path):
    s, r = small_shift(25)
    spec = ModelSpec((LayerSpec("edge_varying", 1, 2, 2),))
    state = init_state(spec, r, shift=s)
    path = tmp_path / "edge.json"
    save_checkpoint(path, spec, state)
    spec2, state2, _ = load_checkpoint(path)
    x = GraphSignal(r.normal(size=s.n_nodes))
    out1, _ = model_forward(spec, state, s, x)
    out2, _ = model_forward(spec2, state2, s, x)
    assert np.allclose(out1.values, out2.values, atol=1e-12, rtol=0)


CHECKPOINT_MIXED = ModelSpec((
    LayerSpec("fir", 1, 3, 2),
    LayerSpec("arma", 3, 2, 1, n_poles=2, jacobi_iters=2),
), ReadoutSpec("per_node_linear", 1))
CHECKPOINT_EDGE = ModelSpec((LayerSpec("edge_varying", 1, 2, 2),))


def _save_fresh(path, spec):
    s, r = small_shift(26)
    save_checkpoint(path, spec, init_state(spec, r, shift=s))
    return path


def test_parameter_names_are_the_checkpoint_members(tmp_path):
    for spec in (CHECKPOINT_MIXED, CHECKPOINT_EDGE):
        path = _save_fresh(tmp_path / "model.npz", spec)
        with np.load(path, allow_pickle=False) as archive:
            members = set(archive.files)
        _, state, _ = load_checkpoint(path)
        names = [name for name, _ in iter_params(state)]
        supports = {f"layers.{i}.{name}" for i, layer in enumerate(spec.layers)
                    if layer.family == "edge_varying" for name in ("rows", "cols")}
        assert members == set(names) | supports | {"header"}
    assert names == ["layers.0.diag", "layers.0.values"]


def _edit_saved_array(tmp_path, spec, edit):
    """Save a fresh model, let ``edit`` change the dict of its archive
    members in place, write them back as the archive and return the path."""
    path = _save_fresh(tmp_path / "model.npz", spec)
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    return path


def _two_extra_on_last_axis(member):
    def edit(members):
        a = members[member]
        members[member] = np.concatenate([a, np.zeros(a.shape[:-1] + (2,))], axis=-1)
    return edit


CHECKPOINT_FIELDS = [
    ("layer 0 taps", CHECKPOINT_MIXED, "layers.0.taps"),
    ("layer 1 alpha", CHECKPOINT_MIXED, "layers.1.alpha"),
    ("layer 1 beta", CHECKPOINT_MIXED, "layers.1.beta"),
    ("layer 1 gamma", CHECKPOINT_MIXED, "layers.1.gamma"),
    ("readout weight", CHECKPOINT_MIXED, "readout_weight"),
    ("readout bias", CHECKPOINT_MIXED, "readout_bias"),
    ("layer 0 diag", CHECKPOINT_EDGE, "layers.0.diag"),
    ("layer 0 values", CHECKPOINT_EDGE, "layers.0.values"),
]


@pytest.mark.parametrize("label,spec,member", CHECKPOINT_FIELDS,
                         ids=[case[0] for case in CHECKPOINT_FIELDS])
def test_checkpoint_rejects_array_shape_contradicting_spec(tmp_path, label, spec,
                                                           member):
    path = _edit_saved_array(tmp_path, spec, _two_extra_on_last_axis(member))
    with pytest.raises(ModelError, match=f"{re.escape(member)} has shape"):
        load_checkpoint(path)


def _set_member(member, transform):
    def edit(members):
        members[member] = transform(members[member].copy())
    return edit


def _first_nan(a):
    a.flat[0] = np.nan
    return a


@pytest.mark.parametrize("member,transform,message", [
    ("layers.1.gamma", _first_nan, r"layers\.1\.gamma has non-finite entries"),
    ("layers.0.taps", lambda a: a.astype(np.int64), r"layers\.0\.taps has dtype int64"),
    ("readout_bias", lambda a: a + np.inf, "readout_bias has non-finite entries"),
], ids=["nan gamma", "int taps", "inf bias"])
def test_checkpoint_rejects_bad_member(tmp_path, member, transform, message):
    path = _edit_saved_array(tmp_path, CHECKPOINT_MIXED,
                             _set_member(member, transform))
    with pytest.raises(ModelError, match=message):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_archive(tmp_path):
    path = _save_fresh(tmp_path / "model.npz", CHECKPOINT_MIXED)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(ModelError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_and_extra_members(tmp_path):
    path = _edit_saved_array(tmp_path, CHECKPOINT_MIXED,
                             lambda members: members.pop("layers.1.beta"))
    with pytest.raises(ModelError, match="no member layers.1.beta"):
        load_checkpoint(path)
    path = _edit_saved_array(tmp_path, CHECKPOINT_MIXED,
                             lambda members: members.update(extra=np.zeros(2)))
    with pytest.raises(ModelError, match="does not use.*extra"):
        load_checkpoint(path)


def test_version_1_json_checkpoint_is_rejected_naming_its_version(tmp_path):
    path = tmp_path / "model.json"
    doc = {"format_version": 1, "metadata": {},
           "model": {"layers": [], "readout": {"kind": "none", "out_dim": 0},
                     "shift_mode": "static"}}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    with pytest.raises(ModelError, match="format version 1 is not supported"):
        load_checkpoint(path)
    path.write_text("not a checkpoint\n")
    with pytest.raises(ModelError, match=re.escape(f"{path} is not a checkpoint")):
        load_checkpoint(path)


def test_save_checkpoint_writes_exactly_the_given_path(tmp_path):
    path = _save_fresh(tmp_path / "m.json", CHECKPOINT_MIXED)
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
    spec, _, _ = load_checkpoint(path)
    assert spec == CHECKPOINT_MIXED


ROUNDTRIP_SPECS = {
    "fir": ModelSpec((LayerSpec("fir", 2, 3, 1, fir_variant="gin",
                                gin_epsilon=0.25),),
                     ReadoutSpec("per_node_linear", 2)),
    "arma": ModelSpec((LayerSpec("arma", 1, 2, 1, n_poles=2, jacobi_iters=3,
                                 nonlinearity="tanh"),)),
    "edge_varying": ModelSpec((LayerSpec("edge_varying", 1, 2, 3),
                               LayerSpec("fir", 2, 1, 1, nonlinearity="identity")),
                              ReadoutSpec("per_node_linear", 1)),
}


@pytest.mark.parametrize("family", sorted(ROUNDTRIP_SPECS))
def test_checkpoint_roundtrip_is_bit_exact(tmp_path, family):
    spec = ROUNDTRIP_SPECS[family]
    s, r = small_shift(27, n=12)
    state = init_state(spec, r, shift=s)
    meta = {"seed": 27, "rmse": 0.1 + 0.2, "note": "caf\u00e9"}
    save_checkpoint(tmp_path / "model.npz", spec, state, metadata=meta)
    spec2, state2, meta2 = load_checkpoint(tmp_path / "model.npz")
    assert spec2 == spec and meta2 == meta
    params, params2 = list(iter_params(state)), list(iter_params(state2))
    assert [name for name, _ in params] == [name for name, _ in params2]
    for (name, want), (_, got) in zip(params, params2):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for want, got in zip(state.layers, state2.layers):
        if isinstance(want, EdgeLayerParams):
            assert got.support.n_nodes == want.support.n_nodes
            for a, b in ((want.support.rows, got.support.rows),
                         (want.support.cols, got.support.cols)):
                assert b.dtype == a.dtype and b.dtype.kind == "i"
                assert np.array_equal(a, b)


def _reverse_rows(members):
    members["layers.0.rows"] = members["layers.0.rows"][::-1].copy()


def _duplicate_entry(members):
    rows, cols = members["layers.0.rows"], members["layers.0.cols"]
    e = int(np.argmax(rows[1:] == rows[:-1])) + 1
    cols[e] = cols[e - 1]


def _col_out_of_range(members):
    members["layers.0.cols"][-1] = members["layers.0.diag"].shape[-1]


def _drop_first_diagonal(members):
    rows, cols = members["layers.0.rows"], members["layers.0.cols"]
    keep = ~((rows == 0) & (cols == 0))
    members["layers.0.rows"], members["layers.0.cols"] = rows[keep], cols[keep]


def _float_rows(members):
    members["layers.0.rows"] = members["layers.0.rows"].astype(float)


@pytest.mark.parametrize("edit,message", [
    (_reverse_rows, "is not sorted"),
    (_duplicate_entry, "is a duplicate"),
    (_col_out_of_range, r"outside \[0, 8\)"),
    (_drop_first_diagonal, r"lacks the diagonal entry \(0, 0\)"),
    (_float_rows, "rows must be a 1-D integer array"),
], ids=["unsorted", "duplicate", "out of range", "no diagonal", "float rows"])
def test_checkpoint_rejects_bad_edge_support(tmp_path, edit, message):
    path = _edit_saved_array(tmp_path, CHECKPOINT_EDGE, edit)
    with pytest.raises(ModelError, match=rf"layers\.0\b.*{message}"):
        load_checkpoint(path)


def _set_support_n_nodes(value):
    def edit(members):
        header = json.loads(members["header"].tobytes().decode("utf-8"))
        header["model"]["layers"][0]["support_n_nodes"] = value
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        members["header"] = np.frombuffer(text, dtype=np.uint8)
    return edit


@pytest.mark.parametrize("value", ["x", "8", 2.7, 8.0, True, 0, -8],
                         ids=["string", "digit string", "float", "whole float",
                              "true", "zero", "negative"])
def test_checkpoint_rejects_a_support_size_that_is_not_a_positive_integer(
        tmp_path, value):
    # "x" escaped as a bare ValueError naming neither the path nor the
    # field, and 2.7 or true were truncated and blamed on a support entry
    path = _edit_saved_array(tmp_path, CHECKPOINT_EDGE, _set_support_n_nodes(value))
    want = (f"{path}: layers.0.support_n_nodes is {value!r}, "
            f"not an integer >= 1")
    with pytest.raises(ModelError, match=re.escape(want)):
        load_checkpoint(path)


def test_checkpoint_reads_the_support_size_it_wrote(tmp_path):
    path = _edit_saved_array(tmp_path, CHECKPOINT_EDGE, _set_support_n_nodes(8))
    _, state, _ = load_checkpoint(path)
    assert state.layers[0].support.n_nodes == 8


def test_validate_state_checks_readout_presence_and_layer_kind():
    s, r = small_shift(28)
    state = init_state(CHECKPOINT_MIXED, r, shift=s)
    validate_state(CHECKPOINT_MIXED, state)
    bare = ModelSpec(CHECKPOINT_MIXED.layers)
    with pytest.raises(ModelError, match="readout_weight is present"):
        validate_state(bare, state)
    with pytest.raises(ModelError, match="readout_weight is missing"):
        validate_state(CHECKPOINT_MIXED, ModelState(state.layers))
    swapped = ModelState(state.layers[::-1], state.readout_weight,
                         state.readout_bias)
    with pytest.raises(ModelError, match=r"layers\.0 holds ArmaLayerParams"):
        validate_state(CHECKPOINT_MIXED, swapped)
