import json

import numpy as np
import pytest

from gspnn.filters import (
    ArmaParams,
    EdgeVaryingParams,
    FirTaps,
    arma_apply_jacobi,
    edge_varying_apply,
    fir_apply,
)
from gspnn.graphs import (
    GraphSignal,
    ShiftKind,
    build_shift,
    eigendecompose,
)
from gspnn.neural import (
    ArmaLayerParams,
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
        gamma = 2.0 * s.operator_norm()
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
    out, tape = model_forward(spec, state, s, GraphSignal(x))
    assert np.min(np.abs(tape.preacts[0])) > 1e-3  # no unit near the kink
    y = r.normal(size=out.values.shape)
    ana = list(iter_params(analytic_grads(spec, state, s, x, y)))
    num = numeric_grads(spec, state, s, x, y)
    for (_, ga), (_, gn) in zip(ana, num):
        assert np.linalg.norm(ga - gn) / max(np.linalg.norm(gn), 1e-8) <= 1e-4


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


# ---------------------------------------------------------------------------
# Fir variant constraints
# ---------------------------------------------------------------------------

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


def _edit_saved_array(tmp_path, spec, keys, edit):
    """Save a fresh model, rewrite one stored array with ``edit``, return the path."""
    s, r = small_shift(26)
    path = tmp_path / "model.json"
    save_checkpoint(path, spec, init_state(spec, r, shift=s))
    doc = json.loads(path.read_text())
    node = doc["model"]
    for key in keys:
        node = node[key]
    node["shape"], node["data"] = edit(node["shape"], node["data"])
    path.write_text(json.dumps(doc))
    return path


def _two_extra_on_last_axis(shape, data):
    arr = np.array(data).reshape(shape)
    arr = np.concatenate([arr, np.zeros(tuple(shape[:-1]) + (2,))], axis=-1)
    return list(arr.shape), arr.ravel().tolist()


CHECKPOINT_FIELDS = [
    ("layer 0 taps", CHECKPOINT_MIXED, ("layers", 0, "taps")),
    ("layer 1 alpha", CHECKPOINT_MIXED, ("layers", 1, "alpha")),
    ("layer 1 beta", CHECKPOINT_MIXED, ("layers", 1, "beta")),
    ("layer 1 gamma", CHECKPOINT_MIXED, ("layers", 1, "gamma")),
    ("readout weight", CHECKPOINT_MIXED, ("readout_weight",)),
    ("readout bias", CHECKPOINT_MIXED, ("readout_bias",)),
    ("layer 0 diag", CHECKPOINT_EDGE, ("layers", 0, "diag")),
    ("layer 0 values", CHECKPOINT_EDGE, ("layers", 0, "values")),
]


@pytest.mark.parametrize("where,spec,keys", CHECKPOINT_FIELDS,
                         ids=[case[0] for case in CHECKPOINT_FIELDS])
def test_checkpoint_rejects_array_shape_contradicting_spec(tmp_path, where, spec,
                                                           keys):
    path = _edit_saved_array(tmp_path, spec, keys, _two_extra_on_last_axis)
    with pytest.raises(ModelError, match=f"{where} has shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_data_count_contradicting_shape(tmp_path):
    path = _edit_saved_array(tmp_path, CHECKPOINT_MIXED, ("layers", 0, "taps"),
                             lambda shape, data: (shape, data[:-1]))
    with pytest.raises(ModelError, match="layer 0 taps has 8 values"):
        load_checkpoint(path)
