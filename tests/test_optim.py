import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gspnn import optim
from gspnn.cli import _write_loss_log
from gspnn.graphs import GraphSignal, ShiftKind, build_shift
from gspnn.neural import (
    FirLayerParams,
    LayerSpec,
    ModelSpec,
    ModelState,
    init_state,
    iter_params,
    model_backward,
    model_forward,
)
from gspnn.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    LossSpec,
    Problem,
    TrainConfig,
    TrainingError,
    adam_step,
    loss_eval,
    project_poles,
    train,
)

from conftest import make_random_graph, train_step_peaks


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_smooth_l1_zero_at_match():
    val, grad = loss_eval(LossSpec("smooth_l1"), np.array([2.0]), np.array([2.0]))
    assert val == 0.0 and np.all(grad == 0.0)


def test_smooth_l1_quadratic_region():
    val, _ = loss_eval(LossSpec("smooth_l1"), np.array([0.5]), np.array([0.0]))
    assert val == pytest.approx(0.125)


def test_smooth_l1_linear_region():
    val, grad = loss_eval(LossSpec("smooth_l1"), np.array([2.0]), np.array([0.0]))
    assert val == pytest.approx(1.5)
    assert grad[0] == pytest.approx(1.0)  # clamp(x-y, -1, 1) / n


def test_smooth_l1_continuous_at_transition():
    eps = 1e-9
    below, gb = loss_eval(LossSpec("smooth_l1"), np.array([1.0 - eps]), np.array([0.0]))
    above, ga = loss_eval(LossSpec("smooth_l1"), np.array([1.0 + eps]), np.array([0.0]))
    assert abs(above - below) < 1e-8
    assert abs(ga[0] - gb[0]) < 1e-8


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_smooth_l1_gradient_is_derivative(x, y):
    h = 1e-6
    up, _ = loss_eval(LossSpec("smooth_l1"), np.array([x + h]), np.array([y]))
    down, _ = loss_eval(LossSpec("smooth_l1"), np.array([x - h]), np.array([y]))
    _, grad = loss_eval(LossSpec("smooth_l1"), np.array([x]), np.array([y]))
    assert grad[0] == pytest.approx((up - down) / (2 * h), abs=2e-4)


def test_mse_value_and_gradient():
    pred = np.array([1.0, 3.0])
    tgt = np.array([0.0, 1.0])
    val, grad = loss_eval(LossSpec("mse"), pred, tgt)
    assert val == pytest.approx((1.0 + 4.0) / 2.0)
    assert np.allclose(grad, [1.0, 2.0])


@pytest.mark.parametrize("kind", ["mse", "smooth_l1"])
def test_loss_eval_equals_the_np_mean_expressions_bitwise(kind):
    # the value is np.mean's sum-then-divide and the mse gradient is scaled
    # in place; both must keep the bits of the expressions they replaced
    r = np.random.default_rng(11)
    for shape in [(1,), (7,), (3, 1, 1), (43, 25, 2), (200, 1, 1), (5, 129)]:
        pred = r.normal(size=shape) * 2.0
        target = r.normal(size=shape)
        value, grad = loss_eval(LossSpec(kind), pred, target)
        diff = pred - target
        if kind == "mse":
            want, want_grad = float(np.mean(diff * diff)), 2.0 * diff / diff.size
        else:
            absd = np.abs(diff)
            want = float(np.mean(np.where(absd < 1.0, 0.5 * diff * diff,
                                          absd - 0.5)))
            want_grad = np.clip(diff, -1.0, 1.0) / diff.size
        assert value == want, shape
        assert grad.tobytes() == want_grad.tobytes(), shape


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        loss_eval(LossSpec("mse"), np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# ADAM
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = [np.array([1.0, -2.0])]
    st_ = AdamState.for_params(p, learning_rate=0.1)
    adam_step(st_, p, [np.zeros(2)])
    assert st_.step == 1
    assert np.array_equal(p[0], [1.0, -2.0])


def test_adam_first_step_is_signed_learning_rate():
    p = [np.array([0.0])]
    st_ = AdamState.for_params(p, learning_rate=0.05)
    adam_step(st_, p, [np.array([3.7])])
    # bias correction makes the first update -lr * sign(g) up to epsilon_hat
    assert p[0][0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_decreases_scalar_quadratic():
    # Small enough steps never overshoot the optimum: strictly monotone.
    theta = [np.array([1.0])]
    st_ = AdamState.for_params(theta, learning_rate=0.01)
    values = []
    for _ in range(50):
        values.append(theta[0][0] ** 2)
        adam_step(st_, theta, [2.0 * theta[0]])
    values.append(theta[0][0] ** 2)
    assert all(b < a for a, b in zip(values, values[1:]))

    # At lr=0.1 momentum overshoots zero near step 11 (direct simulation of
    # the standard update), so only the net decrease holds.
    theta = [np.array([1.0])]
    st_ = AdamState.for_params(theta, learning_rate=0.1)
    for _ in range(50):
        adam_step(st_, theta, [2.0 * theta[0]])
    assert theta[0][0] ** 2 < 0.05


def test_adam_rejects_non_finite_gradient():
    p = [np.array([0.0])]
    st_ = AdamState.for_params(p, learning_rate=0.1)
    with pytest.raises(TrainingError, match="param"):
        adam_step(st_, p, [np.array([np.nan])])


def test_adam_error_names_parameter_path():
    p = [np.array([0.0]), np.array([0.0])]
    st_ = AdamState.for_params(p, learning_rate=0.1)
    with pytest.raises(TrainingError, match=r"layers\.0\.taps"):
        adam_step(st_, p, [np.zeros(1), np.array([np.inf])],
                  param_names=["readout_bias", "layers.0.taps"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_a_non_finite_gradient_before_any_update(bad):
    r = np.random.default_rng(5)
    params = [r.normal(size=shape) for shape in [(4, 3), (6,), (2, 2)]]
    adam = AdamState.for_params(params, learning_rate=0.1)
    adam_step(adam, params, [np.ones_like(p) for p in params])
    before = [a.copy() for a in params + adam.first_moment + adam.second_moment]
    grads = [np.full_like(p, 1e300) for p in params]
    grads[2][1, 0] = bad
    with pytest.raises(TrainingError, match=r"non-finite gradient in param\[2\]"):
        adam_step(adam, params, grads)
    after = params + adam.first_moment + adam.second_moment
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
    assert adam.step == 1


def test_adam_accepts_a_finite_gradient_whose_sum_overflows():
    params = [np.zeros(4)]
    adam = AdamState.for_params(params, learning_rate=0.1)
    want = [np.zeros(4)]
    grads = [np.array([1e308, 1e308, -1.0, 2.0])]
    with np.errstate(over="ignore"):   # the second moment of 1e308 is inf
        adam_step(adam, params, grads)
        adam_expression_oracle(0.1, 1, want, grads, [np.zeros(4)], [np.zeros(4)])
    assert params[0].tobytes() == want[0].tobytes() and adam.step == 1


def test_adam_step_allocates_no_parameter_sized_array():
    import tracemalloc
    params = [np.ones((1000, 1000)), np.ones(64)]
    grads = [np.full_like(p, 0.5) for p in params]
    adam = AdamState.for_params(params, learning_rate=0.1)
    adam_step(adam, params, grads)      # warm up
    tracemalloc.start()
    try:
        adam_step(adam, params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the finiteness check's bool arrays alone took 1,000,064 bytes
    assert peak < 50_000


class ReachProblem(Problem):
    """A (200, 10, 100) tap array whose gradient lives on five of its
    last-axis columns, a fresh random draw per step. It names them in
    ``reach`` and gives the gradient there only; with ``full`` it names
    nothing and gives the same draws zero-padded to the whole array."""

    COLUMNS = np.array([3, 17, 42, 60, 99])

    def __init__(self, full):
        self.full = full
        taps = np.random.default_rng(1).normal(size=(200, 10, 100))
        self.state = ModelState([FirLayerParams(taps)])
        self.rng = np.random.default_rng(2)

    def n_samples(self):
        return 12

    def batch_loss(self, indices):
        g = self.rng.normal(size=(200, 10, self.COLUMNS.size))
        if self.full:
            padded = np.zeros(self.state.layers[0].taps.shape)
            padded[..., self.COLUMNS] = g
            g = padded
        return 0.0, ModelState([FirLayerParams(g)])

    def reach(self):
        return {} if self.full else {"layers.0.taps": (Ellipsis, self.COLUMNS)}


def test_restricted_update_equals_the_full_update_bitwise():
    # ADAM leaves a weight with an all-zero gradient bitwise unchanged
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=0.03)
    part, full = ReachProblem(False), ReachProblem(True)
    train(part, config)
    train(full, config)
    got, want = part.state.layers[0].taps, full.state.layers[0].taps
    assert got.tobytes() == want.tobytes()
    off = np.setdiff1d(np.arange(100), ReachProblem.COLUMNS)
    start = ReachProblem(False).state.layers[0].taps
    assert got[..., off].tobytes() == start[..., off].tobytes()
    assert np.all(got[..., ReachProblem.COLUMNS] != start[..., ReachProblem.COLUMNS])


def test_restricted_update_allocates_no_parameter_sized_array(monkeypatch):
    # the restricted update of train(): a step gathers, updates and writes
    # back the five reached columns; the moments hold those columns only
    moments = []
    step = optim.adam_step

    def adam_step(adam, params, grads, param_names=None):
        moments.append([m.shape for m in adam.first_moment + adam.second_moment])
        step(adam, params, grads, param_names)

    monkeypatch.setattr(optim, "adam_step", adam_step)
    problem = ReachProblem(False)
    history, peaks = train_step_peaks(problem, TrainConfig(
        epochs=2, batch_size=4, learning_rate=0.03))
    assert len(history) == len(peaks) == 6
    full = problem.state.layers[0].taps.nbytes      # 1.6 MB
    # a step holds the 80 kB gradient and gathered columns, and their update
    assert max(peaks) < full / 4, peaks
    assert moments == [[(200, 10, 5)] * 2] * 6


def test_restricted_update_keeps_its_gathered_copies_c_contiguous(monkeypatch):
    # the fancy index (..., columns) lays a (200, 10, 5) copy out with
    # strides (80, 8, 16000), and the moments followed that layout
    layouts = []
    step = optim.adam_step

    def adam_step(adam, params, grads, param_names=None):
        layouts.append([a.flags.c_contiguous for a in
                        params + adam.first_moment + adam.second_moment])
        step(adam, params, grads, param_names)

    monkeypatch.setattr(optim, "adam_step", adam_step)
    train(ReachProblem(False), TrainConfig(epochs=1, batch_size=4, learning_rate=0.03))
    assert layouts == [[True] * 3] * 3


def test_train_config_rejects_a_negative_seed():
    # it reached np.random.default_rng inside train, which names no field
    with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0, "
                                                   "got -1")):
        TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, seed=-1)


def adam_expression_oracle(lr, step, params, grads, m, v):
    """``adam_step`` as written before it ran through scratch arrays: the
    update as one fresh-array expression per parameter."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= ADAM_BETA1
        mm += (1.0 - ADAM_BETA1) * g
        vv *= ADAM_BETA2
        vv += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + ADAM_EPSILON)


def test_adam_step_equals_the_expression_form_bitwise():
    r = np.random.default_rng(12)
    params = [r.normal(size=shape) for shape in [(3, 2, 4), (7,), (1, 1)]]
    want = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    adam = AdamState.for_params(params, learning_rate=0.03)
    for step in range(1, 9):
        grads = [r.normal(size=p.shape) * 10.0 ** r.uniform(-6, 2) for p in params]
        adam_step(adam, params, grads)
        adam_expression_oracle(0.03, step, want, grads, m, v)
        for got, w, mg, mw, vg, vw in zip(params, want, adam.first_moment, m,
                                          adam.second_moment, v):
            assert got.tobytes() == w.tobytes()
            assert mg.tobytes() == mw.tobytes() and vg.tobytes() == vw.tobytes()


# ---------------------------------------------------------------------------
# Pole projection
# ---------------------------------------------------------------------------

def test_project_poles_pushes_away_from_diagonal():
    gamma = np.array([[0.0005, -0.0002, 2.0]])
    project_poles(gamma, np.zeros(4), margin=1e-3)
    assert gamma[0, 0] == pytest.approx(1e-3)
    assert gamma[0, 1] == pytest.approx(-1e-3)
    assert gamma[0, 2] == 2.0


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

class ScalarFitProblem(Problem):
    """Fit y = 2x with a single-tap linear graph model."""

    def __init__(self, seed=0, n_samples=64):
        g, r = make_random_graph(50, n=4)
        self.shift = build_shift(g, ShiftKind.ADJACENCY)
        self.spec = ModelSpec((LayerSpec("fir", 1, 1, 0,
                                         nonlinearity="identity"),))
        self.state = ModelState([FirLayerParams(np.zeros((1, 1, 1)))])
        rr = np.random.default_rng(seed)
        self.xs = [rr.normal(size=self.shift.n_nodes) for _ in range(n_samples)]
        self.ys = [2.0 * x for x in self.xs]
        self.loss = LossSpec("mse")

    def n_samples(self):
        return len(self.xs)

    def batch_loss(self, indices):
        total = 0.0
        grads = None
        for idx in indices:
            out, tape = model_forward(self.spec, self.state, self.shift,
                                      GraphSignal(self.xs[idx]))
            val, dpred = loss_eval(self.loss, out.values[:, 0], self.ys[idx])
            g = model_backward(tape, self.spec, self.state,
                               (dpred / len(indices)).reshape(tape.out_shape))
            total += val / len(indices)
            if grads is None:
                grads = g
            else:
                grads.layers[0].taps += g.layers[0].taps
        return total, grads


def test_zero_epochs_leaves_model_unchanged():
    prob = ScalarFitProblem()
    before = prob.state.layers[0].taps.copy()
    history = train(prob, TrainConfig(epochs=0, batch_size=4, learning_rate=1e-2))
    assert history == []
    assert np.array_equal(prob.state.layers[0].taps, before)


def test_linear_fit_recovers_slope():
    prob = ScalarFitProblem()
    train(prob, TrainConfig(epochs=200, batch_size=16, learning_rate=1e-2, seed=3))
    # closed-form least squares oracle: y = 2x exactly, so h0 -> 2
    assert prob.state.layers[0].taps.reshape(()) == pytest.approx(2.0, abs=1e-2)


def test_history_length_is_epochs_times_batches():
    prob = ScalarFitProblem(n_samples=10)
    history = train(prob, TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3))
    assert len(history) == 3 * 3  # ceil(10/4) = 3 batches per epoch


def test_training_is_deterministic_given_seed():
    results = []
    for _ in range(2):
        prob = ScalarFitProblem()
        train(prob, TrainConfig(epochs=5, batch_size=4, learning_rate=1e-2,
                                seed=11))
        results.append(prob.state.layers[0].taps.copy())
    assert np.array_equal(results[0], results[1])


def test_loss_log_format(tmp_path):
    path = tmp_path / "log.csv"
    _write_loss_log(path, [(0, 0, 0.5), (0, 1, 0.25)], {"rmse": 0.9})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,batch,loss"
    assert lines[1].startswith("0,0,")
    assert lines[-1].startswith("final,rmse,")
    assert float(lines[-1].split(",")[2]) == 0.9


def test_gcnn_training_keeps_parameters_finite():
    # small GCNN, a few steps at the recommender learning rate
    g, r = make_random_graph(51, n=10)
    shift = build_shift(g, ShiftKind.NORMALIZED_ADJACENCY)

    class GcnnProblem(Problem):
        def __init__(self):
            self.spec = ModelSpec((LayerSpec("fir", 1, 4, 2),),
                                  readout=__import__("gspnn.neural", fromlist=["ReadoutSpec"]).ReadoutSpec("per_node_linear", 1))
            self.state = init_state(self.spec, r, shift=shift)
            self.xs = [r.normal(size=10) for _ in range(20)]
            self.ys = [r.normal(size=(10, 1)) for _ in range(20)]

        def n_samples(self):
            return 20

        def batch_loss(self, indices):
            total, grads = 0.0, None
            for idx in indices:
                out, tape = model_forward(self.spec, self.state, shift,
                                          GraphSignal(self.xs[idx]))
                val, dpred = loss_eval(LossSpec("smooth_l1"), out.values,
                                       self.ys[idx])
                g = model_backward(tape, self.spec, self.state,
                                   (dpred / len(indices)).reshape(tape.out_shape))
                total += val / len(indices)
                if grads is None:
                    grads = g
                else:
                    for (_, a), (_, b) in zip(iter_params(grads), iter_params(g)):
                        a += b
            return total, grads

    prob = GcnnProblem()
    train(prob, TrainConfig(epochs=5, batch_size=5, learning_rate=5e-3, seed=0))
    for _, arr in iter_params(prob.state):
        assert np.all(np.isfinite(arr))
