"""Old-vs-new checks for the one-GEMM filter-bank kernel.

The helpers below are the earlier layer implementations, kept as oracles:
shifted stacks laid out (K+1, B, N, G) and contracted one tap at a time, the
input gradient's Horner loop on the node-second (B, N, F) layout, the Jacobi
step R x = c (d x - S x) applied to the input broadcast over every
(output feature, pole) pair, and the edge-varying step-value gradient as a
gathered einsum over the batch. The kernels changed the summation order, so
outputs and every gradient must agree with them to a relative tolerance.
"""

import numpy as np
import pytest

from gspnn.filters import FirTaps, fir_apply
from gspnn.flocking import FlockConfig, build_policy_spec, generate_dataset
from gspnn.graphs import GraphSignal, ShiftKind, ShiftOperator, build_shift
from gspnn.neural import (
    ArmaLayerParams,
    FirLayerParams,
    LayerSpec,
    ModelSpec,
    _arma_forward,
    _edge_forward,
    _fir_forward,
    forward_batch,
    init_state,
    model_backward,
)

from conftest import make_random_graph, trajectory_shift

RTOL = 1e-12


def assert_close(got, want, what):
    scale = max(np.linalg.norm(want), 1e-300)
    err = np.linalg.norm(got - want) / scale
    assert err <= RTOL, f"{what}: relative difference {err:.2e}"


# ---------------------------------------------------------------------------
# Oracles: the per-tap layer kernels
# ---------------------------------------------------------------------------

def shift_batched(s, arr):
    b, n, g = arr.shape
    out = s.apply(arr.transpose(1, 0, 2).reshape(n, b * g))
    return out.reshape(n, b, g).transpose(1, 0, 2)


def shift_nd(s, arr):
    lead, n = arr.shape[:-1], arr.shape[-1]
    return s.apply(arr.reshape(-1, n).T).T.reshape(lead + (n,))


def per_tap_stack(s, x, order):
    zs = np.empty((order + 1,) + x.shape)
    zs[0] = x
    for k in range(1, order + 1):
        zs[k] = shift_batched(s, zs[k - 1])
    return zs


def per_tap_contract(zs, taps):
    out = zs[0] @ taps[:, :, 0].T
    for k in range(1, taps.shape[2]):
        out += zs[k] @ taps[:, :, k].T
    return out


def horner_input_grad(s, du, taps):
    """The input gradient's Horner loop on the node-second (B, N, F) layout,
    shifting through a (B, N) -> (N, B) transpose at every step."""
    dx = du @ taps[:, :, -1]
    for k in range(taps.shape[2] - 2, -1, -1):
        dx = shift_batched(s, dx) + du @ taps[:, :, k]
    return dx


def oracle_fir(s, x, taps, du):
    zs = per_tap_stack(s, x, taps.shape[2] - 1)
    grads = {"taps": np.einsum("bnf,kbng->fgk", du, zs),
             "x": horner_input_grad(s, du, taps)}
    return per_tap_contract(zs, taps), grads


def oracle_arma(s, x, alpha, beta, gamma, t, du):
    """Direct part as in ``oracle_fir``; the pole part shifts the input
    broadcast to (B, F, G, P, N) for R x."""
    zs = per_tap_stack(s, x, alpha.shape[2] - 1)
    u = per_tap_contract(zs, alpha)
    grads = {"alpha": np.einsum("bnf,kbng->fgk", du, zs),
             "x": horner_input_grad(s, du, alpha)}
    d = s.diagonal()
    c = 1.0 / (d[None, None, None, :] - gamma[..., None])

    def r_apply(v):
        return c[None] * (d * v - shift_nd(s, v))

    def rt_apply(v):
        cv = c[None] * v
        return d * cv - shift_nd(s, cv)

    xb = np.broadcast_to(x.transpose(0, 2, 1)[:, None, :, None, :],
                         (x.shape[0],) + c.shape)
    bs = [beta[None, ..., None] * c[None] * xb]
    for _ in range(1, t):
        bs.append(r_apply(bs[-1]))
    rs = [xb]
    for _ in range(t):
        rs.append(r_apply(rs[-1]))
    u = u + (np.stack(bs).sum(axis=0) + rs[t]).sum(axis=(2, 3)).transpose(0, 2, 1)

    a_pow = [np.broadcast_to(du.transpose(0, 2, 1)[:, :, None, None, :], xb.shape)]
    for _ in range(t):
        a_pow.append(rt_apply(a_pow[-1]))
    a_head = np.stack(a_pow[:t]).sum(axis=0)
    dot = "bfgpn,bfgpn->fgp"
    grads["beta"] = np.einsum(dot, a_head, c[None] * xb)
    ggamma = np.zeros_like(gamma)
    for tau in range(t):
        for j in range(tau):
            ggamma += np.einsum(dot, a_pow[j], c[None] * bs[tau - j])
        ggamma += np.einsum(dot, a_pow[tau], c[None] * bs[0])
    for j in range(t):
        ggamma += np.einsum(dot, a_pow[j], c[None] * rs[t - j])
    grads["gamma"] = ggamma
    pole_dx = beta[None, ..., None] * c[None] * a_head + a_pow[t]
    grads["x"] = grads["x"] + pole_dx.sum(axis=(1, 3)).transpose(0, 2, 1)
    return u, grads


def edge_value_grad_einsum(layer, params, x, du):
    """Gradient of the edge-varying step values by the gathered einsum over
    the batch, sens[rows] * z^(k-1)[cols], with the chain states and the
    transpose sweep run through dense step matrices scattered from the
    layer's weights."""
    sup = params.support
    f, g = layer.out_features, layer.in_features
    bdim, n = x.shape[0], x.shape[1]
    phi = np.zeros((layer.order, f, g, n, n))
    phi[..., sup.rows, sup.cols] = params.values.transpose(2, 0, 1, 3)
    zs = [params.diag[..., None] * x.transpose(2, 1, 0)[None]]  # (F, G, N, B)
    for k in range(layer.order - 1):
        zs.append(np.matmul(phi[k], zs[-1]))
    delta = np.broadcast_to(du.transpose(2, 1, 0)[:, None], (f, g, n, bdim))
    gvals = np.zeros_like(params.values)
    sens = np.array(delta)
    for k in range(layer.order, 0, -1):
        gvals[:, :, k - 1] = np.einsum(
            "fgeb,fgeb->fge", sens[:, :, sup.rows, :], zs[k - 1][:, :, sup.cols, :])
        sens = np.matmul(phi[k - 1].transpose(0, 1, 3, 2), sens) + delta
    return gvals


def shift_with_diagonal(seed, n=9):
    """Adjacency plus a nonzero diagonal, so the Jacobi scaling c varies
    over nodes and d x does not vanish."""
    g, r = make_random_graph(seed, n=n)
    s = build_shift(g, ShiftKind.ADJACENCY)
    dense = s.dense() + np.diag(r.uniform(-0.5, 0.5, size=n))
    return ShiftOperator.from_dense(dense), r


def test_apply_matches_the_reshaping_oracles():
    # apply takes any (N, ...) array; callers move the node axis to the front
    # as a view. Where the (N, M) operand keeps the oracle's layout the
    # product is the same GEMM, so the bits are equal.
    s, r = shift_with_diagonal(90, n=40)
    n = s.n_nodes
    x = r.normal(size=n)
    assert s.apply(x).tobytes() == shift_nd(s, x).tobytes()
    x = r.normal(size=(n, 3))
    assert s.apply(x).tobytes() == (s.matrix @ x).tobytes()
    x = r.normal(size=(5, n, 2))                          # (B, N, G)
    got = s.apply(x.swapaxes(0, 1)).swapaxes(0, 1)
    assert got.shape == x.shape
    assert got.tobytes() == shift_batched(s, x).tobytes()
    x = r.normal(size=(2, 3, 4, n))                       # node axis last
    got = np.moveaxis(s.apply(np.moveaxis(x, -1, 0)), 0, -1)
    assert got.tobytes() == shift_nd(s, x).tobytes()
    # a node-last array that is not C-ordered is copied node-first here and
    # node-last by the oracle, which may change the summation order
    x = r.normal(size=(n, 4, 3)).transpose(2, 1, 0)
    got = np.moveaxis(s.apply(np.moveaxis(x, -1, 0)), 0, -1)
    want = shift_nd(s, x)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Layer kernels against the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch,g_in,f_out,order", [
    (1, 1, 1, 3), (4, 3, 5, 2), (7, 2, 4, 0), (3, 1, 6, 4), (40, 3, 8, 3),
])
def test_fir_layer_matches_per_tap_oracle(batch, g_in, f_out, order):
    s, r = shift_with_diagonal(40 + order)
    layer = LayerSpec("fir", g_in, f_out, order)
    params = FirLayerParams(r.normal(size=(f_out, g_in, order + 1)))
    x = r.normal(size=(batch, s.n_nodes, g_in))
    du = r.normal(size=(batch, s.n_nodes, f_out))
    u, vjp = _fir_forward(layer, params, s, x)
    grads, dx = vjp(du, True)
    want_u, want = oracle_fir(s, x, params.taps, du)
    assert_close(u, want_u, "output")
    assert_close(grads.taps, want["taps"], "taps gradient")
    assert_close(dx, want["x"], "input gradient")


@pytest.mark.parametrize("batch,g_in,f_out,order,poles,iters", [
    (3, 2, 3, 2, 2, 1),
    (3, 2, 3, 2, 2, 3),
    (2, 3, 2, 1, 1, 3),
    (4, 2, 3, 0, 2, 1),   # order 0: R x shifts x itself
    (4, 2, 3, 0, 2, 3),
    (3, 2, 3, 2, 2, 6),   # T = 6: the adjoint sweep well past T = 3
    (4, 2, 3, 0, 2, 6),
    (2, 1, 4, 3, 0, 1),   # no poles: the direct part alone
    (4, 2, 3, 0, 0, 3),
])
def test_arma_layer_matches_broadcast_shift_oracle(batch, g_in, f_out, order,
                                                   poles, iters):
    s, r = shift_with_diagonal(50 + order + iters)
    layer = LayerSpec("arma", g_in, f_out, order, n_poles=poles,
                      jacobi_iters=iters)
    lam = np.max(np.abs(np.linalg.eigvalsh(s.dense())))
    gamma = r.uniform(1.5 * lam, 3.0 * lam, size=(f_out, g_in, poles))
    gamma[..., 1::2] *= -1.0
    params = ArmaLayerParams(r.normal(size=(f_out, g_in, order + 1)),
                             r.normal(size=(f_out, g_in, poles)), gamma)
    x = r.normal(size=(batch, s.n_nodes, g_in))
    du = r.normal(size=(batch, s.n_nodes, f_out))
    u, vjp = _arma_forward(layer, params, s, x)
    grads, dx = vjp(du, True)
    want_u, want = oracle_arma(s, x, params.alpha, params.beta, params.gamma,
                               iters, du)
    assert_close(u, want_u, "output")
    assert_close(grads.alpha, want["alpha"], "alpha gradient")
    assert_close(dx, want["x"], "input gradient")
    assert_close(grads.beta, want["beta"], "beta gradient")
    assert_close(grads.gamma, want["gamma"], "gamma gradient")


@pytest.mark.parametrize("batch,g_in,f_out,order", [
    (1, 1, 1, 1), (4, 2, 3, 3), (5, 3, 2, 2),
])
def test_edge_value_gradient_matches_gathered_einsum_oracle(batch, g_in, f_out,
                                                            order):
    s, r = shift_with_diagonal(70 + order)
    layer = LayerSpec("edge_varying", g_in, f_out, order)
    params = init_state(ModelSpec((layer,)), r, shift=s).layers[0]
    x = r.normal(size=(batch, s.n_nodes, g_in))
    du = r.normal(size=(batch, s.n_nodes, f_out))
    _, vjp = _edge_forward(layer, params, x)
    grads, _ = vjp(du, False)
    assert_close(grads.values, edge_value_grad_einsum(layer, params, x, du),
                 "values gradient")


def test_fir_apply_matches_ascending_tap_oracle():
    s, r = shift_with_diagonal(60)
    taps = r.normal(size=4)
    x = r.normal(size=(s.n_nodes, 3))
    want = taps[0] * x
    z = x
    for k in range(1, taps.size):
        z = s.apply(z)
        want = want + taps[k] * z
    got = fir_apply(FirTaps(taps), s, GraphSignal(x)).values
    assert got.shape == x.shape
    assert_close(got, want, "fir_apply")


def test_flocking_time_varying_stack_matches_per_tap_oracle():
    cfg = FlockConfig(n_agents=7, duration=0.5)
    samples, _ = generate_dataset(2, cfg, seed=5)
    # the graph must change along the trajectory, or S(t) and S(t-1) coincide
    assert any(not np.array_equal(trajectory_shift(smp, t),
                                  trajectory_shift(smp, t - 1))
               for smp in samples for t in range(1, smp.n_steps))
    spec = build_policy_spec()
    order = spec.layers[0].order
    r = np.random.default_rng(3)
    state = init_state(spec, r)

    # the earlier (T, K+1, N, 6) stack: one shift per tap and step
    old_stacks = []
    for sample in samples:
        zs = np.zeros((sample.n_steps, order + 1, cfg.n_agents, 6))
        for t in range(sample.n_steps):
            zs[t, 0] = sample.features[t]
            if t:
                for k in range(1, order + 1):
                    zs[t, k] = trajectory_shift(sample, t) @ zs[t - 1, k - 1]
        old_stacks.append(zs)
        assert_close(sample.delayed_stacks(order), zs.transpose(0, 2, 1, 3),
                     "delayed stack")
    old = np.concatenate(old_stacks).transpose(1, 0, 2, 3)   # (K+1, B*T, N, 6)

    zs_all = np.concatenate([smp.delayed_stacks(order) for smp in samples])
    out, tape = forward_batch(spec, state, None, zs_all)
    dout = r.normal(size=out.shape)
    grads = model_backward(tape, spec, state, dout)

    taps, w = state.layers[0].taps, state.readout_weight
    hidden = np.tanh(per_tap_contract(old, taps))
    assert_close(out, hidden @ w + state.readout_bias, "policy output")
    du = (dout @ w.T) * (1.0 - hidden * hidden)
    assert_close(grads.layers[0].taps, np.einsum("bnf,kbng->fgk", du, old),
                 "taps gradient")
    assert_close(grads.readout_weight, np.einsum("bnf,bno->fo", hidden, dout),
                 "readout weight gradient")
