"""Graph perceptrons and multi-feature graph neural network layers.

A layer applies a bank of graph filters (one per input/output feature pair),
sums over input features, and passes the result through an entrywise
nonlinearity. Models are a cascade of such layers plus an optional per-node
affine readout shared across nodes.

The reverse-mode gradients for every trainable parameter are implemented by
hand; only this fixed layer grammar is differentiable. Each layer's forward
returns its output and its vector-Jacobian product, a closure
``vjp(du, need_dx) -> (grads, dx)``: a ``functools.partial`` of the
family's module-level backward bound to what the forward saved (shifted
stacks, Jacobi iterates, chain states, or the restricted layer's rows). The
tape keeps one closure per layer and one array for its nonlinearity, so the
backward pass runs them in reverse order with no per-family dispatch.
Internally everything is batched: signals travel as (batch, nodes, features)
arrays. The spec's shift mode decides what a model reads: a static model a
(B, N, G) signal on a shift S, a time-varying one (a single FIR layer) the
(B, N, K+1, G) delayed stack of that layer, which carries its own shifts.
Every pass returns fresh arrays: a caller that must bound its
temporaries, such as flocking imitation training, bounds the batch it hands
in (``flocking.ImitationProblem`` runs blocks of time steps).
"""

from __future__ import annotations

import json
import re
import zipfile
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .filters import (
    EdgeVaryingSupport,
    apply_node_last,
    check_poles,
    edge_varying_chain,
    edge_varying_reach,
    edge_varying_sweep,
    fir_bank_contract,
    jacobi_iterates,
    pole_margin,
    shifted_stack,
)
from .graphs import GraphSignal, ShiftOperator, check_count, check_member, permute_shift

FAMILIES = ("fir", "arma", "edge_varying")
NONLINEARITIES = ("relu", "tanh", "identity")

CHECKPOINT_VERSION = 2


class ModelError(ValueError):
    """Invalid model specification, parameters, tape, or archive."""


@dataclass(frozen=True)
class LayerSpec:
    """One filter-bank layer: family, feature sizes, orders, nonlinearity.

    Each integer field passes ``graphs.check_count``, the one integer rule,
    with minimum 1 (feature counts, ``jacobi_iters``) or 0 (``order``,
    ``n_poles``). Errors lead with the field, which ``load_checkpoint``
    prefixes with the layer: ``layers.0.order``."""

    family: str
    in_features: int
    out_features: int
    order: int
    n_poles: int = 0
    jacobi_iters: int = 1
    nonlinearity: str = "relu"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ModelError(f"nonlinearity must be one of {NONLINEARITIES}, "
                             f"got {self.nonlinearity!r}")
        for name, minimum in (("in_features", 1), ("out_features", 1), ("order", 0),
                              ("n_poles", 0), ("jacobi_iters", 1)):
            check_count(name, getattr(self, name), minimum, ModelError)


@dataclass(frozen=True)
class ReadoutSpec:
    kind: str = "none"  # none | per_node_linear
    out_dim: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "per_node_linear"):
            raise ModelError(f"kind must be none or per_node_linear, got {self.kind!r}")
        check_count("out_dim", self.out_dim, 1 if self.kind == "per_node_linear" else 0,
                    ModelError)


@dataclass(frozen=True)
class ModelSpec:
    """Layers, readout and shift mode. Errors lead with the field
    (``shift_mode``, ``layers.1.in_features``), which ``load_checkpoint``
    prefixes with the path."""

    layers: tuple[LayerSpec, ...]
    readout: ReadoutSpec = ReadoutSpec()
    shift_mode: str = "static"  # static | time_varying

    def __post_init__(self):
        if not self.layers:
            raise ModelError("layers must hold at least one layer")
        for i, (prev, nxt) in enumerate(zip(self.layers, self.layers[1:])):
            if prev.out_features != nxt.in_features:
                raise ModelError(f"layers.{i + 1}.in_features {nxt.in_features} "
                                 f"does not chain with layers.{i}.out_features "
                                 f"{prev.out_features}")
        if self.shift_mode not in ("static", "time_varying"):
            raise ModelError(f"shift_mode must be static or time_varying, "
                             f"got {self.shift_mode!r}")
        if self.shift_mode == "time_varying":
            if len(self.layers) != 1 or self.layers[0].family != "fir":
                raise ModelError("shift_mode time_varying takes a single FIR "
                                 "layer followed by the readout")


# ---------------------------------------------------------------------------
# Parameter containers (one per family) and the model state
# ---------------------------------------------------------------------------

@dataclass
class FirLayerParams:
    taps: np.ndarray  # (F_out, F_in, K+1)


@dataclass
class ArmaLayerParams:
    alpha: np.ndarray  # (F_out, F_in, K+1) direct taps
    beta: np.ndarray   # (F_out, F_in, P) residues
    gamma: np.ndarray  # (F_out, F_in, P) poles


@dataclass
class EdgeLayerParams:
    support: EdgeVaryingSupport
    diag: np.ndarray    # (F_out, F_in, N) step-0 diagonal weights
    values: np.ndarray  # (F_out, F_in, K, nnz) step 1..K weights


@dataclass
class ModelState:
    layers: list
    readout_weight: np.ndarray | None = None  # (F_L, out_dim)
    readout_bias: np.ndarray | None = None    # (out_dim,)
    version: int = 0

    def bump_version(self) -> None:
        self.version += 1


LAYER_PARAMS = {"fir": FirLayerParams, "arma": ArmaLayerParams,
                "edge_varying": EdgeLayerParams}
# the trainable fields of each container, in declaration order; an
# edge-varying layer's support holds fixed coordinates
TRAINABLE = {cls: tuple(f.name for f in fields(cls) if f.name != "support")
             for cls in LAYER_PARAMS.values()}


def iter_params(state: ModelState):
    """Yield (name, array) for every trainable tensor, in a fixed order. The
    names are the checkpoint members: ``layers.{i}.{field}``,
    ``readout_weight`` and ``readout_bias``."""
    for i, layer in enumerate(state.layers):
        for name in TRAINABLE[type(layer)]:
            yield f"layers.{i}.{name}", getattr(layer, name)
    if state.readout_weight is not None:
        yield "readout_weight", state.readout_weight
        yield "readout_bias", state.readout_bias


def init_state(spec: ModelSpec, rng: np.random.Generator,
               shift: ShiftOperator | None = None) -> ModelState:
    """Draw initial parameters.

    FIR taps and readout weights are uniform in +-1/sqrt(F_in*(K+1)). ARMA
    poles start in the Jacobi-convergent band [1.5, 3] * ||S|| of the
    ``shift`` with alternating signs and pass ``check_poles`` against its
    diagonal; residues and direct taps are zero-mean uniform scaled by
    1/sqrt(K+P+1). Edge-varying weights shrink additionally with the mean
    row occupancy of the support so a chain of steps preserves magnitude.
    """
    if any(l.family == "arma" for l in spec.layers):
        if shift is None:
            raise ModelError("arma layers need `shift` to init poles")
        lambda_max = shift.operator_norm
        diagonal, margin = shift.diagonal(), pole_margin(shift)
    layers = []
    for i, l in enumerate(spec.layers):
        if l.family == "fir":
            a = 1.0 / np.sqrt(l.in_features * (l.order + 1))
            taps = rng.uniform(-a, a, size=(l.out_features, l.in_features, l.order + 1))
            layers.append(FirLayerParams(taps))
        elif l.family == "arma":
            b = 1.0 / np.sqrt(l.order + l.n_poles + 1)
            alpha = rng.uniform(-b, b, size=(l.out_features, l.in_features, l.order + 1))
            beta = rng.uniform(-b, b, size=(l.out_features, l.in_features, l.n_poles))
            mag = rng.uniform(1.5 * lambda_max, 3.0 * lambda_max,
                              size=(l.out_features, l.in_features, l.n_poles))
            signs = np.ones(l.n_poles)
            signs[1::2] = -1.0
            gamma = mag * signs[None, None, :]
            check_poles(gamma, diagonal, margin, name=f"layers.{i}.gamma")
            layers.append(ArmaLayerParams(alpha, beta, gamma))
        else:
            if shift is None:
                raise ModelError("edge_varying layers need `shift` to bind a support")
            support = EdgeVaryingSupport.from_shift(shift)
            row_occ = max(support.nnz / support.n_nodes, 1.0)
            a = 1.0 / np.sqrt(l.in_features * (l.order + 1) * row_occ)
            diag = rng.uniform(-a, a, size=(l.out_features, l.in_features,
                                            support.n_nodes))
            values = rng.uniform(-a, a, size=(l.out_features, l.in_features,
                                              l.order, support.nnz))
            layers.append(EdgeLayerParams(support, diag, values))
    state = ModelState(layers)
    if spec.readout.kind == "per_node_linear":
        f_last = spec.layers[-1].out_features
        c = 1.0 / np.sqrt(f_last)
        state.readout_weight = rng.uniform(-c, c, size=(f_last, spec.readout.out_dim))
        state.readout_bias = np.zeros(spec.readout.out_dim)
    return state


# ---------------------------------------------------------------------------
# Layer forward/backward
# ---------------------------------------------------------------------------

@dataclass
class Tape:
    """Recorded intermediates from one forward pass: per layer its VJP and
    the one array its nonlinearity's backward reads (the output for tanh,
    the bool mask u > 0 for relu, None for identity). Backward passes only
    read the tape, and no later pass writes into it, so one forward can
    serve several."""

    state_version: int
    vjps: list                   # per layer vjp(du, need_dx) -> (grads, dx)
    nonlin_saved: list           # per layer what _nonlin_backward reads
    readout_input: np.ndarray | None
    out_shape: tuple             # the model output's shape


def _nonlin_forward(kind: str, u: np.ndarray):
    """(output, saved) of the nonlinearity on a fresh pre-activation ``u``,
    which it overwrites: ``saved`` is what ``_nonlin_backward`` reads."""
    if kind == "relu":
        mask = u > 0.0
        return np.maximum(u, 0.0, out=u), mask
    if kind == "tanh":
        out = np.tanh(u, out=u)
        return out, out
    return u, None


def _nonlin_backward(kind: str, saved, dout: np.ndarray) -> np.ndarray:
    """The gradient at the pre-activation, as a fresh array (identity
    passes ``dout`` through)."""
    if kind == "relu":
        return dout * saved
    if kind == "tanh":
        grad = saved * saved
        np.subtract(1.0, grad, out=grad)
        grad *= dout
        return grad
    return dout


def _bank_tap_grad(zs: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Tap gradient of ``fir_bank_contract``: one ((K+1)*G, B*N) @ (B*N, F)
    product, returned as (F, G, K+1)."""
    b, n, k1, g = zs.shape
    grad = zs.reshape(b * n, k1 * g).T @ du.reshape(b * n, -1)
    return np.ascontiguousarray(grad.reshape(k1, g, -1).transpose(2, 1, 0))


def _fir_forward(layer: LayerSpec, params: FirLayerParams, s: ShiftOperator | None,
                 x: np.ndarray):
    """The layer reads the C-contiguous (B, N, K+1, G) stack zs[b, n, k, g] =
    (S^k x_g)[b, n], the layout ``fir_bank_contract`` reads as one
    (B*N, (K+1)*G) matrix. With ``s`` None (time-varying mode) ``x`` is that
    stack already, the delayed chain S(t)...S(t-k+1) x(t-k)."""
    zs = x if s is None else shifted_stack(s, x, layer.order)
    return fir_bank_contract(zs, params.taps), partial(_fir_backward, layer,
                                                       params, zs, s)


def _fir_backward(layer: LayerSpec, params: FirLayerParams, zs: np.ndarray,
                  s: ShiftOperator | None, du: np.ndarray, need_dx: bool):
    """``need_dx`` never comes with ``s`` None: a time-varying model has one layer."""
    gtaps = _bank_tap_grad(zs, du)
    dx = None
    if need_dx:
        # Horner in S on the (N, B, F) view, node axis first for ``s.apply``
        dun = du.swapaxes(0, 1)
        dx = dun @ params.taps[:, :, layer.order]
        for kk in range(layer.order - 1, -1, -1):
            dx = s.apply(dx) + dun @ params.taps[:, :, kk]
        dx = dx.swapaxes(0, 1)
    return FirLayerParams(gtaps), dx


def _pole_scaling(s: ShiftOperator, gamma: np.ndarray) -> np.ndarray:
    """The (F, G, P, N) pole scaling c = 1 / (d - gamma) of the Jacobi
    recursion, d the diagonal of S."""
    return 1.0 / (s.diagonal()[None, None, None, :] - gamma[..., None])


def _arma_forward(layer: LayerSpec, params: ArmaLayerParams, s: ShiftOperator,
                  x: np.ndarray):
    # Direct polynomial part reuses the FIR path.
    zs = shifted_stack(s, x, layer.order)
    u = fir_bank_contract(zs, params.alpha)
    c = _pole_scaling(s, params.gamma)
    # x and S x as (B, 1, G, 1, N), broadcast against c's (F, G, P, N); S x
    # is shared by every (f, p), so x is shifted once.
    xt = x.transpose(0, 2, 1)[:, None, :, None, :]
    sxt = zs[:, :, 1].transpose(0, 2, 1)[:, None, :, None, :] if layer.order \
        else apply_node_last(s, xt)
    b = params.beta[None, ..., None] * c[None] * xt
    us = jacobi_iterates(s, c, b, xt, sxt, layer.jacobi_iters)  # (T, B, F, G, P, N)
    u += us[-1].sum(axis=(2, 3)).transpose(0, 2, 1)
    return u, partial(_arma_backward, layer, params, s, zs, c, us)


def _jacobi_adjoint(s: ShiftOperator, c: np.ndarray, a: np.ndarray, iters: int,
                    us: np.ndarray | None, need_a0: bool):
    """Adjoint sweep a_{m-1} = R^T a_m = (D - S)(c a_m) of the Jacobi
    recursion from ``a`` = a_T, a (B, F, G, P, N) array against c's
    (F, G, P, N).

    Returns sum_{m=1..T} a_m, the batch sum of sum_m a_m u_m over the
    iterates ``us`` (zeros when ``us`` is None), and a_0 (a_1 unless
    ``need_a0``). Each u_m = b + R u_{m-1} equals
    c * (beta x + d u_{m-1} - S u_{m-1}), so du_m/dc = u_m / c and, with
    dc/dgamma = c^2, gamma's gradient is sum c * sum_m a_m u_m; b's gradient
    is sum_m a_m.
    """
    d = s.diagonal()
    a_sum = np.zeros(a.shape)
    au = np.zeros(c.shape)
    for m in range(iters - 1, -1, -1):
        a_sum += a
        if us is not None:
            au += np.einsum("bfgpn,bfgpn->fgpn", a, us[m])
        if m or need_a0:
            ca = c[None] * a
            a = d * ca - apply_node_last(s, ca)
    return a_sum, au, a


def _arma_backward(layer: LayerSpec, params: ArmaLayerParams, s: ShiftOperator,
                   zs: np.ndarray, c: np.ndarray, us: np.ndarray,
                   du: np.ndarray, need_dx: bool):
    # Direct polynomial part reuses the FIR path.
    direct, dx = _fir_backward(layer, FirLayerParams(params.alpha), zs, s, du,
                               need_dx)
    a = np.broadcast_to(du.transpose(0, 2, 1)[:, :, None, None, :], us.shape[1:])
    a_sum, au, a = _jacobi_adjoint(s, c, a, us.shape[0], us, need_dx)
    xt = zs[:, :, 0].transpose(0, 2, 1)             # (B, G, N)
    gbeta = np.einsum("bfgpn,bgn,fgpn->fgp", a_sum, xt, c, optimize=True)
    ggamma = np.einsum("fgpn,fgpn->fgp", c, au)
    if need_dx:
        pole_dx = params.beta[None, ..., None] * c[None] * a_sum + a  # a = a_0
        dx += pole_dx.sum(axis=(1, 3)).transpose(0, 2, 1)
    return ArmaLayerParams(direct.taps, gbeta, ggamma), dx


def _check_bound_nodes(sup: EdgeVaryingSupport, x: np.ndarray) -> None:
    if x.shape[1] != sup.n_nodes:
        raise ModelError(f"edge-varying layer is bound to {sup.n_nodes} nodes, "
                         f"signal has {x.shape[1]}")


def _edge_forward(layer: LayerSpec, params: EdgeLayerParams, x: np.ndarray):
    _check_bound_nodes(params.support, x)
    z0 = params.diag[:, :, None, :] * x.transpose(2, 0, 1)[None]  # (F, G, B, N)
    zs = edge_varying_chain(params.support, params.values, z0)
    u = sum(zs[1:], zs[0]).sum(axis=1).transpose(1, 2, 0)       # (B, N, F)
    return u, partial(_edge_backward, params, x, zs)


def _edge_grads(params: EdgeLayerParams, xin: np.ndarray, zs: list,
                vs: list, reach: tuple | None = None) -> EdgeLayerParams:
    """Weight gradients from the chain states z^(0)..z^(K-1) started at
    diag * xin and the transposed sweep v_0..v_K, batch on axis 2:
    gdiag = sum_b xin v_0 and gvals_k[e] = sum_b z^(k-1)[col_e] v_k[row_e].
    With a ``reach`` (``filters.edge_varying_reach``) gvals holds only its
    entries, step after step, as one (F, G, n) array: the values at
    ``_reach_index(reach)``."""
    sup = params.support
    gdiag = (xin * vs[0]).sum(axis=2)
    if reach is None:
        gvals = np.empty_like(params.values)
        for k in range(1, len(vs)):
            gvals[:, :, k - 1] = np.einsum("fgbe,fgbe->fge", zs[k - 1][..., sup.cols],
                                           vs[k][..., sup.rows])
        return EdgeLayerParams(sup, gdiag, gvals)
    gvals = np.empty(gdiag.shape[:2] + (sum(e.size for e in reach),))
    start = 0
    for k, e in enumerate(reach, start=1):
        gvals[..., start:start + e.size] = np.einsum(
            "fgbe,fgbe->fge", zs[k - 1][..., sup.cols[e]], vs[k][..., sup.rows[e]])
        start += e.size
    return EdgeLayerParams(sup, gdiag, gvals)


def _reach_index(reach: tuple) -> tuple:
    """The index of ``values`` at the (step, entry) pairs of ``reach``, in
    the order ``_edge_grads`` lays its restricted gradient out."""
    steps = np.repeat(np.arange(len(reach)), [e.size for e in reach])
    entries = np.concatenate(reach) if reach else np.zeros(0, dtype=np.intp)
    return (Ellipsis, steps, entries)


def _edge_backward(params: EdgeLayerParams, x: np.ndarray, zs: list,
                   du: np.ndarray, need_dx: bool):
    """``x`` is the (B, N, G) layer input and ``zs`` the K+1 (F, G, B, N)
    chain states z^(0)..z^(K) of the forward."""
    e = du.transpose(2, 0, 1)[:, None]                           # (F, 1, B, N)
    vs = edge_varying_sweep(params.support, params.values,
                            np.broadcast_to(e, params.diag.shape[:2] + e.shape[2:]))
    grads = _edge_grads(params, x.transpose(2, 0, 1), zs, vs)
    dx = None
    if need_dx:
        dx = np.einsum("fgn,fgbn->bng", params.diag, vs[0], optimize=True)
    return grads, dx


# ---------------------------------------------------------------------------
# Last layer restricted to output nodes T.  Before its nonlinearity a layer
# is linear in its input, u[:, t, f] = sum_{n, g} w[t, f, g, n] x[:, n, g],
# so the rows w = du[t, f] / dx[n, g] are computed once per call, with no
# dependence on the batch. Each family's rows builder returns its rows and,
# as a full layer's forward returns its VJP, a closure ``rows_vjp(xbar)``
# bound to what building the rows computed: it maps xbar[t, f, g, n] =
# sum_b du[b, t, f] x[b, n, g] to the parameter gradients. The edge-varying
# ones reuse the full layer's pieces with node t as the batch: the rows are
# diag * v_0 of ``edge_varying_sweep`` from one-hot e_t, and the VJP runs
# ``edge_varying_chain`` on xbar into the same ``_edge_grads``. Both run on
# the reach of T only (``filters.edge_varying_reach``): step k is one
# ``coo_apply`` on the entries whose row lies within K - k hops of T, and
# the value gradient is computed on those entries alone, as an (F, G, n)
# array at ``_reach_index``. Every other entry's gradient is exactly zero.
# For the recsys edgenet (K = 4, one target item of 200, the benchmark's
# graph at seed 17) that is 2063 of the 11584 (step, entry) columns, so a
# training step sweeps, differentiates and updates 18% of the 741k weights.
# ---------------------------------------------------------------------------

def _one_hot(nodes: np.ndarray, n: int) -> np.ndarray:
    """(T, N) rows of the identity at ``nodes``."""
    e = np.zeros((nodes.size, n))
    e[np.arange(nodes.size), nodes] = 1.0
    return e


def _fir_rows(layer: LayerSpec, params: FirLayerParams, s: ShiftOperator,
              nodes: np.ndarray):
    """Rows sum_k taps[f, g, k] (S^k)[t, n] as (T, F, G, N); the VJP
    contracts the (N, K+1, T) stack of S^k e_t (S is symmetric)."""
    stack = shifted_stack(s, _one_hot(nodes, s.n_nodes).T[None], layer.order)[0]
    w = np.einsum("fgk,nkt->tfgn", params.taps, stack)
    return w, partial(_fir_rows_vjp, stack)


def _fir_rows_vjp(stack: np.ndarray, xbar: np.ndarray) -> FirLayerParams:
    return FirLayerParams(np.einsum("tfgn,nkt->fgk", xbar, stack))


def _pole_rows_start(nodes: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a_T = e_t broadcast to (T, F, G, P, N), node t as the sweep's batch."""
    e = _one_hot(nodes, c.shape[-1])
    return np.broadcast_to(e[:, None, None, None, :], (nodes.size,) + c.shape)


def _arma_rows(layer: LayerSpec, params: ArmaLayerParams, s: ShiftOperator,
               nodes: np.ndarray):
    """FIR rows of the direct part plus, per pole, beta c sum_{m<T} q_m + q_T
    with q_0 = e_t and q_m = R^T q_{m-1}: the adjoint sweep from a_T = e_t."""
    w, direct_vjp = _fir_rows(layer, FirLayerParams(params.alpha), s, nodes)
    c = _pole_scaling(s, params.gamma)
    a = _pole_rows_start(nodes, c)
    a_sum, _, a0 = _jacobi_adjoint(s, c, a, layer.jacobi_iters, None, True)
    w += (params.beta[..., None] * c * a_sum + a0).sum(axis=3)
    return w, partial(_arma_rows_vjp, layer, params, s, nodes, direct_vjp, c)


def _arma_rows_vjp(layer: LayerSpec, params: ArmaLayerParams, s: ShiftOperator,
                   nodes: np.ndarray, direct_vjp, c: np.ndarray,
                   xbar: np.ndarray) -> ArmaLayerParams:
    """The poles' VJP is the full layer's adjoint with node t as the batch:
    Jacobi iterates on xbar[t] (one input per (f, g)) against a_T = e_t."""
    galpha = direct_vjp(xbar).taps
    xb = xbar[:, :, :, None, :]                          # (T, F, G, 1, N)
    b = params.beta[..., None] * c * xb
    us = jacobi_iterates(s, c, b, xb, apply_node_last(s, xb), layer.jacobi_iters)
    a = _pole_rows_start(nodes, c)
    a_sum, au, _ = _jacobi_adjoint(s, c, a, layer.jacobi_iters, us, False)
    gbeta = np.einsum("tfgpn,tfgn,fgpn->fgp", a_sum, xbar, c, optimize=True)
    ggamma = np.einsum("fgpn,fgpn->fgp", c, au)
    return ArmaLayerParams(galpha, gbeta, ggamma)


def _edge_rows(params: EdgeLayerParams, nodes: np.ndarray):
    """Rows diag * v_0 of the transposed sweep from e_t, as (T, F, G, N),
    run on the reach of ``nodes``; the VJP reads the sweep v_0 .. v_K as
    (F, G, T, N) arrays."""
    sup = params.support
    reach = edge_varying_reach(sup, params.values.shape[-2], nodes)
    e = _one_hot(nodes, sup.n_nodes)
    vs = edge_varying_sweep(sup, params.values,
                            np.broadcast_to(e, params.diag.shape[:2] + e.shape), reach)
    w = (params.diag[:, :, None, :] * vs[0]).transpose(2, 0, 1, 3)
    return w, partial(_edge_rows_vjp, params, reach, vs)


def _edge_rows_vjp(params: EdgeLayerParams, reach: tuple, vs: list,
                   xbar: np.ndarray) -> EdgeLayerParams:
    """The full layer's gradients with node t as the batch: the chain on
    xbar[t] over Phi_1 .. Phi_{K-1} against the sweep from e_t, both on the
    reach; ``values`` is the (F, G, n) gradient at its ``_reach_index``."""
    xb = xbar.transpose(1, 2, 0, 3)                      # (F, G, T, N)
    zs = edge_varying_chain(params.support, params.values[:, :, :-1],
                            params.diag[:, :, None, :] * xb, reach[:-1])
    return _edge_grads(params, xb, zs, vs, reach)


def _rows_forward(layer: LayerSpec, params, s: ShiftOperator, x: np.ndarray,
                  nodes: np.ndarray):
    """Pre-nonlinearity output (B, T, F) at ``nodes``: one
    (B, N*G) @ (N*G, T*F) product against the layer's rows."""
    if layer.family == "fir":
        w, rows_vjp = _fir_rows(layer, params, s, nodes)
    elif layer.family == "arma":
        w, rows_vjp = _arma_rows(layer, params, s, nodes)
    else:
        _check_bound_nodes(params.support, x)
        w, rows_vjp = _edge_rows(params, nodes)
    t, f, g, n = w.shape
    wmat = w.transpose(0, 1, 3, 2).reshape(t * f, n * g)
    u = (x.reshape(x.shape[0], n * g) @ wmat.T).reshape(-1, t, f)
    return u, partial(_rows_backward, x, wmat, rows_vjp)


def _rows_backward(x: np.ndarray, wmat: np.ndarray, rows_vjp, du: np.ndarray,
                   need_dx: bool):
    """``wmat`` holds the (T*F, N*G) rows, laid out for the batch GEMMs."""
    bdim, n, g = x.shape
    delta = du.reshape(bdim, -1)                          # (B, T*F)
    xbar = (delta.T @ x.reshape(bdim, n * g)).reshape(
        du.shape[1], -1, n, g).transpose(0, 1, 3, 2)      # (T, F, G, N)
    grads = rows_vjp(xbar)
    dx = (delta @ wmat).reshape(bdim, n, g) if need_dx else None
    return grads, dx


# ---------------------------------------------------------------------------
# Model forward/backward
# ---------------------------------------------------------------------------

def _check_input(spec: ModelSpec, s: ShiftOperator | None, x: np.ndarray) -> None:
    """A static model reads a (B, N, G) ``x`` on the shift ``s``; a
    time-varying one reads as ``x`` the (B, N, K+1, G) delayed stack of its
    one FIR layer, with ``s`` None."""
    if spec.shift_mode == "static":
        if s is None:
            raise ModelError("a static model needs `s`, the shift its layers apply")
        if x.ndim != 3:
            raise ModelError(f"a static model reads a (B, N, G) x, got shape {x.shape}")
        return
    layer = spec.layers[0]
    want = x.shape[:2] + (layer.order + 1, layer.in_features)
    if s is not None or x.shape != want:
        got = f"x of shape {x.shape}" + ("" if s is None else " and a shift `s`")
        raise ModelError(f"a time-varying model reads as x the (B, N, K+1, G) = "
                         f"{want} delayed stack of its order-{layer.order} "
                         f"layer, with s None; got {got}")


def _check_out_nodes(spec: ModelSpec, s: ShiftOperator | None, x: np.ndarray,
                     out_nodes) -> np.ndarray:
    if s is None or spec.shift_mode == "time_varying":
        raise ModelError("out_nodes needs a static shift")
    nodes = np.asarray(out_nodes)
    if nodes.ndim != 1 or nodes.size == 0 or nodes.dtype.kind not in "iu":
        raise ModelError(f"out_nodes must be a non-empty 1-D integer array, "
                         f"got shape {nodes.shape} of {nodes.dtype}")
    n = x.shape[1]
    outside = nodes[(nodes < 0) | (nodes >= n)]
    if outside.size:
        raise ModelError(f"out_nodes holds node {int(outside[0])}, "
                         f"outside [0, {n})")
    return nodes


def forward_batch(spec: ModelSpec, state: ModelState, s: ShiftOperator | None,
                  x: np.ndarray, out_nodes=None):
    """Batched forward pass; the spec's shift mode decides the input.

    A static model runs on the shift ``s`` and reads ``x`` as a (batch,
    nodes, features) array. A time-varying model (one FIR layer) takes
    ``s`` None and reads ``x`` as that layer's (B, N, K+1, G) delayed
    stack, the chain S(t)...S(t-k+1) x(t-k) at tap k
    (``flocking.TrajectorySample.delayed_stacks``).

    ``out_nodes`` (a 1-D integer array T, repeats and any order allowed)
    computes only the output nodes a loss reads: every layer but the last
    runs in full, and the last layer and the readout return (B, |T|, .) for
    those nodes, in that order. The last layer then runs through its rows at
    T, computed once per call from one-hot starts, and meets the batch in one
    (B, N*G) @ (N*G, |T|*F) product. It needs a static model.

    Returns (output, tape). The output and the intermediates the tape
    records are fresh arrays, so a later pass changes neither.
    """
    if out_nodes is not None:
        out_nodes = _check_out_nodes(spec, s, x, out_nodes)
    _check_input(spec, s, x)
    vjps, nonlin_saved = [], []
    cur = x
    for i, (layer, params) in enumerate(zip(spec.layers, state.layers)):
        if cur.shape[-1] != layer.in_features:
            raise ModelError(f"layer {i} expects {layer.in_features} features, "
                             f"got {cur.shape[-1]}")
        if out_nodes is not None and i == len(spec.layers) - 1:
            u, vjp = _rows_forward(layer, params, s, cur, out_nodes)
        elif layer.family == "fir":
            u, vjp = _fir_forward(layer, params, s, cur)
        elif layer.family == "arma":
            u, vjp = _arma_forward(layer, params, s, cur)
        else:
            u, vjp = _edge_forward(layer, params, cur)
        cur, saved = _nonlin_forward(layer.nonlinearity, u)
        vjps.append(vjp)
        nonlin_saved.append(saved)
    readout_input = None
    if spec.readout.kind == "per_node_linear":
        readout_input = cur
        cur = cur @ state.readout_weight
        cur += state.readout_bias
    return cur, Tape(state.version, vjps, nonlin_saved, readout_input, cur.shape)


def model_forward(spec: ModelSpec, state: ModelState, s: ShiftOperator,
                  x: GraphSignal):
    """Run the model on one signal; returns (output signal, tape)."""
    if spec.shift_mode != "static":
        raise ModelError("time-varying models run through forward_batch(spec, "
                         "state, None, x), x their (B, N, K+1, G) delayed stack")
    out, tape = forward_batch(spec, state, s, x.values[None])
    return GraphSignal(out[0]), tape


def model_backward(tape: Tape, spec: ModelSpec, state: ModelState,
                   loss_grad: np.ndarray):
    """Gradients of a scalar loss for every trainable parameter.

    ``loss_grad`` is dJ/d(output), an array of the tape's ``out_shape``:
    (B, |T|, .) for a tape recorded with ``out_nodes`` T, whose last layer
    runs its rows' vector-Jacobian product. Any other shape is rejected
    rather than broadcast. Returns a fresh ModelState-shaped container of
    gradient arrays.

    Each gradient has its parameter's shape, but for one: on a tape
    recorded with ``out_nodes``, an edge-varying last layer's ``values``
    gradient holds only the entries ``out_node_reach`` names, as the
    (F, G, n) array ``grad[index]`` would be. Every entry it leaves out
    has gradient zero: no loss read at those nodes can move it.
    """
    if tape.state_version != state.version:
        raise ModelError("stale tape: parameters changed since the forward pass")
    dcur = np.asarray(loss_grad)
    if dcur.shape != tape.out_shape:
        raise ModelError(f"loss_grad has shape {dcur.shape}, the model output "
                         f"has shape {tape.out_shape}")
    grad_readout_w = grad_readout_b = None
    if spec.readout.kind == "per_node_linear":
        b, n, f_last = tape.readout_input.shape
        flat = dcur.reshape(b * n, -1)
        grad_readout_w = tape.readout_input.reshape(b * n, f_last).T @ flat
        # numpy sums an (R, k) array's axis 0 one row at a time; a (k, R)
        # copy sums each row in one contiguous pass
        grad_readout_b = np.ascontiguousarray(flat.T).sum(axis=1)
        # a product with a C-contiguous copy of the transpose runs about
        # twice as fast as one with the strided transpose, same bits
        weight_t = np.ascontiguousarray(state.readout_weight.T)
        dcur = (flat @ weight_t).reshape(b, n, f_last)
    layer_grads: list = [None] * len(spec.layers)
    for i in range(len(spec.layers) - 1, -1, -1):
        du = _nonlin_backward(spec.layers[i].nonlinearity, tape.nonlin_saved[i],
                              dcur)
        layer_grads[i], dcur = tape.vjps[i](du, i > 0)
    return ModelState(layer_grads, grad_readout_w, grad_readout_b)


def out_node_reach(spec: ModelSpec, state: ModelState, nodes) -> dict:
    """Per parameter name (an ``iter_params`` name), the index of the only
    entries that a loss read at ``nodes`` can move, for the parameters whose
    gradient ``model_backward`` gives on those entries alone when the tape
    was recorded with ``out_nodes=nodes``: an edge-varying last layer's
    ``values`` at the (step, entry) pairs of ``filters.edge_varying_reach``.
    Every other parameter is absent."""
    i = len(spec.layers) - 1
    if spec.layers[i].family != "edge_varying":
        return {}
    params = state.layers[i]
    reach = edge_varying_reach(params.support, params.values.shape[-2],
                               np.asarray(nodes))
    return {f"layers.{i}.values": _reach_index(reach)}


# ---------------------------------------------------------------------------
# Equivariance check
# ---------------------------------------------------------------------------

def equivariant_forward_check(spec: ModelSpec, state: ModelState,
                              s: ShiftOperator, x: GraphSignal,
                              perm: np.ndarray) -> dict:
    """Relative gap between running on relabeled inputs and relabeling the
    output. Zero (to rounding) for convolutional families; generically
    positive for edge-varying parameters, which are tied to node identities.
    """
    perm = np.asarray(perm)
    base, _ = forward_batch(spec, state, s, x.values[None])
    s_perm = permute_shift(s, perm)
    state_perm = _rebind_state(spec, state, s_perm)
    permuted, _ = forward_batch(spec, state_perm, s_perm, x.values[perm][None])
    num = np.linalg.norm(permuted[0] - base[0][perm])
    den = max(np.linalg.norm(base[0]), 1e-300)
    family_equivariant = all(l.family in ("fir", "arma") for l in spec.layers)
    return {
        "relative_error": float(num / den),
        "family_expected_equivariant": family_equivariant,
    }


def _rebind_state(spec: ModelSpec, state: ModelState,
                  s_new: ShiftOperator) -> ModelState:
    """Bind the same parameter values to a new graph's support.

    Convolutional parameters transfer unchanged. Edge-varying value lists are
    reattached to the new support's sorted coordinate list positionally,
    which is what makes them node-identity bound.
    """
    layers = []
    for layer_spec, params in zip(spec.layers, state.layers):
        if isinstance(params, EdgeLayerParams):
            support = EdgeVaryingSupport.from_shift(s_new)
            if support.nnz != params.support.nnz:
                raise ModelError("support sizes differ; cannot rebind")
            layers.append(EdgeLayerParams(support, params.diag, params.values))
        else:
            layers.append(params)
    return ModelState(layers, state.readout_weight, state.readout_bias,
                      version=state.version)


# ---------------------------------------------------------------------------
# Parameter validation: the one check on a state against its spec
# ---------------------------------------------------------------------------

def _check_support(where: str, sup: EdgeVaryingSupport) -> None:
    """Integer coordinates of I + S in [0, n), sorted row-major, unique."""
    n, rows, cols = sup.n_nodes, sup.rows, sup.cols
    for name, a in (("rows", rows), ("cols", cols)):
        if not isinstance(a, np.ndarray) or a.dtype.kind not in "iu" or a.ndim != 1:
            raise ModelError(f"{where}.{name} must be a 1-D integer array")
    if rows.shape != cols.shape:
        raise ModelError(f"{where}.rows has {rows.size} entries, {where}.cols "
                         f"{cols.size}")
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    if outside.any():
        e = int(np.argmax(outside))
        raise ModelError(f"{where} support entry ({rows[e]}, {cols[e]}) is "
                         f"outside [0, {n})")
    keys = rows.astype(np.int64) * n + cols.astype(np.int64)
    step = np.diff(keys)
    for bad, what in ((step < 0, "not sorted row-major"), (step == 0, "a duplicate")):
        if bad.any():
            e = int(np.argmax(bad)) + 1
            raise ModelError(f"{where} support entry {e} ({rows[e]}, {cols[e]}) "
                             f"is {what}")
    missing = ~np.isin(np.arange(n, dtype=np.int64) * (n + 1), keys)
    if missing.any():
        j = int(np.argmax(missing))
        raise ModelError(f"{where} support lacks the diagonal entry ({j}, {j})")


def validate_state(spec: ModelSpec, state: ModelState) -> None:
    """Check every parameter array of ``state`` against ``spec``.

    Each array must pass ``graphs.check_member``, the one archive-array
    rule: a finite float64 array of the shape the spec implies. An
    edge-varying support must hold sorted, unique integer coordinates in
    [0, n_nodes) that include the diagonal, and the readout parameters must
    be present exactly when the spec has a readout. Errors are ModelErrors
    naming the layer and the field, so a bad state fails here rather than
    inside a forward pass.
    """
    if len(state.layers) != len(spec.layers):
        raise ModelError(f"state has {len(state.layers)} layers, the spec "
                         f"{len(spec.layers)}")
    for i, (layer, params) in enumerate(zip(spec.layers, state.layers)):
        where = f"layers.{i}"
        kind = LAYER_PARAMS[layer.family]
        if not isinstance(params, kind):
            raise ModelError(f"{where} holds {type(params).__name__}, the spec "
                             f"needs {kind.__name__}")
        fg = (layer.out_features, layer.in_features)
        if layer.family == "fir":
            shapes = {"taps": fg + (layer.order + 1,)}
        elif layer.family == "arma":
            shapes = {"alpha": fg + (layer.order + 1,),
                      "beta": fg + (layer.n_poles,), "gamma": fg + (layer.n_poles,)}
        else:
            _check_support(where, params.support)
            shapes = {"diag": fg + (params.support.n_nodes,),
                      "values": fg + (layer.order, params.support.nnz)}
        for name, shape in shapes.items():
            check_member(f"{where}.{name}", getattr(params, name), shape, ModelError)
    readout = {"readout_weight": state.readout_weight,
               "readout_bias": state.readout_bias}
    if spec.readout.kind == "per_node_linear":
        out_dim = spec.readout.out_dim
        shapes = {"readout_weight": (spec.layers[-1].out_features, out_dim),
                  "readout_bias": (out_dim,)}
        for name, shape in shapes.items():
            if readout[name] is None:
                raise ModelError(f"{name} is missing, the spec has a "
                                 f"per_node_linear readout")
            check_member(name, readout[name], shape, ModelError)
    else:
        for name, a in readout.items():
            if a is not None:
                raise ModelError(f"{name} is present, the spec has no readout")


# ---------------------------------------------------------------------------
# Archives (checkpoints and flocking datasets): one uncompressed np.savez
# file. Member ``header`` holds the UTF-8 bytes (uint8) of a JSON document
# with ``format_version``; the other members are named arrays. A checkpoint's
# header holds the model spec (``layers``: the LayerSpec fields, plus
# ``support_n_nodes`` for an edge-varying layer; ``readout``; ``shift_mode``)
# and ``metadata``. Every parameter array is its own member:
# ``layers.{i}.{field}`` for taps, alpha, beta, gamma, diag and values,
# ``layers.{i}.rows`` / ``.cols`` for an edge support, and
# ``readout_weight`` / ``readout_bias``.
# ---------------------------------------------------------------------------

ZIP_MAGIC = b"PK\x03\x04"
# a version-1 checkpoint: a JSON document whose first key is format_version
V1_HEAD = re.compile(rb'\s*\{\s*"format_version":\s*(\d+)')


def _state_members(state: ModelState) -> dict:
    members = dict(iter_params(state))
    for i, params in enumerate(state.layers):
        if isinstance(params, EdgeLayerParams):
            members[f"layers.{i}.rows"] = params.support.rows
            members[f"layers.{i}.cols"] = params.support.cols
    return members


def save_checkpoint(path, spec: ModelSpec, state: ModelState,
                    metadata: dict | None = None) -> None:
    """Write ``spec``, ``state`` and ``metadata`` to exactly ``path`` (no
    suffix is added) as one np.savez archive laid out as above.
    ``metadata`` must be JSON-serializable."""
    layers = [asdict(layer) for layer in spec.layers]
    for doc, params in zip(layers, state.layers):
        if isinstance(params, EdgeLayerParams):
            doc["support_n_nodes"] = params.support.n_nodes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model": {"layers": layers, "readout": asdict(spec.readout),
                  "shift_mode": spec.shift_mode},
        "metadata": metadata or {},
    }
    write_archive(path, header, _state_members(state))


def write_archive(path, header: dict, members: dict) -> None:
    """Write the JSON-serializable ``header`` and the named arrays
    ``members`` to exactly ``path`` (no suffix is added)."""
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(text, dtype=np.uint8), **members)


def read_archive(path, version: int, what: str) -> tuple[dict, dict]:
    """The JSON header and the other members of an archive written by
    ``write_archive``, read with ``allow_pickle=False``. The header's
    ``format_version`` must be ``version``; ``what`` names the archive's
    kind in errors."""
    with open(path, "rb") as fh:
        head = fh.read(256)
    if not head.startswith(ZIP_MAGIC):
        old = V1_HEAD.match(head)
        if old:
            raise ModelError(f"{path}: {what} format version "
                             f"{int(old.group(1))} is not supported; this "
                             f"version reads {version} (np.savez archives)")
        raise ModelError(f"{path} is not a {what} archive")
    try:
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ModelError(f"{path} is not a readable {what} archive: "
                         f"{exc}") from exc
    raw = members.pop("header", None)
    if raw is None or raw.dtype != np.uint8 or raw.ndim != 1:
        raise ModelError(f"{path} has no uint8 header member")
    try:
        header = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise ModelError(f"{path} header is not UTF-8 JSON: {exc}") from exc
    found = header.get("format_version") if isinstance(header, dict) else None
    if found != version:
        raise ModelError(f"{path}: {what} format_version is {found!r}, this "
                         f"version reads {version}")
    return header, members


def _header_spec(path, prefix: str, cls, doc: dict):
    """``cls(**doc)``; its ``ModelError`` names ``path`` and the header
    field (``prefix`` + the field the error leads with)."""
    try:
        return cls(**doc)
    except ModelError as exc:
        raise ModelError(f"{path}: {prefix}{exc}") from None


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``; returns (spec,
    state, metadata). The archive is read with ``allow_pickle=False`` and
    the state passes ``validate_state`` against the stored spec."""
    header, members = read_archive(path, CHECKPOINT_VERSION, "checkpoint")

    def member(name):
        try:
            return members.pop(name)
        except KeyError:
            raise ModelError(f"{path} has no member {name}") from None

    try:
        mdoc = header["model"]
        layer_specs, layer_params = [], []
        for i, ldoc in enumerate(mdoc["layers"]):
            prefix = f"layers.{i}."
            spec = _header_spec(path, prefix, LayerSpec,
                                {f.name: ldoc[f.name] for f in fields(LayerSpec)})
            layer_specs.append(spec)
            cls = LAYER_PARAMS[spec.family]
            arrays = {}
            for f in fields(cls):
                if f.name == "support":
                    n = ldoc["support_n_nodes"]
                    check_count(f"{path}: {prefix}support_n_nodes", n, 1, ModelError)
                    arrays["support"] = EdgeVaryingSupport(
                        n, member(prefix + "rows"), member(prefix + "cols"))
                else:
                    arrays[f.name] = member(prefix + f.name)
            layer_params.append(cls(**arrays))
        readout = _header_spec(path, "readout.", ReadoutSpec, mdoc["readout"])
        spec = _header_spec(path, "", ModelSpec, {
            "layers": tuple(layer_specs), "readout": readout,
            "shift_mode": mdoc["shift_mode"]})
    except (KeyError, TypeError) as exc:
        raise ModelError(f"{path} header lacks or misstates {exc}") from exc
    state = ModelState(layer_params)
    if spec.readout.kind == "per_node_linear":
        state.readout_weight = member("readout_weight")
        state.readout_bias = member("readout_bias")
    if members:
        raise ModelError(f"{path} has members the spec does not use: "
                         f"{sorted(members)}")
    validate_state(spec, state)
    return spec, state, header.get("metadata", {})
