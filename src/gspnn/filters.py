"""Graph filter families: polynomial (FIR), rational (ARMA), and edge-varying.

A FIR graph filter is a polynomial in the shift operator applied by repeated
one-hop shifts. An ARMA filter adds single-pole terms beta / (lambda - gamma)
to the response; it is evaluated either exactly (in the eigenbasis of the
shift, the reference path) or by unrolled Jacobi iterations (the trainable,
distributable path).
``jacobi_iterates`` is the one Jacobi recursion: ``arma_apply_jacobi`` and
the neural ARMA layer both run it. An edge-varying filter gives every
coordinate of the support of I + S (the nonzeros of S and the diagonal)
its own weight at every step, generalizing both.

Frequency responses are arrays over a lambda grid, one function per family:
``fir_response`` evaluates a single filter or a whole (F, G, K+1) bank with
one Horner loop over the taps, and ``arma_response`` adds the pole terms to
the direct taps' ``fir_response``.

Matrix powers of the shift are never materialized: the FIR and ARMA families
are applied through repeated ``ShiftOperator.apply`` calls, the one product
with the dense shift matrix. An edge-varying step Phi_k differs per step and
per feature pair, so it is applied on its coordinate list: one
``graphs.coo_apply`` gather + ``np.bincount`` per step, costing nnz per
vector on the full output. ``edge_varying_chain`` and its transposed sweep
``edge_varying_sweep`` are the one edge-varying recursion:
``edge_varying_apply`` and the neural edge-varying layer, full-output or
restricted to a few output nodes, all run them. Restricted to output nodes
T, step k of an order-K filter reaches T only through the entries whose row
lies within K - k hops of T (``edge_varying_reach``), so each step costs
the entries of that ball per vector: with one target item on the
benchmark's 200-item recsys graph at seed 17, 12 to 994 of the 2896 entries
per step, 2063 of 11584 over the four steps. Dense (N, N) step matrices
with batched products win only on wide full-output batches (8x faster for
440 signals on 200 nodes with 64 filters) and cost the most on one signal
(4x the time, 10x the memory); no caller runs full-output batches that
wide, so there is no dense path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    GraphError,
    GraphSignal,
    ShiftOperator,
    coo_apply,
    eigendecompose,
    symmetric_eigenvalues,
)


class FilterError(ValueError):
    """Invalid filter parameters or application."""


# ---------------------------------------------------------------------------
# FIR filters
# ---------------------------------------------------------------------------

FIR_VARIANTS = ("plain", "gcn", "sgc", "gin")


@dataclass(frozen=True)
class FirTaps:
    """Polynomial filter taps h = [h0, ..., hK]."""

    taps: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.taps, dtype=float))
        if t.ndim != 1 or t.size == 0:
            raise FilterError("taps must be a non-empty vector")
        if not np.all(np.isfinite(t)):
            raise FilterError("taps must be finite")
        object.__setattr__(self, "taps", t)

    @property
    def order(self) -> int:
        return self.taps.size - 1


def fir_bank_contract(zs: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Filter-bank output u[b, n, f] = sum_{k, g} taps[f, g, k] zs[b, n, k, g].

    ``zs`` is a C-contiguous (B, N, K+1, G) shifted stack and ``taps`` is
    (F, G, K+1); the whole bank is one (B*N, (K+1)*G) @ ((K+1)*G, F) product,
    returned as (B, N, F). Every FIR filter bank, neural or not, goes through
    this kernel.
    """
    b, n, k1, g = zs.shape
    weights = taps.transpose(2, 1, 0).reshape(k1 * g, taps.shape[0])
    return (zs.reshape(b * n, k1 * g) @ weights).reshape(b, n, -1)


def shifted_stack(s: ShiftOperator, x: np.ndarray, order: int) -> np.ndarray:
    """(B, N, K+1, G) stack [x, Sx, ..., S^K x] of a (B, N, G) signal, laid
    out for ``fir_bank_contract``."""
    b, n, g = x.shape
    zs = np.empty((b, n, order + 1, g))
    zs[:, :, 0] = x
    cur = x.swapaxes(0, 1)
    for k in range(1, order + 1):
        cur = s.apply(cur)
        zs[:, :, k] = cur.swapaxes(0, 1)
    return zs


def fir_apply(h: FirTaps, s: ShiftOperator, x: GraphSignal) -> GraphSignal:
    """Apply sum_k h_k S^k x by iterated shifts.

    Each feature of ``x`` is filtered alone: features become the batch of a
    one-input, one-output bank run through ``fir_bank_contract``. Sharing
    that kernel makes the result bit-identical to a single-feature neural
    FIR layer with the same taps.
    """
    if x.n_nodes != s.n_nodes:
        raise GraphError(f"shift is {s.n_nodes} nodes, signal has {x.n_nodes}")
    zs = shifted_stack(s, x.values.T[:, :, None], h.order)
    out = fir_bank_contract(zs, h.taps.reshape(1, 1, -1))
    return GraphSignal(out[:, :, 0].T)


def fir_response(taps, lambdas) -> np.ndarray:
    """Polynomial response h(lambda) = sum_k h_k lambda^k of a (..., K+1) tap
    array (one filter's taps or a layer's (F, G, K+1) bank) at every lambda,
    as a (..., n_grid) array.

    One Horner loop over the tap axis, broadcast over the bank and the grid:
    each value goes through the operations of a scalar Horner loop started
    at 0.0, in the same order, so it has the same bits.
    """
    taps = np.asarray(taps, dtype=float)
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    val = np.zeros(taps.shape[:-1] + lam.shape)
    for k in range(taps.shape[-1] - 1, -1, -1):
        val = val * lam + taps[..., k, None]
    return _finite_response(val)


def _finite_response(val: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(val)):
        raise FilterError("non-finite frequency response")
    return val


# ---------------------------------------------------------------------------
# ARMA filters: partial-fraction form with poles gamma, residues beta, and
# direct polynomial taps alpha.
# ---------------------------------------------------------------------------

def pole_margin(s: ShiftOperator) -> float:
    """Minimum allowed distance between a pole and any diagonal entry of S,
    1e-3 (1 + ||S||); the norm reads the operator's cached spectrum."""
    return 1e-3 * (1.0 + s.operator_norm)


def check_poles(gamma, diagonal: np.ndarray, margin: float,
                name: str = "pole") -> None:
    """The one pole-margin check: raise a FilterError naming ``name`` and the
    first pole of ``gamma`` (a scalar or an array) that is not at least
    ``margin`` away from every entry of ``diagonal``, the diagonal of S,
    where the Jacobi scaling 1 / (d - gamma) blows up. Callers compute the
    margin once per shift with ``pole_margin``, which reads the operator's
    cached spectrum."""
    poles = np.asarray(gamma, dtype=float)
    flat = poles.reshape(-1)
    entries = np.unique(diagonal)
    gaps = np.abs(flat[:, None] - entries[None, :])
    bad = ~(gaps.min(axis=1, initial=np.inf) >= margin)
    if bad.any():
        e = int(np.argmax(bad))
        at = ", ".join(str(int(i)) for i in np.unravel_index(e, poles.shape))
        where = f"{name}[{at}]" if at else name
        d = float(entries[np.argmin(gaps[e])])
        raise FilterError(f"{where} = {float(flat[e])!r} is within {margin:.3g} "
                          f"of the shift diagonal entry {d!r}")


@dataclass(frozen=True)
class ArmaParams:
    """Rational filter parameters: response sum_p beta_p / (lambda - gamma_p)
    + sum_k alpha_k lambda^k, approximated by ``jacobi_iters`` unrolled Jacobi
    steps when applied iteratively."""

    poles: np.ndarray
    residues: np.ndarray
    direct_taps: np.ndarray
    jacobi_iters: int = 1

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.poles, dtype=float))
        b = np.atleast_1d(np.asarray(self.residues, dtype=float))
        a = np.atleast_1d(np.asarray(self.direct_taps, dtype=float))
        if g.size == 0:
            g = g.reshape(0)
        if b.size == 0:
            b = b.reshape(0)
        if g.shape != b.shape:
            raise FilterError("poles and residues must have equal length")
        if a.size == 0:
            raise FilterError("need at least one direct tap (use [0])")
        for arr in (g, b, a):
            if not np.all(np.isfinite(arr)):
                raise FilterError("ARMA parameters must be finite")
        if self.jacobi_iters < 1:
            raise FilterError("jacobi_iters must be >= 1")
        object.__setattr__(self, "poles", g)
        object.__setattr__(self, "residues", b)
        object.__setattr__(self, "direct_taps", a)

    @property
    def n_poles(self) -> int:
        return self.poles.size


def arma_response(p: ArmaParams, lambdas) -> np.ndarray:
    """Exact rational response of the partial-fraction form at every lambda,
    as an (n_grid,) array: the pole terms beta / (lambda - gamma) summed
    pole by pole, then the direct taps' ``fir_response``."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    denom = lam - p.poles[:, None]
    hit = np.abs(denom) < 1e-12
    if hit.any():
        raise FilterError(f"response pole hit at lambda={lam[hit.any(axis=0)][0]}")
    val = np.zeros_like(lam)
    for beta, d in zip(p.residues, denom):
        val += beta / d
    return _finite_response(val + fir_response(p.direct_taps, lam))


def arma_apply_direct(p: ArmaParams, s: ShiftOperator, x: GraphSignal) -> GraphSignal:
    """Exact ARMA output, the reference for the Jacobi path.

    The pole terms are V diag(sum_p beta_p / (lambda - gamma_p)) V^T x in
    the eigenbasis of ``eigendecompose(s)``, which solves nothing when ``s``
    carries its eigenpairs; the direct taps go through ``fir_apply``. A pole
    within 1e-12 of an eigenvalue, where S - gamma I is singular, raises a
    FilterError naming it.
    """
    if x.n_nodes != s.n_nodes:
        raise GraphError("signal size does not match shift")
    out = fir_apply(FirTaps(p.direct_taps), s, x).values
    if p.n_poles:
        s = eigendecompose(s)
        denom = s.eigenvalues - p.poles[:, None]
        hit = (np.abs(denom) < 1e-12).any(axis=1)
        if hit.any():
            k = int(np.argmax(hit))
            raise FilterError(f"pole {k} = {float(p.poles[k])!r} is an eigenvalue "
                              f"of S: S - gamma I is singular")
        h = (p.residues[:, None] / denom).sum(axis=0)
        v = s.eigenvectors
        out = out + v @ (h[:, None] * (v.T @ x.values))
    return GraphSignal(out)


def jacobi_iterates(s: ShiftOperator, c: np.ndarray, b: np.ndarray,
                    x: np.ndarray, sx: np.ndarray, iters: int) -> np.ndarray:
    """Jacobi iterates u_1 ... u_T of u_m = b + c * (d * u_{m-1} - S u_{m-1})
    from u_0 = x, stacked as a (T, ...) array.

    The node axis is last in every operand and the operands broadcast
    against each other; ``d`` is the diagonal of S and ``sx`` is S x, which
    callers usually have already.
    """
    d = s.diagonal()
    u = b + c * (d * x - sx)
    us = np.empty((iters,) + u.shape)
    us[0] = u
    for m in range(1, iters):
        su = np.moveaxis(s.apply(np.moveaxis(us[m - 1], -1, 0)), 0, -1)
        us[m] = b + c * (d * us[m - 1] - su)
    return us


def arma_apply_jacobi(p: ArmaParams, s: ShiftOperator, x: GraphSignal) -> GraphSignal:
    """Jacobi-approximated ARMA output: pole terms unrolled to ``jacobi_iters``
    steps plus the exact direct polynomial part. All poles are checked
    against one ``pole_margin`` (the operator's cached spectrum) and share
    one S x."""
    acc = fir_apply(FirTaps(p.direct_taps), s, x).values
    if p.n_poles:
        d = s.diagonal()
        check_poles(p.poles, d, pole_margin(s), name="poles")
        xt, sxt = x.values.T, s.apply(x.values).T
        for gamma, beta in zip(p.poles, p.residues):
            c = 1.0 / (d - gamma)      # checked above
            us = jacobi_iterates(s, c, beta * c * xt, xt, sxt, p.jacobi_iters)
            acc = acc + us[-1].T
    return GraphSignal(acc)


def jacobi_spectral_radius(s: ShiftOperator, gamma: float) -> float:
    """Spectral radius of the Jacobi matrix R(gamma) = (D - gamma I)^{-1}
    (D - S), D the diagonal of S; reported per pole by the analysis tools.

    With a constant diagonal D = d I, which every built kind but the
    Laplacian has, R = (d I - S) / (d - gamma) and the radius is
    max_i |d - lambda_i| / |d - gamma| over the operator's cached spectrum:
    no eigensolve beyond the one the pole margin already reads. A varying
    diagonal runs a dense solve: when the scaling (d_i - gamma)^{-1} has one
    sign, R is similar to a symmetric matrix whose eigenvalues give the
    exact radius; otherwise a nonsymmetric eigenvalue solve.
    """
    d = s.diagonal()
    check_poles(gamma, d, pole_margin(s))
    if np.all(d == d[0]):
        return float(np.max(np.abs(d[0] - s.spectrum)) / abs(d[0] - gamma))
    c = 1.0 / (d - gamma)
    off = np.diag(d) - s.matrix  # D - S
    if np.all(c > 0) or np.all(c < 0):
        sq = np.sqrt(np.abs(c))
        sym = sq[:, None] * off * sq[None, :]
        return float(np.max(np.abs(symmetric_eigenvalues(sym))))
    return float(np.max(np.abs(np.linalg.eigvals(c[:, None] * off))))


# ---------------------------------------------------------------------------
# Edge-varying filters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeVaryingSupport:
    """Sorted coordinate list of I + S: where edge-varying weights may live."""

    n_nodes: int
    rows: np.ndarray
    cols: np.ndarray

    @staticmethod
    def from_shift(s: ShiftOperator) -> "EdgeVaryingSupport":
        mask = s.matrix != 0.0
        np.fill_diagonal(mask, True)
        return EdgeVaryingSupport(s.n_nodes, *np.nonzero(mask))  # row-major

    @property
    def nnz(self) -> int:
        return self.rows.size

    def values_from_dense(self, m: np.ndarray) -> np.ndarray:
        """Entries of ``m`` on the support; nonzeros off it are rejected."""
        mask = np.ones_like(m, dtype=bool)
        mask[self.rows, self.cols] = False
        bad = np.nonzero(mask & (m != 0.0))
        if bad[0].size:
            i, j = int(bad[0][0]), int(bad[1][0])
            raise FilterError(f"entry ({i},{j}) outside the I+S support")
        return m[self.rows, self.cols]


@dataclass(frozen=True)
class EdgeVaryingParams:
    """Weights for an order-K edge-varying filter on a fixed support.

    ``diag`` (N,) holds the step-0 diagonal weights; ``values`` (K, nnz)
    holds one weight per coordinate of the support for steps 1..K.
    """

    support: EdgeVaryingSupport
    diag: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dg = np.asarray(self.diag, dtype=float)
        vv = np.asarray(self.values, dtype=float)
        if dg.shape != (self.support.n_nodes,):
            raise FilterError("diag must have one weight per node")
        if vv.ndim != 2 or vv.shape[1] != self.support.nnz:
            raise FilterError("values must be (order, nnz) on the support")
        if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(vv))):
            raise FilterError("edge-varying weights must be finite")
        object.__setattr__(self, "diag", dg)
        object.__setattr__(self, "values", vv)

    @property
    def order(self) -> int:
        return self.values.shape[0]


def edge_varying_reach(support: EdgeVaryingSupport, order: int,
                       nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per step k = 1..K of an order-K filter read at ``nodes`` only, the
    ascending indices of the support entries through which step k reaches
    them: the entries whose row lies within K - k hops of ``nodes``.

    The transposed sweep from one-hot starts at ``nodes`` is exactly zero
    off those rows, so a dropped entry would add an exact +-0 to each sum,
    and the rows it gives are bitwise the full sweep's. A kept row keeps all
    its entries in support order, so the chain run on these entries equals
    the full chain on every row the next step reads, and the value gradient
    is zero on every entry left out.
    """
    near = np.zeros(support.n_nodes, dtype=bool)
    near[nodes] = True
    reach = []
    for _ in range(order):
        entries = np.flatnonzero(near[support.rows])
        reach.append(entries)
        near[support.cols[entries]] = True
    return tuple(reversed(reach))


def _step_operands(support: EdgeVaryingSupport, values: np.ndarray, k: int,
                   reach: tuple | None):
    """(rows, cols, weights) of step k + 1, on the entries ``reach[k]`` when
    a reach is given; the weights broadcast against a (..., B, N) state."""
    if reach is None:
        return support.rows, support.cols, values[..., k, None, :]
    e = reach[k]
    # indexing, not np.take, which would first copy the strided step slice
    return support.rows[e], support.cols[e], values[..., k, e][..., None, :]


def edge_varying_chain(support: EdgeVaryingSupport, values: np.ndarray,
                       z0: np.ndarray, reach: tuple | None = None) -> list[np.ndarray]:
    """Chain states [z^(0), ..., z^(K)] of z^(k) = Phi_k z^(k-1) from the
    (..., B, N) start ``z0``, which is kept as given.

    ``values`` is (..., K, nnz) on ``support``: step k's weights
    ``values[..., k-1, :]`` broadcast against the axes of ``z0`` before its
    batch axis. Each step is one ``coo_apply`` on the support, nnz
    multiply-adds per vector; no dense step matrix is built. With a
    ``reach`` (``edge_varying_reach``, one entry array per step) step k runs
    on ``reach[k-1]`` only: z^(k) is exact on the rows those entries hold
    and zero elsewhere. Every edge-varying filter, neural or not, runs this
    chain and its transpose, ``edge_varying_sweep``.
    """
    zs = [z0]
    for k in range(values.shape[-2]):
        rows, cols, vals = _step_operands(support, values, k, reach)
        zs.append(coo_apply(rows, cols, vals, zs[-1], support.n_nodes))
    return zs


def edge_varying_sweep(support: EdgeVaryingSupport, values: np.ndarray,
                       e: np.ndarray, reach: tuple | None = None) -> list[np.ndarray]:
    """Transposed sweep [v_0, ..., v_K] with v_K = e and
    v_{k-1} = e + Phi_k^T v_k, on the operands of ``edge_varying_chain``.

    From e = dJ/du it gives the sensitivities v_k = dJ/dz^(k) of the chain
    states; from a one-hot e_t it gives row t of the filter, diag * v_0,
    and then the ``reach`` of t leaves every v_k bitwise unchanged.
    """
    vs = [e]
    for k in range(values.shape[-2], 0, -1):
        rows, cols, vals = _step_operands(support, values, k - 1, reach)
        vs.append(e + coo_apply(cols, rows, vals, vs[-1], support.n_nodes))
    vs.reverse()
    return vs


def edge_varying_apply(e: EdgeVaryingParams, x: GraphSignal) -> GraphSignal:
    """Apply sum_k Phi^(k) ... Phi^(0) x via the step recursion.

    Each feature of ``x`` is filtered alone: features become the batch axis
    of one ``edge_varying_chain``, so every step is a single ``coo_apply``
    for all of them. Sharing that chain makes the result bit-identical to a
    one-input, one-output neural edge-varying layer with the same weights.
    """
    if x.n_nodes != e.support.n_nodes:
        raise GraphError("signal size does not match the bound support")
    zs = edge_varying_chain(e.support, e.values, e.diag * x.values.T)
    return GraphSignal(sum(zs[1:], zs[0]).T)


def edge_varying_from_fir(s: ShiftOperator, h: FirTaps) -> EdgeVaryingParams:
    """Nested weights reproducing the FIR filter sum_k h_k S^k.

    Step 0 carries h0 on the diagonal and step k carries (h_k / h_{k-1}) S,
    so every chain product equals h_k S^k. The chain factorization needs
    nonzero taps throughout.
    """
    taps = h.taps
    if np.any(taps == 0.0):
        raise FilterError("nested FIR reduction needs nonzero taps throughout")
    support = EdgeVaryingSupport.from_shift(s)
    base = support.values_from_dense(s.matrix)
    vals = (taps[1:] / taps[:-1])[:, None] * base[None, :]
    return EdgeVaryingParams(support, np.full(s.n_nodes, taps[0]), vals)
