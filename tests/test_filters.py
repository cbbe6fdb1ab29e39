import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gspnn.filters import (
    ArmaParams,
    EdgeVaryingParams,
    EdgeVaryingSupport,
    FilterError,
    FirTaps,
    arma_apply_direct,
    arma_apply_jacobi,
    arma_response,
    edge_varying_apply,
    edge_varying_from_fir,
    fir_apply,
    fir_bank_contract,
    fir_response,
    jacobi_spectral_radius,
)
from gspnn.flocking import _advance_delayed
from gspnn.graphs import (
    GraphSignal,
    ShiftKind,
    ShiftOperator,
    build_shift,
    eigendecompose,
    gft,
    permute_shift,
)

from conftest import (
    arma_pointwise_response,
    delayed_stack_oracle,
    dense_solve_arma,
    edge_chain_oracle,
    horner_response,
    jacobi_shift,
    jacobi_single_pole,
    make_random_graph,
    sorted_coordinates,
)
from test_graphs import path3_graph, two_node_graph


def swap_shift():
    return build_shift(two_node_graph(), ShiftKind.ADJACENCY)


def dense_poly_apply(taps, s_dense, x):
    """Independent oracle: explicit sum_k h_k S^k x with matrix powers."""
    out = np.zeros_like(x, dtype=float)
    for k, h in enumerate(taps):
        out += h * (np.linalg.matrix_power(s_dense, k) @ x)
    return out


# ---------------------------------------------------------------------------
# FIR
# ---------------------------------------------------------------------------

def test_fir_identity_filter():
    g, r = make_random_graph(1)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = GraphSignal(r.normal(size=(g.n_nodes, 2)))
    y = fir_apply(FirTaps([1.0]), s, x)
    assert np.array_equal(y.values, x.values)


def test_fir_single_shift():
    y = fir_apply(FirTaps([0.0, 1.0]), swap_shift(), GraphSignal(np.array([1.0, 0.0])))
    assert np.array_equal(y.values[:, 0], [0.0, 1.0])


def test_fir_path3_all_ones_taps():
    s = build_shift(path3_graph(), ShiftKind.ADJACENCY)
    x = np.array([1.0, 0.0, 0.0])
    y = fir_apply(FirTaps([1.0, 1.0, 1.0]), s, GraphSignal(x))
    oracle = dense_poly_apply([1.0, 1.0, 1.0], s.dense(), x)
    assert np.allclose(y.values[:, 0], oracle, atol=1e-12)
    # frozen value from the oracle: x + Sx + S^2 x = [1,0,0]+[0,1,0]+[1,0,1]
    assert np.allclose(y.values[:, 0], [2.0, 1.0, 1.0], atol=1e-15)


@given(st.integers(0, 100))
def test_fir_matches_dense_polynomial_oracle(seed):
    g, r = make_random_graph(seed)
    s = build_shift(g, ShiftKind.ADJACENCY)
    taps = r.normal(size=int(r.integers(1, 6)))
    x = r.normal(size=(g.n_nodes, 2))
    y = fir_apply(FirTaps(taps), s, GraphSignal(x))
    assert np.allclose(y.values, dense_poly_apply(taps, s.dense(), x), atol=1e-10)


@given(st.integers(0, 100))
def test_fir_commutes_with_permutation(seed):
    g, r = make_random_graph(seed)
    s = build_shift(g, ShiftKind.ADJACENCY)
    taps = FirTaps(r.normal(size=4))
    x = r.normal(size=g.n_nodes)
    perm = r.permutation(g.n_nodes)
    y = fir_apply(taps, s, GraphSignal(x)).values[:, 0]
    y_perm = fir_apply(taps, permute_shift(s, perm), GraphSignal(x[perm])).values[:, 0]
    assert np.allclose(y_perm, y[perm], atol=1e-10)


def test_fir_response_values():
    assert fir_response([1.0, 2.0], [1.0])[0] == 3.0
    assert fir_response([1.0], [-5.0, 0.0, 7.0])[1] == 1.0
    assert fir_response([0.0, 0.0, 1.0], [2.0])[0] == 4.0


@given(st.integers(0, 100))
def test_fir_spectral_pointwise_identity(seed):
    # gft(H x)_i == h(lambda_i) * gft(x)_i
    g, r = make_random_graph(seed)
    s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
    taps = FirTaps(r.normal(size=4))
    x = GraphSignal(r.normal(size=g.n_nodes))
    lhs = gft(s, fir_apply(taps, s, x)).values[:, 0]
    resp = fir_response(taps.taps, s.eigenvalues)
    rhs = resp * gft(s, x).values[:, 0]
    assert np.allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# ARMA
# ---------------------------------------------------------------------------

def test_arma_response_degenerate_fir():
    p = ArmaParams(poles=[], residues=[], direct_taps=[1.0])
    vals = arma_response(p, [-1.0, 0.0, 2.5])
    assert vals.tolist() == [1.0, 1.0, 1.0]


def test_arma_response_single_pole():
    p = ArmaParams(poles=[2.0], residues=[1.0], direct_taps=[0.0])
    assert arma_response(p, [0.0])[0] == pytest.approx(-0.5)


def test_arma_response_two_poles_plus_direct():
    # 1/(1-2) + 1/(1+2) + 1 = 1/3  (scalar arithmetic oracle)
    p = ArmaParams(poles=[2.0, -2.0], residues=[1.0, 1.0], direct_taps=[1.0])
    assert arma_response(p, [1.0])[0] == pytest.approx(1.0 / 3.0)


def test_arma_response_pole_hit():
    p = ArmaParams(poles=[2.0], residues=[1.0], direct_taps=[0.0])
    with pytest.raises(FilterError, match="pole hit"):
        arma_response(p, [2.0])


@pytest.mark.parametrize("kwargs,message", [
    # accepted before: arma_response then failed with numpy's
    # "non-broadcastable output operand"
    (dict(poles=[[3.0], [4.0]], residues=[[1.0], [2.0]], direct_taps=[0.5]),
     r"poles must be a vector, got shape \(2, 1\)"),
    (dict(poles=[3.0], residues=[1.0], direct_taps=[[0.5, 0.1]]),
     r"direct_taps must be a vector, got shape \(1, 2\)"),
    # an empty 2-D array was reshaped to no poles
    (dict(poles=[[]], residues=[], direct_taps=[0.5]),
     r"poles must be a vector, got shape \(1, 0\)"),
    (dict(poles=[3.0], residues=[[1.0]], direct_taps=[0.5]),
     r"residues must be a vector, got shape \(1, 1\)"),
], ids=["poles", "direct_taps", "empty_poles", "residues"])
def test_arma_params_reject_a_non_vector_naming_the_field(kwargs, message):
    with pytest.raises(FilterError, match=f"^{message}$"):
        ArmaParams(**kwargs)


@pytest.mark.parametrize("order", range(7))
def test_fir_response_of_a_bank_equals_scalar_horner_bitwise(order):
    r = np.random.default_rng(900 + order)
    bank = r.normal(size=(5, 3, order + 1)) * 10.0 ** r.integers(-3, 3, size=(5, 3, 1))
    grid = np.linspace(-2.5, 3.0, 101)
    got = fir_response(bank, grid)
    assert got.shape == (5, 3, 101)
    for f in range(5):
        for g in range(3):
            assert np.array_equal(got[f, g], horner_response(bank[f, g], grid))
    assert np.array_equal(fir_response(bank[2, 1], grid), got[2, 1])


def test_fir_response_rejects_a_non_finite_value():
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FilterError, match="non-finite frequency response"):
        fir_response([1.0, 1e200, 1e200], [1e200])
    with np.errstate(invalid="ignore"), \
            pytest.raises(FilterError, match="non-finite frequency response"):
        fir_response([1.0], [-np.inf, 0.0])


@pytest.mark.parametrize("n_poles", range(10))
def test_arma_response_matches_the_pointwise_sum(n_poles):
    # poles outside [-2, 2]; np.sum reduces 8 or more terms pairwise, so the
    # pole-by-pole sum agrees only to rounding there: 1e-12 relative
    r = np.random.default_rng(950 + n_poles)
    poles = r.choice([-1.0, 1.0], size=n_poles) * r.uniform(2.5, 6.0, size=n_poles)
    p = ArmaParams(poles=poles, residues=r.normal(size=n_poles),
                   direct_taps=r.normal(size=3))
    grid = np.linspace(-2.0, 2.0, 257)
    got = arma_response(p, grid)
    want = arma_pointwise_response(p, grid)
    assert got.shape == grid.shape
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    if n_poles < 8:
        assert np.array_equal(got, want)


def test_arma_direct_no_poles_equals_fir():
    g, r = make_random_graph(2)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = GraphSignal(r.normal(size=g.n_nodes))
    p = ArmaParams(poles=[], residues=[], direct_taps=[1.0, 1.0])
    lhs = arma_apply_direct(p, s, x)
    rhs = fir_apply(FirTaps([1.0, 1.0]), s, x)
    assert np.allclose(lhs.values, rhs.values, atol=1e-14)


def test_arma_direct_two_node_hand_solve():
    # (S - 2I)^{-1} [1,0]^T = [-2/3, -1/3]^T by hand
    p = ArmaParams(poles=[2.0], residues=[1.0], direct_taps=[0.0])
    x = GraphSignal(np.array([1.0, 0.0]))
    y = arma_apply_direct(p, swap_shift(), x)
    assert np.allclose(y.values[:, 0], [-2.0 / 3.0, -1.0 / 3.0], atol=1e-12)
    assert np.allclose(y.values, dense_solve_arma(p, swap_shift(), x),
                       rtol=0.0, atol=1e-12)


def test_arma_direct_names_a_pole_on_an_eigenvalue():
    # the swap shift has eigenvalues -1 and 1; S + I is singular
    p = ArmaParams(poles=[2.0, -1.0 + 5e-13], residues=[1.0, 1.0],
                   direct_taps=[0.0])
    with pytest.raises(FilterError, match=r"pole 1 = -0\.99.* is an eigenvalue"):
        arma_apply_direct(p, swap_shift(), GraphSignal(np.array([1.0, 0.0])))


def test_arma_direct_zero_residues():
    g, r = make_random_graph(4)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = GraphSignal(r.normal(size=g.n_nodes))
    p = ArmaParams(poles=[5.0], residues=[0.0], direct_taps=[0.0])
    assert np.all(arma_apply_direct(p, s, x).values == 0.0)


def test_jacobi_shift_hollow():
    s = swap_shift()
    assert np.allclose(jacobi_shift(s, 2.0), s.dense() / 2.0, atol=1e-15)


def test_jacobi_shift_with_diagonal():
    s = ShiftOperator.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
    r = jacobi_shift(s, 3.0)
    assert np.allclose(r, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)


def test_jacobi_shift_vanishes_at_large_pole():
    g, _ = make_random_graph(5)
    s = build_shift(g, ShiftKind.ADJACENCY)
    r = jacobi_shift(s, 1e9)
    assert np.max(np.abs(r)) < 1e-6


def test_jacobi_shift_pole_margin():
    s = ShiftOperator.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(FilterError, match="pole"):
        jacobi_single_pole(s, 1.0 + 1e-6, 1.0, 1, GraphSignal(np.ones(2)))


def test_jacobi_single_pole_one_step():
    # One exact Jacobi iteration from u0 = x: u1 = beta (D-gI)^{-1} x + R x.
    g, r = make_random_graph(6)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = r.normal(size=g.n_nodes)
    gamma, beta = 4.0, 0.7
    u1 = jacobi_single_pole(s, gamma, beta, 1, GraphSignal(x)).values[:, 0]
    expected = beta * x / (0.0 - gamma) + jacobi_shift(s, gamma) @ x
    assert np.allclose(u1, expected, atol=1e-12)


def test_jacobi_single_pole_beta_zero_hollow():
    g, r = make_random_graph(7)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = r.normal(size=g.n_nodes)
    u1 = jacobi_single_pole(s, 3.0, 0.0, 1, GraphSignal(x)).values[:, 0]
    assert np.allclose(u1, s.dense() @ x / 3.0, atol=1e-13)


def test_jacobi_single_pole_converges_to_direct():
    g, r = make_random_graph(8, n=10)
    s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
    lam_max = np.max(np.abs(s.eigenvalues))
    gamma = 2.0 * lam_max
    assert jacobi_spectral_radius(s, gamma) < 1.0
    beta = 1.3
    x = GraphSignal(r.normal(size=g.n_nodes))
    exact = beta * np.linalg.solve(s.dense() - gamma * np.eye(g.n_nodes), x.values)
    approx = jacobi_single_pole(s, gamma, beta, 200, x).values
    rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
    assert rel <= 1e-6


def test_jacobi_error_decays_monotonically_on_average():
    iters = [1, 2, 4, 8, 16, 32]
    curves = []
    for trial in range(20):
        g, r = make_random_graph(100 + trial, n=8)
        s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
        gamma = 1.8 * np.max(np.abs(s.eigenvalues))
        x = GraphSignal(r.normal(size=g.n_nodes))
        p = ArmaParams(poles=[gamma], residues=[0.9], direct_taps=[0.0])
        exact = arma_apply_direct(p, s, x).values
        errs = []
        for t in iters:
            approx = jacobi_single_pole(s, gamma, 0.9, t, x).values
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        curves.append(errs)
    mean = np.mean(curves, axis=0)
    assert np.all(np.diff(mean) <= 1e-12)


def test_arma_jacobi_no_poles_identical_to_fir():
    g, r = make_random_graph(9)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = GraphSignal(r.normal(size=(g.n_nodes, 2)))
    taps = r.normal(size=3)
    p = ArmaParams(poles=[], residues=[], direct_taps=taps)
    lhs = arma_apply_jacobi(p, s, x).values
    rhs = fir_apply(FirTaps(taps), s, x).values
    assert np.array_equal(lhs, rhs)  # same code path, bitwise


def test_arma_jacobi_matches_direct_with_large_t():
    g, r = make_random_graph(10, n=9)
    s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
    lam_max = np.max(np.abs(s.eigenvalues))
    p = ArmaParams(poles=[2.2 * lam_max], residues=[0.8],
                   direct_taps=[0.3, -0.4], jacobi_iters=200)
    x = GraphSignal(r.normal(size=g.n_nodes))
    direct = arma_apply_direct(p, s, x).values
    approx = arma_apply_jacobi(p, s, x).values
    assert np.linalg.norm(approx - direct) / np.linalg.norm(direct) <= 1e-6


def test_arma_jacobi_zero_input():
    g, _ = make_random_graph(11)
    s = build_shift(g, ShiftKind.ADJACENCY)
    p = ArmaParams(poles=[5.0], residues=[1.0], direct_taps=[1.0])
    y = arma_apply_jacobi(p, s, GraphSignal(np.zeros(g.n_nodes)))
    assert np.all(y.values == 0.0)


def test_arma_jacobi_takes_one_pole_margin_for_all_poles(monkeypatch):
    g, r = make_random_graph(12, n=30)
    s = build_shift(g, ShiftKind.NORMALIZED_ADJACENCY)   # carries its spectrum
    p = ArmaParams(poles=[2.0, -2.5, 3.0, -3.5], residues=r.normal(size=4),
                   direct_taps=[0.5, -0.2], jacobi_iters=3)
    x = GraphSignal(r.normal(size=(g.n_nodes, 2)))
    # the reference runs on an equal operator
    s_ref = build_shift(g, ShiftKind.NORMALIZED_ADJACENCY)
    want = fir_apply(FirTaps(p.direct_taps), s_ref, x).values
    for gamma, beta in zip(p.poles, p.residues):
        want = want + jacobi_single_pole(s_ref, gamma, beta, p.jacobi_iters,
                                         x).values
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = arma_apply_jacobi(p, s, x).values
    assert calls == []
    assert got.tobytes() == want.tobytes()
    bad = ArmaParams(poles=[2.0, 0.0], residues=[1.0, 1.0], direct_taps=[0.0])
    with pytest.raises(FilterError, match=r"poles\[1\] = 0.0 is within"):
        arma_apply_jacobi(bad, s, x)


# ---------------------------------------------------------------------------
# Edge-varying
# ---------------------------------------------------------------------------

def test_edge_varying_all_ones_reduction():
    g, r = make_random_graph(12)
    s = build_shift(g, ShiftKind.ADJACENCY)
    support = EdgeVaryingSupport.from_shift(s)
    k = 3
    vals = np.array([support.values_from_dense(s.dense())] * k)
    e = EdgeVaryingParams(support, np.ones(g.n_nodes), vals)
    x = GraphSignal(r.normal(size=g.n_nodes))
    lhs = edge_varying_apply(e, x).values
    rhs = fir_apply(FirTaps(np.ones(k + 1)), s, x).values
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_edge_varying_two_tap_identity():
    g, r = make_random_graph(13)
    s = build_shift(g, ShiftKind.ADJACENCY)
    h0, h1 = 0.7, -1.2
    support = EdgeVaryingSupport.from_shift(s)
    e = EdgeVaryingParams(
        support, np.full(g.n_nodes, h0),
        support.values_from_dense((h1 / h0) * s.dense())[None, :])
    x = GraphSignal(r.normal(size=g.n_nodes))
    lhs = edge_varying_apply(e, x).values
    rhs = fir_apply(FirTaps([h0, h1]), s, x).values
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_edge_varying_zero_params():
    g, r = make_random_graph(14)
    s = build_shift(g, ShiftKind.ADJACENCY)
    support = EdgeVaryingSupport.from_shift(s)
    e = EdgeVaryingParams(support, np.zeros(g.n_nodes),
                          np.zeros((2, support.nnz)))
    y = edge_varying_apply(e, GraphSignal(r.normal(size=g.n_nodes)))
    assert np.all(y.values == 0.0)


@given(st.integers(0, 100))
def test_edge_varying_generalizes_fir(seed):
    g, r = make_random_graph(seed)
    s = build_shift(g, ShiftKind.ADJACENCY)
    taps = r.uniform(0.2, 1.5, size=int(r.integers(2, 5))) * r.choice([-1.0, 1.0])
    e = edge_varying_from_fir(s, FirTaps(taps))
    x = GraphSignal(r.normal(size=g.n_nodes))
    lhs = edge_varying_apply(e, x).values
    rhs = fir_apply(FirTaps(taps), s, x).values
    assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_edge_varying_apply_matches_bincount_chain_oracle(order):
    # the dense chain kernel changed the summation order of each step
    for seed in range(10):
        g, r = make_random_graph(40 + seed)
        s = build_shift(g, ShiftKind.ADJACENCY)
        support = EdgeVaryingSupport.from_shift(s)
        e = EdgeVaryingParams(support, r.normal(size=g.n_nodes),
                              r.normal(size=(order, support.nnz)))
        x = r.normal(size=(g.n_nodes, 3))
        got = edge_varying_apply(e, GraphSignal(x)).values
        want = edge_chain_oracle(support, e.diag, e.values, x)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-12, (seed, err)


def test_edge_varying_support_is_sorted_row_major():
    g, _ = make_random_graph(17)
    s = build_shift(g, ShiftKind.ADJACENCY)
    support = EdgeVaryingSupport.from_shift(s)
    rows, cols = np.nonzero(s.dense())
    coords = sorted(set(zip(rows.tolist(), cols.tolist()))
                    | {(i, i) for i in range(s.n_nodes)})
    assert list(zip(support.rows.tolist(), support.cols.tolist())) == coords


@pytest.mark.parametrize("order", ["C", "F"])
def test_edge_varying_support_equals_the_sorted_coordinates(order, rng):
    # the support of I + S is every nonzero of S and the whole diagonal,
    # row-major, whether S holds a zero, a positive or a -1 on its diagonal
    # (1 + S_ii may be zero) and whichever memory order S is given in
    m = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
    m = m + m.T
    m[np.diag_indices(9)] = 0.0
    m[1, 1], m[2, 2] = 0.5, -1.0
    s = ShiftOperator.from_dense(np.array(m, order=order))
    support = EdgeVaryingSupport.from_shift(s)
    rows, cols, _ = sorted_coordinates(m + 2.0 * np.eye(9))
    for got, want in ((support.rows, rows), (support.cols, cols)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_edge_varying_support_violation():
    g, _ = make_random_graph(15, n=5)
    s = build_shift(g, ShiftKind.ADJACENCY)
    support = EdgeVaryingSupport.from_shift(s)
    full = np.ones((s.n_nodes, s.n_nodes))
    with pytest.raises(FilterError, match="support"):
        support.values_from_dense(full)


def test_edge_varying_parameter_count():
    # order K on support of I+S: K * (stored coords) + N free weights
    g, _ = make_random_graph(16, n=6)
    s = build_shift(g, ShiftKind.ADJACENCY)
    support = EdgeVaryingSupport.from_shift(s)
    assert support.nnz == 2 * len(g.edges) + g.n_nodes
    k = 3
    e = EdgeVaryingParams(support, np.zeros(6), np.zeros((k, support.nnz)))
    n_params = e.diag.size + e.values.size
    assert n_params == k * (2 * len(g.edges) + g.n_nodes) + g.n_nodes


# ---------------------------------------------------------------------------
# Delayed FIR
# ---------------------------------------------------------------------------

def delayed_stack(shifts, signals, order):
    """The delayed stack built by the chain kernel ``_advance_delayed``: the
    history, given newest first as ``delayed_stack_oracle`` takes it, is fed
    oldest first. A missing shift is a zero matrix, which drops every term
    that needs it, as the oracle's zero padding does."""
    n, g = signals[0].shape
    zs = np.zeros((1, n, order + 1, g))
    for j in range(len(signals) - 1, -1, -1):
        s_j = shifts[j] if j < len(shifts) else np.zeros((n, n))
        _advance_delayed(s_j, zs[0], zs[0])
        zs[0, :, 0] = signals[j]
    return zs


def delayed_fir(taps, zs):
    """sum_k h_k zs[:, k] per feature: a diagonal bank run through
    ``fir_bank_contract``."""
    g = zs.shape[3]
    bank = np.zeros((g, g, len(taps)))
    bank[np.arange(g), np.arange(g)] = taps
    return fir_bank_contract(zs, bank)[0]


def check_delayed_fir(taps, shifts, signals):
    """Delayed FIR output through the chain kernel, checked against the
    product-chain oracle."""
    order = len(taps) - 1
    got = delayed_fir(taps, delayed_stack(shifts, signals, order))
    want = delayed_fir(taps, delayed_stack_oracle(shifts, signals, order))
    assert np.allclose(got, want, atol=1e-12)
    return got


def test_delayed_fir_static_reduction():
    g, r = make_random_graph(17)
    s = build_shift(g, ShiftKind.ADJACENCY)
    taps = FirTaps(r.normal(size=4))
    x = GraphSignal(r.normal(size=(g.n_nodes, 2)))
    lhs = check_delayed_fir(taps.taps, [s.dense()] * 3, [x.values] * 4)
    rhs = fir_apply(taps, s, x).values
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_delayed_fir_order_zero_ignores_history():
    g, r = make_random_graph(18)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x_now = r.normal(size=(g.n_nodes, 1))
    x_old = r.normal(size=(g.n_nodes, 1))
    y = check_delayed_fir([2.0], [s.dense()], [x_now, x_old])
    assert np.allclose(y, 2.0 * x_now, atol=1e-15)


def test_delayed_fir_product_chain_oracle():
    r = np.random.default_rng(19)
    n, k = 3, 2
    mats = []
    for _ in range(k):
        m = r.normal(size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        mats.append(m)
    xs = [r.normal(size=(n, 1)) for _ in range(k + 1)]
    taps = np.array([0.5, -1.0, 2.0])
    y = check_delayed_fir(taps, mats, xs)
    # explicit product chain
    oracle = taps[0] * xs[0] + taps[1] * (mats[0] @ xs[1]) \
        + taps[2] * (mats[0] @ mats[1] @ xs[2])
    assert np.allclose(y, oracle, atol=1e-12)


def test_delayed_fir_zero_pads_short_history():
    g, r = make_random_graph(20)
    s = build_shift(g, ShiftKind.ADJACENCY)
    x = r.normal(size=(g.n_nodes, 1))
    y = check_delayed_fir([1.0, 1.0, 1.0], [s.dense()], [x])  # only x(t)
    assert np.allclose(y, x, atol=1e-15)
