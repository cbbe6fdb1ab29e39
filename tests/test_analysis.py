import numpy as np
import pytest

from gspnn.analysis import (
    AnalysisError,
    DilationPerturbation,
    default_lambda_interval,
    dilate,
    eigenvector_misalignment,
    integral_lipschitz,
    model_lipschitz_constant,
    relative_distance,
    stability_experiment,
)
from gspnn.cli import _write_stability
from gspnn.filters import ArmaParams, FirTaps
from gspnn.graphs import (
    GraphSignal,
    ShiftKind,
    build_shift,
    eigendecompose,
    permute_shift,
)
from gspnn.flocking import build_policy_spec
from gspnn.neural import (
    FirLayerParams,
    LayerSpec,
    ModelSpec,
    ModelState,
    equivariant_forward_check,
    init_state,
)

from conftest import (
    check_error_matrix,
    horner_response,
    make_random_graph,
    per_filter_lipschitz,
)
from test_graphs import two_node_graph


def adjacency_shift(seed, n=None):
    g, r = make_random_graph(seed, n=n)
    return build_shift(g, ShiftKind.ADJACENCY), r


# ---------------------------------------------------------------------------
# Relative distance
# ---------------------------------------------------------------------------

def test_distance_to_self_is_zero():
    s, _ = adjacency_shift(1, n=6)
    res = relative_distance(s, s, method="identity_permutation")
    assert res.distance <= 1e-12
    assert np.allclose(res.error_matrix, 0.0, atol=1e-10)
    assert check_error_matrix(s, s, res) <= 1e-8


def test_distance_to_permutation_is_zero_exact():
    for seed in (2, 3, 4):
        s, r = adjacency_shift(seed, n=5)
        perm = r.permutation(5)
        s_hat = permute_shift(s, perm)
        res = relative_distance(s, s_hat, method="exact_bruteforce")
        assert res.distance <= 1e-9
        assert check_error_matrix(s, s_hat, res) <= 1e-8


def test_distance_dilation_is_half_epsilon():
    s, _ = adjacency_shift(5, n=7)
    eps = 0.2
    res = relative_distance(s, dilate(s, eps), method="identity_permutation")
    # E = (eps/2) I solves the relation, so the minimal norm is at most eps/2
    assert res.distance <= eps / 2.0 + 1e-9
    assert check_error_matrix(s, dilate(s, eps), res) <= 1e-8


def test_distance_flags_singular_pairs():
    # two-node adjacency has eigenvalues -1, 1: the (1,2) pair cancels
    s = build_shift(two_node_graph(), ShiftKind.ADJACENCY)
    res = relative_distance(s, dilate(s, 0.1), method="identity_permutation")
    assert res.singular_flag


def test_exact_search_rejects_large_graphs():
    s, _ = adjacency_shift(6, n=9)
    with pytest.raises(AnalysisError, match="capped"):
        relative_distance(s, s, method="exact_bruteforce")


# ---------------------------------------------------------------------------
# Integral Lipschitz
# ---------------------------------------------------------------------------

def test_constant_filter_has_zero_constant():
    rep = integral_lipschitz(FirTaps([3.0]), (-2.0, 2.0))
    assert rep.constant == 0.0
    assert rep.max_abs_response == 3.0


def test_linear_filter_constant_is_interval_edge():
    rep = integral_lipschitz(FirTaps([0.0, 1.0]), (-2.0, 2.0))
    assert rep.constant == pytest.approx(2.0)


def test_quadratic_filter_grid_refinement():
    h = FirTaps([1.0, -1.0, 0.5])
    coarse = integral_lipschitz(h, (0.0, 2.0), grid_points=512)
    fine = integral_lipschitz(h, (0.0, 2.0), grid_points=5120)
    assert coarse.constant == pytest.approx(fine.constant, rel=1e-3)
    # analytic check: |lambda (2*0.5*lambda - 1)| = |lambda^2 - lambda|, max
    # on [0, 2] at lambda = 2 -> 2
    assert fine.constant == pytest.approx(2.0, rel=1e-3)


def test_arma_lipschitz_matches_finite_difference():
    p = ArmaParams(poles=[5.0, -4.0], residues=[1.0, 0.5],
                   direct_taps=[0.2, 0.1])
    rep = integral_lipschitz(p, (-2.0, 2.0), grid_points=2048)
    grid = rep.grid
    h = 1e-6

    def resp(lams):
        out = np.zeros_like(lams)
        for gamma, beta in zip(p.poles, p.residues):
            out += beta / (lams - gamma)
        out += 0.2 + 0.1 * lams
        return out

    deriv_fd = (resp(grid + h) - resp(grid - h)) / (2 * h)
    assert rep.constant == pytest.approx(np.max(np.abs(grid * deriv_fd)), rel=1e-5)


def test_fir_lipschitz_equals_scalar_horner_bitwise():
    r = np.random.default_rng(31)
    for order in range(6):
        taps = r.normal(size=order + 1)
        rep = integral_lipschitz(FirTaps(taps), (-1.3, 2.1), grid_points=300)
        grid = np.linspace(-1.3, 2.1, 300)
        deriv = horner_response(taps[1:] * np.arange(1, order + 1), grid) \
            if order else np.zeros_like(grid)
        assert rep.constant == float(np.max(np.abs(grid * deriv)))
        assert rep.max_abs_response == float(np.max(np.abs(
            horner_response(taps, grid))))


def test_arma_pole_inside_interval_rejected():
    p = ArmaParams(poles=[0.5], residues=[1.0], direct_taps=[0.0])
    with pytest.raises(AnalysisError, match="pole"):
        integral_lipschitz(p, (-1.0, 1.0))


def test_default_interval_covers_eigenvalues_and_zero():
    lam = np.array([0.5, 1.0, 3.0])
    lo, hi = default_lambda_interval(lam)
    assert lo < 0.0 <= 0.5 and hi > 3.0


# ---------------------------------------------------------------------------
# Dilation
# ---------------------------------------------------------------------------

def test_dilate_zero_is_identity():
    s, _ = adjacency_shift(7)
    assert np.array_equal(dilate(s, 0.0).dense(), s.dense())


def test_dilate_two_node():
    s = eigendecompose(build_shift(two_node_graph(), ShiftKind.ADJACENCY))
    d = dilate(s, 0.1)
    assert np.allclose(d.dense(), [[0.0, 1.1], [1.1, 0.0]], atol=1e-15)
    assert np.allclose(d.eigenvalues, [-1.1, 1.1], atol=1e-12)


def test_dilate_preserves_eigenvectors():
    # dilate a shift with no cached spectrum, then decompose from scratch
    s, _ = adjacency_shift(8, n=9)
    d = eigendecompose(dilate(s, 0.3))
    s = eigendecompose(s)
    for i in range(s.n_nodes):
        vi, wi = s.eigenvectors[:, i], d.eigenvectors[:, i]
        assert min(np.linalg.norm(vi - wi), np.linalg.norm(vi + wi)) <= 1e-9


# ---------------------------------------------------------------------------
# Stability experiment
# ---------------------------------------------------------------------------

def normalized_fir_gcnn(s, rng, depth=2, order=3):
    from gspnn.analysis import sample_lipschitz_gcnn
    return sample_lipschitz_gcnn(s, depth, order, rng)


def test_stability_zero_epsilon():
    s, r = adjacency_shift(9, n=8)
    spec, state = normalized_fir_gcnn(s, r)
    rep = stability_experiment(spec, state, s, DilationPerturbation(0.0),
                               [r.normal(size=8) for _ in range(3)])
    assert rep.measured == 0.0 and rep.bound == 0.0
    assert rep.n_violations == 0


def test_stability_dilation_within_bound():
    s, r = adjacency_shift(10, n=10)
    spec, state = normalized_fir_gcnn(s, r, depth=1)
    inputs = [x / np.linalg.norm(x) for x in
              (r.normal(size=10) for _ in range(20))]
    rep = stability_experiment(spec, state, s, DilationPerturbation(0.05), inputs)
    assert rep.max_abs_response <= 1 + 1e-9
    assert rep.n_violations == 0
    assert 0.0 < rep.measured <= rep.bound + 10 * 0.05 ** 2


def test_stability_flags_unnormalized_model():
    s, r = adjacency_shift(11, n=8)
    spec, state = normalized_fir_gcnn(s, r, depth=1)
    state.layers[0].taps *= 3.0  # break |h| <= 1
    rep = stability_experiment(spec, state, s, DilationPerturbation(0.05),
                               [r.normal(size=8)])
    assert not rep.max_abs_response <= 1 + 1e-9


def test_stability_measured_nondecreasing_in_epsilon():
    s, r = adjacency_shift(12, n=12)
    spec, state = normalized_fir_gcnn(s, r, depth=2)
    inputs = [r.normal(size=12) for _ in range(20)]
    measured = []
    for eps in (0.01, 0.02, 0.05, 0.1):
        rep = stability_experiment(spec, state, s, DilationPerturbation(eps),
                                   inputs)
        measured.append(rep.measured)
    assert all(b >= a - 1e-12 for a, b in zip(measured, measured[1:]))


def test_zero_epsilon_with_permutation_reduces_to_equivariance():
    s, r = adjacency_shift(13, n=9)
    spec, state = normalized_fir_gcnn(s, r, depth=2)
    x = GraphSignal(r.normal(size=9))
    rep = equivariant_forward_check(spec, state, s, x, r.permutation(9))
    assert rep["relative_error"] <= 1e-9


def test_misalignment_zero_for_equal_bases():
    v = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))[0]
    assert eigenvector_misalignment(v, v) == 0.0


def test_stability_csv(tmp_path):
    s, r = adjacency_shift(14, n=8)
    spec, state = normalized_fir_gcnn(s, r, depth=1)
    reps = [stability_experiment(spec, state, s, DilationPerturbation(eps),
                                 [r.normal(size=8)])
            for eps in (0.01, 0.05)]
    path = tmp_path / "sweep.csv"
    _write_stability(path, reps)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,measured,bound,delta,C"
    assert len(lines) == 3


def test_model_lipschitz_takes_max_over_layers():
    s, r = adjacency_shift(15, n=8)
    spec = ModelSpec((LayerSpec("fir", 1, 1, 1, nonlinearity="relu"),
                      LayerSpec("fir", 1, 1, 1, nonlinearity="relu")))
    state = ModelState([
        FirLayerParams(np.array([0.0, 1.0]).reshape(1, 1, 2)),
        FirLayerParams(np.array([0.0, 2.0]).reshape(1, 1, 2)),
    ])
    c, max_resp = model_lipschitz_constant(spec, state, (-2.0, 2.0))
    assert c == pytest.approx(4.0)  # |lambda * 2| at the edge
    assert max_resp == pytest.approx(4.0)


def test_model_lipschitz_of_the_flocking_policy_equals_the_per_filter_loop():
    # one bank call per layer against one scalar Horner loop per (f, g)
    spec = build_policy_spec()
    state = init_state(spec, np.random.default_rng(7))
    assert state.layers[0].taps.shape == (32, 6, 4)
    got = model_lipschitz_constant(spec, state, (-1.1, 1.1))
    assert got == per_filter_lipschitz(spec, state, (-1.1, 1.1))
