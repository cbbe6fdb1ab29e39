"""One spectrum per shift: the Jacobi radius, the exact ARMA output and the
stability experiment read the eigendecomposition the shift carries, and a
built normalized adjacency carries the eigenvalues its normalization solved.

Each is compared with the solve it replaced (the oracles in ``conftest``) at
1e-12 relative, and the solves and forward passes they make are counted.
"""

import numpy as np
import pytest

from gspnn import analysis
from gspnn.analysis import (
    AnalysisError,
    DilationPerturbation,
    sample_lipschitz_gcnn,
    stability_experiment,
)
from gspnn.filters import (
    ArmaParams,
    arma_apply_direct,
    jacobi_spectral_radius,
    pole_margin,
)
from gspnn.graphs import (
    GraphSignal,
    ShiftKind,
    ShiftOperator,
    build_shift,
    eigendecompose,
)
from gspnn.neural import LayerSpec, ModelSpec, init_state

from conftest import (
    dense_solve_arma,
    make_random_graph,
    per_input_stability,
    per_probe_lipschitz_gcnn,
    similarity_jacobi_radius,
)
from test_filters import swap_shift


def rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def shift_case(name, seed=21):
    """(shift, two poles) with poles where the Jacobi scaling has one sign
    and S - gamma I is far from singular."""
    if name == "two_node":
        return swap_shift(), [2.0, -3.0]
    g, _ = make_random_graph(seed, n=30)
    if name == "laplacian":
        s = build_shift(g, ShiftKind.LAPLACIAN)
        return s, [-0.5, 2.0 * float(np.max(g.degrees())) + 1.0]
    if name == "normalized_laplacian":
        return build_shift(g, ShiftKind.NORMALIZED_LAPLACIAN), [2.6, -0.8]
    return build_shift(g, ShiftKind.NORMALIZED_ADJACENCY), [1.8, -2.1]


CASES = ["normalized_adjacency", "normalized_laplacian", "laplacian", "two_node"]


@pytest.mark.parametrize("eig", [False, True])
@pytest.mark.parametrize("name", CASES)
def test_jacobi_radius_matches_the_similarity_eigensolve(name, eig):
    s, poles = shift_case(name)
    if eig:
        s = eigendecompose(s)
    for gamma in poles:
        got = jacobi_spectral_radius(s, gamma)
        want = similarity_jacobi_radius(s, gamma)
        if name == "laplacian":   # a varying diagonal still runs the solve
            assert got == want
        else:
            assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("eig", [False, True])
@pytest.mark.parametrize("name", CASES)
def test_arma_direct_matches_the_dense_solves(name, eig):
    s, poles = shift_case(name)
    if eig:
        s = eigendecompose(s)
    r = np.random.default_rng(5)
    p = ArmaParams(poles, r.normal(size=2), [0.3, -0.2, 0.1])
    x = GraphSignal(r.normal(size=(s.n_nodes, 2)))
    got = arma_apply_direct(p, s, x).values
    assert rel_err(got, dense_solve_arma(p, s, x)) <= 1e-12


def stability_model(seed, n=30):
    g, r = make_random_graph(seed, n=n)
    s = eigendecompose(build_shift(g, ShiftKind.NORMALIZED_ADJACENCY))
    spec, state = sample_lipschitz_gcnn(s, 2, 3, r)
    return s, spec, state, r


@pytest.mark.parametrize("n_inputs", [1, 5])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("safety", [10.0, -1e3])   # -1e3: every input violates
def test_stability_experiment_matches_the_per_input_loop(n_inputs, eps, safety,
                                                         monkeypatch):
    s, spec, state, r = stability_model(41)
    inputs = [r.normal(size=s.n_nodes) for _ in range(n_inputs)]
    monkeypatch.setattr(analysis, "STABILITY_SAFETY_FACTOR", safety)
    rep = stability_experiment(spec, state, s, DilationPerturbation(eps), inputs)
    measured, violations = per_input_stability(
        spec, state, s, DilationPerturbation(eps), inputs, safety_factor=safety)
    assert rep.n_violations == violations == (n_inputs if safety < 0 < eps else 0)
    if eps == 0.0:
        assert rep.measured == measured == 0.0
    else:
        assert rel_err(rep.measured, measured) <= 1e-12


def test_stability_experiment_needs_an_input():
    s, spec, state, _ = stability_model(42)
    with pytest.raises(AnalysisError, match="at least one input"):
        stability_experiment(spec, state, s, DilationPerturbation(0.05), [])


def test_sampled_taps_equal_the_per_probe_loop():
    # a raw adjacency leaves many relu stacks dead, so some draws are redone
    attempts = []
    for seed in range(5):
        g, _ = make_random_graph(50 + seed, n=12)
        s = eigendecompose(build_shift(g, ShiftKind.ADJACENCY))
        spec, state = sample_lipschitz_gcnn(s, 2, 3, np.random.default_rng(seed))
        want_spec, want_state, tries = per_probe_lipschitz_gcnn(
            s, 2, 3, np.random.default_rng(seed))
        assert spec == want_spec
        for got, want in zip(state.layers, want_state.layers):
            assert got.taps.tobytes() == want.taps.tobytes()
        attempts.append(tries)
    assert max(attempts) > 1, attempts


@pytest.mark.parametrize("seed,n,weighted", [(31, 12, True), (32, 50, False),
                                             (33, 200, True)])
def test_built_normalized_adjacency_keeps_the_spectrum_of_its_norm(seed, n,
                                                                   weighted):
    # eigvalsh(A) / ||A|| is not bitwise eigvalsh(A / ||A||): the old solve is
    # the oracle, at 1e-14 of the norm
    g, _ = make_random_graph(seed, n=n, edge_prob=0.15, weighted=weighted)
    s = build_shift(g, ShiftKind.NORMALIZED_ADJACENCY)
    assert s.eigenvectors is None and not s.has_eig
    assert np.max(np.abs(s.spectrum - np.linalg.eigvalsh(s.matrix))) <= 1e-14
    assert s.operator_norm == 1.0


def test_a_built_normalized_adjacency_costs_one_solve(count_linalg):
    g, r = make_random_graph(34, n=40)
    count_linalg.clear()
    s = build_shift(g, ShiftKind.NORMALIZED_ADJACENCY)
    assert s.operator_norm == 1.0
    pole_margin(s)
    jacobi_spectral_radius(s, 1.8)
    spec = ModelSpec((LayerSpec("arma", 1, 2, 1, n_poles=2),))
    init_state(spec, r, shift=s)
    assert count_linalg == {"eigvalsh": 1}


def test_spectral_readers_solve_once_per_shift(count_linalg, monkeypatch):
    g, r = make_random_graph(31, n=40)
    s = eigendecompose(build_shift(g, ShiftKind.NORMALIZED_ADJACENCY))
    bare = ShiftOperator.from_dense(s.matrix)   # no spectrum of its own
    p = ArmaParams([1.8, -2.1], r.normal(size=2), [0.3, -0.2])
    x = GraphSignal(r.normal(size=(40, 2)))

    count_linalg.clear()
    for gamma in p.poles:
        jacobi_spectral_radius(s, gamma)
    assert count_linalg == {}
    arma_apply_direct(p, s, x)
    assert count_linalg == {}
    for gamma in p.poles:
        jacobi_spectral_radius(bare, gamma)
    assert count_linalg == {"eigvalsh": 1}

    spec, state = sample_lipschitz_gcnn(s, 2, 3, r)
    batches = []
    forward_batch = analysis.forward_batch

    def counted(*args, **kwargs):
        batches.append(args[3].shape)
        return forward_batch(*args, **kwargs)

    monkeypatch.setattr(analysis, "forward_batch", counted)
    for n_inputs in (1, 5, 12):
        batches.clear()
        count_linalg.clear()
        inputs = [r.normal(size=40) for _ in range(n_inputs)]
        stability_experiment(spec, state, s, DilationPerturbation(0.05), inputs)
        assert batches == [(n_inputs, 40, 1)] * 2
        assert count_linalg == {}
