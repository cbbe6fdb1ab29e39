"""The benchmark's own tests: tiny workloads pass their checks, every oracle
rejects a deliberately wrong output, and the tracer and the metric lists
agree with BENCHMARK.json.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import inputs
import oracles
import tracing
import workloads
from gspnn import analysis, filters, graphs, neural
from gspnn import flocking as fl
from gspnn import recsys as rs

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


# ---------------------------------------------------------------------------
# Tiny workloads
# ---------------------------------------------------------------------------

class TinyRecsys(workloads.RecsysML100k):
    TOP_ITEMS = 30
    SETUP_REPEATS = 1
    TRANSFER_ITEMS = 1


class TinyFlocking(workloads.FlockingPaper):
    N_TRAJ = 4
    DURATION = 0.5
    SIZES = (10, 20)
    TRIALS = 1
    SETUP_REPEATS = 1


class TinyTheory(workloads.SpectralTheory):
    SIZES = (10, 16)
    EDGE_PROB = 0.5     # sparse small graphs can be bipartite: lambda_i = -lambda_j


@pytest.mark.parametrize("cls", [TinyRecsys, TinyFlocking, TinyTheory])
def test_tiny_workload_passes_its_checks(cls, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, cls.name, cls)
    result, detail = workloads.run_workload(cls.name, 3, 0.0, False, tmp_path)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in
                                      _benchmark_json()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_counts_repeat_and_cover_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TinyTheory.name, TinyTheory)
    runs = [workloads.run_workload(TinyTheory.name, 4, 0.0, True, tmp_path)[0]
            for _ in range(2)]
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    for result in runs:
        assert set(result["metrics"]) == names
        assert result["failed"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] != "s"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["graphs.symmetric_eigh.calls"] > 0
    assert counts[0]["neural.forward.edge_varying.calls"] == 0
    assert (tmp_path / f"{TinyTheory.name}-seed4.spans.json").is_file()


def test_inputs_depend_only_on_the_seed():
    assert inputs.movielens_like_lines(5) == inputs.movielens_like_lines(5)
    assert inputs.movielens_like_lines(5) != inputs.movielens_like_lines(6)


def test_movielens_like_shape():
    lines = inputs.movielens_like_lines(1)
    triples = np.array([[int(f) for f in ln.split("\t")[:3]] for ln in lines])
    users, items = triples[:, 0], triples[:, 1]
    assert np.unique(users).size == inputs.ML_USERS
    assert np.unique(items).size == inputs.ML_ITEMS
    assert abs(len(lines) - inputs.ML_RATINGS) < 500
    assert np.bincount(users)[1:].min() >= inputs.ML_MIN_PER_USER
    assert len({(u, i) for u, i in zip(users, items)}) == len(lines)
    counts = np.bincount(items)
    assert counts.max() > 400 and np.median(counts[1:]) < 60   # long tail
    assert set(triples[:, 2]) <= {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# Each oracle rejects a wrong output
# ---------------------------------------------------------------------------

def _small_shift(seed=0, n=12):
    rng = np.random.default_rng(seed)
    edges = inputs.weighted_graph_edges(n, 0.3, rng)
    s = graphs.build_shift(graphs.Graph(n, tuple(edges)),
                           graphs.ShiftKind.NORMALIZED_ADJACENCY)
    return graphs.eigendecompose(s), oracles.normalized_adjacency(n, edges), rng


@pytest.mark.parametrize("family", ["fir", "arma", "edge_varying"])
def test_forward_oracle_matches_and_rejects_perturbed_parameters(family):
    s, a, rng = _small_shift()
    layer = neural.LayerSpec(family, 1, 3, 2, n_poles=1 if family == "arma" else 0,
                             jacobi_iters=2)
    spec = neural.ModelSpec((layer,), neural.ReadoutSpec("per_node_linear", 1))
    state = neural.init_state(spec, rng, shift=s)
    x = rng.normal(size=(4, s.n_nodes, 1))
    got, _ = neural.forward_batch(spec, state, s, x)

    def oracle():
        return oracles.single_layer_forward(
            workloads.layer_arrays(layer, state.layers[0]),
            state.readout_weight, state.readout_bias, a, x)

    assert oracles.rel_err(got, oracle()) < 1e-12
    first = next(neural.iter_params(state))[1]
    first.flat[0] += 1e-3
    assert oracles.rel_err(got, oracle()) > 1e-9


def test_spectral_oracle_rejects_flipped_and_mixed_eigenvectors():
    s, a, _ = _small_shift()
    lam, v = s.eigenvalues, s.eigenvectors
    assert np.min(np.diff(lam)) > 1e-6           # non-degenerate spectrum
    assert oracles.spectral_problems(a, lam, v) == []
    flipped = v.copy()
    flipped[:, 3] *= -1.0
    assert oracles.spectral_problems(a, lam, flipped)
    mixed = v.copy()
    c, sn = np.cos(0.1), np.sin(0.1)
    mixed[:, [2, 3]] = v[:, [2, 3]] @ np.array([[c, -sn], [sn, c]])
    assert oracles.spectral_problems(a, lam, mixed)
    assert oracles.spectral_problems(a, lam + 1e-6, v)


def test_spectral_filter_oracles_reject_wrong_taps_and_iterations():
    s, a, rng = _small_shift()
    x = rng.normal(size=(s.n_nodes, 2))
    taps = np.array([0.5, -0.7, 0.9])
    y = filters.fir_apply(filters.FirTaps(taps), s, graphs.GraphSignal(x)).values
    assert oracles.rel_err(y, oracles.spectral_filter(
        a, oracles.polynomial_response(taps), x)) < 1e-12
    assert oracles.rel_err(y, oracles.spectral_filter(
        a, oracles.polynomial_response(taps + [0, 0, 1e-6]), x)) > 1e-9

    params = filters.ArmaParams([1.8, -2.1], [0.4, -0.3], [0.2, 0.1], jacobi_iters=3)
    exact = filters.arma_apply_direct(params, s, graphs.GraphSignal(x)).values
    h = oracles.arma_response(params.poles, params.residues, params.direct_taps)
    assert oracles.rel_err(exact, oracles.spectral_filter(a, h, x)) < 1e-12
    jac = filters.arma_apply_jacobi(params, s, graphs.GraphSignal(x)).values
    dense = [oracles.jacobi_arma_dense(a, params.poles, params.residues,
                                       params.direct_taps, t, x) for t in (3, 2)]
    assert oracles.rel_err(jac, dense[0]) < 1e-12
    assert oracles.rel_err(jac, dense[1]) > 1e-9
    radius = filters.jacobi_spectral_radius(s, 1.8)
    assert abs(radius - oracles.jacobi_radius(a, 1.8)) < 1e-12
    assert abs(radius - oracles.jacobi_radius(a, 1.9)) > 1e-9


def test_stability_oracle_matches_measured_deviation_and_rejects_wrong_epsilon():
    s, a, rng = _small_shift()
    spec, state = analysis.sample_lipschitz_gcnn(s, 2, 3, rng)
    x = rng.normal(size=s.n_nodes)
    x /= np.linalg.norm(x)
    rep = analysis.stability_experiment(spec, state, s,
                                        analysis.DilationPerturbation(0.05), [x])
    taps = [p.taps[0, 0] for p in state.layers]
    assert oracles.rel_err(rep.measured,
                           oracles.fir_relu_stack_deviation(a, taps, 0.05, x)) < 1e-8
    assert oracles.rel_err(rep.measured,
                           oracles.fir_relu_stack_deviation(a, taps, 0.06, x)) > 1e-8


def test_error_matrix_oracle_rejects_a_perturbed_error_matrix():
    s, a, rng = _small_shift()
    a_hat = a * (1.0 + 0.01 * rng.uniform(-1, 1, size=a.shape))
    a_hat = (a_hat + a_hat.T) / 2.0
    s_hat = graphs.ShiftOperator.from_dense(a_hat)
    res = analysis.relative_distance(s, s_hat)
    assert oracles.error_matrix_residual(a, a_hat, res.error_matrix,
                                         res.permutation) < 1e-12
    bad = res.error_matrix.copy()
    bad[0, 1] += 1e-6
    assert oracles.error_matrix_residual(a, a_hat, bad, res.permutation) > 1e-8


def test_flocking_oracles_match_the_program_and_reject_wrong_trajectories():
    cfg = fl.FlockConfig(n_agents=8, duration=0.3)
    traj = fl.run_expert_trajectory(cfg, 2)
    args = (traj.positions, traj.velocities, traj.actions, cfg.dt)
    assert oracles.double_integrator_residual(*args) <= 1e-12
    bad = traj.actions.copy()
    bad[5, 2, 0] += 1e-3
    assert oracles.double_integrator_residual(
        traj.positions, traj.velocities, bad, cfg.dt) > 1e-12
    assert oracles.velocity_variation(traj.velocities) == pytest.approx(
        fl.velocity_variation_cost(traj.velocities), rel=1e-12)
    assert oracles.velocity_variation(traj.velocities[:, ::-1] * 1.01) != \
        pytest.approx(fl.velocity_variation_cost(traj.velocities), rel=1e-9)
    assert oracles.zero_controller_cost(traj.velocities[0], cfg.n_steps) == \
        pytest.approx(fl.zero_controller_cost(cfg, 2), rel=1e-12)


def test_loss_check_rejects_a_rising_or_nonfinite_history():
    for losses, ok in (([3, 2, 2, 1], True), ([1, 2, 2, 3], False),
                       ([3, np.nan, 2, 1], False), ([2, 2, 2, 2], False)):
        problems = []
        workloads._loss_falls(problems, losses)
        assert (problems == []) is ok


def test_host_speed_factor_scales_to_reference_seconds():
    host = hostspeed.HostSpeed()
    host.samples = [2 * hostspeed.REFERENCE_KERNEL_S] * 3
    assert host.factor == pytest.approx(0.5)
    time.sleep(0.5)
    host.catch_up()
    assert len(host.samples) > 3


def test_operation_counts_raises_and_failed_checks():
    run = workloads.Run()
    with run.operation("fine") as problems:
        workloads._close(problems, [1.0], [1.0], 1e-12, "same")
    with run.operation("wrong") as problems:
        workloads._close(problems, [1.1], [1.0], 1e-12, "off")
    with pytest.raises(workloads.RoundAborted):
        with run.operation("raises"):
            raise ValueError("boom")
    assert (run.attempted, run.failed) == (3, 2)


# ---------------------------------------------------------------------------
# Tracing and the metric lists
# ---------------------------------------------------------------------------

def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    originals = (rs.forward_batch, neural.forward_batch, graphs.ShiftOperator.apply)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rs.forward_batch is neural.forward_batch is not originals[1]
        s, _, rng = _small_shift()
        spec = neural.ModelSpec((neural.LayerSpec("fir", 1, 2, 2),))
        state = neural.init_state(spec, rng)
        x = rng.normal(size=(3, s.n_nodes, 1))
        rs.forward_batch(spec, state, s, x)         # inactive: not recorded
        tracer.active = True
        rs.forward_batch(spec, state, s, x)
    finally:
        tracer.uninstall()
    assert (rs.forward_batch, neural.forward_batch,
            graphs.ShiftOperator.apply) == originals
    m = tracer.round_metrics(0)
    assert m["neural.forward.fir.calls"] == 1
    assert m["graphs.shift_apply.calls"] == 2
    assert 0 <= m["neural.forward.fir.self_s"] <= m["neural.forward.fir.s"]


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_runs_print():
    doc = _benchmark_json()
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert per_layer == tracing.per_layer_metric_names() + [("trace.overhead_s", "s")]
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert len(per_layer) <= 128


def test_run_fails_without_program_source(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "spectral_theory", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
