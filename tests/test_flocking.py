import contextlib
import gc
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import gspnn
from gspnn import flocking as fl
from gspnn.cli import main
from gspnn.flocking import (
    ExpertAbort,
    FlockConfig,
    ImitationProblem,
    SwarmState,
    build_policy_spec,
    generate_dataset,
    load_dataset,
    load_policy,
    rollout_policy,
    run_expert_trajectory,
    save_dataset,
    save_policy,
    scalability_sweep,
    spawn_state,
    train_policy,
    velocity_variation_cost,
    zero_controller_cost,
    _adjacency_mask,
    _features_raw,
    _normalized_shift_dense,
    _pairwise,
    _PolicyRunner,
)
from gspnn.graphs import Graph, GraphSignal, ShiftOperator, mask_connected
from gspnn.neural import (
    FirLayerParams,
    ModelError,
    ModelState,
    forward_batch,
    init_state,
    iter_params,
    model_backward,
    read_archive,
    save_checkpoint,
    write_archive,
)
from gspnn.optim import TrainingError, loss_eval

from conftest import (
    closure_connected,
    delayed_stack_oracle,
    one_member,
    per_step_delayed_stacks,
    per_step_expert_features,
    serial_expert_run,
    serial_generate_dataset,
    serial_rollout,
    trajectory_shift,
)


def make_state(positions, velocities):
    return SwarmState(np.asarray(positions, dtype=float),
                      np.asarray(velocities, dtype=float))


def step_dynamics(state: SwarmState, actions, u_max: float,
                  dt: float) -> SwarmState:
    """One team's saturated double-integrator step."""
    r, v, _ = one_member(fl._integrate, (state.positions, state.velocities,
                                         actions), u_max, dt)
    return SwarmState(r, v)


def expert_action(state: SwarmState, radius: float) -> np.ndarray:
    """One team's expert actions."""
    return one_member(fl._expert_step, (state.positions, state.velocities),
                      radius)[2]


def comm_graph(state: SwarmState, radius: float):
    """Communication graph (by a double loop over agent pairs) and its
    degree-normalized shift operator, for checking the array helpers."""
    n = len(state.positions)
    mask = _adjacency_mask(_pairwise(state.positions), radius)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j]:
                edges.append((i, j, 1.0))
    graph = Graph(n, tuple(edges))
    shift = ShiftOperator.from_dense(_normalized_shift_dense(mask),
                                     kind="degree_normalized_adjacency")
    return graph, shift


def agent_features(state: SwarmState, radius: float) -> GraphSignal:
    """Decentralized input features (6 per agent) of one swarm state."""
    dist = _pairwise(state.positions)
    mask = _adjacency_mask(dist, radius)
    return GraphSignal(_features_raw(state.positions, state.velocities,
                                     mask, dist))


def per_trajectory_batch_loss(problem, indices):
    """The loop ``ImitationProblem.batch_loss`` ran before it ran blocks of
    time steps: one forward and backward over each whole trajectory's
    stack, the gradients summed in batch order and divided by the batch
    size."""
    total, grads = 0.0, None
    for i in indices:
        zs = problem.stack[i]
        out, tape = forward_batch(problem.spec, problem.state, None, zs)
        value, dpred = loss_eval(problem.loss, out, problem.targets[i])
        step = [g for _, g in iter_params(model_backward(tape, problem.spec,
                                                         problem.state, dpred))]
        total += value
        grads = step if grads is None else [a + g for a, g in zip(grads, step)]
    return total / len(indices), [g / len(indices) for g in grads]


def per_block_batch_loss(problem, samples, indices):
    """``ImitationProblem.batch_loss`` written out serially: each
    trajectory's stack built one shift per step, cut into blocks of
    ``problem.block_steps`` steps, and every block run with fresh arrays,
    its loss and gradient weighted by steps / (T * batch size) and summed
    in batch and block order."""
    order = problem.spec.layers[0].order
    t_steps = samples[0].n_steps
    total, grads = 0.0, None
    for i in indices:
        stack = per_step_delayed_stacks(samples[i], order)
        target = samples[i].actions / samples[i].config.u_max
        for start in range(0, t_steps, problem.block_steps):
            zs = stack[start:start + problem.block_steps]
            out, tape = forward_batch(problem.spec, problem.state, None, zs)
            value, dpred = loss_eval(problem.loss, out,
                                     target[start:start + len(zs)])
            weight = len(zs) / (t_steps * len(indices))
            total += weight * value
            step = model_backward(tape, problem.spec, problem.state,
                                  dpred * weight)
            step = [g for _, g in iter_params(step)]
            grads = step if grads is None else [a + g for a, g in zip(grads, step)]
    return total, grads


def concatenated_batch_loss(problem, samples, indices):
    """The per-sample path that ``ImitationProblem.batch_loss`` replaced:
    each trajectory's stack (one shift built per step) and normalized
    targets made on the fly and concatenated in batch order."""
    order = problem.spec.layers[0].order
    u_max = samples[0].config.u_max
    zs = np.concatenate([per_step_delayed_stacks(samples[i], order)
                         for i in indices])
    target = np.concatenate([samples[i].actions / u_max for i in indices])
    out, tape = forward_batch(problem.spec, problem.state, None, zs)
    value, dpred = loss_eval(problem.loss, out, target)
    return value, model_backward(tape, problem.spec, problem.state, dpred)


SMALL = FlockConfig(n_agents=8, duration=0.5)


def coincide(state: SwarmState) -> None:
    """Put agent 1 on agent 0: the team aborts (or diverges) at step 0."""
    state.positions[1] = state.positions[0]


def run_away(state: SwarmState) -> None:
    """Send agent 0 off at the edge of the float range, out of everyone's
    reach: its position overflows, and the team aborts, some steps later."""
    state.positions[0] = (1.79e308, 0.0)
    state.velocities[0] = (7e306, 0.0)


@pytest.fixture
def crafted_spawns(monkeypatch):
    """``install(config, {seed: edit})`` makes ``flocking.spawn_state`` apply
    ``edit`` to the team it draws for ``seed`` (recognized by its drawn
    positions), so the serial oracles and the lockstep runs start from the
    same altered teams."""
    original = fl.spawn_state

    def install(config, edits):
        marks = [(original(config, np.random.default_rng(seed)).positions, edit)
                 for seed, edit in edits.items()]

        def spawn(cfg, rng):
            state = original(cfg, rng)
            for positions, edit in marks:
                if np.array_equal(state.positions, positions):
                    edit(state)
            return state

        monkeypatch.setattr(fl, "spawn_state", spawn)

    return install


@pytest.fixture
def relabelled_spawns(monkeypatch):
    """``install(perm)`` makes ``flocking.spawn_state`` relabel every team
    it draws: agent i of the team it returns is agent perm[i] of the draw."""
    original = fl.spawn_state

    def install(perm):
        def spawn(cfg, rng):
            state = original(cfg, rng)
            return SwarmState(state.positions[perm], state.velocities[perm])

        monkeypatch.setattr(fl, "spawn_state", spawn)

    return install


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

def test_zero_action_straight_line():
    state = make_state([[0.0, 0.0], [1.0, 0.0]], [[1.0, 2.0], [0.0, -1.0]])
    nxt = step_dynamics(state, np.zeros((2, 2)), u_max=10.0, dt=0.1)
    assert np.allclose(nxt.positions, state.positions + 0.1 * state.velocities)
    assert np.array_equal(nxt.velocities, state.velocities)


def test_unit_acceleration_kinematics():
    state = make_state([[0.0, 0.0], [5.0, 5.0]], np.zeros((2, 2)))
    actions = np.array([[1.0, 0.0], [0.0, 0.0]])
    nxt = step_dynamics(state, actions, u_max=10.0, dt=1.0)
    assert np.allclose(nxt.positions[0], [0.5, 0.0])
    assert np.allclose(nxt.velocities[0], [1.0, 0.0])


def test_action_saturation():
    state = make_state([[0.0, 0.0], [5.0, 5.0]], np.zeros((2, 2)))
    nxt = step_dynamics(state, np.array([[100.0, -100.0], [0.0, 0.0]]),
                        u_max=2.0, dt=1.0)
    assert np.allclose(nxt.velocities[0], [2.0, -2.0])


def test_ballistic_oracle_over_ten_steps():
    # constant action, zero initial velocity: r(t) = 0.5 u (k dt)^2 exactly
    # (the discrete update telescopes to the continuous formula here)
    dt, u = 0.1, np.array([[0.4, -0.2]])
    state = make_state([[0.0, 0.0]], [[0.0, 0.0]])
    for _ in range(10):
        state = step_dynamics(state, u, u_max=10.0, dt=dt)
    t = 10 * dt
    assert np.allclose(state.positions[0], 0.5 * u[0] * t * t, atol=1e-12)
    assert np.allclose(state.velocities[0], u[0] * t, atol=1e-12)


def test_non_finite_action_aborts():
    state = make_state([[0.0, 0.0], [1.0, 1.0]], np.zeros((2, 2)))
    with pytest.raises(ExpertAbort):
        step_dynamics(state, np.array([[np.nan, 0.0], [0.0, 0.0]]), 10.0, 0.01)


# ---------------------------------------------------------------------------
# Communication graph
# ---------------------------------------------------------------------------

def test_comm_graph_by_distance():
    state = make_state([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]], np.zeros((3, 2)))
    graph, shift = comm_graph(state, radius=2.0)
    assert graph.edges == ((0, 1, 1.0),)
    assert shift.dense()[0, 2] == 0.0


def test_comm_graph_matches_all_pairs_oracle():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-3, 3, size=(5, 2))
    state = make_state(positions, np.zeros((5, 2)))
    graph, _ = comm_graph(state, radius=2.0)
    edges = {(i, j) for i, j, _ in graph.edges}
    for i in range(5):
        for j in range(i + 1, 5):
            expected = np.linalg.norm(positions[i] - positions[j]) <= 2.0
            assert ((i, j) in edges) == expected


def test_pairwise_distances_equal_the_axis_sum_bitwise():
    offsets = np.random.default_rng(4).normal(scale=3.0, size=(40, 25, 2))
    diff = offsets[..., :, None, :] - offsets[..., None, :, :]
    want = np.sqrt(np.sum(diff * diff, axis=-1))
    assert _pairwise(offsets).tobytes() == want.tobytes()


def test_batched_shifts_equal_per_step_calls_bitwise():
    cfg = FlockConfig(n_agents=7, duration=0.5)
    sample = run_expert_trajectory(cfg, seed=5)
    per_step = np.stack([trajectory_shift(sample, t)
                         for t in range(sample.n_steps + 1)])
    # the graph must change along the trajectory
    assert any(not np.array_equal(a, b) for a, b in zip(per_step, per_step[1:]))
    batched = _normalized_shift_dense(
        _adjacency_mask(_pairwise(sample.positions), cfg.comm_radius))
    assert batched.tobytes() == per_step.tobytes()


def test_comm_shift_symmetric_and_normalized():
    rng = np.random.default_rng(1)
    state = make_state(rng.uniform(-2, 2, size=(12, 2)), np.zeros((12, 2)))
    _, shift = comm_graph(state, radius=2.0)
    m = shift.dense()
    assert np.allclose(m, m.T, atol=1e-15)
    lam = np.linalg.eigvalsh(m)
    assert np.max(np.abs(lam)) <= 1.0 + 1e-9


def test_spawn_state_redraws_until_the_team_is_connected(monkeypatch):
    # at a 1.2 m range most 6-agent draws are disconnected: every verdict
    # must match the closure oracle and the team kept must be connected
    cfg = FlockConfig(n_agents=6, comm_radius=1.2)
    verdicts = []

    def recording(mask):
        verdicts.append(mask_connected(mask))
        assert verdicts[-1] == closure_connected(mask)
        return verdicts[-1]

    monkeypatch.setattr(fl, "mask_connected", recording)
    for seed in range(4):
        state = spawn_state(cfg, np.random.default_rng(seed))
        assert verdicts[-1]
        assert closure_connected(_adjacency_mask(_pairwise(state.positions),
                                                 cfg.comm_radius))
    assert verdicts.count(False) > 0


# ---------------------------------------------------------------------------
# Expert controller
# ---------------------------------------------------------------------------

def test_expert_zero_at_consensus_when_separated():
    # equal velocities, agents beyond the potential cutoff
    state = make_state([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]],
                       [[1.0, 1.0]] * 3)
    u = expert_action(state, radius=2.0)
    assert np.max(np.abs(u)) <= 1e-6


def test_expert_antisymmetric_velocity_terms():
    state = make_state([[0.0, 0.0], [10.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    u = expert_action(state, radius=2.0)
    assert np.allclose(u[0], -u[1], atol=1e-12)


def test_expert_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    positions = rng.uniform(-1.5, 1.5, size=(3, 2))
    velocities = rng.normal(size=(3, 2))
    state = make_state(positions, velocities)
    u = expert_action(state, radius=2.0)

    radius, lo = 2.0, 1.8
    def potential_force(i):
        total = np.zeros(2)
        for j in range(3):
            if j == i:
                continue
            d = np.linalg.norm(positions[i] - positions[j])
            if d >= radius:
                continue
            if d < lo:
                slope = -2.0 / d ** 3
            else:
                phase = np.pi * (d - lo) / (radius - lo)
                w = 0.5 * (1 + np.cos(phase))
                dw = -0.5 * np.pi / (radius - lo) * np.sin(phase)
                slope = -2.0 * w / d ** 3 + dw / d ** 2
            total += -slope * (positions[i] - positions[j]) / d
        return total

    for i in range(3):
        expected = -sum(velocities[i] - velocities[j] for j in range(3)) \
            + potential_force(i)
        assert np.allclose(u[i], expected, atol=1e-12)


def test_expert_aborts_on_coincident_agents():
    state = make_state([[0.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))
    with pytest.raises(ExpertAbort, match="coincident"):
        expert_action(state, radius=2.0)


def test_expert_repulsion_pushes_apart():
    state = make_state([[0.0, 0.0], [0.3, 0.0]], np.zeros((2, 2)))
    u = expert_action(state, radius=2.0)
    assert u[0, 0] < 0 < u[1, 0]


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

def test_isolated_agent_has_zero_features():
    state = make_state([[0.0, 0.0], [100.0, 0.0], [100.0, 1.0]],
                       [[1.0, 2.0], [0.0, 0.0], [0.5, 0.5]])
    feats = agent_features(state, radius=2.0)
    assert np.all(feats.values[0] == 0.0)


def test_equal_velocities_zero_first_block():
    rng = np.random.default_rng(3)
    state = make_state(rng.uniform(-1, 1, size=(5, 2)), np.ones((5, 2)))
    feats = agent_features(state, radius=5.0)
    assert np.allclose(feats.values[:, 0:2], 0.0, atol=1e-12)


def test_features_match_hand_sums():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.5]])
    velocities = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    state = make_state(positions, velocities)
    feats = agent_features(state, radius=2.0).values
    # agent 0 neighbors: only agent 1 (distance 1); agent 2 at 2.5 > R
    d01 = 1.0
    assert np.allclose(feats[0, 0:2], velocities[0] - velocities[1])
    assert np.allclose(feats[0, 2:4], (positions[0] - positions[1]) / d01 ** 4)
    assert np.allclose(feats[0, 4:6], (positions[0] - positions[1]) / d01 ** 2)
    assert np.all(feats[2] == 0.0)


def test_zero_distance_neighbor_aborts():
    state = make_state([[0.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))
    with pytest.raises(ExpertAbort, match="zero-distance|coincident"):
        agent_features(state, radius=2.0)


# ---------------------------------------------------------------------------
# Dataset generation and persistence
# ---------------------------------------------------------------------------

def test_generate_zero_trajectories():
    samples, n_resampled = generate_dataset(0, SMALL, seed=0)
    assert samples == [] and n_resampled == 0


def test_generation_deterministic():
    a, _ = generate_dataset(2, SMALL, seed=5)
    b, _ = generate_dataset(2, SMALL, seed=5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert np.array_equal(sa.actions, sb.actions)


def test_generate_dataset_equals_the_serial_loop_around_aborted_runs(
        crafted_spawns):
    cfg = FlockConfig(n_agents=8, duration=0.3)
    crafted_spawns(cfg, {41: coincide, 42: run_away})
    with np.errstate(over="ignore"):
        with pytest.raises(ExpertAbort, match="coincident agents"):
            serial_expert_run(cfg, 41)
        state = fl.spawn_state(cfg, np.random.default_rng(42))
        step_dynamics(state, expert_action(state, cfg.comm_radius), cfg.u_max,
                      cfg.dt)
        with pytest.raises(ExpertAbort, match="non-finite state"):
            serial_expert_run(cfg, 42)
        want, want_resampled = serial_generate_dataset(4, cfg, seed=40)
        samples, n_resampled = generate_dataset(4, cfg, seed=40)
    assert [seed for seed, _ in want] == [40, 43, 44, 45]
    assert [s.seed for s in samples] == [40, 43, 44, 45]
    assert n_resampled == want_resampled == 2
    for (_, run), sample in zip(want, samples):
        for name, arr in zip(("positions", "velocities", "actions"), run):
            assert getattr(sample, name).tobytes() == arr.tobytes(), name
        assert sample.features.tobytes() == per_step_expert_features(sample).tobytes()


def test_generate_dataset_stops_at_the_resample_cap_like_the_serial_loop(
        monkeypatch):
    original = fl.spawn_state
    spawned = []

    def coincident_spawn(config, rng):
        state = original(config, rng)
        coincide(state)
        spawned.append(state)
        return state

    monkeypatch.setattr(fl, "spawn_state", coincident_spawn)
    cfg = FlockConfig(n_agents=6, duration=0.05)
    with pytest.raises(ExpertAbort, match="coincident agents"):
        serial_generate_dataset(2, cfg, seed=0)
    assert len(spawned) == 101
    spawned.clear()
    with pytest.raises(ExpertAbort, match="coincident agents"):
        generate_dataset(2, cfg, seed=0)
    assert len(spawned) == 102      # the cap falls inside the last batch of 2


def test_expert_rollout_costs_equal_serial_runs_and_raise_an_abort(
        crafted_spawns):
    seeds = [7, 8, 9]
    want = [velocity_variation_cost(serial_expert_run(SMALL, s)[1]) for s in seeds]
    assert fl.expert_rollout_costs(SMALL, seeds) == want
    crafted_spawns(SMALL, {8: coincide})
    with pytest.raises(ExpertAbort, match="coincident agents"):
        fl.expert_rollout_costs(SMALL, seeds)


def test_replaying_actions_reproduces_states():
    sample = run_expert_trajectory(SMALL, seed=3)
    state = SwarmState(sample.positions[0], sample.velocities[0])
    for t in range(sample.n_steps):
        state = step_dynamics(state, sample.actions[t], SMALL.u_max, SMALL.dt)
        assert np.allclose(state.positions, sample.positions[t + 1], atol=1e-10)
        assert np.allclose(state.velocities, sample.velocities[t + 1], atol=1e-10)


def test_expert_reaches_consensus():
    cfg = FlockConfig(n_agents=20)
    ratios = []
    for seed in range(5):
        sample = run_expert_trajectory(cfg, seed)
        v0, vt = sample.velocities[0], sample.velocities[-1]
        var0 = np.sum((v0 - v0.mean(0)) ** 2)
        vart = np.sum((vt - vt.mean(0)) ** 2)
        ratios.append(vart / var0)
    assert np.mean(ratios) <= 0.05


def test_dataset_roundtrip(tmp_path):
    samples, n_res = generate_dataset(3, SMALL, seed=9)
    save_dataset(tmp_path / "ds", samples, n_res)
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded) == 3
    for a, b in zip(samples, loaded):
        for name in ("positions", "velocities", "actions", "features"):
            want, got = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert (b.seed, b.config) == (a.seed, a.config)


def test_save_dataset_leaves_one_archive(tmp_path):
    samples, n_res = generate_dataset(2, SMALL, seed=9)
    for _ in range(2):  # saving again overwrites the archive
        save_dataset(tmp_path, samples, n_res)
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.npz"]


@pytest.mark.parametrize("n_agents,radius", [(6, 2.0), (12, 1.0), (25, 2.0)])
def test_loaded_features_equal_the_experts_bitwise(tmp_path, n_agents, radius):
    # the expert and the loader compute every step at once; the oracle one
    # step at a time, as the expert did while it ran
    cfg = FlockConfig(n_agents=n_agents, duration=0.3, comm_radius=radius)
    samples, n_res = generate_dataset(2, cfg, seed=n_agents)
    save_dataset(tmp_path, samples, n_res)
    for a, b in zip(samples, load_dataset(tmp_path)):
        want = per_step_expert_features(a)
        assert a.features.shape == b.features.shape == want.shape
        assert a.features.tobytes() == want.tobytes()
        assert b.features.tobytes() == want.tobytes()


MIXED_CONFIG = (r"trajectory 1 has another config than trajectory 0: "
                r"comm_radius 1\.0 \(trajectory 0: 2\.0\)")


@pytest.fixture
def mixed_radius_samples():
    samples = []
    for radius in (2.0, 1.0):
        cfg = FlockConfig(n_agents=6, duration=0.05, comm_radius=radius)
        samples += generate_dataset(1, cfg, seed=3)[0]
    return samples


def test_save_dataset_rejects_a_trajectory_of_another_config(
        tmp_path, mixed_radius_samples):
    with pytest.raises(ValueError, match=MIXED_CONFIG):
        save_dataset(tmp_path / "ds", mixed_radius_samples)
    assert not (tmp_path / "ds").exists()


def test_imitation_problem_rejects_a_trajectory_of_another_config(
        mixed_radius_samples):
    spec = build_policy_spec()
    with pytest.raises(ValueError, match=MIXED_CONFIG):
        ImitationProblem(spec, init_state(spec, np.random.default_rng(0)),
                         mixed_radius_samples, 10.0)


@pytest.fixture
def six_agent_dataset(tmp_path):
    samples, n_res = generate_dataset(1, FlockConfig(n_agents=6, duration=0.05),
                                      seed=3)
    assert samples[0].n_steps == 5
    save_dataset(tmp_path, samples, n_res)
    return tmp_path


def edit_archive(directory, edit):
    """Let ``edit`` change a saved dataset's header and members in place,
    then write them back as its archive."""
    path = directory / "dataset.npz"
    header, members = read_archive(path, 2, "dataset")
    edit(header, members)
    write_archive(path, header, members)


def edit_array(directory, name, edit):
    def edit_member(header, members):
        members[name] = edit(members[name])
    edit_archive(directory, edit_member)


def test_dataset_with_missing_agent_fails_naming_positions(six_agent_dataset):
    edit_array(six_agent_dataset, "positions", lambda a: a[:, :, :5])
    with pytest.raises(ValueError, match=r"positions has shape \(1, 6, 5, 2\)"
                                         r".*\(1, 6, 6, 2\)"):
        load_dataset(six_agent_dataset)


def test_dataset_with_short_actions_fails_naming_actions(six_agent_dataset):
    edit_array(six_agent_dataset, "actions", lambda a: a[:, :3])
    with pytest.raises(ValueError, match=r"actions has shape \(1, 3, 6, 2\)"
                                         r".*\(1, 5, 6, 2\)"):
        load_dataset(six_agent_dataset)


def test_dataset_with_nan_velocity_fails_naming_velocities(six_agent_dataset):
    def poison(a):
        a[0, 2, 4, 1] = np.nan
        return a
    edit_array(six_agent_dataset, "velocities", poison)
    with pytest.raises(ValueError, match="velocities has non-finite entries"):
        load_dataset(six_agent_dataset)


def test_dataset_with_coincident_linked_agents_names_step_and_agents(
        six_agent_dataset):
    def coincide_at_step_3(a):
        a[0, 3, 4] = a[0, 3, 1]
        return a
    edit_array(six_agent_dataset, "positions", coincide_at_step_3)
    with pytest.raises(ValueError, match=r"dataset\.npz: trajectory 0 \(seed 3\) "
                       r"has linked agents 1 and 4 at distance 0 at step 3"):
        load_dataset(six_agent_dataset)


@pytest.mark.parametrize("edit,message", [
    (lambda h, m: m.pop("actions"), r"members has missing or unknown keys "
                                    r"\['actions'\]"),
    (lambda h, m: m.update(features=np.zeros(3)),
     r"members has missing or unknown keys \['features'\]"),
    (lambda h, m: m.update(actions=m["actions"].astype(np.float32)),
     "actions has dtype float32, not float64"),
    (lambda h, m: h["seeds"].append(4),
     r"positions has shape \(1, 6, 6, 2\), not \(2, 6, 6, 2\)"),
    (lambda h, m: h.update(seeds=[3.0]), "seeds.0 must be an integer >= 0, got 3.0"),
    (lambda h, m: h.update(seeds=[]), "seeds must be a non-empty list"),
    (lambda h, m: h.update(n_resampled=-1), "n_resampled must be an integer"),
    (lambda h, m: h.pop("config"), r"header has missing or unknown keys "
                                   r"\['config'\]"),
    (lambda h, m: h.update(extra=1), r"header has missing or unknown keys "
                                     r"\['extra'\]"),
    (lambda h, m: h["config"].pop("dt"), r"config has missing or unknown keys "
                                         r"\['dt'\]"),
    (lambda h, m: h["config"].update(comm_radius=-2.0),
     "config: comm_radius must be finite and > 0"),
    (lambda h, m: h["config"].update(dt=True),
     "config: dt must be a number, not the bool True"),
    (lambda h, m: h.update(format_version=1),
     "dataset format_version is 1, this version reads 2"),
], ids=["missing member", "extra member", "float32 member", "seeds too long",
        "float seed", "no seeds", "negative n_resampled", "no config",
        "extra header field", "config without dt", "bad config value",
        "bool config value", "version 1"])
def test_bad_dataset_archive_fails_naming_the_field(six_agent_dataset, edit,
                                                    message):
    edit_archive(six_agent_dataset, edit)
    with pytest.raises(ValueError, match=message):
        load_dataset(six_agent_dataset)


def test_old_directory_layout_fails_naming_the_archive(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format_version": 1}\n')
    np.save(tmp_path / "traj_0000.positions.npy", np.zeros((2, 6, 2)))
    with pytest.raises(FileNotFoundError, match="dataset.npz"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("field,value,message", [
    ("n_agents", 1, "n_agents must be an integer >= 2, got 1"),
    ("n_agents", 6.0, "n_agents must be an integer >= 2, got 6.0"),
    ("duration", -1.0, "duration must be finite and > 0"),
    ("dt", 0.0, "dt must be finite and > 0"),
    ("comm_radius", np.inf, "comm_radius must be finite and > 0"),
    ("speed_range", np.nan, "speed_range must be finite and > 0"),
    ("u_max", "10", "u_max must be finite and > 0"),
    ("dt", True, "dt must be a number, not the bool True"),
    ("comm_radius", True, "comm_radius must be a number, not the bool True"),
    ("duration", 0.005, "duration must be >= dt"),
])
def test_flock_config_checks_each_field(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FlockConfig(**{field: value})


@pytest.mark.parametrize("missing", ["action_scale", "config"])
def test_policy_checkpoint_without_flocking_metadata_names_it(tmp_path,
                                                              missing):
    cfg = FlockConfig(n_agents=6, duration=0.05)
    spec = build_policy_spec()
    meta = {"action_scale": cfg.u_max, "config": asdict(cfg)}
    del meta[missing]
    save_checkpoint(tmp_path / "policy.npz", spec,
                    init_state(spec, np.random.default_rng(0)), metadata=meta)
    with pytest.raises(ValueError, match=f"metadata has no {missing}"):
        load_policy(tmp_path / "policy.npz")


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

def test_cost_zero_iff_equal_velocities():
    v_equal = np.ones((11, 4, 2))
    assert velocity_variation_cost(v_equal) == 0.0
    v = v_equal.copy()
    v[3, 1, 0] += 0.5
    assert velocity_variation_cost(v) > 0.0


def test_zero_controller_cost_closed_form():
    cfg = FlockConfig(n_agents=6, duration=0.3)
    seed = 4
    direct = zero_controller_cost(cfg, seed)
    rng = np.random.default_rng(seed)
    state = spawn_state(cfg, rng)
    centered = state.velocities - state.velocities.mean(axis=0)
    expected = cfg.n_steps * np.sum(centered ** 2) / cfg.n_agents
    assert direct == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Policy training and rollout
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_policy():
    cfg = FlockConfig(n_agents=8, duration=0.5)
    samples, _ = generate_dataset(6, cfg, seed=20)
    bundle, history = train_policy(samples, seed=0, epochs=4)
    return cfg, samples, bundle, history


@pytest.fixture(scope="module")
def blocked_problem():
    """An imitation problem whose 100-step trajectories of 25 agents run as
    two full blocks and a short last one."""
    cfg = FlockConfig(n_agents=25, duration=1.0)
    samples, _ = generate_dataset(3, cfg, seed=31)

    def make(nonlinearity="tanh", seed=6):
        spec = build_policy_spec(nonlinearity)
        problem = ImitationProblem(spec, init_state(spec, np.random.default_rng(seed)),
                                   samples, cfg.u_max)
        assert 2 * problem.block_steps < cfg.n_steps < 3 * problem.block_steps
        return problem

    return samples, make


def test_training_reduces_imitation_loss(tiny_policy):
    _, _, _, history = tiny_policy
    first = np.mean([h[2] for h in history[:2]])
    last = np.mean([h[2] for h in history[-2:]])
    assert last < first


def test_incremental_runner_matches_delayed_model(tiny_policy):
    cfg, samples, bundle, _ = tiny_policy
    sample = samples[0]
    order = bundle.spec.layers[0].order
    t = 5
    zs = delayed_stack_oracle([trajectory_shift(sample, t - j) for j in range(order)],
                              [sample.features[t - k] for k in range(order + 1)],
                              order)
    ref, _ = forward_batch(bundle.spec, bundle.state, None, zs)

    runner = _PolicyRunner(bundle, cfg.n_agents)
    for step in range(t + 1):
        act = runner.act(trajectory_shift(sample, step), sample.features[step])
    assert np.allclose(act, ref[0] * bundle.action_scale, atol=1e-12)


def test_delayed_stacks_equal_the_per_step_chain_bitwise(tiny_policy):
    _, samples, _, _ = tiny_policy
    for sample in samples[:2]:
        for order in (0, 1, 3):
            zs = sample.delayed_stacks(order)
            assert zs.flags.c_contiguous
            assert zs.tobytes() == per_step_delayed_stacks(sample, order).tobytes()


def test_imitation_stack_equals_the_per_step_chains_bitwise(tiny_policy):
    # every trajectory's chain advances in one lockstep batch; the oracle
    # builds one trajectory's shifts one step at a time
    cfg, samples, _, _ = tiny_policy
    spec = build_policy_spec()
    problem = ImitationProblem(spec, init_state(spec, np.random.default_rng(0)),
                               samples, cfg.u_max)
    order = spec.layers[0].order
    want = np.stack([per_step_delayed_stacks(s, order) for s in samples])
    assert problem.stack.flags.c_contiguous
    assert problem.stack.tobytes() == want.tobytes()
    targets = np.stack([s.actions / cfg.u_max for s in samples])
    assert problem.targets.tobytes() == targets.tobytes()


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_batch_loss_on_a_shuffled_batch_equals_the_concatenated_path(
        tiny_policy, nonlinearity):
    # one trajectory at a time sums in another order than one concatenated
    # batch; the two agree to rounding, relative to each gradient's largest
    # entry (an entry that nearly cancels can differ more relative to itself)
    cfg, samples, _, _ = tiny_policy
    spec = build_policy_spec(nonlinearity)
    state = init_state(spec, np.random.default_rng(6))
    problem = ImitationProblem(spec, state, samples, cfg.u_max)
    indices = np.array([4, 1, 5, 0])
    value, grads = problem.batch_loss(indices)
    want_value, want_grads = concatenated_batch_loss(problem, samples, indices)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    for (name, got), (_, want) in zip(iter_params(grads), iter_params(want_grads)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_batch_loss_equals_a_serial_per_block_oracle_bitwise(
        blocked_problem, nonlinearity):
    # the gradients added into one state and the blocks cut from the shared
    # stack change no bit against a separate gradient per block
    samples, make = blocked_problem
    problem = make(nonlinearity)
    indices = np.array([2, 0, 1])
    want_value, want = per_block_batch_loss(problem, samples, indices)
    for _ in range(2):                  # a second call reads the same bits
        value, got = problem.batch_loss(indices)
        assert value == want_value
        for (name, g), w in zip(iter_params(got), want):
            assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_batch_loss_stays_within_rounding_of_the_per_trajectory_path(
        blocked_problem, nonlinearity):
    # blocks sum each trajectory's rows in another order than one pass over
    # the whole trajectory; measured differences are at most 4.3e-15 of each
    # gradient's largest entry
    _, make = blocked_problem
    problem = make(nonlinearity)
    indices = np.array([1, 2, 0])
    value, got = problem.batch_loss(indices)
    want_value, want = per_trajectory_batch_loss(problem, indices)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    for (name, g), w in zip(iter_params(got), want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


def test_batch_loss_peak_memory_does_not_grow_with_the_batch(tiny_policy):
    cfg, samples, _, _ = tiny_policy
    spec = build_policy_spec()
    problem = ImitationProblem(spec, init_state(spec, np.random.default_rng(6)),
                               samples, cfg.u_max)
    peaks = {}
    for n_traj in (3, 6):
        problem.batch_loss(np.arange(n_traj))       # warm any lazy state
        tracemalloc.start()
        try:
            problem.batch_loss(np.arange(n_traj))
            peaks[n_traj] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one trajectory's temporaries are about 100 kB at this size; a batch
    # run as one array would need twice the peak for twice the trajectories
    assert peaks[6] <= peaks[3] + 16_000, peaks


def test_batch_loss_peak_memory_does_not_grow_with_the_trajectory_length():
    # 43-step blocks of 25 agents: a call holds one block's fresh arrays at
    # a time, so its peak is the same at 100 and 200 steps (882 kB), where
    # one pass over a whole trajectory held about 1.3 MB per (T*N, 32) array
    # at 200 steps; the bound stays below one such array
    peaks = {}
    for duration in (1.0, 2.0):
        cfg = FlockConfig(n_agents=25, duration=duration)
        samples, _ = generate_dataset(2, cfg, seed=40)
        spec = build_policy_spec()
        problem = ImitationProblem(spec, init_state(spec, np.random.default_rng(6)),
                                   samples, cfg.u_max)
        problem.batch_loss(np.arange(2))            # warm any lazy state
        tracemalloc.start()
        try:
            problem.batch_loss(np.arange(2))
            peaks[duration] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2.0] <= peaks[1.0] + 16_000, peaks
    assert peaks[2.0] < 1_100_000, peaks


FIRST_TRAINING_FAULTS = """
import resource
from gspnn import flocking as fl
samples, _ = fl.generate_dataset(4, fl.FlockConfig(), 701)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fl.train_policy(samples, seed=701, epochs=3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_first_training_of_a_fresh_process_takes_few_page_faults():
    # glibc maps blocks above 128 kB fresh from the kernel until a freed
    # mapping raises that threshold, so per-pass arrays of a whole
    # trajectory (1.3 MB each) faulted in on every pass: 9.1k minor faults
    # here, 55.7k for 20 trajectories and 60 epochs. Block-sized arrays
    # (at most 275 kB each) come from reused heap once the first freed one
    # has raised that threshold, which leaves the 3.8 MB stack: about 1.0k.
    # On 2 CPUs the batch worker's pool adds about 1.5k: about 1.0k
    # copy-on-write faults on pages this process writes after the fork,
    # 0.25k for importing the pool's modules within the call and the rest
    # for its threads and queues: 2.48k-2.52k over 20 runs, 2.45k-2.47k
    # over 10 beside a busy process (2.04k-2.07k over 20 for the
    # fork-and-pipe worker the pool replaced).
    src = Path(gspnn.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", FIRST_TRAINING_FAULTS],
                         env={**os.environ, "PYTHONPATH": str(src),
                              "OPENBLAS_NUM_THREADS": "1"},
                         capture_output=True, text=True, check=True, timeout=120)
    assert int(out.stdout) < 3000, out.stdout


def test_a_policy_trained_on_25_agents_flocks_at_50_and_100():
    # the paper's scalability claim: imitation-trained with the module
    # recipe on teams of 25, the policy's cost stays within 2.5x of the
    # expert's and below 0.2x of the zero controller's at 25, 50 and 100
    # agents. Measured: policy/expert 1.12-1.66 and policy/zero 0.068-0.074;
    # at a learning rate of 5e-4 policy/expert read 21-36.
    cfg = FlockConfig()
    samples, _ = generate_dataset(8, cfg, seed=701)
    bundle, _ = train_policy(samples, seed=701, epochs=60)
    seeds = [801, 802, 803]
    for row in scalability_sweep(bundle, [25, 50, 100], trials=3, base_seed=801):
        sized = replace(cfg, n_agents=row["n_agents"])
        expert = np.mean(fl.expert_rollout_costs(sized, seeds))
        zero = np.mean([zero_controller_cost(sized, s) for s in seeds])
        assert row["mean_cost"] < 2.5 * expert, (row, expert)
        assert row["mean_cost"] < 0.2 * zero, (row, zero)


def test_imitation_problem_rejects_trajectories_of_another_shape(tiny_policy):
    cfg, samples, _, _ = tiny_policy
    other, _ = generate_dataset(1, replace(cfg, duration=0.3), seed=1)
    spec = build_policy_spec()
    with pytest.raises(ValueError, match=r"trajectory 1 has actions of shape "
                                         r"\(30, 8, 2\), trajectory 0 \(50, 8, 2\)"):
        ImitationProblem(spec, init_state(spec, np.random.default_rng(0)),
                         [samples[0], other[0]], cfg.u_max)


# ---------------------------------------------------------------------------
# The batch worker's process pool
# ---------------------------------------------------------------------------

class WorkerLog:
    """Makes ``os.sched_getaffinity`` report ``cpus`` CPUs (2 until a test
    sets it) and records a weak reference to every ``ProcessPoolExecutor``
    started, which leaves the executor's lifetime alone."""

    def __init__(self, monkeypatch):
        self.cpus = 2
        self.started = []
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(self.cpus)))
        start = ProcessPoolExecutor.__init__

        def record(executor, *args, **kwargs):
            start(executor, *args, **kwargs)
            self.started.append(weakref.ref(executor))

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", record)

    def assert_all_joined(self):
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1


@pytest.fixture
def worker_log(monkeypatch):
    return WorkerLog(monkeypatch)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_the_worker(action):
    """A stand-in for ``forward_batch`` that runs ``action`` in any process
    but this one, and ``forward_batch`` in this one."""
    parent = os.getpid()

    def forward(*args):
        if os.getpid() != parent:
            action()
        return forward_batch(*args)

    return forward


@pytest.mark.parametrize("n_traj", [1, 5, 6, 21])
def test_training_on_two_cpus_equals_one_cpu_bitwise(worker_log, n_traj):
    # the worker takes the second half of each batch of at least two
    # trajectories: 2 of 5, 3 of 6, 10 of the first 20 of 21 (whose second
    # batch of one runs here alone); a batch of one starts no pool
    samples, _ = generate_dataset(n_traj, SMALL, seed=50)
    runs = {}
    for cpus in (1, 2):
        worker_log.cpus = cpus
        with deadline(60):
            runs[cpus] = train_policy(samples, seed=3, epochs=3)
    assert len(worker_log.started) == (n_traj >= 2)
    (one, one_history), (two, two_history) = runs[1], runs[2]
    assert len(one_history) == 3 * -(-n_traj // fl.POLICY_BATCH_TRAJ)
    assert two_history == one_history
    for (name, a), (_, b) in zip(iter_params(one.state), iter_params(two.state)):
        assert a.tobytes() == b.tobytes(), name
    worker_log.assert_all_joined()


@pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
def test_batch_loss_with_a_worker_equals_the_serial_per_block_oracle_bitwise(
        blocked_problem, nonlinearity):
    # this process runs trajectory 2's blocks, the worker those of 0 and 1,
    # each with a short last block
    samples, make = blocked_problem
    problem = make(nonlinearity)
    indices = np.array([2, 0, 1])
    want_value, want = per_block_batch_loss(problem, samples, indices)
    with deadline(60), ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork"),
            initializer=fl._start_worker, initargs=(problem,)) as problem.worker:
        for _ in range(2):
            value, got = problem.batch_loss(indices)
            assert value == want_value
            for (name, g), w in zip(iter_params(got), want):
                assert g.tobytes() == w.tobytes(), name
    assert multiprocessing.active_children() == []


def test_no_worker_is_forked_beside_another_thread(worker_log):
    samples, _ = generate_dataset(4, SMALL, seed=50)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        train_policy(samples, seed=3, epochs=1)
    finally:
        stop.set()
        thread.join()
    assert worker_log.started == []
    with deadline(60):
        train_policy(samples, seed=3, epochs=1)
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_a_non_finite_gradient_leaves_no_worker_behind(worker_log):
    samples, _ = generate_dataset(4, SMALL, seed=50)
    samples[3] = replace(samples[3], actions=np.full_like(samples[3].actions, np.nan))
    with deadline(60), pytest.raises(TrainingError, match="non-finite gradient"):
        train_policy(samples, seed=3, epochs=2)
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_training_frees_its_problem_without_a_collection(worker_log,
                                                         monkeypatch):
    # the pool holds the problem in its initargs and the problem the pool:
    # a cycle left in place kept each call's 19 MB stack alive until a full
    # collection, and peak RSS grew by that much per call
    problems = []
    init = ImitationProblem.__init__

    def record(problem, *args):
        init(problem, *args)
        problems.append(weakref.ref(problem))

    monkeypatch.setattr(ImitationProblem, "__init__", record)
    samples, _ = generate_dataset(4, SMALL, seed=50)
    bad = samples[:3] + [replace(samples[3], actions=np.full_like(
        samples[3].actions, np.nan))]
    gc.disable()
    try:
        with deadline(60):
            train_policy(samples, seed=3, epochs=1)
            try:
                train_policy(bad, seed=3, epochs=1)
            except TrainingError:
                pass
    finally:
        gc.enable()
    assert len(worker_log.started) == 2
    assert [ref() for ref in problems] == [None, None]
    worker_log.assert_all_joined()


def test_an_exception_in_the_worker_is_raised_naming_the_worker(worker_log,
                                                                monkeypatch):
    samples, _ = generate_dataset(4, SMALL, seed=50)

    def fail():
        raise RuntimeError("no block here")

    monkeypatch.setattr(fl, "forward_batch", in_the_worker(fail))
    with deadline(60), pytest.raises(
            TrainingError, match=r"training worker failed: "
                                 r"RuntimeError: no block here") as caught:
        train_policy(samples, seed=3, epochs=2)
    assert isinstance(caught.value.__cause__, RuntimeError)
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_a_worker_that_dies_is_raised_naming_it_without_a_hang(worker_log,
                                                               monkeypatch):
    samples, _ = generate_dataset(4, SMALL, seed=50)
    monkeypatch.setattr(fl, "forward_batch", in_the_worker(lambda: os._exit(7)))
    with deadline(60), pytest.raises(TrainingError,
                                     match=r"training worker died") as caught:
        train_policy(samples, seed=3, epochs=2)
    assert isinstance(caught.value.__cause__, BrokenProcessPool)
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_rollout_deterministic(tiny_policy):
    cfg, _, bundle, _ = tiny_policy
    (_, v1), c1, d1 = rollout_policy(bundle, cfg.n_agents, seed=77)
    (_, v2), c2, d2 = rollout_policy(bundle, cfg.n_agents, seed=77)
    assert np.array_equal(v1, v2) and c1 == c2 and d1 == d2


def test_rollout_runs_at_other_team_sizes(tiny_policy):
    _, _, bundle, _ = tiny_policy
    _, cost, diverged = rollout_policy(bundle, 12, seed=5)
    assert np.isfinite(cost) or diverged


def test_rollout_runs_for_the_bundle_duration(tiny_policy):
    cfg, _, bundle, _ = tiny_policy
    (_, v_default), _, _ = rollout_policy(bundle, cfg.n_agents, seed=4)
    assert v_default.shape[0] == bundle.config.n_steps + 1


def test_scalability_sweep_shape(tiny_policy):
    _, _, bundle, _ = tiny_policy
    rows = scalability_sweep(bundle, [8, 10], trials=2, base_seed=50)
    assert [r["n_agents"] for r in rows] == [8, 10]
    assert all(np.isfinite(r["mean_cost"]) or r["mean_cost"] == np.inf
               for r in rows)


def test_scalability_sweep_equals_serial_rollouts_around_diverging_trials(
        tiny_policy, crafted_spawns):
    cfg, _, bundle, _ = tiny_policy
    seeds = [60, 61, 62, 63]
    crafted_spawns(cfg, {61: coincide, 62: run_away})
    with np.errstate(over="ignore", invalid="ignore"):   # inf costs
        want = [serial_rollout(bundle, cfg.n_agents, s) for s in seeds]
        got = fl._rollouts(bundle, cfg.n_agents, seeds)
        rows = scalability_sweep(bundle, [cfg.n_agents], trials=4, base_seed=60)
        costs = np.array([cost for _, cost, _ in want])
        want_rows = [{"n_agents": cfg.n_agents, "mean_cost": float(np.mean(costs)),
                      "std_cost": float(np.std(costs))}]
    assert [d for _, _, d in want] == [d for _, _, d in got] == [False, True,
                                                                 True, False]
    # the runaway team moved before it diverged; rows after that stay zero
    (positions, _), _, _ = want[2]
    assert np.any(positions[1] != 0.0) and not np.any(positions[-1])
    for (want_arrays, want_cost, _), (arrays, cost, _) in zip(want, got):
        assert cost == want_cost
        for a, b in zip(arrays, want_arrays):
            assert a.tobytes() == b.tobytes()
    assert repr(rows) == repr(want_rows)


def test_rollouts_end_when_every_team_diverged(tiny_policy, crafted_spawns):
    cfg, _, bundle, _ = tiny_policy
    crafted_spawns(cfg, {70: coincide, 71: coincide})
    runs = fl._rollouts(bundle, cfg.n_agents, [70, 71])
    assert [(cost, diverged) for _, cost, diverged in runs] == [(np.inf, True)] * 2
    for (positions, velocities), _, _ in runs:
        assert not np.any(positions[1:]) and not np.any(velocities[1:])


@pytest.mark.parametrize("sizes,message", [
    ([], r"number of sizes must be an integer >= 1, got 0"),
    ([8, 1], r"sizes\[1\] must be an integer >= 2, got 1"),
    ([8, 10, 2.5], r"sizes\[2\] must be an integer >= 2, got 2.5"),
    ([True, 8], r"sizes\[0\] must be an integer >= 2, got True"),
], ids=["empty", "one agent", "fraction", "bool"])
def test_scalability_sweep_checks_every_size_before_any_rollout(
        tiny_policy, worker_log, monkeypatch, sizes, message):
    # an empty list returned no rows, and [8, 1] ran the N=8 rollouts before
    # FlockConfig rejected n_agents = 1
    calls = []
    monkeypatch.setattr(fl, "_rollouts", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        scalability_sweep(tiny_policy[2], sizes, trials=2, base_seed=50)
    assert calls == [] and worker_log.started == []


def sweep_on_one_and_two_cpus(worker_log, *args, **kwargs) -> dict:
    """The rows of ``scalability_sweep(*args, **kwargs)`` on 1 and 2 CPUs."""
    rows = {}
    for cpus in (1, 2):
        worker_log.cpus = cpus
        with deadline(60):
            rows[cpus] = scalability_sweep(*args, **kwargs)
    return rows


# With sizes [8, 10, 12] the worker runs 8 and 10 (64 + 100 < 144 after the
# largest size went to this process), and this process runs 12.
@pytest.mark.parametrize("sizes,duration", [
    ([8, 10, 12], None),
    ([10, 8, 10], None),
    ([25, 31, 37, 44, 50], 0.1),
], ids=["three sizes", "a duplicate size", "the CLI default"])
def test_scalability_sweep_on_two_cpus_equals_one_cpu_bitwise(
        tiny_policy, worker_log, sizes, duration):
    bundle = tiny_policy[2]
    if duration is not None:
        bundle = replace(bundle, config=replace(bundle.config, duration=duration))
    rows = sweep_on_one_and_two_cpus(worker_log, bundle, sizes, trials=2,
                                     base_seed=50)
    assert [row["n_agents"] for row in rows[2]] == sizes
    assert repr(rows[2]) == repr(rows[1])
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_scalability_sweep_on_two_cpus_equals_one_cpu_around_a_diverging_team(
        tiny_policy, worker_log, crafted_spawns):
    cfg, _, bundle, _ = tiny_policy
    crafted_spawns(cfg, {61: coincide, 62: run_away})   # two N=8 teams
    with np.errstate(over="ignore", invalid="ignore"):
        rows = sweep_on_one_and_two_cpus(worker_log, bundle, [8, 10, 12],
                                         trials=4, base_seed=60)
    assert rows[1][0]["mean_cost"] == np.inf
    assert all(np.isfinite(row["mean_cost"]) for row in rows[1][1:])
    assert repr(rows[2]) == repr(rows[1])
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


@pytest.mark.parametrize("sizes,aborting", [
    ([8, 10, 12], {10}),
    ([8, 10, 12], {12}),
    ([8, 10, 12], {8, 12}),
    ([12, 10, 8], {8, 12}),
], ids=["a worker size", "this process's size", "both, the worker's first",
        "both, this process's first"])
def test_a_spawn_abort_in_a_sweep_is_raised_as_on_one_cpu(
        tiny_policy, worker_log, monkeypatch, sizes, aborting):
    # the worker runs 8 and 10 and this process 12, in either order; the
    # first failing size in sizes order wins, whichever process ran it
    original = fl.spawn_state

    def spawn(config, rng):
        if config.n_agents in aborting:
            raise ExpertAbort(f"no team of {config.n_agents}")
        return original(config, rng)

    monkeypatch.setattr(fl, "spawn_state", spawn)
    errors = {}
    for cpus in (1, 2):
        worker_log.cpus = cpus
        with deadline(60), pytest.raises(ExpertAbort) as caught:
            scalability_sweep(tiny_policy[2], sizes, trials=2, base_seed=50)
        errors[cpus] = (type(caught.value), str(caught.value))
    first = next(size for size in sizes if size in aborting)
    assert errors[1] == errors[2] == (ExpertAbort, f"no team of {first}")
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


@pytest.mark.parametrize("sizes,aborting,stalling", [
    ([12, 8, 10], 12, 8),
    ([8, 10, 12], 8, 10),
], ids=["this process's size", "the worker's first size"])
def test_a_spawn_abort_in_a_sweep_does_not_wait_for_the_workers_later_sizes(
        tiny_policy, worker_log, monkeypatch, sizes, aborting, stalling):
    # the worker runs 8 and 10 and this process 12; a later worker size
    # that stalls for 20 s a trial is stopped, not waited for, once the
    # sweep's error is known
    original, parent = fl.spawn_state, os.getpid()

    def spawn(config, rng):
        if config.n_agents == aborting:
            raise ExpertAbort(f"no team of {aborting}")
        if config.n_agents == stalling and os.getpid() != parent:
            time.sleep(20)
        return original(config, rng)

    monkeypatch.setattr(fl, "spawn_state", spawn)
    worker_log.cpus = 2
    start = time.monotonic()
    with deadline(60), pytest.raises(ExpertAbort, match=f"^no team of {aborting}$"):
        scalability_sweep(tiny_policy[2], sizes, trials=2, base_seed=50)
    assert time.monotonic() - start < 10
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_a_sweep_worker_that_dies_is_raised_naming_the_sweep_without_a_hang(
        tiny_policy, worker_log, monkeypatch):
    monkeypatch.setattr(fl, "forward_batch", in_the_worker(lambda: os._exit(7)))
    with deadline(60), pytest.raises(
            RuntimeError, match=r"^scalability sweep worker died") as caught:
        scalability_sweep(tiny_policy[2], [8, 10, 12], trials=2, base_seed=50)
    assert isinstance(caught.value.__cause__, BrokenProcessPool)
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_a_single_size_sweep_starts_no_executor(tiny_policy, worker_log):
    rows = scalability_sweep(tiny_policy[2], [10], trials=2, base_seed=50)
    assert [row["n_agents"] for row in rows] == [10]
    assert worker_log.started == []
    worker_log.assert_all_joined()


def test_flocking_sweep_writes_the_same_csv_on_one_and_two_cpus(
        tiny_policy, worker_log, tmp_path):
    checkpoint = tmp_path / "policy.npz"
    save_policy(checkpoint, tiny_policy[2], extra={"model": "gcnn"})
    written = []
    for cpus in (1, 2):
        worker_log.cpus = cpus
        out = tmp_path / f"cpus{cpus}"
        with deadline(60):
            assert main(["flocking", "sweep", "--checkpoint", str(checkpoint),
                         "--sizes", "8,10,12", "--trials", "3",
                         "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]
    assert len(worker_log.started) == 1
    worker_log.assert_all_joined()


def test_policy_checkpoint_roundtrip(tiny_policy, tmp_path):
    cfg, _, bundle, _ = tiny_policy
    path = tmp_path / "policy.json"
    save_policy(path, bundle, extra={"seed": 0})
    loaded = load_policy(path)
    assert loaded.action_scale == bundle.action_scale
    assert loaded.config == bundle.config
    _, c1, _ = rollout_policy(bundle, cfg.n_agents, seed=3)
    _, c2, _ = rollout_policy(loaded, cfg.n_agents, seed=3)
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_load_policy_validates_the_state(tiny_policy, tmp_path):
    _, _, bundle, _ = tiny_policy
    taps = bundle.state.layers[0].taps.copy()
    taps[0, 0, 0] = np.nan
    bad = ModelState([FirLayerParams(taps)], bundle.state.readout_weight,
                     bundle.state.readout_bias)
    path = tmp_path / "policy.npz"
    save_policy(path, replace(bundle, state=bad))
    with pytest.raises(ModelError, match=r"layers\.0\.taps has non-finite entries"):
        load_policy(path)


# Relabelled runs sum the same terms in another order, so they drift apart
# by rounding only: over 2 s of 25 agents, 1.3e-12 on positions and
# velocities (metres, m/s), 1.9e-12 on saturated actions (up to 10 m/s^2)
# and 1.6e-14 relative on the cost. A run that is not relabelled with its
# agents is off by O(1).
RELABEL_ATOL = 1e-9
RELABEL_COST_RTOL = 1e-12


@pytest.mark.parametrize("n_agents, duration", [(8, None), (25, 2.0)])
def test_relabelling_the_agents_at_spawn_relabels_the_policy_rollouts(
        tiny_policy, relabelled_spawns, n_agents, duration):
    _, _, bundle, _ = tiny_policy
    if duration is not None:
        bundle = replace(bundle, config=replace(bundle.config, duration=duration))
    seeds = [90, 91, 92]
    runs = fl._rollouts(bundle, n_agents, seeds)
    perm = np.random.default_rng(3).permutation(n_agents)
    relabelled_spawns(perm)
    relabelled = fl._rollouts(bundle, n_agents, seeds)
    for ((r, v), cost, diverged), ((r_p, v_p), cost_p, diverged_p) in zip(
            runs, relabelled):
        assert not diverged and not diverged_p
        assert np.max(np.abs(r_p - r[:, perm])) <= RELABEL_ATOL
        assert np.max(np.abs(v_p - v[:, perm])) <= RELABEL_ATOL
        assert cost_p == pytest.approx(cost, rel=RELABEL_COST_RTOL, abs=0.0)


def test_relabelling_the_agents_at_spawn_relabels_the_expert_runs(
        relabelled_spawns):
    cfg = FlockConfig(n_agents=25, duration=2.0)
    seeds = [40, 41, 42]
    runs = fl._run_experts(cfg, seeds)
    perm = np.random.default_rng(4).permutation(cfg.n_agents)
    relabelled_spawns(perm)
    relabelled = fl._run_experts(cfg, seeds)
    for run, run_p in zip(runs, relabelled):
        assert not isinstance(run, ExpertAbort) and not isinstance(run_p, ExpertAbort)
        # positions, velocities and actions, each (time, agent, 2)
        for got, want in zip(run_p, run):
            assert np.max(np.abs(got - want[:, perm])) <= RELABEL_ATOL


def test_pipeline_permutation_invariance(tiny_policy):
    # relabeling agents permutes features, shifts, and policy actions
    cfg, samples, bundle, _ = tiny_policy
    sample = samples[0]
    rng = np.random.default_rng(8)
    perm = rng.permutation(cfg.n_agents)
    t = 3
    state = SwarmState(sample.positions[t], sample.velocities[t])
    state_p = SwarmState(sample.positions[t][perm], sample.velocities[t][perm])
    feats = agent_features(state, cfg.comm_radius).values
    feats_p = agent_features(state_p, cfg.comm_radius).values
    assert np.allclose(feats_p, feats[perm], atol=1e-10)
    u = expert_action(state, cfg.comm_radius)
    u_p = expert_action(state_p, cfg.comm_radius)
    assert np.allclose(u_p, u[perm], atol=1e-8)

    # policy actions permute accordingly (fresh runners, one step)
    _, shift = comm_graph(state, cfg.comm_radius)
    act = _PolicyRunner(bundle, cfg.n_agents).act(shift.dense(), feats)
    _, shift_p = comm_graph(state_p, cfg.comm_radius)
    act_p = _PolicyRunner(bundle, cfg.n_agents).act(shift_p.dense(), feats_p)
    assert np.allclose(act_p, act[perm], atol=1e-8)
