"""The flocking geometry kernels (repulsion slope, degree-normalized shift,
raw features) against the all-entry kernels they replaced, kept in
``conftest.py``: bit for bit on every expert step, on rollout teams, on a
4-D batch of whole trajectories and on hand-made edge cases."""

import warnings

import numpy as np
import pytest

from gspnn import flocking as fl
from gspnn.flocking import FlockConfig
from gspnn.neural import init_state

from conftest import (
    features_raw_oracle,
    normalized_shift_oracle,
    potential_slope_oracle,
)

RADIUS = FlockConfig().comm_radius


def same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_kernels(positions, velocities, radius=RADIUS):
    """All three kernels on (..., N, 2) states equal their oracles bit for
    bit; returns the number of entries in the repulsion taper's band."""
    dist = fl._pairwise(positions)
    mask = fl._adjacency_mask(dist, radius)
    assert same(fl._potential_slope_over_d(dist, radius),
                potential_slope_oracle(dist, radius))
    assert same(fl._normalized_shift_dense(mask), normalized_shift_oracle(mask))
    assert same(fl._features_raw(positions, velocities, mask, dist),
                features_raw_oracle(positions, velocities, mask, dist))
    return int(np.count_nonzero((dist >= 0.9 * radius) & (dist < radius)))


@pytest.fixture(scope="module")
def expert_runs():
    """(3, T+1, 25, 2) positions and velocities of three expert runs."""
    samples, _ = fl.generate_dataset(3, FlockConfig(), seed=17)
    return (np.stack([s.positions for s in samples]),
            np.stack([s.velocities for s in samples]))


def test_kernels_equal_their_oracles_on_every_expert_step(expert_runs):
    positions, velocities = expert_runs
    assert positions.shape[1:] == (201, 25, 2)
    band = sum(check_kernels(positions[:, t], velocities[:, t])
               for t in range(positions.shape[1]))
    assert band > 0


def test_kernels_equal_their_oracles_on_a_4d_batch(expert_runs):
    positions, velocities = expert_runs
    assert check_kernels(positions[:, :-1], velocities[:, :-1]) > 0


@pytest.mark.parametrize("n_agents", [50, 100])
def test_kernels_equal_their_oracles_on_rollout_teams(n_agents):
    cfg = FlockConfig(n_agents=8, duration=0.2)
    spec = fl.build_policy_spec()
    bundle = fl.PolicyBundle(spec, init_state(spec, np.random.default_rng(0)),
                             cfg.u_max, cfg)
    runs = [fl.rollout_policy(bundle, n_agents, seed) for seed in (1, 2)]
    assert not any(diverged for _, _, diverged in runs)
    positions = np.stack([r for (r, _), _, _ in runs])
    velocities = np.stack([v for (_, v), _, _ in runs])
    band = sum(check_kernels(positions[:, t], velocities[:, t])
               for t in range(positions.shape[1]))
    assert band > 0


def test_repulsion_is_zero_at_the_radius_and_tapered_at_its_start():
    lo = 0.9 * RADIUS
    positions = np.array([[0.0, 0.0], [RADIUS, 0.0], [0.0, lo]])
    dist = fl._pairwise(positions)
    assert dist[0, 1] == RADIUS and dist[0, 2] == lo
    check_kernels(positions, np.ones((3, 2)))
    slope = fl._potential_slope_over_d(dist, RADIUS)
    assert slope[0, 1] == slope[1, 0] == 0.0
    # at d = 0.9 R the taper (w = 1, w' = 0) gives (2 / d^3) / d, which
    # differs in its last bit from the core's 2 / d^4 at this radius
    d = dist[0, 2:3]
    assert slope[0, 2] == ((2.0 / d ** 3) / d)[0] != (2.0 / d ** 4)[0]
    assert fl._adjacency_mask(dist, RADIUS)[0, 1]


def test_isolated_agent_has_a_zero_shift_row_and_no_repulsion():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    velocities = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    check_kernels(positions, velocities)
    dist = fl._pairwise(positions)
    mask = fl._adjacency_mask(dist, RADIUS)
    shift = fl._normalized_shift_dense(mask)
    assert np.all(shift[2] == 0.0) and np.all(shift[:, 2] == 0.0)
    assert np.all(fl._potential_slope_over_d(dist, RADIUS)[2] == 0.0)
    assert np.all(fl._features_raw(positions, velocities, mask, dist)[2] == 0.0)


@pytest.mark.parametrize("gap", [0.5, 1.85, RADIUS, 3.0])
def test_two_agents(gap):
    check_kernels(np.array([[0.0, 0.0], [gap, 0.0]]),
                  np.array([[1.0, -1.0], [0.0, 2.0]]))


def test_far_pair_whose_fourth_power_overflows_gets_zero_and_no_warning():
    positions = np.array([[0.0, 0.0], [0.5, 0.0], [1e80, 0.0]])
    velocities = np.zeros((3, 2))
    dist = fl._pairwise(positions)
    mask = fl._adjacency_mask(dist, RADIUS)
    with np.errstate(over="ignore"):
        assert np.isinf(dist[0, 2] ** 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            slope = fl._potential_slope_over_d(dist, RADIUS)
            fl._normalized_shift_dense(mask)
            fl._features_raw(positions, velocities, mask, dist)
    with np.errstate(over="ignore"):     # the features oracle's far pair
        check_kernels(positions, velocities)
    assert np.all(slope[2] == 0.0) and np.all(slope[:, 2] == 0.0)
    assert slope[0, 1] > 0.0
