"""Flocking: multi-agent consensus with a learned decentralized controller.

A team of point agents with double-integrator dynamics must agree on a
velocity while avoiding collisions. A centralized expert (velocity consensus
plus a short-range repulsive potential) generates training trajectories; a
time-varying graph network is trained by imitation to reproduce its actions
from one-hop-computable features, then rolled out closed loop where each
agent acts only on delayed neighborhood information.

The communication graph links agents within ``comm_radius`` and changes
every step; its shift operator is the degree-normalized adjacency with zero
rows for agents that drift out of range, keeping the spectrum in [-1, 1]
uniformly in team size (what lets one trained controller run at any N).
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .graphs import check_count, check_member, mask_connected
from .neural import (
    LayerSpec,
    ModelSpec,
    ModelState,
    ReadoutSpec,
    forward_batch,
    init_state,
    iter_params,
    load_checkpoint,
    model_backward,
    read_archive,
    save_checkpoint,
    write_archive,
)
from .optim import (LossSpec, Problem, TrainConfig, TrainingError, loss_eval,
                    train)

DATASET_FORMAT_VERSION = 2
DATASET_FILE = "dataset.npz"

# architecture: one delayed filter bank into a per-node readout
POLICY_FEATURES = 32
POLICY_ORDER = 3
POLICY_EPOCHS = 40
POLICY_BATCH_TRAJ = 20
POLICY_LEARNING_RATE = 5e-3

# Imitation training runs a trajectory in blocks of whole time steps whose
# (rows, F) contraction, tanh gradient and readout input gradient and whose
# (rows, (K+1)*6) stack rows, float64 at N rows per step, take at most this
# many bytes, so a block's forward and backward stay in a 2 MB L2 cache.
_BLOCK_BYTES = 1 << 20


class ExpertAbort(RuntimeError):
    """Agents collided (or coincide) and the expert controller gave up."""


@dataclass(frozen=True)
class FlockConfig:
    """The swarm and its simulation. ``n_agents`` passes ``graphs.check_count``,
    the one integer rule, with minimum 2; each float field must be a finite
    number > 0 (not a bool), and ``duration`` at least ``dt``."""

    n_agents: int = 25
    duration: float = 2.0
    dt: float = 0.01
    comm_radius: float = 2.0
    u_max: float = 10.0
    disc_radius_scale: float = 0.6   # initial disc radius = scale * sqrt(N)
    min_spawn_distance: float = 0.1
    speed_range: float = 3.0         # initial velocities uniform in +-range

    def __post_init__(self):
        check_count("n_agents", self.n_agents, 2, ValueError)
        for name in [f.name for f in fields(self) if f.type == "float"]:
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, not the bool {value!r}")
            if not (isinstance(value, (int, float)) and np.isfinite(value)
                    and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.duration < self.dt:
            raise ValueError(f"duration must be >= dt = {self.dt}, got "
                             f"{self.duration}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass
class SwarmState:
    positions: np.ndarray    # (N, 2) meters
    velocities: np.ndarray   # (N, 2) m/s


class _Lockstep:
    """The members of a batch of trajectories stepped together on a leading
    axis. ``live`` holds the indices of the members still running, in
    order; a member whose step would abort leaves the batch, and ``aborts``
    keeps its ``ExpertAbort``."""

    def __init__(self, size: int):
        self.live = np.arange(size)
        self.aborts: dict[int, ExpertAbort] = {}

    def leave(self, member: int, abort: ExpertAbort) -> None:
        self.aborts[member] = abort
        self.live = self.live[self.live != member]

    def drop(self, bad: np.ndarray, why: str, *arrays):
        """Remove the live members flagged in ``bad`` (one flag per live
        member) for the reason ``why``; returns ``arrays``, whose leading
        axis runs over the live members, for the members that stay."""
        if not np.any(bad):
            return arrays
        for member in self.live[bad]:
            self.leave(int(member), ExpertAbort(why))
        return tuple(a[~bad] for a in arrays)


def _finite(x: np.ndarray) -> np.ndarray:
    """Per batch member of (..., N, 2) arrays: are all entries finite?"""
    return np.all(np.isfinite(x), axis=(-2, -1))


def _integrate(members: _Lockstep, r: np.ndarray, v: np.ndarray,
               actions: np.ndarray, u_max: float, dt: float, *carried):
    """Saturated double-integrator step of the live members' (B, N, 2)
    states. A member whose action or next state is not finite leaves
    ``members``; returns the others' (r, v, u, *carried)."""
    r, v, actions, *carried = members.drop(~_finite(actions), "non-finite actions",
                                           r, v, actions, *carried)
    u = np.clip(actions, -u_max, u_max)
    r_next = r + v * dt + 0.5 * u * dt * dt
    v_next = v + u * dt
    return members.drop(~(_finite(r_next) & _finite(v_next)), "non-finite state",
                        r_next, v_next, u, *carried)


# ---------------------------------------------------------------------------
# Geometry, communication graph, features. Every helper takes leading batch
# axes (time steps or trajectories) and computes each step as a one-step
# call would.
# ---------------------------------------------------------------------------

def _pairwise(positions: np.ndarray) -> np.ndarray:
    """(..., N, N) distances |r_i - r_j| of (..., N, 2) positions, the two
    coordinates summed explicitly (a length-2 ``np.sum`` axis is slow)."""
    x, y = positions[..., 0], positions[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _adjacency_mask(dist: np.ndarray, radius: float) -> np.ndarray:
    mask = dist <= radius
    idx = np.arange(mask.shape[-1])
    mask[..., idx, idx] = False
    return mask


def _normalized_shift_dense(mask: np.ndarray) -> np.ndarray:
    """D^-1/2 A D^-1/2 of (..., N, N) symmetric masks, zero rows for
    isolated agents: the outer product of the inverse square-root degrees
    over every entry, then zeroed off the mask in place."""
    deg = mask.sum(axis=-1).astype(float)
    inv_sqrt = np.zeros_like(deg)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    shift = inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    shift *= mask
    return shift


def _features_raw(positions: np.ndarray, velocities: np.ndarray,
                  mask: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per-agent 6-vector from one-hop quantities only.

    Blocks: neighborhood velocity disagreement, and position offsets scaled
    by 1/d^4 and 1/d^2 (the collision-potential directions at two ranges).
    Leading axes of the (..., N, .) inputs are batch axes, so a whole
    trajectory's (T, N, 6) features come from one call; every sum and
    product is taken per step, so each step's features equal a one-step call.

    The powers and divisions run on the neighbor entries of ``mask`` only,
    gathered once; both weight matrices are those values scattered into one
    zeroed (..., N, N) array, and the degrees count those entries per row.
    """
    # The returned array is allocated before the temporaries: placed above
    # them, the outputs of a dataset's trajectories would pin their freed
    # heap memory (about 10 MB more peak RSS in the training that follows).
    feats = np.empty(positions.shape[:-1] + (6,))
    links = np.flatnonzero(mask)
    d = np.take(dist, links)
    if np.any(d < 1e-6):
        raise ExpertAbort("zero-distance neighbor")
    n = mask.shape[-1]
    deg = np.bincount(links // n, minlength=mask.size // n)
    deg = deg.reshape(mask.shape[:-1]).astype(float)
    vel_sum = deg[..., None] * velocities - mask @ velocities
    feats[..., 0:2] = vel_sum
    w = np.zeros(dist.shape)
    for col, power in ((2, 4.0), (4, 2.0)):
        w.reshape(-1)[links] = 1.0 / d ** power
        feats[..., col:col + 2] = (w.sum(axis=-1)[..., None] * positions
                                   - w @ positions)
    return feats


def _touching(dist: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per batch member: do two agents linked in ``mask`` sit within 1e-6?"""
    return np.any((dist < 1e-6) & mask, axis=(-2, -1))


# ---------------------------------------------------------------------------
# Expert controller: global velocity consensus + repulsive potential
# ---------------------------------------------------------------------------

def _potential_slope_over_d(dist: np.ndarray, radius: float) -> np.ndarray:
    """-U'(d)/d for the repulsion U(d) = d^-2 cosine-tapered to zero on
    [0.9 R, R]; entries beyond R (and the diagonal) are zero.

    The core value 2 / d^4 is evaluated on every entry, then zeroed outside
    d < 0.9 R (a far pair's d^4 may overflow, and 2 / inf is 0); the taper
    is evaluated on the gathered band entries only, those below R that are
    not core."""
    lo = 0.9 * radius
    dist = np.ascontiguousarray(dist)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.power(dist, 4.0)
        np.divide(2.0, out, out=out)
        core = dist < lo
        out *= core
        idx = np.arange(out.shape[-1])
        out[..., idx, idx] = 0.0
        band = np.flatnonzero((dist < radius) & ~core)
        d = np.take(dist, band)
        phase = np.pi * (d - lo) / (radius - lo)
        w = 0.5 * (1.0 + np.cos(phase))
        dw = -0.5 * np.pi / (radius - lo) * np.sin(phase)
        # U = d^-2 w(d): -U'/d = (2 w / d^3 - dw / d^2) / d
        out.reshape(-1)[band] = (2.0 * w / d ** 3 - dw / d ** 2) / d
    return out


def _expert_step(members: _Lockstep, r: np.ndarray, v: np.ndarray,
                 radius: float):
    """Centralized expert actions of the live members' (B, N, 2) states:
    full-team velocity consensus plus collision avoidance. A member whose
    agents (numerically) coincide leaves ``members``; returns the others'
    (r, v, actions)."""
    n = r.shape[-2]
    dist = _pairwise(r)
    r, v, dist = members.drop(_touching(dist, ~np.eye(n, dtype=bool)),
                              "coincident agents", r, v, dist)
    consensus = -(n * v - v.sum(axis=-2, keepdims=True))
    w = _potential_slope_over_d(dist, radius)
    return r, v, consensus + (w.sum(axis=-1)[..., None] * r - w @ r)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectorySample:
    positions: np.ndarray    # (T+1, N, 2)
    velocities: np.ndarray   # (T+1, N, 2)
    actions: np.ndarray      # (T, N, 2), executed (saturated) expert actions
    features: np.ndarray     # (T, N, 6) raw features at each acted step
    seed: int
    config: FlockConfig

    @property
    def n_steps(self) -> int:
        return self.actions.shape[0]

    @property
    def n_agents(self) -> int:
        return self.positions.shape[1]

    def delayed_stacks(self, order: int) -> np.ndarray:
        """Chained-shift feature stacks: a C-contiguous (T, N, order+1, 6)
        array whose entry [t, :, k] is S(t) ... S(t-k+1) x(t-k), zero where
        the history is too short.

        Each step is one batch row of the (B, N, K+1, G) stack that the
        time-varying policy reads as its input ``x`` in
        ``neural.forward_batch`` (with ``s`` None).
        """
        zs = np.zeros((1, self.n_steps, self.n_agents, order + 1, 6))
        _delayed_chains([self], zs)
        return zs[0]


def _delayed_chains(samples: list[TrajectorySample], out: np.ndarray) -> None:
    """Fill ``out``, a zeroed (n_traj, T, N, K+1, 6) array, with each
    trajectory's delayed stacks (``TrajectorySample.delayed_stacks``).

    The trajectories' chains advance together: step t builds one
    (n_traj, N, N) shift from every trajectory's step-t positions, so no
    (n_traj, T, N, N) array of shifts is ever held. The samples share one
    config.
    """
    radius = samples[0].config.comm_radius
    positions = np.stack([s.positions for s in samples])
    for i, sample in enumerate(samples):
        out[i, :, :, 0] = sample.features
    for t in range(1, out.shape[1]):
        shift = _normalized_shift_dense(
            _adjacency_mask(_pairwise(positions[:, t]), radius))
        _advance_delayed(shift, out[:, t - 1], out[:, t])


def _advance_delayed(shift_dense: np.ndarray, prev: np.ndarray,
                     out: np.ndarray) -> None:
    """One step of the delayed chain on (..., N, K+1, G) stacks with
    (..., N, N) shifts: out[..., k, :] = S(t) prev[..., k-1, :] for k >= 1.
    ``out`` may be ``prev``."""
    *lead, n, k1, g = prev.shape
    shifted = shift_dense @ prev[..., :k1 - 1, :].reshape(*lead, n, (k1 - 1) * g)
    out[..., 1:, :] = shifted.reshape(*lead, n, k1 - 1, g)


def spawn_state(config: FlockConfig, rng: np.random.Generator) -> SwarmState:
    """Positions uniform in a density-constant disc with a minimum spacing
    and an initially connected communication graph; velocities uniform in
    the configured square."""
    n = config.n_agents
    radius = config.disc_radius_scale * np.sqrt(n)
    for _ in range(200):
        positions = np.zeros((n, 2))
        placed = True
        for i in range(n):
            for _ in range(1000):
                r = radius * np.sqrt(rng.uniform())
                theta = rng.uniform(0.0, 2.0 * np.pi)
                p = np.array([r * np.cos(theta), r * np.sin(theta)])
                if i == 0 or np.min(np.linalg.norm(positions[:i] - p, axis=1)) \
                        >= config.min_spawn_distance:
                    positions[i] = p
                    break
            else:
                placed = False
                break
        if not placed:
            continue
        dist = _pairwise(positions)
        if mask_connected(_adjacency_mask(dist, config.comm_radius)):
            break
    else:
        raise ExpertAbort("could not spawn a connected, spaced-out team")
    velocities = rng.uniform(-config.speed_range, config.speed_range,
                             size=(n, 2))
    return SwarmState(positions, velocities)


def run_expert_trajectory(config: FlockConfig, seed: int) -> TrajectorySample:
    (run,) = _run_experts(config, [seed])
    if isinstance(run, ExpertAbort):
        raise run
    return _expert_sample(config, seed, run)


def _run_experts(config: FlockConfig, seeds) -> list:
    """The expert from each seed's spawn, every run stepping together in
    one lockstep batch. Returns per seed its (positions, velocities,
    actions) arrays, shaped (T+1, N, 2), (T+1, N, 2) and (T, N, 2), or the
    ``ExpertAbort`` that ended its run."""
    n, t_steps = config.n_agents, config.n_steps
    members = _Lockstep(len(seeds))
    spawned = []
    for i, seed in enumerate(seeds):
        try:
            spawned.append(spawn_state(config, np.random.default_rng(seed)))
        except ExpertAbort as exc:
            members.leave(i, exc)
    r = np.array([s.positions for s in spawned]).reshape(-1, n, 2)
    v = np.array([s.velocities for s in spawned]).reshape(-1, n, 2)
    positions = np.zeros((len(seeds), t_steps + 1, n, 2))
    velocities = np.zeros((len(seeds), t_steps + 1, n, 2))
    actions = np.zeros((len(seeds), t_steps, n, 2))
    for t in range(t_steps):
        if not members.live.size:
            break
        positions[members.live, t] = r
        velocities[members.live, t] = v
        r, v, raw = _expert_step(members, r, v, config.comm_radius)
        r, v, u = _integrate(members, r, v, raw, config.u_max, config.dt)
        actions[members.live, t] = u
    positions[members.live, t_steps] = r
    velocities[members.live, t_steps] = v
    return [members.aborts[i] if i in members.aborts
            else (positions[i], velocities[i], actions[i])
            for i in range(len(seeds))]


def _expert_sample(config: FlockConfig, seed: int, run) -> TrajectorySample:
    positions, velocities, actions = run
    return TrajectorySample(positions, velocities, actions,
                            _trajectory_features(positions, velocities, config),
                            seed, config)


def _trajectory_features(positions: np.ndarray, velocities: np.ndarray,
                         config: FlockConfig) -> np.ndarray:
    """(T, N, 6) features of a trajectory's T acted steps, from one batched
    ``_features_raw`` call. Every acted step passed the all-pairs
    coincidence check of ``_expert_step``, which covers the neighbor check
    here."""
    dist = _pairwise(positions[:-1])
    mask = _adjacency_mask(dist, config.comm_radius)
    return _features_raw(positions[:-1], velocities[:-1], mask, dist)


def generate_dataset(n_traj: int, config: FlockConfig, seed: int):
    """Expert trajectories; aborted spawns/rollouts are resampled with the
    next seed and counted. Returns (samples, n_resampled).

    The seeds still needed run as one lockstep batch, then the next seeds
    replace the aborted ones as a further batch; the kept seeds, their
    order and the count are those of running the seeds one at a time.
    """
    samples = []
    n_resampled = 0
    next_seed = seed
    while len(samples) < n_traj:
        seeds = range(next_seed, next_seed + n_traj - len(samples))
        for s, run in zip(seeds, _run_experts(config, seeds)):
            if isinstance(run, ExpertAbort):
                n_resampled += 1
                if n_resampled > 50 * max(n_traj, 1):
                    raise run
            else:
                samples.append(_expert_sample(config, s, run))
        next_seed += len(seeds)
    return samples, n_resampled


def velocity_variation_cost(velocities: np.ndarray) -> float:
    """(1/N) sum_t sum_i ||v_i(t) - mean_j v_j(t)||^2 over the acted steps."""
    v = velocities[:-1]
    centered = v - v.mean(axis=1, keepdims=True)
    return float(np.sum(centered * centered) / v.shape[1])


# ---------------------------------------------------------------------------
# Dataset persistence: one ``write_archive`` archive, ``dataset.npz`` in the
# given directory. Its header holds ``format_version``, ``config`` (the
# FlockConfig fields), the trajectories' ``seeds`` and ``n_resampled``; its
# float64 members are ``positions`` and ``velocities`` (n_traj, T+1, N, 2)
# and ``actions`` (n_traj, T, N, 2). The loader recomputes the features.
# ---------------------------------------------------------------------------

def save_dataset(directory, samples: list[TrajectorySample],
                 n_resampled: int = 0) -> None:
    if not samples:
        raise ValueError("refusing to save an empty dataset")
    _check_one_config(samples)
    cfg = samples[0].config
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {"format_version": DATASET_FORMAT_VERSION, "config": asdict(cfg),
              "seeds": [s.seed for s in samples], "n_resampled": n_resampled}
    members = {name: np.stack([getattr(s, name) for s in samples])
               for name in ("positions", "velocities", "actions")}
    write_archive(directory / DATASET_FILE, header, members)


def _check_one_config(samples: list[TrajectorySample]) -> None:
    """Every trajectory must share trajectory 0's config; the error names
    the first that does not and its differing fields."""
    cfg = samples[0].config
    for i, sample in enumerate(samples):
        if sample.config != cfg:
            diff = ", ".join(
                f"{f.name} {getattr(sample.config, f.name)!r} (trajectory 0: "
                f"{getattr(cfg, f.name)!r})" for f in fields(FlockConfig)
                if getattr(sample.config, f.name) != getattr(cfg, f.name))
            raise ValueError(f"trajectory {i} has another config than "
                             f"trajectory 0: {diff}")


def _check_keys(doc: dict, names, where: str) -> None:
    wrong = sorted(doc.keys() ^ set(names))
    if wrong:
        raise ValueError(f"{where} has missing or unknown keys {wrong}")


def _config_from_doc(doc, where: str) -> FlockConfig:
    """The FlockConfig of a stored ``config`` mapping; errors name ``where``
    and the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a mapping, got {type(doc).__name__}")
    _check_keys(doc, (f.name for f in fields(FlockConfig)), where)
    try:
        return FlockConfig(**doc)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_dataset(directory) -> list[TrajectorySample]:
    """Read the archive ``save_dataset`` wrote; every header field and
    member is checked here, and each error names it."""
    path = Path(directory) / DATASET_FILE
    header, members = read_archive(path, DATASET_FORMAT_VERSION, "dataset")
    _check_keys(header, ("format_version", "config", "seeds", "n_resampled"),
                f"{path} header")
    cfg = _config_from_doc(header["config"], f"{path} config")
    seeds = header["seeds"]
    if not (isinstance(seeds, list) and seeds):
        raise ValueError(f"{path}: seeds must be a non-empty list of integers")
    for i, seed in enumerate(seeds):
        check_count(f"{path}: seeds.{i}", seed, 0, ValueError)
    check_count(f"{path}: n_resampled", header["n_resampled"], 0, ValueError)
    t, n = cfg.n_steps, cfg.n_agents
    shapes = {"positions": (len(seeds), t + 1, n, 2),
              "velocities": (len(seeds), t + 1, n, 2),
              "actions": (len(seeds), t, n, 2)}
    _check_keys(members, shapes, f"{path} members")
    for name, shape in shapes.items():
        check_member(f"{path}: {name}", members[name], shape, ValueError)
    samples = []
    for i, (p, v, a, seed) in enumerate(zip(members["positions"],
                                            members["velocities"],
                                            members["actions"], seeds)):
        try:
            features = _trajectory_features(p, v, cfg)
        except ExpertAbort:
            dist = _pairwise(p[:-1])
            linked = _adjacency_mask(dist, cfg.comm_radius)
            step, j, k = np.argwhere((dist < 1e-6) & linked)[0]
            raise ValueError(
                f"{path}: trajectory {i} (seed {seed}) has linked agents {j} and "
                f"{k} at distance {dist[step, j, k]:.3g} at step {step}; linked "
                f"agents must be at least 1e-06 apart") from None
        samples.append(TrajectorySample(p, v, a, features, seed, cfg))
    return samples


# ---------------------------------------------------------------------------
# Policy: delayed filter bank + per-node readout, trained by imitation
# ---------------------------------------------------------------------------

@dataclass
class PolicyBundle:
    spec: ModelSpec
    state: ModelState
    action_scale: float         # predictions are in units of u_max
    config: FlockConfig


def build_policy_spec(nonlinearity: str = "tanh") -> ModelSpec:
    layer = LayerSpec("fir", 6, POLICY_FEATURES, POLICY_ORDER,
                      nonlinearity=nonlinearity)
    return ModelSpec((layer,), ReadoutSpec("per_node_linear", 2),
                     shift_mode="time_varying")


class ImitationProblem(Problem):
    """MSE between the policy's per-node readout and the expert's actions
    (normalized by u_max), over every agent and step of a trajectory batch.

    The constructor builds every trajectory's delayed stack once, into one
    C-contiguous (n_traj, T, N, K+1, 6) array of n_traj*T*N*(K+1)*6*8 bytes
    (19.2 MB for 20 trajectories of 25 agents over 200 steps at order 3,
    384 MB for 100 trajectories of 100 agents), and the normalized targets
    into one (n_traj, T, N, 2) array. Nothing is rebuilt per epoch. The
    trajectories' chains advance together, one (n_traj, N, N) shift per
    step, so every trajectory must have trajectory 0's config and shape.

    A batch runs each trajectory, in batch order, as blocks of whole time
    steps: each block, a contiguous (steps, N, K+1, 6) view of the stack, is
    the ``x`` of one ``forward_batch`` of the time-varying policy, the block
    size set by ``_BLOCK_BYTES`` (43 steps for 25 agents, the last block of
    a trajectory shorter), so a pass's temporaries are one block's size,
    whatever the trajectory length or batch size. Each block's loss and its
    gradient are weighted by its share of the batch's rows, steps / (T *
    batch size), and summed into one gradient state, so the result is the
    batch's mean squared error and its gradient.

    With a ``worker`` (the one-process pool that ``train_policy`` opens)
    and at least 2 trajectories, this process runs the blocks of the
    batch's first len // 2 trajectories and the worker, in
    ``_worker_blocks``, those of the rest, on a copy of the current
    parameters. Both halves run ``_block_grads``, the one block loop, and
    ``_add_in_order`` adds every block's weighted loss and gradient in
    batch order, the worker's after this process's own: the same float
    additions in the same order as running every block here, so the loss
    and gradient are bitwise those of the serial loop.
    """

    def __init__(self, spec: ModelSpec, state: ModelState,
                 samples: list[TrajectorySample], u_max: float):
        self.spec = spec
        self.state = state
        self.loss = LossSpec("mse")
        self.worker = None
        order = spec.layers[0].order
        t_steps, n = samples[0].n_steps, samples[0].n_agents
        for i, sample in enumerate(samples):
            if sample.actions.shape != (t_steps, n, 2):
                raise ValueError(f"trajectory {i} has actions of shape "
                                 f"{sample.actions.shape}, trajectory 0 "
                                 f"{(t_steps, n, 2)}")
        _check_one_config(samples)
        self.stack = np.zeros((len(samples), t_steps, n, order + 1, 6))
        _delayed_chains(samples, self.stack)
        self.targets = np.stack([s.actions for s in samples]) / u_max
        row_bytes = 8 * (3 * spec.layers[0].out_features + (order + 1) * 6)
        self.block_steps = max(1, _BLOCK_BYTES // (n * row_bytes))

    def n_samples(self) -> int:
        return self.stack.shape[0]

    def batch_loss(self, indices):
        own = len(indices)
        if self.worker is not None and own >= 2:
            own //= 2
            future = self.worker.submit(_worker_blocks, _arrays(self.state),
                                        indices[own:], len(indices))
        blocks = self._block_grads(indices[:own], len(indices))
        total, grads = next(blocks)
        sums = _arrays(grads)
        total = _add_in_order(total, sums, ((v, _arrays(g)) for v, g in blocks))
        if own < len(indices):
            from concurrent.futures.process import BrokenProcessPool
            try:
                values, stacked = future.result()
            except BrokenProcessPool as exc:
                raise TrainingError(f"training worker died: {exc}") from exc
            except Exception as exc:
                raise TrainingError(f"training worker failed: "
                                    f"{type(exc).__name__}: {exc}") from exc
            total = _add_in_order(total, sums, zip(values.tolist(), zip(*stacked)))
        return total, grads

    def _block_grads(self, indices, batch_size: int):
        """Per block of the trajectories ``indices``, in order: its loss
        weighted by its share of a batch of ``batch_size`` trajectories, and
        the gradient state of that weighted loss."""
        t_steps = self.stack.shape[1]
        for i in indices:
            for start in range(0, t_steps, self.block_steps):
                zs = self.stack[i, start:start + self.block_steps]
                out, tape = forward_batch(self.spec, self.state, None, zs)
                value, dpred = loss_eval(self.loss, out,
                                         self.targets[i, start:start + len(zs)])
                weight = len(zs) / (t_steps * batch_size)
                dpred *= weight
                yield weight * value, model_backward(tape, self.spec,
                                                     self.state, dpred)


def _arrays(state: ModelState) -> list[np.ndarray]:
    """The trainable arrays of ``state``, in ``iter_params`` order."""
    return [arr for _, arr in iter_params(state)]


def _add_in_order(total: float, sums: list[np.ndarray], blocks) -> float:
    """Add each of ``blocks``' (weighted loss, gradient arrays in
    ``iter_params`` order) to ``total`` and, in place, to ``sums``, one
    block after another; returns the new total."""
    for value, grads in blocks:
        total += value
        for acc, g in zip(sums, grads, strict=True):
            acc += g
    return total


def _two_processes(n_jobs: int) -> bool:
    """Whether to open the one-process pool: this process can fork and may
    run on at least 2 CPUs, no other Python thread runs (a forked
    thread-holding process can deadlock), and there are at least 2 jobs
    to split (a training batch's trajectories, or a sweep's team sizes)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1 and n_jobs >= 2)


# The worker process's problem; only ``_start_worker``, in that process,
# sets it.
_worker_problem: ImitationProblem


def _start_worker(problem: ImitationProblem) -> None:
    """The pool's initializer, run in the forked worker: keep ``problem``,
    its stack shared copy-on-write, and ignore SIGINT, which a terminal
    sends the whole process group; the interrupted parent shuts the pool
    down."""
    import signal
    global _worker_problem
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_problem = problem


def _fork_pool(problem: ImitationProblem | None):
    """The one-process pool: one worker, forked at the first job, that
    keeps ``problem`` (a sweep's is None); its modules load only here."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=1,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(problem,))


def _worker_blocks(params: list[np.ndarray], indices, batch_size: int):
    """The worker's half of a batch: ``params`` (the ``iter_params``
    arrays) copied into its problem's state, then its blocks' weighted
    losses, in order, and per parameter the blocks' gradients stacked on a
    leading axis (a few arrays pickle faster than one per block and
    parameter)."""
    problem = _worker_problem
    for arr, value in zip(_arrays(problem.state), params, strict=True):
        arr[...] = value
    values, grads = zip(*problem._block_grads(indices, batch_size))
    return np.array(values), [np.stack(g) for g in zip(*map(_arrays, grads))]


def train_policy(samples: list[TrajectorySample], seed: int,
                 nonlinearity: str = "tanh", epochs: int = POLICY_EPOCHS):
    """Imitation-train the policy with the module recipe: ADAM at
    ``POLICY_LEARNING_RATE`` on batches of ``POLICY_BATCH_TRAJ``
    trajectories. Returns (PolicyBundle, the training history).

    When ``_two_processes`` allows it, the one-process pool of
    ``_fork_pool``, forked at the first batch (after the delayed stack is
    built), runs the second half of every batch (see ``ImitationProblem``);
    the history and parameters are bitwise those of one process. The pool
    lives for this call, and its ``with`` block shuts it down and joins
    the worker on every exit from it. A worker's exception or death is
    raised as a ``TrainingError``."""
    if not samples:
        raise ValueError("empty dataset")
    config = samples[0].config
    spec = build_policy_spec(nonlinearity)
    state = init_state(spec, np.random.default_rng(seed))
    problem = ImitationProblem(spec, state, samples, config.u_max)
    recipe = TrainConfig(epochs=epochs, batch_size=POLICY_BATCH_TRAJ,
                         learning_rate=POLICY_LEARNING_RATE, seed=seed)
    pool = (_fork_pool(problem) if _two_processes(min(len(samples), POLICY_BATCH_TRAJ))
            else nullcontext())
    try:
        with pool as problem.worker:
            history = train(problem, recipe)
    finally:
        # the pool holds the problem in its initargs: left set, the cycle
        # would keep the stack alive until a full collection
        problem.worker = None
    return PolicyBundle(spec, state, config.u_max, config), history


# ---------------------------------------------------------------------------
# Closed-loop rollout
# ---------------------------------------------------------------------------

class _PolicyRunner:
    """Incremental delayed-stack evaluation for ``n_members`` teams at once:
    at each step the (n_members, N, K+1, 6) chain states advance by one
    fresh shift application and are the ``x`` of one ``forward_batch`` of
    the time-varying policy, matching the full delayed filter on complete
    histories."""

    def __init__(self, bundle: PolicyBundle, n_agents: int, n_members: int = 1):
        self.bundle = bundle
        order = bundle.spec.layers[0].order
        self.zs = np.zeros((n_members, n_agents, order + 1, 6))

    def act(self, shift_dense: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Actions from (B, N, N) shifts and (B, N, 6) features; without the
        leading axis, of a one-member runner."""
        zs = self.zs
        _advance_delayed(shift_dense, zs, zs)
        zs[..., 0, :] = features
        out, _ = forward_batch(self.bundle.spec, self.bundle.state, None, zs)
        return (out * self.bundle.action_scale).reshape(features.shape[:-1] + (2,))


def rollout_policy(bundle: PolicyBundle, n_agents: int, seed: int):
    """Closed-loop run for the bundle's training duration; returns
    (trajectory arrays, cost, diverged flag)."""
    (run,) = _rollouts(bundle, n_agents, [seed])
    return run


def _rollouts(bundle: PolicyBundle, n_agents: int, seeds) -> list:
    """``rollout_policy`` from each seed, every team stepping together in
    one lockstep batch. A team that diverges leaves the batch: its cost is
    inf and its arrays are zero after the step it diverged at."""
    config = replace(bundle.config, n_agents=n_agents)
    spawned = [spawn_state(config, np.random.default_rng(seed)) for seed in seeds]
    r = np.array([s.positions for s in spawned]).reshape(-1, n_agents, 2)
    v = np.array([s.velocities for s in spawned]).reshape(-1, n_agents, 2)
    t_steps = config.n_steps
    positions = np.zeros((len(seeds), t_steps + 1, n_agents, 2))
    velocities = np.zeros((len(seeds), t_steps + 1, n_agents, 2))
    members = _Lockstep(len(seeds))
    runner = _PolicyRunner(bundle, n_agents, len(seeds))
    for t in range(t_steps):
        positions[members.live, t] = r
        velocities[members.live, t] = v
        dist = _pairwise(r)
        mask = _adjacency_mask(dist, config.comm_radius)
        r, v, dist, mask, runner.zs = members.drop(
            _touching(dist, mask), "zero-distance neighbor",
            r, v, dist, mask, runner.zs)
        if not members.live.size:
            break
        actions = runner.act(_normalized_shift_dense(mask),
                             _features_raw(r, v, mask, dist))
        r, v, _, runner.zs = _integrate(members, r, v, actions, config.u_max,
                                        config.dt, runner.zs)
    positions[members.live, t_steps] = r
    velocities[members.live, t_steps] = v
    return [((positions[i], velocities[i]), float("inf"), True)
            if i in members.aborts else
            ((positions[i], velocities[i]),
             velocity_variation_cost(velocities[i]), False)
            for i in range(len(seeds))]


def expert_rollout_costs(config: FlockConfig, seeds) -> list[float]:
    """The expert's closed-loop cost from each seed, all seeds in one
    lockstep batch; raises the ``ExpertAbort`` of the first seed whose run
    aborts."""
    costs = []
    for run in _run_experts(config, seeds):
        if isinstance(run, ExpertAbort):
            raise run
        costs.append(velocity_variation_cost(run[1]))
    return costs


def zero_controller_cost(config: FlockConfig, seed: int) -> float:
    """Cost when nobody accelerates: the initial spread, every step."""
    rng = np.random.default_rng(seed)
    state = spawn_state(config, rng)
    centered = state.velocities - state.velocities.mean(axis=0)
    return float(config.n_steps * np.sum(centered * centered) / config.n_agents)


def check_sizes(sizes, error: type[Exception]) -> None:
    """Raise ``error`` unless a sweep's ``sizes`` are 1 or more ints >= 2."""
    check_count("number of sizes", len(sizes), 1, error)
    for i, size in enumerate(sizes):
        check_count(f"sizes[{i}]", size, 2, error)


def _costs(bundle: PolicyBundle, n_agents: int, seeds) -> list[float]:
    return [cost for _, cost, _ in _rollouts(bundle, n_agents, seeds)]


def scalability_sweep(bundle: PolicyBundle, sizes: list[int], trials: int,
                      base_seed: int = 10_000):
    """Mean/std closed-loop cost per team size, in ``sizes`` order,
    parameters untouched; each size's trials run as one lockstep batch.
    If ``_two_processes`` allows, ``_fork_pool``'s worker runs some sizes
    and sends only their costs; rows and errors are one process's."""
    check_count("trials", trials, 1, ValueError)
    check_sizes(sizes, ValueError)
    seeds = [base_seed + t for t in range(trials)]
    # largest first, each size to the process with the smaller sum of N**2
    shares = ([], [])
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        min(shares, key=lambda share: sum(sizes[j] ** 2 for j in share)).append(i)
    theirs = sorted(shares[1]) if _two_processes(len(sizes)) else []
    with _fork_pool(None) if theirs else nullcontext() as pool:
        costs = {i: pool.submit(_costs, bundle, sizes[i], seeds) for i in theirs}
        try:
            try:
                for i, size in enumerate(sizes):
                    if i not in costs:
                        costs[i] = _costs(bundle, size, seeds)
                i = len(sizes)
            finally:    # when size i raised, one process raises a smaller j's error
                for j in [j for j in theirs if j < i]:
                    costs[j] = costs[j].result()
        except BaseException as exc:    # the worker's later sizes are not waited for
            if not theirs:
                raise
            from concurrent.futures.process import BrokenProcessPool
            for process in pool._processes.values():  # Python 3.14's terminate_workers
                process.terminate()
            if isinstance(exc, BrokenProcessPool):
                raise RuntimeError(f"scalability sweep worker died: {exc}") from exc
            raise
    return [{"n_agents": size, "mean_cost": float(np.mean(costs[i])),
             "std_cost": float(np.std(costs[i]))} for i, size in enumerate(sizes)]


def save_policy(path, bundle: PolicyBundle, extra: dict | None = None) -> None:
    meta = {
        "experiment": "flocking",
        "action_scale": bundle.action_scale,
        "config": asdict(bundle.config),
    }
    meta.update(extra or {})
    save_checkpoint(path, bundle.spec, bundle.state, metadata=meta)


def load_policy(path) -> PolicyBundle:
    return policy_from_checkpoint(*load_checkpoint(path))


def policy_from_checkpoint(spec: ModelSpec, state: ModelState,
                           meta: dict) -> PolicyBundle:
    """Bundle a checkpoint read by ``load_checkpoint`` (which has already
    passed its state through ``validate_state``) with the flocking metadata
    save_policy stored next to it."""
    for key in ("action_scale", "config"):
        if key not in meta:
            raise ValueError(f"checkpoint metadata has no {key}: not a "
                             f"flocking policy")
    return PolicyBundle(spec, state, meta["action_scale"],
                        _config_from_doc(meta["config"], "policy config"))
