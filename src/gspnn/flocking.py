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

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

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
from .optim import LossSpec, Problem, TrainConfig, loss_eval, train

DATASET_FORMAT_VERSION = 2
DATASET_FILE = "dataset.npz"

# architecture: one delayed filter bank into a per-node readout
POLICY_FEATURES = 32
POLICY_ORDER = 3
POLICY_EPOCHS = 40
POLICY_BATCH_TRAJ = 20
POLICY_LEARNING_RATE = 5e-4


class ExpertAbort(RuntimeError):
    """Agents collided (or coincide) and the expert controller gave up."""


@dataclass(frozen=True)
class FlockConfig:
    n_agents: int = 25
    duration: float = 2.0
    dt: float = 0.01
    comm_radius: float = 2.0
    u_max: float = 10.0
    disc_radius_scale: float = 0.6   # initial disc radius = scale * sqrt(N)
    min_spawn_distance: float = 0.1
    speed_range: float = 3.0         # initial velocities uniform in +-range

    def __post_init__(self):
        if not isinstance(self.n_agents, int) or self.n_agents < 2:
            raise ValueError(f"n_agents must be an int >= 2, got {self.n_agents!r}")
        for name in [f.name for f in fields(self) if f.type == "float"]:
            value = getattr(self, name)
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
    accelerations: np.ndarray  # (N, 2) m/s^2, the last applied actions
    time_index: int
    dt: float

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]


def step_dynamics(state: SwarmState, actions: np.ndarray,
                  u_max: float) -> SwarmState:
    """Saturated double-integrator step."""
    if not np.all(np.isfinite(actions)):
        raise ExpertAbort("non-finite actions")
    u = np.clip(actions, -u_max, u_max)
    dt = state.dt
    r = state.positions + state.velocities * dt + 0.5 * u * dt * dt
    v = state.velocities + u * dt
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise ExpertAbort("non-finite state")
    return SwarmState(r, v, u, state.time_index + 1, dt)


# ---------------------------------------------------------------------------
# Geometry, communication graph, features. Every helper takes leading batch
# axes (time steps) and computes each step as a one-step call would.
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
    isolated agents."""
    deg = mask.sum(axis=-1).astype(float)
    inv_sqrt = np.zeros_like(deg)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    return inv_sqrt[..., :, None] * mask * inv_sqrt[..., None, :]


def _features_raw(positions: np.ndarray, velocities: np.ndarray,
                  mask: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per-agent 6-vector from one-hop quantities only.

    Blocks: neighborhood velocity disagreement, and position offsets scaled
    by 1/d^4 and 1/d^2 (the collision-potential directions at two ranges).
    Leading axes of the (..., N, .) inputs are batch axes, so a whole
    trajectory's (T, N, 6) features come from one call; every sum and
    product is taken per step, so each step's features equal a one-step call.
    """
    if np.any(dist[mask] < 1e-6):
        raise ExpertAbort("zero-distance neighbor")
    deg = mask.sum(axis=-1).astype(float)
    vel_sum = deg[..., None] * velocities - mask @ velocities
    feats = np.empty(positions.shape[:-1] + (6,))
    feats[..., 0:2] = vel_sum
    for col, power in ((2, 4.0), (4, 2.0)):
        w = np.zeros_like(dist)
        np.divide(mask.astype(float), dist ** power, out=w, where=mask)
        feats[..., col:col + 2] = (w.sum(axis=-1)[..., None] * positions
                                   - w @ positions)
    return feats


# ---------------------------------------------------------------------------
# Expert controller: global velocity consensus + repulsive potential
# ---------------------------------------------------------------------------

def _potential_slope_over_d(dist: np.ndarray, radius: float) -> np.ndarray:
    """-U'(d)/d for the repulsion U(d) = d^-2 cosine-tapered to zero on
    [0.9 R, R]; entries beyond R (and the diagonal) are zero."""
    lo = 0.9 * radius
    out = np.zeros_like(dist)
    with np.errstate(divide="ignore", invalid="ignore"):
        core = dist < lo
        out[core] = 2.0 / dist[core] ** 4
        band = (dist >= lo) & (dist < radius)
        d = dist[band]
        phase = np.pi * (d - lo) / (radius - lo)
        w = 0.5 * (1.0 + np.cos(phase))
        dw = -0.5 * np.pi / (radius - lo) * np.sin(phase)
        # U = d^-2 w(d): -U'/d = (2 w / d^3 - dw / d^2) / d
        out[band] = (2.0 * w / d ** 3 - dw / d ** 2) / d
    np.fill_diagonal(out, 0.0)
    return out


def expert_action(state: SwarmState, radius: float = 2.0) -> np.ndarray:
    """Centralized actions: full-team velocity consensus plus collision
    avoidance; aborts if any two agents (numerically) coincide."""
    if state.n_agents < 2:
        raise ValueError("need at least two agents")
    dist = _pairwise(state.positions)
    off_diag = ~np.eye(state.n_agents, dtype=bool)
    if np.min(dist[off_diag]) < 1e-6:
        raise ExpertAbort("coincident agents")
    n = state.n_agents
    consensus = -(n * state.velocities - state.velocities.sum(axis=0))
    w = _potential_slope_over_d(dist, radius)
    repulsion = w.sum(axis=1)[:, None] * state.positions - w @ state.positions
    return consensus + repulsion


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

        Each step is one batch row of the (B, N, K+1, G) stack that
        ``filters.fir_bank_contract`` reads. The shifts S(1) .. S(T-1) come
        from one geometry call over the time axis.
        """
        t_steps, n = self.n_steps, self.n_agents
        dist = _pairwise(self.positions[1:t_steps])
        shifts = _normalized_shift_dense(
            _adjacency_mask(dist, self.config.comm_radius))
        zs = np.zeros((t_steps, n, order + 1, 6))
        zs[:, :, 0] = self.features
        for t in range(1, t_steps):
            _advance_delayed(shifts[t - 1], zs[t - 1], zs[t])
        return zs


def _advance_delayed(shift_dense: np.ndarray, prev: np.ndarray,
                     out: np.ndarray) -> None:
    """One step of the delayed chain on (N, K+1, G) stacks:
    out[:, k] = S(t) prev[:, k-1] for k >= 1. ``out`` may be ``prev``."""
    n, k1, g = prev.shape
    shifted = shift_dense @ prev[:, :k1 - 1].reshape(n, (k1 - 1) * g)
    out[:, 1:] = shifted.reshape(n, k1 - 1, g)


def _mask_connected(mask: np.ndarray) -> bool:
    n = mask.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = np.nonzero(mask[frontier].any(axis=0) & ~seen)[0]
        seen[nxt] = True
        frontier = nxt.tolist()
    return bool(seen.all())


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
        if _mask_connected(_adjacency_mask(dist, config.comm_radius)):
            break
    else:
        raise ExpertAbort("could not spawn a connected, spaced-out team")
    velocities = rng.uniform(-config.speed_range, config.speed_range,
                             size=(n, 2))
    return SwarmState(positions, velocities, np.zeros((n, 2)), 0, config.dt)


def run_expert_trajectory(config: FlockConfig, seed: int) -> TrajectorySample:
    rng = np.random.default_rng(seed)
    state = spawn_state(config, rng)
    t_steps = config.n_steps
    n = config.n_agents
    positions = np.zeros((t_steps + 1, n, 2))
    velocities = np.zeros((t_steps + 1, n, 2))
    actions = np.zeros((t_steps, n, 2))
    for t in range(t_steps):
        positions[t] = state.positions
        velocities[t] = state.velocities
        raw = expert_action(state, config.comm_radius)
        state = step_dynamics(state, raw, config.u_max)
        actions[t] = state.accelerations
    positions[t_steps] = state.positions
    velocities[t_steps] = state.velocities
    return TrajectorySample(positions, velocities, actions,
                            _trajectory_features(positions, velocities, config),
                            seed, config)


def _trajectory_features(positions: np.ndarray, velocities: np.ndarray,
                         config: FlockConfig) -> np.ndarray:
    """(T, N, 6) features of a trajectory's T acted steps, from one batched
    ``_features_raw`` call. Every acted step passed ``expert_action``'s
    all-pairs distance check, which covers the neighbor check here."""
    dist = _pairwise(positions[:-1])
    mask = _adjacency_mask(dist, config.comm_radius)
    return _features_raw(positions[:-1], velocities[:-1], mask, dist)


def generate_dataset(n_traj: int, config: FlockConfig, seed: int):
    """Expert trajectories; aborted spawns/rollouts are resampled with the
    next seed and counted. Returns (samples, n_resampled)."""
    samples = []
    n_resampled = 0
    next_seed = seed
    while len(samples) < n_traj:
        try:
            samples.append(run_expert_trajectory(config, next_seed))
        except ExpertAbort:
            n_resampled += 1
            if n_resampled > 50 * max(n_traj, 1):
                raise
        next_seed += 1
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
    cfg = samples[0].config
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {"format_version": DATASET_FORMAT_VERSION, "config": asdict(cfg),
              "seeds": [s.seed for s in samples], "n_resampled": n_resampled}
    members = {name: np.stack([getattr(s, name) for s in samples])
               for name in ("positions", "velocities", "actions")}
    write_archive(directory / DATASET_FILE, header, members)


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
    if not (isinstance(seeds, list) and seeds
            and all(type(s) is int for s in seeds)):
        raise ValueError(f"{path}: seeds must be a non-empty list of integers")
    if not (type(header["n_resampled"]) is int and header["n_resampled"] >= 0):
        raise ValueError(f"{path}: n_resampled must be an integer >= 0, got "
                         f"{header['n_resampled']!r}")
    t, n = cfg.n_steps, cfg.n_agents
    shapes = {"positions": (len(seeds), t + 1, n, 2),
              "velocities": (len(seeds), t + 1, n, 2),
              "actions": (len(seeds), t, n, 2)}
    _check_keys(members, shapes, f"{path} members")
    for name, shape in shapes.items():
        arr = members[name]
        if arr.dtype != np.float64:
            raise ValueError(f"{path}: {name} has dtype {arr.dtype}, not float64")
        if arr.shape != shape:
            raise ValueError(f"{path}: {name} has shape {arr.shape}; "
                             f"{len(seeds)} seeds and the config need {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: {name} has non-finite entries")
    return [TrajectorySample(p, v, a, _trajectory_features(p, v, cfg), seed, cfg)
            for p, v, a, seed in zip(members["positions"], members["velocities"],
                                     members["actions"], seeds)]


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
    into one (n_traj, T, N, 2) array. Nothing is rebuilt per epoch.

    A batch runs one trajectory at a time on its contiguous (T, N, K+1, 6)
    view, so every temporary of the forward and backward pass is one
    trajectory's size, whatever the batch size. Every trajectory has the
    same T*N rows, so the batch's loss and gradients are the per-trajectory
    ones summed in batch order and divided by the batch size.
    """

    def __init__(self, spec: ModelSpec, state: ModelState,
                 samples: list[TrajectorySample], u_max: float):
        self.spec = spec
        self.state = state
        self.loss = LossSpec("mse")
        order = spec.layers[0].order
        t_steps, n = samples[0].n_steps, samples[0].n_agents
        self.stack = np.empty((len(samples), t_steps, n, order + 1, 6))
        self.targets = np.empty((len(samples), t_steps, n, 2))
        for i, sample in enumerate(samples):
            if sample.actions.shape != (t_steps, n, 2):
                raise ValueError(f"trajectory {i} has actions of shape "
                                 f"{sample.actions.shape}, trajectory 0 "
                                 f"{(t_steps, n, 2)}")
            self.stack[i] = sample.delayed_stacks(order)
            self.targets[i] = sample.actions / u_max

    def n_samples(self) -> int:
        return self.stack.shape[0]

    def batch_loss(self, indices):
        total, grads = 0.0, None
        for i in indices:
            zs = self.stack[i]                              # (T, N, K+1, 6)
            out, tape = forward_batch(self.spec, self.state, None, zs[:, :, 0],
                                      first_layer_zs=zs)
            value, dpred = loss_eval(self.loss, out, self.targets[i])
            step = model_backward(tape, self.spec, self.state, dpred)
            total += value
            if grads is None:
                grads = step
            else:
                for (_, acc), (_, g) in zip(iter_params(grads), iter_params(step)):
                    acc += g
        for _, acc in iter_params(grads):
            acc /= len(indices)
        return total / len(indices), grads


def train_policy(samples: list[TrajectorySample], seed: int,
                 nonlinearity: str = "tanh",
                 epochs: int = POLICY_EPOCHS,
                 batch_trajectories: int = POLICY_BATCH_TRAJ,
                 learning_rate: float = POLICY_LEARNING_RATE):
    if not samples:
        raise ValueError("empty dataset")
    config = samples[0].config
    spec = build_policy_spec(nonlinearity)
    state = init_state(spec, np.random.default_rng(seed))
    problem = ImitationProblem(spec, state, samples, config.u_max)
    history = train(problem, TrainConfig(
        epochs=epochs, batch_size=batch_trajectories,
        learning_rate=learning_rate, seed=seed))
    return PolicyBundle(spec, state, config.u_max, config), history


# ---------------------------------------------------------------------------
# Closed-loop rollout
# ---------------------------------------------------------------------------

class _PolicyRunner:
    """Incremental delayed-stack evaluation: at each step the chain states
    advance by one fresh shift application, matching the full delayed filter
    on complete histories."""

    def __init__(self, bundle: PolicyBundle, n_agents: int):
        self.bundle = bundle
        order = bundle.spec.layers[0].order
        self.zs = np.zeros((1, n_agents, order + 1, 6))

    def act(self, shift_dense: np.ndarray, features: np.ndarray) -> np.ndarray:
        zs = self.zs
        _advance_delayed(shift_dense, zs[0], zs[0])
        zs[0, :, 0] = features
        out, _ = forward_batch(self.bundle.spec, self.bundle.state, None,
                               zs[:, :, 0], first_layer_zs=zs)
        return out[0] * self.bundle.action_scale


def rollout_policy(bundle: PolicyBundle, n_agents: int, seed: int,
                   duration: float | None = None):
    """Closed-loop run; returns (trajectory arrays, cost, diverged flag).

    ``duration`` defaults to the bundle's training duration.
    """
    if duration is None:
        duration = bundle.config.duration
    config = replace(bundle.config, n_agents=n_agents, duration=duration)
    rng = np.random.default_rng(seed)
    state = spawn_state(config, rng)
    t_steps = config.n_steps
    positions = np.zeros((t_steps + 1, n_agents, 2))
    velocities = np.zeros((t_steps + 1, n_agents, 2))
    runner = _PolicyRunner(bundle, n_agents)
    for t in range(t_steps):
        positions[t] = state.positions
        velocities[t] = state.velocities
        dist = _pairwise(state.positions)
        mask = _adjacency_mask(dist, config.comm_radius)
        try:
            feats = _features_raw(state.positions, state.velocities, mask, dist)
            actions = runner.act(_normalized_shift_dense(mask), feats)
            state = step_dynamics(state, actions, config.u_max)
        except ExpertAbort:
            return (positions, velocities), float("inf"), True
        if not np.all(np.isfinite(state.positions)):
            return (positions, velocities), float("inf"), True
    positions[t_steps] = state.positions
    velocities[t_steps] = state.velocities
    return (positions, velocities), velocity_variation_cost(velocities), False


def expert_rollout_cost(config: FlockConfig, seed: int) -> float:
    return velocity_variation_cost(run_expert_trajectory(config, seed).velocities)


def zero_controller_cost(config: FlockConfig, seed: int) -> float:
    """Cost when nobody accelerates: the initial spread, every step."""
    rng = np.random.default_rng(seed)
    state = spawn_state(config, rng)
    centered = state.velocities - state.velocities.mean(axis=0)
    return float(config.n_steps * np.sum(centered * centered) / config.n_agents)


def scalability_sweep(bundle: PolicyBundle, sizes: list[int], trials: int,
                      base_seed: int = 10_000):
    """Mean/std closed-loop cost per team size, parameters untouched."""
    rows = []
    for size in sizes:
        costs = []
        for trial in range(trials):
            _, cost, _ = rollout_policy(bundle, size, base_seed + trial)
            costs.append(cost)
        costs = np.array(costs)
        rows.append({"n_agents": size, "mean_cost": float(np.mean(costs)),
                     "std_cost": float(np.std(costs))})
    return rows


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
