"""Losses, the ADAM update, and the mini-batch training loop.

Training is deterministic given the seed: per-epoch Fisher-Yates shuffling
driven by one generator, fixed summation order in the batch reduction, and a
fail-loud abort on any non-finite gradient.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .neural import ModelState, iter_params


class TrainingError(RuntimeError):
    """Non-finite gradients or an inconsistent training setup."""


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

LOSS_KINDS = ("smooth_l1", "mse")


@dataclass(frozen=True)
class LossSpec:
    kind: str = "mse"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.kind!r}")


def loss_eval(spec: LossSpec, prediction: np.ndarray, target: np.ndarray):
    """Mean loss over all entries and its gradient w.r.t. the prediction.

    smooth_l1 is 0.5 (x-y)^2 where |x-y| < 1 and |x-y| - 0.5 elsewhere,
    with gradient clamp(x-y, -1, 1).
    """
    prediction = np.asarray(prediction, dtype=float)
    target = np.asarray(target, dtype=float)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: prediction {prediction.shape} vs "
                         f"target {target.shape}")
    diff = prediction - target
    n = diff.size
    # the mean is np.mean's sum-then-divide without its Python-level wrapper
    if spec.kind == "mse":
        value = float(np.add.reduce(diff * diff, axis=None) / n)
        diff *= 2.0
        diff /= n
        return value, diff
    absd = np.abs(diff)
    vals = np.where(absd < 1.0, 0.5 * diff * diff, absd - 0.5)
    grad = np.clip(diff, -1.0, 1.0) / n
    return float(np.add.reduce(vals, axis=None) / n), grad


# ---------------------------------------------------------------------------
# ADAM
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = 5e-3
    step: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    scratch: list = field(default_factory=list)   # two arrays per parameter

    @staticmethod
    def for_params(params: list[np.ndarray], learning_rate: float) -> "AdamState":
        return AdamState(
            learning_rate=learning_rate,
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
            scratch=[(np.empty_like(p), np.empty_like(p)) for p in params])


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray],
              param_names: list[str] | None = None) -> None:
    """One bias-corrected ADAM update, applied to the arrays in place.

    The update p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) runs through the
    state's two scratch arrays per parameter, operation by operation in
    that expression's order, so it allocates no parameter-sized array.
    Every gradient is checked first. The sum of g is finite when all of g
    is, unless it overflows, so each entry is checked only when the sum
    is not finite."""
    if not (len(params) == len(grads) == len(state.first_moment)
            == len(state.second_moment) == len(state.scratch)):
        raise TrainingError("parameter/gradient/moment/scratch counts differ")
    with np.errstate(invalid="ignore", over="ignore"):
        for idx, g in enumerate(grads):
            if not np.isfinite(np.add.reduce(g, axis=None)) \
                    and not np.all(np.isfinite(g)):
                name = param_names[idx] if param_names else f"param[{idx}]"
                raise TrainingError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v, (a, b) in zip(params, grads, state.first_moment,
                                  state.second_moment, state.scratch):
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, bc1, out=a)
        a *= state.learning_rate
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPSILON
        a /= b
        p -= a


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class Problem:
    """What the training loop needs from a learning task.

    ``state`` exposes the trainable ModelState; ``batch_loss`` evaluates one
    mini-batch (by sample indices) and returns (loss value, gradient
    ModelState); ``post_step`` re-imposes parameter constraints after an
    update (tied taps, pole projection). ``reach`` names the parameters
    whose gradient is zero off a fixed set of entries, with the index of
    those entries: ``batch_loss`` gives such a gradient on them alone, as
    ``grad[index]`` would be, and ``train`` updates only them.
    """

    state: ModelState

    def n_samples(self) -> int:
        raise NotImplementedError

    def batch_loss(self, indices: np.ndarray):
        raise NotImplementedError

    def post_step(self) -> None:
        pass

    def reach(self) -> dict:
        return {}


def train(problem: Problem, config: TrainConfig) -> list[tuple[int, int, float]]:
    """Run epochs x ceil(n/batch) ADAM steps; returns (epoch, batch, loss) rows.

    A parameter in ``problem.reach()`` keeps its ADAM moments on the reached
    entries only; each step gathers them, updates them and writes them back.
    ADAM leaves a weight with a zero gradient bitwise unchanged, so this is
    the full update without its work on the entries left out."""
    n = problem.n_samples()
    if n == 0:
        raise TrainingError("empty dataset")
    reach = problem.reach()
    names = [name for name, _ in iter_params(problem.state)]
    full = [arr for _, arr in iter_params(problem.state)]
    gathered = [(j, reach[name]) for j, name in enumerate(names) if name in reach]
    # every other entry references a state array, updated in place
    params = list(full)
    for j, index in gathered:
        params[j] = full[j][index]
    adam = AdamState.for_params(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            indices = order[start:start + config.batch_size]
            loss, grads = problem.batch_loss(indices)
            grad_arrays = [arr for _, arr in iter_params(grads)]
            for j, index in gathered:
                params[j] = full[j][index]
            adam_step(adam, params, grad_arrays, param_names=names)
            for j, index in gathered:
                full[j][index] = params[j]
            problem.post_step()
            problem.state.bump_version()
            history.append((epoch, batch_idx, float(loss)))
    return history


def project_poles(gamma: np.ndarray, diagonal: np.ndarray, margin: float) -> None:
    """Push poles at least ``margin`` away from every shift diagonal entry,
    in place, preserving which side of the entry each pole sits on."""
    flat = gamma.reshape(-1)
    for d in np.unique(diagonal):
        close = np.abs(flat - d) < margin
        if not np.any(close):
            continue
        side = np.where(flat[close] >= d, 1.0, -1.0)
        flat[close] = d + side * margin


def write_loss_log(path, history: list[tuple[int, int, float]],
                   final_metrics: dict | None = None) -> None:
    """CSV log `epoch,batch,loss` plus one final metrics row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "batch", "loss"])
        for epoch, batch, loss in history:
            writer.writerow([epoch, batch, repr(loss)])
        if final_metrics:
            for key, value in sorted(final_metrics.items()):
                writer.writerow(["final", key, repr(float(value))])
