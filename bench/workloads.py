"""The benchmark's workloads: recsys_ml100k, flocking_paper, spectral_theory.

Each workload is a sequence of rounds. A round drives the program through
the public functions the CLI commands call, in the same order, times every
program phase from outside, and checks every output against ``oracles``.
All rounds of a run repeat the same seeded work, so their outputs must be
identical. Times are reported per round, as the run's total over its rounds,
in reference seconds (see ``hostspeed``).
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import oracles
from hostspeed import HostSpeed
from tracing import COUNTERS, Tracer, per_layer_metric_names

from gspnn import analysis, filters, graphs, neural
from gspnn import flocking as fl
from gspnn import recsys as rs


class RoundAborted(Exception):
    """An operation raised; the rest of the round depends on its output."""


class Run:
    """Operation counts, phase times and counters of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.phases: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.setup_samples: list[float] = []
        self.units: dict[str, float] = defaultdict(float)
        self.host = HostSpeed()
        self.host.sample()
        self.tracer: Tracer | None = None   # set for traced rounds

    def start_round(self) -> None:
        self.phases = defaultdict(float)
        self.counters = defaultdict(int)
        self.setup_samples = []
        self.units = defaultdict(float)

    @contextlib.contextmanager
    def timed(self, phase: str):
        """A timed program phase; in a traced round its spans are recorded,
        while calls the checks make into the program are not. Each "setup"
        phase is also one ``setup_s`` sample."""
        if self.tracer:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[phase] += elapsed
            if self.tracer:
                self.tracer.active = False
        if phase == "setup":
            self.setup_samples.append(elapsed)

    @contextlib.contextmanager
    def operation(self, name: str):
        """One checked operation; the block appends problems to the list it
        is given. Raising or any problem counts the operation as failed."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise RoundAborted(name) from exc
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))
        self.host.catch_up()


def _require(problems: list[str], ok, message: str) -> None:
    if not ok:
        problems.append(message)


def _close(problems: list[str], got, want, tol: float, what: str) -> None:
    err = oracles.rel_err(got, want)
    if not err <= tol:
        problems.append(f"{what}: relative error {err:.3e} > {tol:g}")


def _loss_falls(problems: list[str], losses: list[float]) -> None:
    losses = np.asarray(losses, dtype=float)
    _require(problems, losses.size >= 4 and np.all(np.isfinite(losses)),
             "loss history is short or not finite")
    q = max(losses.size // 4, 1)
    _require(problems, losses[-q:].mean() < losses[:q].mean(),
             f"mean loss of the last quarter {losses[-q:].mean():.4g} is not "
             f"below the first quarter's {losses[:q].mean():.4g}")


# ---------------------------------------------------------------------------
# recsys_ml100k
# ---------------------------------------------------------------------------

class RecsysML100k:
    """MovieLens-100k-shaped table, four model families trained on the most
    rated item, checkpointed, reloaded and evaluated with transfer."""

    name = "recsys_ml100k"
    FAMILIES = ("fir", "gcnn", "arma", "edgenet")
    TOP_ITEMS = 200
    SETUP_REPEATS = 3
    # 2 batches of 5 users per epoch for 4 epochs: 8 ADAM steps per family,
    # and the first and last quarter of the steps are whole epochs over the
    # same 10 training users, so their mean losses compare like with like.
    TRAIN_USERS = 10
    EPOCHS = 4
    TRANSFER_ITEMS = 2

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.data_path = work_dir / "u.data"
        lines = inputs.movielens_like_lines(seed)
        self.data_path.write_text("\n".join(lines) + "\n")
        triples = np.array([[int(f) for f in ln.split("\t")[:3]] for ln in lines])
        self.n_ratings = len(lines)
        self.rating_of = {(u, i): r for u, i, r in triples.tolist()}
        counts = np.bincount(triples[:, 1])
        ids = np.arange(counts.size)
        order = np.lexsort((ids, -counts))      # most rated first, lower id on ties
        self.items = [int(i) for i in order[:1 + self.TRANSFER_ITEMS]]
        # int(split * raters) == TRAIN_USERS, away from rounding edges
        self.split = (self.TRAIN_USERS + 0.5) / counts[self.items[0]]
        self.perm = np.random.default_rng(seed).permutation(self.TOP_ITEMS)

    def round(self, run: Run) -> list:
        fingerprint = []
        for rep in range(self.SETUP_REPEATS):
            with run.operation("setup") as problems:
                with run.timed("setup"):
                    table = rs.ingest_movielens(self.data_path)
                    top = rs.select_top_items(table, self.TOP_ITEMS)
                    sim = rs.build_similarity(top)
                    shift = rs.build_item_shift(sim)
                if rep == 0:
                    s_dense = self._check_setup(problems, table, top, sim, shift)
        target = self.items[0]
        node = top.item_node(target)

        trained = {}
        for family in self.FAMILIES:
            with run.operation(f"train {family}") as problems:
                with run.timed(f"train.{family}"):
                    model = rs.train_rating_model(top, sim, family, target,
                                                  seed=self.seed,
                                                  epochs=self.EPOCHS,
                                                  split=self.split)
                path = self.work_dir / f"{family}.checkpoint.json"
                with run.timed("checkpoint"):
                    rs.save_rating_checkpoint(path, model)
                losses = [row[2] for row in model.history]
                _require(problems, len(losses) == 2 * self.EPOCHS,
                         f"{len(losses)} ADAM steps, expected {2 * self.EPOCHS}")
                _loss_falls(problems, losses)
                _require(problems, model.target_node == node, "target node moved")
                run.units[f"steps.{family}"] += len(losses)
                run.counters["recsys.checkpoint.bytes"] += path.stat().st_size
                trained[family] = model
                fingerprint += losses + [model.test_rmse]

        with run.operation("restore shift") as problems:
            with run.timed("restore"):
                shift = rs.build_item_shift(sim)
            _close(problems, shift.dense(), s_dense, 1e-12, "restored item shift")

        for family in self.FAMILIES:
            path = self.work_dir / f"{family}.checkpoint.json"
            with run.operation(f"reload {family}") as problems:
                with run.timed("checkpoint"):
                    spec, state, meta = neural.load_checkpoint(path)
                self._check_reload(problems, trained[family], spec, state, meta)
            model = rs.TrainedRating(spec, state, shift, meta["target_item"],
                                     meta["target_node"], meta["family"],
                                     meta["seed"], [], meta["train_rmse"],
                                     meta["test_rmse"])
            with run.operation(f"eval {family}") as problems:
                with run.timed("eval"):
                    _, test_set = rs.make_samples(top, sim, target,
                                                  split=self.split, seed=model.seed)
                    rmse = rs.evaluate_rmse(spec, state, shift, test_set, node)
                run.units["eval_samples"] += len(test_set)
                self._check_predictions(problems, model, s_dense, test_set, node,
                                        target, rmse)
                _require(problems, rmse == trained[family].test_rmse,
                         "reloaded model's test RMSE differs from the trained one's")
                if family != "edgenet":
                    self._check_relabeling(problems, model, test_set, node)
                fingerprint.append(rmse)
            for other in self.items[1:]:
                with run.operation(f"transfer {family} to {other}") as problems:
                    with run.timed("eval"):
                        rmse = rs.transfer_rmse(model, top, sim, other,
                                                split=self.split)
                    _, other_test = rs.make_samples(top, sim, other,
                                                    split=self.split,
                                                    seed=model.seed)
                    run.units["eval_samples"] += len(other_test)
                    self._check_predictions(problems, model, s_dense, other_test,
                                            top.item_node(other), other, rmse)
                    fingerprint.append(rmse)
        return fingerprint

    def _check_setup(self, problems, table, top, sim, shift) -> np.ndarray:
        _require(problems, table.n_ratings == self.n_ratings
                 and table.n_users == inputs.ML_USERS,
                 "ingested table does not match the ratings file")
        _require(problems, top.n_items == self.TOP_ITEMS, "wrong number of items kept")
        _require(problems, top.item_ids[top.item_node(self.items[0])] == self.items[0],
                 "most-rated item missing from the kept items")
        s = shift.dense()
        want = oracles.normalized_adjacency(sim.graph.n_nodes, sim.graph.edges)
        _require(problems, np.array_equal(s, s.T), "item shift is not symmetric")
        norm = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        _require(problems, abs(norm - 1.0) <= 1e-9,
                 f"item shift spectral norm {norm!r} is not 1")
        _close(problems, s, want, 1e-9, "item shift against A / ||A||")
        return want

    @staticmethod
    def _check_reload(problems, model, spec, state, meta) -> None:
        _require(problems, spec == model.spec, "reloaded spec differs")
        for (name, got), (_, want) in zip(neural.iter_params(state),
                                          neural.iter_params(model.state)):
            _require(problems, np.array_equal(got, want),
                     f"reloaded {name} differs from the trained parameters")
        _require(problems, meta["target_node"] == model.target_node
                 and meta["family"] == model.family, "checkpoint metadata differs")

    def _check_predictions(self, problems, model, s_dense, samples, node, item,
                           rmse) -> None:
        preds = rs.predict(model.spec, model.state, model.shift, samples, node)
        x = np.stack([smp.input for smp in samples])[:, :, None]
        want = oracles.single_layer_forward(
            layer_arrays(model.spec.layers[0], model.state.layers[0]),
            model.state.readout_weight, model.state.readout_bias, s_dense,
            x)[:, node, 0]
        _close(problems, preds, want, 1e-9, f"{model.family} predictions")
        targets = np.array([smp.target for smp in samples])
        truth = [self.rating_of.get((smp.user_id, item)) for smp in samples]
        _require(problems, truth == targets.tolist() and not x[:, node].any(),
                 "sample targets do not match the ratings file")
        _close(problems, rmse, np.sqrt(np.mean((preds - targets) ** 2)), 1e-12,
               "RMSE from the predictions")

    def _check_relabeling(self, problems, model, samples, node) -> None:
        perm = self.perm
        inv = np.argsort(perm)
        shift_p = graphs.ShiftOperator.from_dense(
            model.shift.dense()[np.ix_(perm, perm)], kind=model.shift.kind)
        samples_p = [rs.RecSample(smp.user_id, smp.input[perm], smp.target)
                     for smp in samples]
        base = rs.predict(model.spec, model.state, model.shift, samples, node)
        moved = rs.predict(model.spec, model.state, shift_p, samples_p,
                           int(inv[node]))
        _close(problems, moved, base, 1e-10,
               f"{model.family} predictions under relabeled items")

    def derived(self, total: Totals) -> dict:
        out = {f"{family}_train_steps_per_s": total.rate(f"steps.{family}",
                                                         f"train.{family}")
               for family in self.FAMILIES}
        out["eval_samples_per_s"] = total.rate("eval_samples", "eval")
        out["checkpoint_s"] = total.per_round("checkpoint")
        out["checkpoint_mb"] = total.counters["recsys.checkpoint.bytes"] / 1e6 \
            / total.rounds
        return out


def layer_arrays(layer_spec, params) -> dict:
    """The oracle's view of one layer: its family and raw arrays."""
    out = {"family": layer_spec.family, "nonlinearity": layer_spec.nonlinearity}
    if layer_spec.family == "fir":
        out["taps"] = params.taps
    elif layer_spec.family == "arma":
        out.update(alpha=params.alpha, beta=params.beta, gamma=params.gamma,
                   jacobi_iters=layer_spec.jacobi_iters)
    else:
        out.update(rows=params.support.rows, cols=params.support.cols,
                   diag=params.diag, values=params.values)
    return out


# ---------------------------------------------------------------------------
# flocking_paper
# ---------------------------------------------------------------------------

class FlockingPaper:
    """Paper-scale flocking: 25-agent expert data, imitation training with the
    program's recipe, closed-loop sweep at 25, 50 and 100 agents."""

    name = "flocking_paper"
    N_TRAJ = 20
    # 60 ADAM steps (batches of 20 trajectories); 10 steps do not beat the
    # zero controller, 60 beat it several times over on every seed tried.
    EPOCHS = 60
    SIZES = (25, 50, 100)
    TRIALS = 3
    SETUP_REPEATS = 3
    N_AGENTS = 25
    DURATION = 2.0
    DT = 0.01

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.config = fl.FlockConfig(n_agents=self.N_AGENTS,
                                     duration=self.DURATION, dt=self.DT)

    def round(self, run: Run) -> list:
        cfg = self.config
        with run.operation("expert trajectories") as problems:
            with run.timed("expert"):
                samples, n_resampled = fl.generate_dataset(self.N_TRAJ, cfg,
                                                           seed=self.seed)
            for smp in samples:
                _require(problems, smp.actions.shape == (cfg.n_steps, cfg.n_agents, 2),
                         "trajectory has the wrong shape")
                err = oracles.double_integrator_residual(
                    smp.positions, smp.velocities, smp.actions, cfg.dt)
                _require(problems, err <= 1e-12,
                         f"double-integrator residual {err:.3e} in seed {smp.seed}")
                _require(problems, np.max(np.abs(smp.actions)) <= cfg.u_max,
                         f"|u| above u_max in seed {smp.seed}")
            run.counters["flocking.expert.resampled"] += n_resampled
            run.units["expert_steps"] += sum(s.n_steps for s in samples)

        dataset_dir = self.work_dir / "dataset"
        for rep in range(self.SETUP_REPEATS):
            with run.operation("dataset save and load") as problems:
                with run.timed("setup"):
                    fl.save_dataset(dataset_dir, samples, n_resampled)
                    loaded = fl.load_dataset(dataset_dir)
                if rep == 0:
                    self._check_reload(problems, samples, loaded)
                    run.counters["flocking.dataset.bytes"] += sum(
                        p.stat().st_size for p in dataset_dir.iterdir())

        with run.operation("train policy") as problems:
            with run.timed("train"):
                bundle, history = fl.train_policy(loaded, seed=self.seed,
                                                  nonlinearity="tanh",
                                                  epochs=self.EPOCHS)
            losses = [row[2] for row in history]
            _require(problems, len(losses) == self.EPOCHS,
                     f"{len(losses)} ADAM steps, expected {self.EPOCHS}")
            _loss_falls(problems, losses)
            run.units["train_samples"] += self.EPOCHS * len(loaded) * cfg.n_steps

        policy_path = self.work_dir / "policy.json"
        with run.operation("policy checkpoint") as problems:
            trained = bundle
            with run.timed("checkpoint"):
                fl.save_policy(policy_path, trained,
                               extra={"model": "gcnn", "seed": self.seed})
                bundle = fl.load_policy(policy_path)
            _require(problems, bundle.spec == trained.spec
                     and bundle.config == trained.config, "reloaded policy differs")
            for (name, got), (_, want) in zip(neural.iter_params(bundle.state),
                                              neural.iter_params(trained.state)):
                _require(problems, np.array_equal(got, want),
                         f"reloaded {name} differs from the trained parameters")

        with run.operation("scalability sweep") as problems:
            with run.timed("rollout"):
                rows = fl.scalability_sweep(bundle, list(self.SIZES), self.TRIALS,
                                            base_seed=10_000 + self.seed)
            run.units["agent_steps"] += sum(self.SIZES) * self.TRIALS * cfg.n_steps
            costs = self._check_sweep(problems, run, bundle, rows)
        return losses + costs

    def _check_reload(self, problems, samples, loaded) -> None:
        _require(problems, len(loaded) == len(samples), "trajectory count differs")
        for a, b in zip(samples, loaded):
            same = (a.seed == b.seed and a.config == b.config
                    and all(np.array_equal(getattr(a, f), getattr(b, f))
                            for f in ("positions", "velocities", "actions",
                                      "features")))
            _require(problems, same, f"trajectory {a.seed} does not reload bit for bit")

    def _check_sweep(self, problems, run, bundle, rows) -> list:
        """Re-run every rollout of the sweep and check it from its velocities."""
        _require(problems, [r["n_agents"] for r in rows] == list(self.SIZES),
                 "sweep rows do not match the team sizes")
        means = []
        for row, size in zip(rows, self.SIZES):
            costs, zero = [], []
            for trial in range(self.TRIALS):
                (_, vel), cost, diverged = fl.rollout_policy(
                    bundle, size, 10_000 + self.seed + trial)
                run.counters["flocking.rollout.diverged"] += int(diverged)
                _require(problems, not diverged, f"rollout diverged at N={size}")
                _close(problems, cost, oracles.velocity_variation(vel), 1e-12,
                       f"rollout cost at N={size}")
                costs.append(cost)
                zero.append(oracles.zero_controller_cost(vel[0], vel.shape[0] - 1))
            _close(problems, [row["mean_cost"], row["std_cost"]],
                   [np.mean(costs), np.std(costs)], 1e-12, f"sweep row N={size}")
            _require(problems, np.mean(costs) < np.mean(zero),
                     f"policy cost {np.mean(costs):.1f} is not below the zero "
                     f"controller's {np.mean(zero):.1f} at N={size}")
            means.append(row["mean_cost"])
        return means

    def derived(self, total: Totals) -> dict:
        return {
            "expert_steps_per_s": total.rate("expert_steps", "expert"),
            "policy_train_samples_per_s": total.rate("train_samples", "train"),
            "rollout_agent_steps_per_s": total.rate("agent_steps", "rollout"),
        }


# ---------------------------------------------------------------------------
# spectral_theory
# ---------------------------------------------------------------------------

class SpectralTheory:
    """Weighted random graphs up to 200 nodes taken through the executable
    theory: spectra, the three filter families, stability under dilations,
    relative distance to a jittered copy, and permutation equivariance."""

    name = "spectral_theory"
    SIZES = (50, 100, 200)
    EDGE_PROB = 0.15
    JITTER = 0.01
    EPSILONS = (0.01, 0.02, 0.05, 0.1)
    N_INPUTS = 5
    JACOBI_ITERS = 3

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n in self.SIZES:
            edges = inputs.weighted_graph_edges(n, self.EDGE_PROB, rng)
            jittered = [(i, j, w * (1.0 + self.JITTER * rng.uniform(-1.0, 1.0)))
                        for i, j, w in edges]
            a = oracles.normalized_adjacency(n, edges)
            x = rng.normal(size=(n, 2))
            stab_inputs = rng.normal(size=(self.N_INPUTS, n))
            self.cases.append({
                "n": n, "edges": edges, "jittered": jittered, "a": a,
                "a_hat": oracles.normalized_adjacency(n, jittered), "x": x,
                # nonzero taps, as the nested edge-varying reduction needs
                "taps": rng.uniform(0.5, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4),
                # poles outside the spectrum [-1, 1], where the Jacobi
                # recursion converges
                "poles": rng.uniform(1.5, 2.5, size=2) * np.array([1.0, -1.0]),
                "residues": rng.normal(size=2),
                "direct": rng.normal(size=3),
                "stab_inputs": [v / np.linalg.norm(v) for v in stab_inputs],
                "model_seed": int(rng.integers(2 ** 31)),
                "perm": rng.permutation(n),
            })

    def round(self, run: Run) -> list:
        fingerprint = []
        with run.operation("graphs, shifts and spectra") as problems:
            with run.timed("setup"):
                built = []
                for case in self.cases:
                    s = graphs.eigendecompose(graphs.build_shift(
                        graphs.Graph(case["n"], tuple(case["edges"])),
                        graphs.ShiftKind.NORMALIZED_ADJACENCY))
                    s_hat = graphs.build_shift(
                        graphs.Graph(case["n"], tuple(case["jittered"])),
                        graphs.ShiftKind.NORMALIZED_ADJACENCY)
                    built.append((s, s_hat))
            for case, (s, s_hat) in zip(self.cases, built):
                _close(problems, s.dense(), case["a"], 1e-12,
                       f"N={case['n']}: shift against A / ||A||")
                _close(problems, s_hat.dense(), case["a_hat"], 1e-12,
                       f"N={case['n']}: jittered shift against A / ||A||")
                problems += [f"N={case['n']}: {p}" for p in oracles.spectral_problems(
                    case["a"], s.eigenvalues, s.eigenvectors)]
        for case, (s, s_hat) in zip(self.cases, built):
            fingerprint += self._analyse(run, case, s, s_hat)
        run.units["graphs"] += len(self.cases)
        return fingerprint

    def _analyse(self, run: Run, case: dict, s, s_hat) -> list:
        n, a, x = case["n"], case["a"], case["x"]
        sig = graphs.GraphSignal(x)
        with run.operation(f"gft N={n}") as problems:
            with run.timed("analysis"):
                x_hat = graphs.gft(s, sig)
                back = graphs.igft(s, x_hat)
            _close(problems, x_hat.values, s.eigenvectors.T @ x, 1e-12, "gft")
            _close(problems, back.values, x, 1e-10, "igft(gft(x))")

        taps = filters.FirTaps(case["taps"])
        with run.operation(f"fir N={n}") as problems:
            with run.timed("analysis"):
                y_fir = filters.fir_apply(taps, s, sig).values
            _close(problems, y_fir, oracles.spectral_filter(
                a, oracles.polynomial_response(case["taps"]), x), 1e-9,
                "fir_apply against V h(L) V^T x")

        params = filters.ArmaParams(case["poles"], case["residues"], case["direct"],
                                    jacobi_iters=self.JACOBI_ITERS)
        with run.operation(f"arma N={n}") as problems:
            with run.timed("analysis"):
                y_exact = filters.arma_apply_direct(params, s, sig).values
                y_jacobi = filters.arma_apply_jacobi(params, s, sig).values
                radii = [filters.jacobi_spectral_radius(s, g) for g in case["poles"]]
            _close(problems, y_exact, oracles.spectral_filter(a, oracles.arma_response(
                case["poles"], case["residues"], case["direct"]), x), 1e-9,
                "arma_apply_direct against V h(L) V^T x")
            _close(problems, y_jacobi, oracles.jacobi_arma_dense(
                a, case["poles"], case["residues"], case["direct"],
                self.JACOBI_ITERS, x), 1e-9, "arma_apply_jacobi against dense Jacobi")
            _close(problems, radii, [oracles.jacobi_radius(a, g) for g in case["poles"]],
                   1e-9, "jacobi_spectral_radius")

        with run.operation(f"edge varying N={n}") as problems:
            with run.timed("analysis"):
                ev = filters.edge_varying_from_fir(s, taps)
                y_ev = filters.edge_varying_apply(ev, sig).values
            _close(problems, y_ev, y_fir, 1e-9, "edge_varying_from_fir against fir_apply")

        with run.operation(f"stability N={n}") as problems:
            with run.timed("analysis"):
                spec, state = analysis.sample_lipschitz_gcnn(
                    s, 2, 3, np.random.default_rng(case["model_seed"]))
                reports = [analysis.stability_experiment(
                    spec, state, s, analysis.DilationPerturbation(eps),
                    case["stab_inputs"]) for eps in self.EPSILONS]
            layer_taps = [p.taps[0, 0] for p in state.layers]
            for rep in reports:
                devs = [oracles.fir_relu_stack_deviation(a, layer_taps, rep.epsilon, v)
                        for v in case["stab_inputs"]]
                _require(problems, rep.n_violations == 0 and max(devs) <= rep.bound,
                         f"eps={rep.epsilon}: deviation {max(devs):.3e} above the "
                         f"bound {rep.bound:.3e}")
                _close(problems, rep.measured, max(devs), 1e-8,
                       f"eps={rep.epsilon}: measured deviation")

        with run.operation(f"relative distance N={n}") as problems:
            with run.timed("analysis"):
                res = analysis.relative_distance(s, s_hat)
            _require(problems, not res.singular_flag, "singular eigenvalue pair sums")
            resid = oracles.error_matrix_residual(a, case["a_hat"], res.error_matrix,
                                                  res.permutation)
            _require(problems, resid <= 1e-8,
                     f"P^T S_hat P = S + ES + SE off by {resid:.3e}")
            _close(problems, res.distance,
                   np.max(np.abs(np.linalg.eigvalsh(res.error_matrix))), 1e-9,
                   "distance against ||E||")

        with run.operation(f"equivariance N={n}") as problems:
            rng = np.random.default_rng(case["model_seed"])
            with run.timed("analysis"):
                reports_eq = [neural.equivariant_forward_check(
                    spec, neural.init_state(spec, rng, shift=s), s,
                    graphs.GraphSignal(x[:, 0]), case["perm"])
                    for spec in self._equivariant_models()]
            gaps = [rep["relative_error"] for rep in reports_eq]
            _require(problems, max(gaps) < 1e-10,
                     f"equivariance gaps {gaps} of the fir and arma models")
        return radii + [r.measured for r in reports] + [res.distance] + gaps

    @staticmethod
    def _equivariant_models():
        readout = neural.ReadoutSpec("per_node_linear", 1)
        return (
            neural.ModelSpec((neural.LayerSpec("fir", 1, 4, 3),
                              neural.LayerSpec("fir", 4, 2, 3)), readout),
            neural.ModelSpec((neural.LayerSpec("arma", 1, 4, 2, n_poles=1,
                                               jacobi_iters=2),), readout),
        )

    def derived(self, total: Totals) -> dict:
        return {"analysis_graphs_per_s": total.units["graphs"]
                / sum(total.phases.values())}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (RecsysML100k, FlockingPaper, SpectralTheory)}


def _median(values) -> float:
    return float(statistics.median(list(values)))


class Totals:
    """Phase times, units and counters summed over a set of rounds, with
    times in reference seconds (times the run's host speed factor).

    Sub-second timings on a shared host jump by tens of percent from one
    call to the next, so times are the run's total divided by its rounds,
    not a median of a few short rounds.
    """

    def __init__(self, rounds: list[dict], scale: float):
        self.rounds = len(rounds)
        self.phases: dict[str, float] = defaultdict(float)
        self.units: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.setup: list[float] = []
        self.raw_s = 0.0
        for r in rounds:
            self.raw_s += sum(r["phases"].values())
            for name, value in r["phases"].items():
                self.phases[name] += value * scale
            for key in ("units", "counters"):
                for name, value in r[key].items():
                    getattr(self, key)[name] += value
            self.setup += [t * scale for t in r["setup"]]

    def per_round(self, phase: str) -> float:
        return self.phases[phase] / self.rounds

    def rate(self, unit: str, phase: str) -> float:
        return self.units[unit] / self.phases[phase]

    @property
    def wall_per_round(self) -> float:
        return sum(self.phases.values()) / self.rounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> tuple[dict | None, dict]:
    """Run whole rounds until the next one would end after ``seconds``.

    Returns (result, detail): the result holds the end-to-end metrics, or
    with ``trace`` the per-layer metrics, and is None if no round finished.
    In a traced run every other round is traced; the untraced ones give the
    tracing overhead.
    """
    work_dir = out_dir / f"{name}-seed{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, work_dir)
    run = Run()
    tracer = Tracer() if trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        run.start_round()
        run.tracer = tracer if traced else None
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        round_start = time.perf_counter()
        try:
            fingerprint = workload.round(run)
        except RoundAborted:
            break
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"phases": dict(run.phases), "counters": dict(run.counters),
                       "units": dict(run.units), "setup": list(run.setup_samples),
                       "traced": traced, "fingerprint": fingerprint,
                       "seconds": time.perf_counter() - round_start})
        done = len(rounds)
        elapsed = time.perf_counter() - start
        if done >= (2 if trace else 1) and elapsed * (done + 1) / done > seconds:
            break
    shutil.rmtree(work_dir, ignore_errors=True)
    run.host.catch_up()

    factor = run.host.factor
    detail = {"workload": name, "seed": seed, "rounds": len(rounds),
              "round_s": [r["seconds"] for r in rounds],
              "host_speed_factor": factor,
              "host_kernel_samples": len(run.host.samples),
              "failures": run.failures[:20]}
    plain = Totals([r for r in rounds if not r["traced"]], factor)
    traced_rounds = [i for i, r in enumerate(rounds) if r["traced"]]
    if not plain.rounds or (trace and not traced_rounds):
        return None, detail
    detail["raw_wall_s"] = plain.raw_s / plain.rounds
    detail["phases_s"] = {k: plain.per_round(k) for k in plain.phases}
    detail.update(workload.derived(plain))
    metrics = {}
    if trace:
        per_round = [tracer.round_metrics(i) for i in traced_rounds]
        for metric, unit in per_layer_metric_names():
            if metric in COUNTERS:
                value = int(statistics.fmean(rounds[i]["counters"].get(metric, 0)
                                             for i in traced_rounds))
            elif unit == "s":
                value = factor * statistics.fmean(m[metric] for m in per_round)
            else:
                value = int(statistics.fmean(m[metric] for m in per_round))
            metrics[metric] = {"value": value, "unit": unit}
        traced_wall = Totals([rounds[i] for i in traced_rounds], factor).wall_per_round
        metrics["trace.overhead_s"] = {"value": traced_wall - plain.wall_per_round,
                                       "unit": "s"}
        detail["untraced_wall_s"] = plain.wall_per_round
        detail["traced_wall_s"] = traced_wall
        (out_dir / f"{name}-seed{seed}.spans.json").write_text(
            json.dumps(tracer.dump()))
    else:
        metrics["setup_s"] = {"value": _median(plain.setup), "unit": "s"}
        metrics["wall_s"] = {"value": plain.wall_per_round, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
    consistent = all(r["fingerprint"] == rounds[0]["fingerprint"] for r in rounds)
    detail["rounds_identical"] = consistent
    result = {"correct": consistent, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, detail
