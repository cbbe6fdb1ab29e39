"""Command-line entry point and experiment orchestration.

Subcommands: `recsys {train,eval,transfer}`, `flocking
{generate,train,evaluate,sweep}`, `analyze
{response,lipschitz,distance,stability,equivariance}`. Values come from an
optional YAML config file (nested: global keys plus one section per command
group) overridden by flags; unknown keys are rejected by full path.
`dispatch` runs every command: it hands the command's handler one
`RunContext` and, once the handler returns, writes the run's manifest
(resolved config, input hashes, produced files, wall time and, for the
train commands and every flocking command, per-phase seconds) into the
output directory; nothing is written anywhere else. The output directory
is made at the first output, so a run that fails before it leaves none.
`recsys train` writes its model as `checkpoint.npz` and `flocking train`
as `policy.npz`, the checkpoint archives that `--checkpoint` reads.
`flocking generate` writes its trajectories as the archive
`dataset/dataset.npz`, and `flocking train --dataset` reads that directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (
    DilationPerturbation,
    integral_lipschitz,
    relative_distance,
    sample_lipschitz_gcnn,
    stability_experiment,
)
from .filters import ArmaParams, FirTaps, arma_response, fir_response
from .graphs import (
    GraphSignal,
    ShiftKind,
    build_shift,
    check_count,
    eigendecompose,
    load_graph,
    random_graph,
)
from .neural import (
    LayerSpec,
    ModelError,
    ModelSpec,
    ReadoutSpec,
    equivariant_forward_check,
    forward_batch,
    init_state,
    load_checkpoint,
)
from . import flocking as fl
from . import recsys as rs


class ConfigError(ValueError):
    pass


DATA_DIR_ENV = "GSPNN_DATA_DIR"

# schema: group -> leaf -> {key: (type, default)}; None default means
# required. Global keys apply to every command.
GLOBAL_KEYS = {"seed": (int, 0), "out": (str, "gspnn_out"),
               "config": (str, "")}
# the filter that `analyze response` and `analyze lipschitz` evaluate
FILTER_KEYS = {"taps": (str, ""), "arma_poles": (str, ""),
               "arma_residues": (str, ""), "arma_direct": (str, ""),
               "lambda_range": (str, "-1,1"), "points": (int, 512)}

SCHEMA = {
    "recsys": {
        "train": {"data": (str, ""), "target": (int, None),
                  "model": (str, "gcnn"), "epochs": (int, rs.N_EPOCHS),
                  "top_items": (int, rs.TOP_ITEMS), "split": (float, 0.9)},
        "eval": {"data": (str, ""), "checkpoint": (str, None),
                 "top_items": (int, rs.TOP_ITEMS), "split": (float, 0.9)},
        "transfer": {"data": (str, ""), "checkpoint": (str, None),
                     "target": (int, None),
                     "top_items": (int, rs.TOP_ITEMS), "split": (float, 0.9)},
    },
    "flocking": {
        "generate": {"n_traj": (int, 100), "agents": (int, 25),
                     "duration": (float, 2.0), "dt": (float, 0.01)},
        "train": {"dataset": (str, None), "model": (str, "gcnn"),
                  "epochs": (int, fl.POLICY_EPOCHS)},
        "evaluate": {"checkpoint": (str, None), "agents": (int, 0),
                     "trials": (int, 20)},
        "sweep": {"checkpoint": (str, None), "sizes": (str, "25,31,37,44,50"),
                  "trials": (int, 20)},
    },
    "analyze": {
        "response": FILTER_KEYS,
        "lipschitz": FILTER_KEYS,
        "distance": {"graph": (str, None), "graph_hat": (str, None),
                     "method": (str, "identity_permutation"),
                     "shift_kind": (str, "adjacency")},
        "stability": {"epsilons": (str, "0.01,0.02,0.05,0.1"),
                      "nodes": (int, 16), "depth": (int, 2),
                      "order": (int, 3), "n_inputs": (int, 20)},
        "equivariance": {"nodes": (int, 16), "trials": (int, 20),
                         "order": (int, 3)},
    },
}


KEY_HELP = {"checkpoint": "model archive written by `recsys train` "
                          "(checkpoint.npz) or `flocking train` (policy.npz)"}


def _parse_list(cfg: dict, key: str, typ=float) -> np.ndarray:
    """The comma-separated ``typ`` values of config key ``key``; a value
    that does not parse raises a ``ConfigError`` naming the key."""
    try:
        return np.array([typ(tok) for tok in cfg[key].split(",") if tok.strip()],
                        dtype=typ)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config(group: str, leaf: str, flag_values: dict) -> dict:
    """Resolve the effective config: defaults < config file < flags."""
    schema = dict(SCHEMA[group][leaf])
    schema.update(GLOBAL_KEYS)
    resolved = {key: default for key, (_, default) in schema.items()}

    config_path = flag_values.get("config") or ""
    if config_path:
        with open(config_path) as fh:
            doc = yaml.safe_load(fh) or {}
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: top level must be a mapping")
        for key, value in doc.items():
            if key in GLOBAL_KEYS:
                resolved[key] = _coerce(key, value, GLOBAL_KEYS[key][0])
            elif key == group:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: must be a mapping")
                for sub, subval in value.items():
                    if sub not in SCHEMA[group][leaf]:
                        raise ConfigError(f"unknown config key {group}.{sub}")
                    resolved[sub] = _coerce(f"{group}.{sub}", subval,
                                            SCHEMA[group][leaf][sub][0])
            elif key in SCHEMA:
                continue  # section for another command group
            else:
                raise ConfigError(f"unknown config key {key}")
    for key, value in flag_values.items():
        if value is not None and key in schema:
            resolved[key] = _coerce(key, value, schema[key][0])
    missing = [key for key, (_, default) in schema.items()
               if default is None and resolved[key] is None]
    if missing:
        raise ConfigError(f"missing required config: {', '.join(missing)}")
    check_count("seed", resolved["seed"], 0, ConfigError)
    return resolved


def _coerce(path: str, value, typ):
    """``value`` as ``typ``: a string that ``typ`` parses or a number it
    holds exactly (a str key takes a YAML number's text), never a bool
    (YAML's ``true``), null, list or mapping."""
    takes = {int: (str, int), float: (str, int, float), str: (str, int, float)}[typ]
    if isinstance(value, takes) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return typ(value)
    raise ConfigError(f"{path}: expected {typ.__name__}, got {value!r}")


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def _git_blob_sha1(path: Path) -> str:
    data = path.read_bytes()
    header = f"blob {len(data)}\0".encode()
    return hashlib.sha1(header + data).hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    """The one JSON writer: indent 1, sorted keys and a trailing newline,
    written to a temporary file that then replaces ``path``."""
    tmp = path.with_name(f".{path.stem}.tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class RunContext:
    """One command's run record. ``dispatch`` builds it before the command
    runs and writes its manifest once the command returns. The output
    directory is made at the first ``out_path`` call or at the manifest
    write, so a run that fails before its first output leaves nothing."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = {k: v for k, v in config.items() if k != "config"}
        self.config_path = config.get("config") or ""
        self.out_dir = Path(config["out"])
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.phases: dict[str, float] = {}
        self.started = time.perf_counter()

    def note_input(self, path) -> Path:
        path = Path(path)
        if path.is_file():
            self.inputs[str(path)] = _git_blob_sha1(path)
        return path

    def out_path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    @contextlib.contextmanager
    def phase(self, name: str):
        """Add the block's wall time to ``phases_s[name]`` in the manifest."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + time.perf_counter() - start)

    def write_manifest(self) -> None:
        doc = {
            "command": self.command,
            "config": self.config,
            "config_file": self.config_path,
            "toolkit_version": __version__,
            "wall_clock_seconds": time.perf_counter() - self.started,
            "phases_s": self.phases,
            "input_hashes": self.inputs,
            "produced_files": sorted(set(self.outputs)),
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(self.out_dir / "manifest.json", doc)


def _write_csv(path, header: list[str], rows) -> None:
    """The one result-file writer: a header row, then ``rows``, each float
    cell (numpy floats too) written as ``repr(float(v))``, which reads back
    to the same value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _write_loss_log(path, history: list[tuple[int, int, float]],
                    final_metrics: dict) -> None:
    """`epoch,batch,loss` rows plus one `final,key,value` row per metric."""
    _write_csv(path, ["epoch", "batch", "loss"],
               history + [("final", key, float(value))
                          for key, value in sorted(final_metrics.items())])


def _resolve_data_path(configured: str) -> Path:
    if configured:
        return Path(configured)
    root = os.environ.get(DATA_DIR_ENV, "")
    if root:
        candidate = Path(root) / "u.data"
        if candidate.is_file():
            return candidate
        return Path(root)
    raise ConfigError(f"no data path given and {DATA_DIR_ENV} is not set")


# ---------------------------------------------------------------------------
# recsys commands
# ---------------------------------------------------------------------------

def _write_metrics(path, model: str, seed: int, target: int, rmse: float) -> None:
    _write_csv(path, ["model", "seed", "target", "rmse"],
               [(model, seed, target, float(rmse))])


def _load_table(ctx: RunContext, cfg: dict) -> tuple:
    path = ctx.note_input(_resolve_data_path(cfg["data"]))
    table = rs.ingest_movielens(path)
    if cfg["top_items"] < table.n_items:
        table = rs.select_top_items(table, cfg["top_items"])
    sim = rs.build_similarity(table)
    return table, sim


def cmd_recsys_train(ctx: RunContext, cfg: dict) -> None:
    with ctx.phase("load"):
        table, sim = _load_table(ctx, cfg)
    target = cfg["target"]
    with ctx.phase("train"):
        model = rs.train_rating_model(table, sim, cfg["model"], target,
                                      seed=cfg["seed"], epochs=cfg["epochs"],
                                      split=cfg["split"])
    with ctx.phase("save"):
        rs.save_rating_checkpoint(ctx.out_path("checkpoint.npz"), model)
        _write_loss_log(ctx.out_path("loss_log.csv"), model.history,
                        {"train_rmse": model.train_rmse,
                         "test_rmse": model.test_rmse})
        _write_metrics(ctx.out_path("metrics.csv"), cfg["model"], cfg["seed"],
                       target, model.test_rmse)
    print(f"test rmse {model.test_rmse:.4f} (train {model.train_rmse:.4f})")


def _restore_rating_model(ctx: RunContext, cfg: dict):
    table, sim = _load_table(ctx, cfg)
    ckpt = ctx.note_input(Path(cfg["checkpoint"]))
    spec, state, meta = load_checkpoint(ckpt)
    keys = ("target_item", "target_node", "family", "seed", "train_rmse",
            "test_rmse")
    for key in keys:
        if key not in meta:
            raise rs.DataError(f"{ckpt}: checkpoint metadata has no {key}")
    shift = rs.build_item_shift(sim)
    rs.checked_pole_bounds(state, shift)
    # target_node is the trained item's node in the table the model was
    # trained on, which need not be its node in this one
    model = rs.TrainedRating(
        spec, state, shift, meta["target_item"], meta["target_node"],
        meta["family"], meta["seed"], [], meta["train_rmse"], meta["test_rmse"])
    return table, sim, model


def cmd_recsys_eval(ctx: RunContext, cfg: dict) -> None:
    table, sim, model = _restore_rating_model(ctx, cfg)
    _, test_set = rs.make_samples(table, sim, model.target_item,
                                  split=cfg["split"], seed=model.seed)
    rmse = rs.evaluate_rmse(model.spec, model.state, model.shift, test_set,
                            table.item_node(model.target_item))
    _write_metrics(ctx.out_path("metrics.csv"), model.family, model.seed,
                   model.target_item, rmse)
    print(f"rmse {rmse:.4f} on item {model.target_item}")


def cmd_recsys_transfer(ctx: RunContext, cfg: dict) -> None:
    table, sim, model = _restore_rating_model(ctx, cfg)
    rmse = rs.transfer_rmse(model, table, sim, cfg["target"],
                            split=cfg["split"])
    _write_metrics(ctx.out_path("metrics.csv"), model.family, model.seed,
                   cfg["target"], rmse)
    print(f"transfer rmse {rmse:.4f} on item {cfg['target']} "
          f"(trained for {model.target_item})")


# ---------------------------------------------------------------------------
# flocking commands
# ---------------------------------------------------------------------------

def cmd_flocking_generate(ctx: RunContext, cfg: dict) -> None:
    config = fl.FlockConfig(n_agents=cfg["agents"], duration=cfg["duration"],
                            dt=cfg["dt"])
    with ctx.phase("simulate"):
        samples, n_resampled = fl.generate_dataset(cfg["n_traj"], config,
                                                   seed=cfg["seed"])
    with ctx.phase("save"):
        fl.save_dataset(ctx.out_path(f"dataset/{fl.DATASET_FILE}").parent,
                        samples, n_resampled)
    print(f"wrote {len(samples)} trajectories ({n_resampled} resampled)")


def cmd_flocking_train(ctx: RunContext, cfg: dict) -> None:
    if cfg["model"] not in ("gcnn", "fir"):
        raise ConfigError(f"model must be gcnn or fir, got {cfg['model']!r}")
    check_count("epochs", cfg["epochs"], 0, ConfigError)
    nonlinearity = "tanh" if cfg["model"] == "gcnn" else "identity"
    dataset_dir = Path(cfg["dataset"])
    with ctx.phase("load"):
        samples = fl.load_dataset(dataset_dir)
        ctx.note_input(dataset_dir / fl.DATASET_FILE)
    with ctx.phase("train"):
        bundle, history = fl.train_policy(samples, seed=cfg["seed"],
                                          nonlinearity=nonlinearity,
                                          epochs=cfg["epochs"])
    with ctx.phase("save"):
        fl.save_policy(ctx.out_path("policy.npz"), bundle,
                       extra={"model": cfg["model"], "seed": cfg["seed"]})
        _write_loss_log(ctx.out_path("loss_log.csv"), history,
                        {"final_loss": history[-1][2] if history
                         else float("nan")})
    print(f"trained {cfg['model']} policy; final loss "
          f"{history[-1][2]:.5f}" if history else "no steps run")


def _write_costs(path, rows: list[dict], model: str) -> None:
    _write_csv(path, ["n_agents", "mean_cost", "std_cost", "model"],
               [(row["n_agents"], row["mean_cost"], row["std_cost"], model)
                for row in rows])


def _load_policy(ctx: RunContext, cfg: dict):
    """The policy bundle and its model name, from one checkpoint read."""
    spec, state, meta = load_checkpoint(ctx.note_input(Path(cfg["checkpoint"])))
    return fl.policy_from_checkpoint(spec, state, meta), meta.get("model", "gcnn")


def cmd_flocking_evaluate(ctx: RunContext, cfg: dict) -> None:
    with ctx.phase("load"):
        bundle, model = _load_policy(ctx, cfg)
    agents = cfg["agents"] or bundle.config.n_agents
    base_seed = 10_000 + cfg["seed"]
    with ctx.phase("rollout"):
        rows = fl.scalability_sweep(bundle, [agents], cfg["trials"],
                                    base_seed=base_seed)
        _write_costs(ctx.out_path("costs.csv"), rows, model)
    with ctx.phase("expert"):
        expert = np.mean(fl.expert_rollout_costs(
            replace(bundle.config, n_agents=agents),
            [base_seed + t for t in range(cfg["trials"])]))
    print(f"policy cost {rows[0]['mean_cost']:.1f} "
          f"(+-{rows[0]['std_cost']:.1f}); expert {expert:.1f}")


def cmd_flocking_sweep(ctx: RunContext, cfg: dict) -> None:
    sizes = _parse_list(cfg, "sizes", int).tolist()
    with ctx.phase("load"):
        bundle, model = _load_policy(ctx, cfg)
    with ctx.phase("rollout"):
        rows = fl.scalability_sweep(bundle, sizes, cfg["trials"],
                                    base_seed=10_000 + cfg["seed"])
        _write_costs(ctx.out_path("sweep.csv"), rows, model)
    for row in rows:
        print(f"N={row['n_agents']}: {row['mean_cost']:.1f} "
              f"(+-{row['std_cost']:.1f})")


# ---------------------------------------------------------------------------
# analyze commands
# ---------------------------------------------------------------------------

def _filter_from_config(cfg: dict):
    taps = _parse_list(cfg, "taps")
    poles = _parse_list(cfg, "arma_poles")
    if taps.size and poles.size:
        raise ConfigError("give either taps or arma parameters, not both")
    if taps.size:
        return FirTaps(taps)
    if poles.size:
        residues = _parse_list(cfg, "arma_residues")
        direct = _parse_list(cfg, "arma_direct")
        return ArmaParams(poles=poles, residues=residues,
                          direct_taps=direct if direct.size else [0.0])
    raise ConfigError("need --taps or --arma-poles/--arma-residues")


def _lambda_range(cfg: dict):
    """The checked (lo, hi) of ``lambda_range``; also checks ``points``."""
    bounds = _parse_list(cfg, "lambda_range")
    if bounds.size != 2 or not np.all(np.isfinite(bounds)) \
            or not bounds[0] < bounds[1]:
        raise ConfigError("lambda_range must be two finite values lo,hi with "
                          f"lo < hi, got {cfg['lambda_range']!r}")
    check_count("points", cfg["points"], 2, ConfigError)
    return float(bounds[0]), float(bounds[1])


def cmd_analyze_response(ctx: RunContext, cfg: dict) -> None:
    filt = _filter_from_config(cfg)
    lo, hi = _lambda_range(cfg)
    grid = np.linspace(lo, hi, cfg["points"])
    resp = fir_response(filt.taps, grid) if isinstance(filt, FirTaps) \
        else arma_response(filt, grid)
    _write_csv(ctx.out_path("response.csv"), ["lambda", "response"],
               zip(grid.tolist(), resp.tolist()))
    print(f"wrote {resp.size} response samples")


def cmd_analyze_lipschitz(ctx: RunContext, cfg: dict) -> None:
    filt = _filter_from_config(cfg)
    rep = integral_lipschitz(filt, _lambda_range(cfg), cfg["points"])
    _write_csv(ctx.out_path("lipschitz.csv"), ["C", "max_abs_response"],
               [(rep.constant, rep.max_abs_response)])
    print(f"C = {rep.constant:.6g}, max |h| = {rep.max_abs_response:.6g}")


def cmd_analyze_distance(ctx: RunContext, cfg: dict) -> None:
    kind = ShiftKind(cfg["shift_kind"])
    s = build_shift(load_graph(ctx.note_input(Path(cfg["graph"]))), kind)
    s_hat = build_shift(load_graph(ctx.note_input(Path(cfg["graph_hat"]))),
                        kind)
    res = relative_distance(s, s_hat, method=cfg["method"])
    doc = {"distance": res.distance, "method": res.method,
           "permutation": res.permutation.tolist(),
           "singular_flag": res.singular_flag}
    _write_json(ctx.out_path("distance.json"), doc)
    print(f"relative distance {res.distance:.6g} ({res.method})")


def _write_stability(path, reports) -> None:
    """One `epsilon,measured,bound,delta,C` row per stability report."""
    _write_csv(path, ["epsilon", "measured", "bound", "delta", "C"],
               [(rep.epsilon, rep.measured, rep.bound, rep.delta, rep.constant)
                for rep in reports])


def cmd_analyze_stability(ctx: RunContext, cfg: dict) -> None:
    epsilons = _parse_list(cfg, "epsilons")
    rng = np.random.default_rng(cfg["seed"])
    g = random_graph(cfg["nodes"], 0.35, rng, weighted=True)
    # Normalized, so the Perron eigenvalue does not dominate every layer and
    # leave the sampler no relu stack with a nonzero output.
    s = eigendecompose(build_shift(g, ShiftKind.NORMALIZED_ADJACENCY))
    spec, state = sample_lipschitz_gcnn(s, cfg["depth"], cfg["order"], rng)
    inputs = [x / np.linalg.norm(x) for x in
              (rng.normal(size=cfg["nodes"]) for _ in range(cfg["n_inputs"]))]
    reports = [stability_experiment(spec, state, s, DilationPerturbation(eps),
                                    inputs)
               for eps in epsilons]
    _write_stability(ctx.out_path("stability.csv"), reports)
    for rep in reports:
        print(f"eps={rep.epsilon:g}: measured {rep.measured:.3e} "
              f"<= bound {rep.bound:.3e} (violations {rep.n_violations})")


# Draws of parameters and input allowed per equivariance trial; a draw whose
# relu stack outputs all zeros measures nothing, so it is redrawn.
EQUIVARIANCE_DRAWS = 10


def cmd_analyze_equivariance(ctx: RunContext, cfg: dict) -> None:
    check_count("trials", cfg["trials"], 1, ConfigError)
    rng = np.random.default_rng(cfg["seed"])
    spec = ModelSpec((
        LayerSpec("fir", 1, 4, cfg["order"], nonlinearity="relu"),
        LayerSpec("fir", 4, 2, cfg["order"], nonlinearity="relu"),
    ), ReadoutSpec("per_node_linear", 1))
    rows = []
    for trial in range(cfg["trials"]):
        g = random_graph(cfg["nodes"], 0.35, rng, weighted=True)
        # normalized, as in `analyze stability`, so fewer relu stacks die
        s = build_shift(g, ShiftKind.NORMALIZED_ADJACENCY)
        for redraws in range(EQUIVARIANCE_DRAWS):
            state = init_state(spec, rng, shift=s)
            x = GraphSignal(rng.normal(size=cfg["nodes"]))
            _, tape = forward_batch(spec, state, s, x.values[None])
            if np.any(tape.readout_input):
                break
        else:
            raise ModelError(f"trial {trial}: all {EQUIVARIANCE_DRAWS} draws "
                             "left the relu stack output all zero")
        perm = rng.permutation(cfg["nodes"])
        rep = equivariant_forward_check(spec, state, s, x, perm)
        rows.append((trial, rep["relative_error"], redraws))
    _write_csv(ctx.out_path("equivariance.csv"),
               ["trial", "relative_error", "redraws"], rows)
    print(f"max relative equivariance error over {cfg['trials']} trials: "
          f"{max(row[1] for row in rows):.3e}, "
          f"{sum(row[2] for row in rows)} dead draws redrawn")


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

HANDLERS = {
    ("recsys", "train"): cmd_recsys_train,
    ("recsys", "eval"): cmd_recsys_eval,
    ("recsys", "transfer"): cmd_recsys_transfer,
    ("flocking", "generate"): cmd_flocking_generate,
    ("flocking", "train"): cmd_flocking_train,
    ("flocking", "evaluate"): cmd_flocking_evaluate,
    ("flocking", "sweep"): cmd_flocking_sweep,
    ("analyze", "response"): cmd_analyze_response,
    ("analyze", "lipschitz"): cmd_analyze_lipschitz,
    ("analyze", "distance"): cmd_analyze_distance,
    ("analyze", "stability"): cmd_analyze_stability,
    ("analyze", "equivariance"): cmd_analyze_equivariance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspnn",
        description="Graph filter and graph neural network toolkit")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, leaves in SCHEMA.items():
        gparser = groups.add_parser(group)
        subs = gparser.add_subparsers(dest="leaf", required=True)
        for leaf, keys in leaves.items():
            lparser = subs.add_parser(leaf)
            for key in GLOBAL_KEYS:
                lparser.add_argument(f"--{key.replace('_', '-')}",
                                     default=None)
            for key in keys:
                lparser.add_argument(f"--{key.replace('_', '-')}",
                                     default=None, help=KEY_HELP.get(key))
    return parser


def dispatch(group: str, leaf: str, flag_values: dict) -> int:
    """Run one command: the handler fills the run's one ``RunContext``, and
    its manifest is written once the handler returns."""
    config = parse_config(group, leaf, flag_values)
    ctx = RunContext(f"{group} {leaf}", config)
    HANDLERS[(group, leaf)](ctx, config)
    ctx.write_manifest()
    return 0


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _merge_dashed_values(argv: list[str]) -> list[str]:
    """Join `--flag -1,1` into `--flag=-1,1` so dash-leading numeric values
    (`-inf,1` and `-nan,1` too) survive argparse and reach the field's own
    check."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok.startswith("--") and "=" not in tok and nxt is not None \
                and nxt.startswith("-") and _is_float(nxt.split(",")[0]):
            merged.append(f"{tok}={nxt}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dashed_values(list(argv)))
    flag_values = {key: value for key, value in vars(args).items()
                   if key not in ("group", "leaf")}
    try:
        return dispatch(args.group, args.leaf, flag_values)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # subsystem failures surface with context
        print(f"error in {args.group} {args.leaf}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
