import csv
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from gspnn import cli, flocking, neural
from gspnn import recsys as rs
from gspnn.cli import ConfigError, main, parse_config
from gspnn.flocking import (
    FlockConfig,
    PolicyBundle,
    build_policy_spec,
    generate_dataset,
    save_dataset,
    save_policy,
)
from gspnn.neural import init_state

from conftest import horner_response, write_synthetic_fixture


def test_threads_config_key_is_rejected_by_name(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 3\nthreads: 2\n")
    with pytest.raises(ConfigError, match="unknown config key threads"):
        parse_config("analyze", "response", {"config": str(config)})
    code = main(["analyze", "response", "--config", str(config),
                 "--taps", "1,0.5", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown config key threads" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ("flocking: {dt: true}", "flocking.dt: expected float, got True"),
    ("flocking: {agents: true}", "flocking.agents: expected int, got True"),
    ("flocking: {n_traj: 2.7}", "flocking.n_traj: expected int, got 2.7"),
    ("seed: 3.9", "seed: expected int, got 3.9"),
])
def test_config_rejects_a_bool_or_a_fraction_for_a_number_naming_the_key(
        tmp_path, doc, message):
    # a YAML true was read as 1 and a float for an int key was truncated
    config = tmp_path / "config.yaml"
    config.write_text(doc + "\n")
    with pytest.raises(ConfigError, match=message):
        parse_config("flocking", "generate", {"config": str(config)})


def test_config_numbers_parse_from_ints_and_flag_strings(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 3\nout: 5\nflocking: {dt: 1, agents: '30'}\n")
    cfg = parse_config("flocking", "generate", {"config": str(config),
                                                "n_traj": "7", "duration": "2.5"})
    assert [(cfg[k], type(cfg[k])) for k in ("seed", "dt", "agents", "n_traj",
                                             "duration", "out")] == [
        (3, int), (1.0, float), (30, int), (7, int), (2.5, float), ("5", str)]


@pytest.mark.parametrize("argv,doc,message", [
    (["analyze", "response"], "analyze: {taps: [1, 0.5]}",
     "analyze.taps: expected str, got [1, 0.5]"),
    (["flocking", "evaluate"], "flocking: {checkpoint: true}",
     "flocking.checkpoint: expected str, got True"),
    (["analyze", "stability", "--seed", "-1"], "",
     "seed must be an integer >= 0, got -1"),
    (["analyze", "equivariance", "--trials", "-2"], "",
     "trials must be an integer >= 1, got -2"),
], ids=["str key list", "str key bool", "negative seed", "negative trials"])
def test_a_bad_value_fails_at_the_boundary_naming_the_key(tmp_path, capsys, argv,
                                                          doc, message):
    # the list reached float() as the text "[1, 0.5]", true opened the path
    # "True", the seed failed inside numpy and -2 trials exited 0
    config = tmp_path / "config.yaml"
    config.write_text(doc + "\n")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def policy_checkpoint(tmp_path):
    config = FlockConfig(n_agents=6, duration=0.05)
    spec = build_policy_spec()
    state = init_state(spec, np.random.default_rng(0))
    path = tmp_path / "policy.json"
    save_policy(path, PolicyBundle(spec, state, config.u_max, config),
                extra={"model": "fir"})
    return path


@pytest.mark.parametrize("leaf,flags,csv_name", [
    ("evaluate", ["--trials", "1"], "costs.csv"),
    ("sweep", ["--trials", "1", "--sizes", "6"], "sweep.csv"),
])
def test_flocking_commands_read_the_checkpoint_once(policy_checkpoint, tmp_path,
                                                    monkeypatch, leaf, flags,
                                                    csv_name):
    calls = []
    original = neural.load_checkpoint

    def counting(path):
        calls.append(path)
        return original(path)

    for module in (cli, flocking, neural):
        monkeypatch.setattr(module, "load_checkpoint", counting)
    out = tmp_path / "out"
    code = main(["flocking", leaf, "--checkpoint", str(policy_checkpoint),
                 "--out", str(out), *flags])
    assert code == 0
    assert len(calls) == 1
    # the model name still comes from the checkpoint's metadata
    assert (out / csv_name).read_text().splitlines()[1].endswith(",fir")


@pytest.mark.parametrize("leaf,flags,csv_name", [
    ("evaluate", [], "costs.csv"),
    ("sweep", ["--sizes", "6"], "sweep.csv"),
])
def test_flocking_rollouts_reject_zero_trials_naming_the_key(
        policy_checkpoint, tmp_path, capsys, leaf, flags, csv_name):
    # zero trials exited 0 and wrote a nan row
    out = tmp_path / "out"
    assert main(["flocking", leaf, "--checkpoint", str(policy_checkpoint),
                 "--trials", "0", "--out", str(out), *flags]) == 1
    assert "trials must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (out / csv_name).exists()
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["recsys", "train", "--data", "{tmp}/missing/u.data", "--target", "2"],
    ["flocking", "train", "--dataset", "{tmp}/missing"],
    ["flocking", "evaluate", "--checkpoint", "{checkpoint}", "--trials", "0"],
    ["flocking", "sweep", "--checkpoint", "{checkpoint}", "--trials", "0",
     "--sizes", "6"],
], ids=["recsys train", "flocking train", "flocking evaluate", "flocking sweep"])
def test_a_run_that_fails_before_its_first_output_leaves_no_out_directory(
        policy_checkpoint, tmp_path, argv):
    # --out was made before the inputs were read, so each failure left it empty
    out = tmp_path / "out"
    argv = [arg.format(tmp=tmp_path, checkpoint=policy_checkpoint) for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--model", "xyz"], "model must be gcnn or fir, got 'xyz'"),
    (["--epochs", "-1"], "epochs must be an integer >= 0, got -1"),
], ids=["model", "epochs"])
def test_flocking_train_checks_its_keys_before_reading_the_dataset(
        tmp_path, capsys, flags, message):
    # the model was checked after the dataset was read, so a missing dataset
    # was reported instead: No such file or directory: 'nowhere/dataset.npz'
    out = tmp_path / "out"
    assert main(["flocking", "train", "--dataset", str(tmp_path / "nowhere"),
                 *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "dataset.npz" not in err
    assert not out.exists()


def test_analyze_stability_runs_with_its_defaults(tmp_path):
    # seed 10 drew a graph whose raw adjacency left no live relu stack
    out = tmp_path / "out"
    assert main(["analyze", "stability", "--seed", "10", "--out", str(out)]) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "epsilon,measured,bound,delta,C"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.01", "0.02", "0.05",
                                                          "0.1"]


def test_analyze_equivariance_redraws_dead_trials(tmp_path):
    # seed 0 draws one trial whose relu stack outputs all zeros
    out = tmp_path / "out"
    assert main(["analyze", "equivariance", "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "equivariance.csv").read_text().splitlines()
    assert lines[0].split(",") == ["trial", "relative_error", "redraws"]
    assert sum(int(line.split(",")[2]) for line in lines[1:]) >= 1


def test_analyze_equivariance_fails_on_a_trial_that_stays_dead(tmp_path,
                                                               monkeypatch,
                                                               capsys):
    def zero_taps(*args, **kwargs):
        state = init_state(*args, **kwargs)
        for layer in state.layers:
            layer.taps[:] = 0.0
        return state

    monkeypatch.setattr(cli, "init_state", zero_taps)
    code = main(["analyze", "equivariance", "--trials", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "trial 0" in capsys.readouterr().err


def test_recsys_eval_rejects_a_pole_on_the_shift_diagonal(tmp_path, capsys):
    data = tmp_path / "u.data"
    write_synthetic_fixture(data)
    train_out = tmp_path / "train"
    assert main(["recsys", "train", "--data", str(data), "--target", "2",
                 "--model", "arma", "--epochs", "1", "--out", str(train_out)]) == 0
    checkpoint = train_out / "checkpoint.npz"
    spec, state, meta = neural.load_checkpoint(checkpoint)
    # the normalized adjacency has a zero diagonal: 1 / (d - gamma) blows up
    state.layers[0].gamma[...] = 0.0
    neural.save_checkpoint(checkpoint, spec, state, meta)
    capsys.readouterr()
    code = main(["recsys", "eval", "--data", str(data), "--checkpoint",
                 str(checkpoint), "--out", str(tmp_path / "eval")])
    assert code == 1
    err = capsys.readouterr().err
    assert "layers.0.gamma[0, 0, 0] = 0.0 is within" in err
    assert "shift diagonal entry 0.0" in err


def write_bench_ratings(path: Path) -> None:
    """The benchmark's seed-17 MovieLens-like ratings, written to ``path``."""
    source = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", source)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path.write_text("\n".join(inputs.movielens_like_lines(17)) + "\n")


def test_recsys_eval_reads_the_trained_item_at_its_node_in_its_own_table(
        tmp_path):
    # item 1394 is node 161 among the 200 most-rated items of the
    # benchmark's seed-17 ratings, and node 152 among the 190 most-rated;
    # an eval that took node 161 from the checkpoint exited 0 with
    # "rmse 2.5626", the model read at item 1451's node
    data = tmp_path / "u.data"
    write_bench_ratings(data)
    assert main(["recsys", "train", "--data", str(data), "--target", "1394",
                 "--model", "fir", "--epochs", "2", "--seed", "3",
                 "--out", str(tmp_path / "train")]) == 0
    checkpoint = tmp_path / "train" / "checkpoint.npz"
    assert main(["recsys", "eval", "--data", str(data), "--checkpoint",
                 str(checkpoint), "--top-items", "190",
                 "--out", str(tmp_path / "eval")]) == 0
    spec, state, meta = neural.load_checkpoint(checkpoint)
    table = rs.select_top_items(rs.ingest_movielens(data), 190)
    sim = rs.build_similarity(table)
    assert (meta["target_node"], table.item_node(1394)) == (161, 152)
    _, test_set = rs.make_samples(table, sim, 1394, split=0.9, seed=3)
    rmse = rs.evaluate_rmse(spec, state, rs.build_item_shift(sim), test_set, 152)
    assert (tmp_path / "eval" / "metrics.csv").read_text().splitlines() == [
        "model,seed,target,rmse", f"fir,3,1394,{rmse!r}"]


def test_recsys_transfer_runs_on_a_table_without_the_trained_item(tmp_path):
    # item 20 is among the 200 most-rated items of the benchmark's seed-17
    # ratings but not among the 100 most-rated; a transfer that looked the
    # trained item up in its own table failed with "unknown item id 20"
    data = tmp_path / "u.data"
    write_bench_ratings(data)
    assert main(["recsys", "train", "--data", str(data), "--target", "20",
                 "--model", "fir", "--epochs", "2", "--seed", "3",
                 "--out", str(tmp_path / "train")]) == 0
    checkpoint = tmp_path / "train" / "checkpoint.npz"
    assert main(["recsys", "transfer", "--data", str(data), "--checkpoint",
                 str(checkpoint), "--top-items", "100", "--target", "1394",
                 "--out", str(tmp_path / "transfer")]) == 0
    spec, state, meta = neural.load_checkpoint(checkpoint)
    table = rs.select_top_items(rs.ingest_movielens(data), 100)
    sim = rs.build_similarity(table)
    with pytest.raises(rs.DataError, match="unknown item id 20"):
        table.item_node(20)
    _, test_set = rs.make_samples(table, sim, 1394, split=0.9, seed=3)
    rmse = rs.evaluate_rmse(spec, state, rs.build_item_shift(sim), test_set,
                            table.item_node(1394))
    assert (tmp_path / "transfer" / "metrics.csv").read_text().splitlines() == [
        "model,seed,target,rmse", f"fir,3,1394,{rmse!r}"]


@pytest.mark.parametrize("key", ["target_item", "target_node", "family", "seed",
                                 "train_rmse", "test_rmse"])
def test_recsys_eval_names_a_missing_checkpoint_key(tmp_path, capsys, key):
    data = tmp_path / "u.data"
    write_synthetic_fixture(data)
    train_out = tmp_path / "train"
    assert main(["recsys", "train", "--data", str(data), "--target", "2",
                 "--epochs", "1", "--out", str(train_out)]) == 0
    checkpoint = train_out / "checkpoint.npz"
    spec, state, meta = neural.load_checkpoint(checkpoint)
    del meta[key]
    neural.save_checkpoint(checkpoint, spec, state, meta)
    capsys.readouterr()
    for leaf, extra in (("eval", []), ("transfer", ["--target", "4"])):
        assert main(["recsys", leaf, "--data", str(data), "--checkpoint",
                     str(checkpoint), "--out", str(tmp_path / leaf), *extra]) == 1
        assert capsys.readouterr().err == (
            f"error in recsys {leaf}: {checkpoint}: checkpoint metadata "
            f"has no {key}\n")


def test_recsys_train_writes_its_metrics_and_loss_log(tmp_path):
    data = tmp_path / "u.data"
    write_synthetic_fixture(data)
    out = tmp_path / "out"
    assert main(["recsys", "train", "--data", str(data), "--target", "2",
                 "--seed", "1", "--epochs", "1", "--out", str(out)]) == 0
    meta = neural.load_checkpoint(out / "checkpoint.npz")[2]
    assert (out / "metrics.csv").read_text().splitlines() == [
        "model,seed,target,rmse", f"gcnn,1,2,{meta['test_rmse']!r}"]
    lines = (out / "loss_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,batch,loss"
    assert lines[1].startswith("0,0,")
    assert lines[-2:] == [f"final,test_rmse,{meta['test_rmse']!r}",
                          f"final,train_rmse,{meta['train_rmse']!r}"]


def test_recsys_train_rejects_a_negative_top_items_count(tmp_path, capsys):
    data = tmp_path / "u.data"
    write_synthetic_fixture(data)
    config = tmp_path / "config.yaml"
    config.write_text("recsys:\n  top_items: -1\n")
    code = main(["recsys", "train", "--config", str(config), "--data", str(data),
                 "--target", "2", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ("error in recsys train: count must be "
                                       "an integer >= 1, got -1\n")


@pytest.mark.parametrize("leaf", ["response", "lipschitz"])
@pytest.mark.parametrize("field,value", [
    ("lambda_range", "1"), ("lambda_range", "0,1,2"),
    ("lambda_range", "-inf,1"), ("lambda_range", "0,nan"),
    ("lambda_range", "1,1"), ("lambda_range", "2,1"), ("lambda_range", "a,1"),
    ("points", "1"), ("points", "-3"),
])
def test_analyze_lambda_grid_is_checked_at_the_boundary(tmp_path, capsys, leaf,
                                                         field, value):
    with pytest.raises(ConfigError, match=f"^{field}"):
        cli.dispatch("analyze", leaf, {"taps": "1,0.5", field: value,
                                       "out": str(tmp_path / "direct")})
    code = main(["analyze", leaf, "--taps", "1,0.5",
                 f"--{field.replace('_', '-')}={value}",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")


@pytest.mark.parametrize("leaf", ["response", "lipschitz"])
@pytest.mark.parametrize("value", ["-inf,1", "-nan,1"])
def test_analyze_dash_leading_non_finite_range_reaches_the_field_check(
        tmp_path, capsys, leaf, value):
    for args in (["--lambda-range", value], [f"--lambda-range={value}"]):
        code = main(["analyze", leaf, "--taps", "1,0.5", *args,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: lambda_range must be")


@pytest.mark.parametrize("argv,key,token", [
    (["analyze", "response", "--taps", "1,x"], "taps", "x"),
    (["analyze", "lipschitz", "--arma-poles", "2,y"], "arma_poles", "y"),
    (["analyze", "response", "--arma-poles", "2", "--arma-residues", "1,q"],
     "arma_residues", "q"),
    (["analyze", "response", "--arma-poles", "2", "--arma-residues", "1",
      "--arma-direct", "0,w"], "arma_direct", "w"),
    (["analyze", "stability", "--epsilons", "0.1,zz"], "epsilons", "zz"),
    (["flocking", "sweep", "--checkpoint", "none.npz", "--sizes", "25,1.5"],
     "sizes", "1.5"),
])
def test_list_keys_that_do_not_parse_are_named(tmp_path, capsys, argv, key, token):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and f"'{token}'" in err


def test_analyze_distance_names_the_bad_graph_line(tmp_path, capsys):
    good, bad = tmp_path / "g.edges", tmp_path / "bad.edges"
    good.write_text("nodes 3\n0 1 1.0\n1 2 1.0\n")
    bad.write_text("nodes 3\n0 1 1.0\n1 2 x\n")
    code = main(["analyze", "distance", "--graph", str(good), "--graph-hat",
                 str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{bad}:3: weight 'x' is not a real number" in capsys.readouterr().err


@pytest.mark.parametrize("line,problem", [
    ("1 5 1.0", "edge (1,5) out of range for 3 nodes"),
    ("2 2 1.0", "self-loop on node 2 not allowed in the edge list"),
    ("1 2 -1.0", "edge (1,2) needs a positive finite weight, got -1.0"),
    ("1 0 2.0", "duplicate edge (1,0)"),
])
def test_analyze_distance_names_the_line_of_a_broken_graph_rule(tmp_path, capsys,
                                                                line, problem):
    good, bad = tmp_path / "g.edges", tmp_path / "bad.edges"
    good.write_text("nodes 3\n0 1 1.0\n1 2 1.0\n")
    bad.write_text(f"nodes 3\n# two edges\n0 1 1.0\n\n{line}\n")
    code = main(["analyze", "distance", "--graph", str(good), "--graph-hat",
                 str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{bad}:5: {problem}" in capsys.readouterr().err


def test_dash_leading_values_join_only_when_they_read_as_numbers():
    merged = cli._merge_dashed_values(
        ["--lambda-range", "-inf,1", "--taps", "-1.5,2", "--a", "-x,1",
         "--b", "--c"])
    assert merged == ["--lambda-range=-inf,1", "--taps=-1.5,2", "--a", "-x,1",
                      "--b", "--c"]


def test_analyze_response_csv_equals_the_scalar_horner_rendering(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "response", "--taps", "0.3,-1.2,0.7,0.05",
                 "--lambda-range", "-1.5,2", "--points", "97",
                 "--out", str(out)]) == 0
    grid = np.linspace(-1.5, 2.0, 97)
    resp = horner_response([0.3, -1.2, 0.7, 0.05], grid)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["lambda", "response"])
    for lam, val in zip(grid, resp):
        writer.writerow([repr(float(lam)), repr(float(val))])
    assert (out / "response.csv").read_bytes() == want.getvalue().encode()


def test_flocking_train_hashes_every_dataset_file(tmp_path):
    samples, n_res = generate_dataset(2, FlockConfig(n_agents=6, duration=0.05),
                                      seed=3)
    dataset = tmp_path / "dataset"
    save_dataset(dataset, samples, n_res)
    out = tmp_path / "out"
    assert main(["flocking", "train", "--dataset", str(dataset),
                 "--epochs", "1", "--out", str(out)]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["input_hashes"]
    archive = dataset / "dataset.npz"
    assert [p.name for p in dataset.iterdir()] == ["dataset.npz"]
    assert inputs == {str(archive): cli._git_blob_sha1(archive)}


def test_flocking_generate_records_the_one_archive(tmp_path):
    out = tmp_path / "out"
    assert main(["flocking", "generate", "--n-traj", "2", "--agents", "6",
                 "--duration", "0.05", "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["produced_files"] == ["dataset/dataset.npz"]
    assert len(flocking.load_dataset(out / "dataset")) == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--dt", "0", "dt must be finite and > 0"),
    ("--duration", "-1", "duration must be finite and > 0"),
    ("--duration", "0.001", "duration must be >= dt"),
    ("--agents", "1", "n_agents must be an integer >= 2"),
])
def test_flocking_generate_rejects_a_bad_config_naming_the_field(
        tmp_path, capsys, flag, value, message):
    code = main(["flocking", "generate", "--n-traj", "1", flag, value,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_flocking_evaluate_rejects_a_recsys_checkpoint_naming_the_field(
        tmp_path, capsys):
    data = tmp_path / "u.data"
    write_synthetic_fixture(data)
    assert main(["recsys", "train", "--data", str(data), "--target", "2",
                 "--epochs", "1", "--out", str(tmp_path / "train")]) == 0
    capsys.readouterr()
    code = main(["flocking", "evaluate", "--checkpoint",
                 str(tmp_path / "train" / "checkpoint.npz"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "metadata has no action_scale" in capsys.readouterr().err


def _phases_cover_the_wall_clock(out, names):
    doc = json.loads((out / "manifest.json").read_text())
    phases, wall = doc["phases_s"], doc["wall_clock_seconds"]
    assert sorted(phases) == sorted(names)
    assert all(t >= 0.0 for t in phases.values())
    assert abs(sum(phases.values()) - wall) <= 0.05 * wall, (phases, wall)


def test_flocking_train_phases_cover_the_wall_clock(tmp_path):
    samples, n_res = generate_dataset(3, FlockConfig(n_agents=8, duration=0.3),
                                      seed=3)
    dataset = tmp_path / "dataset"
    save_dataset(dataset, samples, n_res)
    out = tmp_path / "out"
    assert main(["flocking", "train", "--dataset", str(dataset),
                 "--epochs", "5", "--out", str(out)]) == 0
    _phases_cover_the_wall_clock(out, ["load", "train", "save"])


def test_flocking_generate_phases_cover_the_wall_clock(tmp_path):
    out = tmp_path / "out"
    assert main(["flocking", "generate", "--n-traj", "4", "--agents", "8",
                 "--duration", "0.5", "--out", str(out)]) == 0
    _phases_cover_the_wall_clock(out, ["simulate", "save"])


@pytest.mark.parametrize("leaf,flags,names", [
    ("evaluate", ["--trials", "3"], ["load", "rollout", "expert"]),
    ("sweep", ["--trials", "2", "--sizes", "8,12"], ["load", "rollout"]),
])
def test_flocking_policy_command_phases_cover_the_wall_clock(tmp_path, leaf,
                                                             flags, names):
    config = FlockConfig(n_agents=8, duration=0.5)
    spec = build_policy_spec()
    checkpoint = tmp_path / "policy.npz"
    save_policy(checkpoint, PolicyBundle(spec, init_state(
        spec, np.random.default_rng(0)), config.u_max, config))
    out = tmp_path / "out"
    assert main(["flocking", leaf, "--checkpoint", str(checkpoint),
                 "--out", str(out), *flags]) == 0
    _phases_cover_the_wall_clock(out, names)


def test_flocking_evaluate_fails_when_an_expert_run_aborts(
        policy_checkpoint, tmp_path, capsys, monkeypatch):
    original = flocking.spawn_state

    def coincident_spawn(config, rng):
        state = original(config, rng)
        state.positions[1] = state.positions[0]
        return state

    monkeypatch.setattr(flocking, "spawn_state", coincident_spawn)
    with np.errstate(invalid="ignore"):     # the policy's runs all cost inf
        code = main(["flocking", "evaluate", "--checkpoint",
                     str(policy_checkpoint), "--trials", "2",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "coincident agents" in capsys.readouterr().err


def test_recsys_train_phases_cover_the_wall_clock(tmp_path):
    data = tmp_path / "u.data"
    write_synthetic_fixture(data)
    out = tmp_path / "out"
    assert main(["recsys", "train", "--data", str(data), "--target", "2",
                 "--model", "gcnn", "--epochs", "20", "--out", str(out)]) == 0
    _phases_cover_the_wall_clock(out, ["load", "train", "save"])
