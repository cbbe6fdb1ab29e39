import numpy as np
import pytest

from gspnn import cli, flocking, neural
from gspnn import recsys as rs
from gspnn.cli import ConfigError, main, parse_config
from gspnn.flocking import FlockConfig, PolicyBundle, build_policy_spec, save_policy
from gspnn.neural import init_state


def test_threads_config_key_is_rejected_by_name(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 3\nthreads: 2\n")
    with pytest.raises(ConfigError, match="unknown config key threads"):
        parse_config("analyze", "response", {"config": str(config)})
    code = main(["analyze", "response", "--config", str(config),
                 "--taps", "1,0.5", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown config key threads" in capsys.readouterr().err


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


def test_analyze_stability_runs_with_its_defaults(tmp_path):
    # seed 10 drew a graph whose raw adjacency left no live relu stack
    out = tmp_path / "out"
    assert main(["analyze", "stability", "--seed", "10", "--out", str(out)]) == 0
    rows = (out / "stability.csv").read_text().splitlines()
    assert len(rows) > 1


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
    rs.write_synthetic_fixture(data)
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
