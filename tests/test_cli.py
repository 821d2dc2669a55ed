"""End-to-end checks for the command line driver.

Every command runs in-process through main(argv) and writes into a fresh
directory, so reruns of the same config can be compared byte for byte.
"""

import json
import math
import os

import numpy as np
import pytest

from rflab import cli, config, sweep
from rflab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from rflab.distributions import DistributionSpec
from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet, save_checkpoint
from rflab.sampler import euler_integrate


def _write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        meta = fh.readline().rstrip("\n")
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return meta, header, rows


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- config validation exits 2 with the offending field named ----------------------


def test_missing_config_file_exits_config(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out"), "train"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "cannot read config" in err


def test_invalid_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "task": }\n', encoding="utf-8")
    code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "train"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid JSON" in err
    assert "line 2" in err
    assert "column" in err


def test_unknown_task_names_the_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"task": "spiral"})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "train"])
    assert code == EXIT_CONFIG
    assert "field 'task'" in capsys.readouterr().err


@pytest.mark.parametrize("seed,flag", [(-3, None), (2 ** 64, None),
                                       (1.5, None), (True, None), (0, "-1")],
                         ids=["-3", str(2 ** 64), "1.5", "True", "flag"])
def test_bad_seed_rejected(tmp_path, capsys, seed, flag):
    # a bad --seed is reported as the flag, not as the config field
    cfg = _write_config(tmp_path, {"seed": seed})
    code = main(["--config", cfg, *(["--seed", flag] if flag else []),
                 "--out", str(tmp_path / "out"), "gradcheck"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    if flag:
        assert "config error: --seed must" in err and "field" not in err
    else:
        assert "field 'seed'" in err


def test_endpoint_dimension_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "pi0": {"kind": "gaussian", "dim": 1, "mean": [0.0], "std": 1.0},
        "pi1": {"kind": "gaussian", "dim": 2, "mean": [1.0, 1.0], "std": 1.0},
    })
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "train"])
    assert code == EXIT_CONFIG
    assert "dimensions differ" in capsys.readouterr().err


def test_arch_dim_must_match_endpoints(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"task": "gaussian_1d",
                                   "arch": {"dim": 2, "hidden": [4, 4]}})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "train"])
    assert code == EXIT_CONFIG
    assert "arch.dim" in capsys.readouterr().err


def test_jobs_must_be_positive(tmp_path, capsys):
    code = main(["--jobs", "0", "--out", str(tmp_path / "out"), "gradcheck"])
    assert code == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command,field", [
    ("sweep", "sweep"), ("bounds", "bounds"), ("lowerbound", "lowerbound")])
def test_commands_requiring_blocks(tmp_path, capsys, command, field):
    # the default config has no sweep/bounds/lowerbound block
    code = main(["--out", str(tmp_path / "out"), command])
    assert code == EXIT_CONFIG
    assert f"missing field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("grid,fragment", [
    ([32, 64, 128, 1024], "needs >= 5"),
    ([32, 64, 64, 128, 1024], "ascending"),
    ([32, 40, 50, 64, 128], "1.5 decades"),
])
def test_sweep_grid_validation(tmp_path, capsys, grid, fragment):
    cfg = _write_config(tmp_path, {"sweep": {"grid": grid}})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "sweep"])
    assert code == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


_SWEEP_BLOCK = {"grid": [32, 64, 128, 256, 1024], "trials": 1, "epochs": 1,
                "proxy_n": 256, "proxy_epochs": 1, "proxy_batch": 64,
                "eval_samples": 64, "euler_steps": 4}
_LOWERBOUND_BLOCK = {"R": 10.0, "epsilon": 0.1}
_BOUNDS_BLOCK = {"P": 4, "n": 20000, "B": 0.02, "L_ell": 1.0, "mu": 1.0,
                 "L_theta": 1.0}
_DIM3_GAUSSIAN = {"kind": "gaussian", "dim": 3, "mean": [0.0], "std": 1.0}
_GAUSSIAN = {"kind": "gaussian", "mean": [0.0], "std": 1.0}
_TRAIN_BLOCK = {"n_samples": 64, "batch_size": 32, "steps": 4}

# config, command, the field the message must name; each of these exited 0,
# exited 3, escaped as a traceback or created the output directory before
_CONFIG_PROBES = {
    "sweep-trails": ({"sweep": {**_SWEEP_BLOCK, "trails": 1}}, "sweep",
                     "unknown field 'sweep.trails'"),
    "sweep-steps-exponet": ({"sweep": {**_SWEEP_BLOCK, "steps_exponet": 1.5}},
                            "sweep", "unknown field 'sweep.steps_exponet'"),
    "sweep-trials-abc": ({"sweep": {**_SWEEP_BLOCK, "trials": "abc"}}, "sweep",
                         "field 'sweep.trials' must be an integer"),
    "sweep-grid-text": ({"sweep": {**_SWEEP_BLOCK, "grid": [32, "x"]}},
                        "sweep", "field 'sweep.grid' must be an integer"),
    "sweep-not-an-object": ({"sweep": [1]}, "sweep",
                            "field 'sweep' must be a JSON object"),
    # a grid below 1 raised ZeroDivisionError or a math domain error
    "sweep-grid-zero": ({"sweep": {**_SWEEP_BLOCK,
                                   "grid": [0, 10, 100, 1000, 10000]}}, "sweep",
                        "field 'sweep': grid values must be >= 1"),
    "sweep-grid-negative": ({"sweep": {**_SWEEP_BLOCK,
                                       "grid": [-5, 10, 100, 1000, 10000]}},
                            "sweep", "field 'sweep': grid values must be >= 1"),
    "sweep-eval-samples-one": ({"sweep": {**_SWEEP_BLOCK, "eval_samples": 1}},
                               "sweep",
                               "field 'sweep': eval_samples must be >= 2"),
    "arch-hiden": ({"train": _TRAIN_BLOCK, "arch": {"hiden": [4]}}, "train",
                   "unknown field 'arch.hiden'"),
    "arch-l1-budjet": ({"train": _TRAIN_BLOCK, "arch": {"l1_budjet": 2.0}},
                       "train", "unknown field 'arch.l1_budjet'"),
    "top-level-trian": ({"trian": _TRAIN_BLOCK}, "train",
                        "unknown field 'trian'"),
    "train-stpes": ({"train": {**_TRAIN_BLOCK, "stpes": 4}}, "train",
                    "unknown field 'train.stpes'"),
    "pi0-sd": ({"pi0": {"kind": "gaussian", "mean": [0.0], "std": 1.0,
                        "sd": 2.0}}, "gradcheck", "unknown field 'pi0.sd'"),
    "pi0-subgaussian-sigma": ({"pi0": {**_GAUSSIAN, "subgaussian_sigma": 1.0}},
                              "gradcheck",
                              "unknown field 'pi0.subgaussian_sigma'"),
    "pi1-not-an-object": ({"pi1": 5}, "gradcheck",
                          "field 'pi1' must be a JSON object"),
    "lowerbound-grid-m": ({"lowerbound": {**_LOWERBOUND_BLOCK, "grid_m": 5}},
                          "lowerbound", "unknown field 'lowerbound.grid_m'"),
    "lowerbound-m-x": ({"lowerbound": {**_LOWERBOUND_BLOCK, "m": "x"}},
                       "lowerbound", "field 'lowerbound.m' must be an integer"),
    "bounds-sigma-x": ({"bounds": {"P": 4, "n": 20000, "B": 0.02, "L_ell": 1.0,
                                   "mu": 1.0, "L_theta": 1.0, "sigma": "x"}},
                       "bounds", "field 'bounds.sigma' must be a number"),
    "out-dir-number": ({"out_dir": 5}, "gradcheck",
                       "field 'out_dir' must be a string"),
    "train-c-text": ({"train": {"c": "x"}, "sweep": _SWEEP_BLOCK}, "sweep",
                     "field 'train.c' must be a number, not 'x'"),
    "bounds-P-text": ({"bounds": {**_BOUNDS_BLOCK, "P": "x"}}, "bounds",
                      "field 'bounds.P' must be an integer, not 'x'"),
    "bounds-P-fraction": ({"bounds": {**_BOUNDS_BLOCK, "P": 4.5}}, "bounds",
                          "field 'bounds.P' must be an integer, not 4.5"),
    "pi0-dim-mismatch": ({"train": _TRAIN_BLOCK, "pi0": _DIM3_GAUSSIAN,
                          "pi1": _DIM3_GAUSSIAN}, "train",
                         "field 'pi0.dim' is 3, not the data's width 1"),
    # every block is checked at load, whichever command runs
    "train-with-invalid-bounds": ({"train": _TRAIN_BLOCK,
                                   "bounds": {**_BOUNDS_BLOCK, "P": 0}},
                                  "train", "field 'bounds': P must be > 0"),
    "lowerbound-m-zero": ({"lowerbound": {**_LOWERBOUND_BLOCK, "m": 0}},
                          "lowerbound", "field 'lowerbound.m' must be >= 1"),
    # train.n_samples below 1 exits at load, whichever command runs
    "train-n-samples-zero": ({"train": {**_TRAIN_BLOCK, "n_samples": 0}},
                             "train", "field 'train.n_samples' must be >= 1"),
    "gradcheck-n-samples-zero": ({"train": {**_TRAIN_BLOCK, "n_samples": 0}},
                                 "gradcheck",
                                 "field 'train.n_samples' must be >= 1"),
    "sweep-n-samples-negative": ({"train": {"n_samples": -1},
                                  "sweep": _SWEEP_BLOCK}, "sweep",
                                 "field 'train.n_samples' must be >= 1"),
    "train-n-samples-fraction": ({"train": {**_TRAIN_BLOCK, "n_samples": 64.5}},
                                 "train", "field 'train.n_samples' must be an "
                                 "integer, not 64.5"),
    # train draws n_samples rows, which must hold a minibatch
    "train-batch-above-n-samples": (
        {"train": {**_TRAIN_BLOCK, "n_samples": 16}}, "train",
        "field 'train.n_samples' (16) must be >= train.batch_size (32)"),
    # a sweep never reads n_samples, so its default 1024 stays below the batch
    "train-on-sweep-config-big-batch": (
        {"train": {"batch_size": 2048}, "sweep": _SWEEP_BLOCK}, "train",
        "field 'train.n_samples' (1024) must be >= train.batch_size (2048)"),
    # a string or a boolean where a number belongs is not read as one
    "train-c-numeric-text": ({"train": {**_TRAIN_BLOCK, "c": "0.5"}}, "train",
                             "field 'train.c' must be a number, not '0.5'"),
    "train-steps-true": ({"train": {**_TRAIN_BLOCK, "steps": True}}, "train",
                         "field 'train.steps' must be an integer, not True"),
    "arch-hidden-fraction": ({"train": _TRAIN_BLOCK, "arch": {"hidden": [8.5]}},
                             "train",
                             "field 'arch.hidden' must be an integer, not 8.5"),
    "arch-hidden-text": ({"train": _TRAIN_BLOCK, "arch": {"hidden": ["8"]}},
                         "train",
                         "field 'arch.hidden' must be an integer, not '8'"),
    "arch-hidden-number": ({"train": _TRAIN_BLOCK, "arch": {"hidden": 8}},
                           "train", "field 'arch.hidden' must be a list"),
    "sweep-grid-numeric-text": (
        {"sweep": {**_SWEEP_BLOCK, "grid": [str(n) for n in _SWEEP_BLOCK["grid"]]}},
        "sweep", "field 'sweep.grid' must be an integer, not '32'"),
    "bounds-sigma-numeric-text": ({"bounds": {**_BOUNDS_BLOCK, "sigma": "2"}},
                                  "bounds",
                                  "field 'bounds.sigma' must be a number, not '2'"),
    "pi0-std-text": ({"pi0": {**_GAUSSIAN, "std": "1"}}, "gradcheck",
                     "field 'pi0.std' must be a number, not '1'"),
    "pi1-mean-true": ({"pi1": {**_GAUSSIAN, "mean": [True]}}, "gradcheck",
                      "field 'pi1.mean' must be a number, not True"),
    "pi1-weight-text": (
        {"pi1": {"kind": "gaussian_mixture", "components": [
            {"weight": "1", "mean": [0.0], "std": 1.0}]}}, "gradcheck",
        "field 'pi1.components[0].weight' must be a number, not '1'"),
    # an endpoint's numbers go through the same check as every other block's
    "pi0-dim-true": ({"train": _TRAIN_BLOCK, "pi0": {**_GAUSSIAN, "dim": True}},
                     "train", "field 'pi0.dim' must be an integer, not True"),
    "pi1-dim-text": ({"train": _TRAIN_BLOCK, "pi1": {**_GAUSSIAN, "dim": "1"}},
                     "train", "field 'pi1.dim' must be an integer, not '1'"),
    "pi1-points-text": ({"pi1": {"kind": "empirical", "points": [[1.0], ["2"]]}},
                        "gradcheck", "field 'pi1.points' must be a number, not '2'"),
    "pi1-points-ragged": ({"pi1": {"kind": "empirical",
                                   "points": [[1.0], [2.0, 3.0]]}}, "gradcheck",
                          "field 'pi1.points' must be a rectangular array"),
    "pi1-components-int": ({"pi1": {"kind": "gaussian_mixture",
                                    "components": 3}}, "gradcheck",
                           "field 'pi1.components' must be a list"),
    "pi1-component-std-text": (
        {"pi1": {"kind": "gaussian_mixture", "components": [
            {"weight": 1.0, "mean": [0.0], "std": "1"}]}}, "gradcheck",
        "field 'pi1.components[0].std' must be a number, not '1'"),
    # the shuffle seed is the top-level seed; a train block cannot set it
    "train-seed": ({"train": {**_TRAIN_BLOCK, "seed": 1}}, "train",
                   "unknown field 'train.seed'"),
    # JSON Infinity is a float, but no config number may be infinite
    "train-c-infinity": ({"train": {**_TRAIN_BLOCK, "c": math.inf}}, "train",
                         "field 'train.c' must be a number, not inf"),
    "arch-l1-budget-infinity": ({"train": _TRAIN_BLOCK,
                                 "arch": {"l1_budget": math.inf}}, "train",
                                "field 'arch.l1_budget' must be a number, not inf"),
    "pi0-std-infinity": ({"pi0": {**_GAUSSIAN, "std": math.inf}}, "gradcheck",
                         "field 'pi0.std' must be a number, not inf"),
}


@pytest.mark.parametrize("obj,command,message", _CONFIG_PROBES.values(),
                         ids=_CONFIG_PROBES.keys())
def test_config_typos_exit_config_before_any_work(tmp_path, capsys, obj,
                                                  command, message):
    cfg = _write_config(tmp_path, obj)
    out = tmp_path / "out"
    # out_dir is only read when --out is absent
    flags = [] if "out_dir" in obj else ["--out", str(out)]
    code = main(["--config", cfg, *flags, command])
    assert code == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# the block each preset's command line in the README needs
_PRESET_BLOCKS = {"bounds_table.json": "bounds", "gaussian1d_sweep.json": "sweep",
                  "gaussian1d_train.json": "train", "lowerbound.json": "lowerbound",
                  "mixture2d_reflow.json": "train"}


@pytest.mark.parametrize("name", sorted(os.listdir(_CONFIGS)))
def test_every_shipped_preset_loads(name):
    path = os.path.join(_CONFIGS, name)
    exp = config.load_experiment(path)
    block = _PRESET_BLOCKS[name]
    assert block in _read_json(path)
    assert getattr(exp, block) is not None


def test_lowerbound_block_requires_R(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"lowerbound": {"epsilon": 0.1}})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "lowerbound"])
    assert code == EXIT_CONFIG
    assert "lowerbound.R" in capsys.readouterr().err


# -- gradcheck ---------------------------------------------------------------------


def test_gradcheck_passes_and_reruns_identically(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--out", str(out_a), "gradcheck"]) == EXIT_OK
    assert main(["--out", str(out_b), "gradcheck"]) == EXIT_OK
    rep = _read_json(out_a / "gradcheck.json")
    assert rep["passed"] is True
    assert rep["max_rel_err"] <= 1e-5
    # default arch plus the three battery entries, none coinciding
    assert len(rep["cases"]) == 4
    assert (out_a / "gradcheck.json").read_bytes() \
        == (out_b / "gradcheck.json").read_bytes()
    assert "max rel err" in capsys.readouterr().out


# -- train -------------------------------------------------------------------------

_SMALL_TRAIN = {
    "task": "gaussian_1d",
    "seed": 11,
    "train": {"n_samples": 128, "batch_size": 32, "steps": 60,
              "record_every": 20},
}


def test_train_outputs_and_byte_identical_rerun(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_TRAIN)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "train"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_b), "train"]) == EXIT_OK

    summary = _read_json(out_a / "train_summary.json")
    assert summary["seed"] == 11
    assert summary["n_samples"] == 128
    assert summary["steps"] == 60
    assert summary["final_loss"] < summary["initial_loss"]

    meta, header, rows = _read_csv(out_a / "trace.csv")
    assert meta.startswith("# config_sha256=")
    assert header == ["step", "loss", "grad_norm", "eta", "max_row_l1"]
    assert [int(r[0]) for r in rows] == [0, 20, 40, 59]

    # output directories differ but nothing inside the files depends on them
    for name in ("checkpoint.bin", "trace.csv", "train_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_mixture_task_smoke(tmp_path):
    cfg = _write_config(tmp_path, {
        "task": "mixture_2d", "seed": 4,
        "train": {"n_samples": 96, "batch_size": 32, "steps": 30,
                  "record_every": 30},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "train"]) == EXIT_OK
    summary = _read_json(out / "train_summary.json")
    assert summary["task"] == "mixture_2d"
    assert math.isfinite(summary["final_loss"])


def test_train_point_mass_pair_fits_to_tolerance(tmp_path):
    # a single coupled pair is realizable, so constant steps drive the
    # squared loss to the noise floor
    cfg = _write_config(tmp_path, {
        "seed": 3,
        "pi0": {"kind": "empirical", "dim": 1, "points": [[0.0]]},
        "pi1": {"kind": "empirical", "dim": 1, "points": [[2.0]]},
        "train": {"n_samples": 64, "batch_size": 64, "steps": 2000,
                  "schedule": "constant", "eta": 0.5, "record_every": 500},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "train"]) == EXIT_OK
    assert _read_json(out / "train_summary.json")["final_loss"] < 1e-4


# -- sample ------------------------------------------------------------------------


def _default_arch():
    return NetArchitecture(dim=1, hidden=(8,), activation="tanh",
                           l1_budget=4.0, act_bound=1.0)


def _samples_matrix(path):
    _, header, rows = _read_csv(path)
    assert header[0] == "dim_0"
    return np.array([[float(v) for v in r] for r in rows])


def test_sample_zero_field_returns_initial_draws(tmp_path):
    ck = tmp_path / "zero.bin"
    save_checkpoint(VelocityNet.zeros(_default_arch()), str(ck), seed=0,
                    step=0)
    cfg = _write_config(tmp_path, {"task": "gaussian_1d", "seed": 11})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck), "--steps", "50",
                 "--count", "40"]) == EXIT_OK

    got = _samples_matrix(out / "samples.csv")
    pi0 = DistributionSpec(kind="gaussian", dim=1, mean=np.zeros(1), std=1.0)
    want = pi0.sample(RngStream(11).derive(5), 40)
    # repr round-trips doubles exactly, so the CSV is lossless
    assert np.array_equal(got, want)

    summary = _read_json(out / "sample_summary.json")
    assert summary["count"] == 40
    assert summary["euler_steps"] == 50
    assert summary["reflow_rounds"] == 0
    assert summary["straightness_per_round"] == []


def test_sample_single_step_matches_one_step_sample(tmp_path):
    arch = _default_arch()
    net = VelocityNet.init(arch, RngStream(3))
    ck = tmp_path / "net.bin"
    save_checkpoint(net, str(ck), seed=3, step=0)
    cfg = _write_config(tmp_path, {"task": "gaussian_1d", "seed": 11})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck), "--steps", "1",
                 "--count", "16"]) == EXIT_OK

    got = _samples_matrix(out / "samples.csv")
    pi0 = DistributionSpec(kind="gaussian", dim=1, mean=np.zeros(1), std=1.0)
    z0 = pi0.sample(RngStream(11).derive(5), 16)
    assert np.array_equal(got, z0 + net(z0, 0.0))


def test_sample_trajectories_table(tmp_path):
    ck = tmp_path / "zero.bin"
    save_checkpoint(VelocityNet.zeros(_default_arch()), str(ck), seed=0,
                    step=0)
    cfg = _write_config(tmp_path, {"task": "gaussian_1d", "seed": 11})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck), "--steps", "4", "--count", "3",
                 "--trajectories"]) == EXIT_OK

    _, header, rows = _read_csv(out / "trajectories.csv")
    assert header == ["sample", "step", "time", "dim_0"]
    assert len(rows) == 3 * 5
    times = sorted({float(r[2]) for r in rows})
    assert times == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_sample_reflow_records_straightness(tmp_path):
    arch = _default_arch()
    net = VelocityNet.init(arch, RngStream(3))
    ck = tmp_path / "net.bin"
    save_checkpoint(net, str(ck), seed=3, step=0)
    cfg = _write_config(tmp_path, {
        "task": "gaussian_1d", "seed": 11,
        "train": {"n_samples": 96, "batch_size": 32, "steps": 40,
                  "record_every": 40},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck), "--steps", "8", "--count", "8",
                 "--reflow", "1"]) == EXIT_OK
    summary = _read_json(out / "sample_summary.json")
    assert summary["reflow_rounds"] == 1
    rounds = summary["straightness_per_round"]
    assert len(rounds) == 2
    assert all(v >= 0.0 for v in rounds)


def test_sample_trajectories_follow_the_euler_states(tmp_path):
    # an initialised 2-D net moves every point differently, so the rows pin
    # down the step-major, sample-minor order and every state bit
    arch = NetArchitecture(dim=2, hidden=(8,), activation="tanh",
                           l1_budget=4.0, act_bound=1.0)
    net = VelocityNet.init(arch, RngStream(5))
    ck = tmp_path / "net.bin"
    save_checkpoint(net, str(ck), seed=5, step=0)
    cfg = _write_config(tmp_path, {"task": "mixture_2d", "seed": 13})
    out = tmp_path / "out"
    count, steps = 6, 7
    assert main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck), "--steps", str(steps),
                 "--count", str(count), "--trajectories"]) == EXIT_OK

    pi0 = DistributionSpec(kind="gaussian", dim=2, mean=np.zeros(2), std=1.0)
    z0 = pi0.sample(RngStream(13).derive(5), count)
    _, traj = euler_integrate(net, z0, steps, record=True)
    _, header, rows = _read_csv(out / "trajectories.csv")
    assert header == ["sample", "step", "time", "dim_0", "dim_1"]
    assert [(int(r[0]), int(r[1])) for r in rows] \
        == [(i, s) for s in range(steps + 1) for i in range(count)]
    assert [r[2] for r in rows] \
        == [repr(float(traj.times[s])) for s in range(steps + 1)
            for _ in range(count)]
    got = np.array([[float(v) for v in r[3:]] for r in rows])
    assert got.tobytes() == traj.states.reshape(-1, 2).tobytes()


_SAMPLE_PROBES = {
    "count-zero": (["--count", "0"], "--count"),
    "steps-zero": (["--steps", "0"], "--steps"),
    "reflow-negative": (["--reflow", "-1"], "--reflow"),
    "reflow-above-cap": (["--reflow", "5"], "--reflow"),
    "reflow-with-one-step": (["--reflow", "1", "--steps", "1"], "--steps"),
}


@pytest.mark.parametrize("flags,flag", _SAMPLE_PROBES.values(),
                         ids=_SAMPLE_PROBES.keys())
def test_sample_rejects_bad_flags_before_any_work(tmp_path, capsys, flags,
                                                  flag):
    ck = tmp_path / "net.bin"
    save_checkpoint(VelocityNet.init(_default_arch(), RngStream(3)), str(ck),
                    seed=3, step=0)
    cfg = _write_config(tmp_path, {"task": "gaussian_1d", "seed": 11})
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck), *flags])
    assert code == EXIT_CONFIG
    assert f"config error: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_sample_reflow_needs_n_samples_before_any_work(tmp_path, capsys):
    # a sweep config whose batch exceeds the default n_samples, and a train
    # block whose n_samples is below its batch
    ck = tmp_path / "net.bin"
    save_checkpoint(VelocityNet.init(_default_arch(), RngStream(3)), str(ck),
                    seed=3, step=0)
    for obj, sizes in [
            ({"train": {"batch_size": 2048}, "sweep": _SWEEP_BLOCK}, (1024, 2048)),
            ({"train": {**_TRAIN_BLOCK, "n_samples": 16}}, (16, 32))]:
        cfg = _write_config(tmp_path, obj)
        out = tmp_path / f"out{sizes[0]}"
        code = main(["--config", cfg, "--out", str(out), "sample",
                     "--checkpoint", str(ck), "--reflow", "1", "--steps", "2"])
        assert code == EXIT_CONFIG
        assert "config error: field 'train.n_samples' (%d) must be >= " \
            "train.batch_size (%d)" % sizes in capsys.readouterr().err
        assert not out.exists()
        # without reflow no data set is drawn, so n_samples is never read;
        # nor does a command that trains nothing read it
        assert main(["--config", cfg, "--out", str(out), "sample",
                     "--checkpoint", str(ck), "--steps", "2",
                     "--count", "4"]) == EXIT_OK
        assert main(["--config", cfg, "--out", str(out), "gradcheck"]) == EXIT_OK


def _bad_checkpoint(tmp_path, kind):
    path = tmp_path / "net.bin"
    if kind == "missing":
        return path
    save_checkpoint(VelocityNet.init(_default_arch(), RngStream(3)),
                    str(path), seed=3, step=0)
    header, blob = path.read_bytes().split(b"\n", 1)
    if kind == "not-json":
        path.write_bytes(b"\x00\xffnot a header\n" + blob)
    elif kind == "json-list":
        path.write_bytes(b"[1, 2]\n" + blob)
    elif kind == "other-format":
        path.write_bytes(header.replace(b"rflab-velnet-1", b"other-9")
                         + b"\n" + blob)
    elif kind == "short-block":
        path.write_bytes(header + b"\n" + blob[:-8])
    elif kind == "wrong-dim":
        save_checkpoint(VelocityNet.init(NetArchitecture(dim=2, hidden=(4,)),
                                         RngStream(3)), str(path), seed=3,
                        step=0)
    return path


@pytest.mark.parametrize("kind", ["missing", "not-json", "json-list",
                                  "other-format", "short-block", "wrong-dim"])
def test_sample_rejects_an_unreadable_checkpoint(tmp_path, capsys, kind):
    ck = _bad_checkpoint(tmp_path, kind)
    cfg = _write_config(tmp_path, {"task": "gaussian_1d", "seed": 11})
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "sample",
                 "--checkpoint", str(ck)])
    assert code == EXIT_CONFIG
    assert "config error: --checkpoint" in capsys.readouterr().err
    assert not out.exists()


# -- the CSV writer ----------------------------------------------------------------


def _write_csv_by_rows(path, exp, header, rows):
    """The row-by-row writer that write_csv replaced: one format call per
    cell, repr for floats (numpy scalars unwrapped) and str for the rest."""
    def fmt(v):
        if isinstance(v, float):
            return repr(float(v))
        return str(v)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cli._meta_line(exp) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


_SPECIAL_FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                   1e16, 1e-5, 1 / 3, 0.1, -2.5e-300, 1.7976931348623157e308]
_MIXED_CELLS = ["key.a", True, False, None, 0.1, np.float64(1 / 3),
                np.int64(-7), 2 ** 64 - 1, "", 3]


@pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BLOCK_ROWS - 1,
                                    cli.CSV_BLOCK_ROWS,
                                    cli.CSV_BLOCK_ROWS + 1])
def test_write_csv_matches_row_formatting(tmp_path, n_rows):
    exp = config.load_experiment(None)
    gen = np.random.default_rng(n_rows)
    wide = gen.standard_normal((n_rows, 2)) * 10.0 ** gen.integers(
        -300, 300, size=(n_rows, 2))
    columns = [
        np.resize(np.array(_SPECIAL_FLOATS), n_rows),
        wide[:, 1],                                   # a strided float view
        np.arange(n_rows, dtype=np.int64) * -(2 ** 40),
        np.arange(n_rows, dtype=np.uint64) + np.uint64(2 ** 63),
        [2 ** 64 - 1 - i for i in range(n_rows)],     # Python ints
        [_MIXED_CELLS[i % len(_MIXED_CELLS)] for i in range(n_rows)],
        np.resize(np.float32([0.1, -0.0, 1 / 3, 1e-5, np.inf]), n_rows),
        np.array([str(i % 7) for i in range(n_rows)], dtype=object),
        np.array([f"s{i}" for i in range(n_rows)]),
    ]
    header = [f"c{j}" for j in range(len(columns))]
    cli.write_csv(str(tmp_path / "block.csv"), exp, header, columns)
    _write_csv_by_rows(str(tmp_path / "rows.csv"), exp, header, zip(*columns))
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\n") == n_rows + 2


def test_write_csv_rejects_ragged_columns(tmp_path):
    exp = config.load_experiment(None)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal length"):
        cli.write_csv(str(path), exp, ["a", "b"], [np.zeros(3), [1, 2]])
    with pytest.raises(ValueError, match="header"):
        cli.write_csv(str(path), exp, ["a", "b"], [np.zeros(3)])
    assert not path.exists()


def test_trace_csv_prints_an_integer_eta_as_a_float(tmp_path):
    cfg = _write_config(tmp_path, {
        "seed": 2, "train": {"n_samples": 64, "batch_size": 32, "steps": 4,
                             "schedule": "constant", "eta": 1,
                             "record_every": 2}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "train"]) == EXIT_OK
    _, header, rows = _read_csv(out / "trace.csv")
    assert [r[header.index("eta")] for r in rows] == ["1.0", "1.0", "1.0"]


# -- sweep -------------------------------------------------------------------------

_SMALL_SWEEP = {
    "task": "gaussian_1d",
    "seed": 5,
    "train": {"batch_size": 32, "eta": 0.05},
    "sweep": {"grid": [32, 64, 128, 256, 1024], "trials": 2, "epochs": 3,
              "proxy_n": 512, "proxy_epochs": 3, "proxy_batch": 128,
              "eval_samples": 128, "euler_steps": 16,
              "steps_exponent": 1.0},
}


def _strip_runtime(path):
    """sweep.csv rows minus the runtime_ms column, plus meta and header."""
    meta, header, rows = _read_csv(path)
    assert header[-1] == "runtime_ms"
    return meta, header[:-1], [r[:-1] for r in rows]


def test_sweep_eval_samples_above_the_assignment_cap_in_2d(tmp_path, capsys):
    # in d >= 2 the W2 of every cell takes the assignment route, capped at
    # 512 points: the config is rejected before any training starts
    sweep = {**_SMALL_SWEEP["sweep"], "eval_samples": 1024}
    cfg = _write_config(tmp_path, {"task": "mixture_2d", "sweep": sweep})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "sweep"])
    assert code == EXIT_CONFIG
    assert "sweep.eval_samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_smoke_outputs(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK

    meta, header, rows = _read_csv(out / "sweep.csv")
    assert header == ["n", "trial", "seed", "excess_risk", "vel_l2", "w2",
                      "w2_baseline", "runtime_ms"]
    assert len(rows) == 5 * 2
    assert [(int(r[0]), int(r[1])) for r in rows] \
        == [(n, t) for n in [32, 64, 128, 256, 1024] for t in range(2)]

    fit = _read_json(out / "sweep_fit.json")
    assert fit["grid"] == [32, 64, 128, 256, 1024]
    assert fit["trials"] == 2
    assert len(fit["median_excess_risk"]) == 5
    assert len(fit["median_w2_corrected"]) == 5
    assert fit["failures"] == 0

    assert "skipped_fits" not in fit   # written only when a fit is left out

    _, fheader, frows = _read_csv(out / "sweep_failures.csv")
    assert fheader == ["n", "trial", "seed", "error", "message"]
    assert frows == []


def test_sweep_names_a_fit_it_leaves_out_for_non_positive_medians(tmp_path,
                                                                  capsys):
    # a constant step of 1e6 drives every cell onto the proxy: from n = 64
    # on, the median excess risk is exactly 0, so the excess-risk fit is left
    # out, and the file and stderr say at which n
    obj = json.loads(json.dumps(_SMALL_SWEEP))
    obj["seed"] = 3
    obj["train"].update(schedule="constant", eta=1e6)
    obj["sweep"]["grid"] = [32, 64, 128, 256, 512, 1024]
    cfg = _write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK
    fit = _read_json(out / "sweep_fit.json")
    zero_at = [n for n, v in zip(fit["grid"], fit["median_excess_risk"])
               if not v > 0]
    assert zero_at[:1] == [64]
    reason = "non-positive median at n = " + ", ".join(map(str, zero_at))
    assert "excess_risk" not in fit["fits"]
    assert "w2_corrected" in fit["fits"]
    assert fit["skipped_fits"] == {"excess_risk": reason}
    assert f"sweep: excess_risk fit left out: {reason}\n" \
        in capsys.readouterr().err


def test_sweep_names_both_fits_it_leaves_out_when_cells_fail(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # every cell of n = 64 and 256 diverges, so three grid values are left
    # and neither rate can be fitted
    real_draw = sweep.draw_coupled

    def poisoned_draw(rng, pi0, pi1, n):
        batch = real_draw(rng, pi0, pi1, n)
        if n in (64, 256):
            batch.disp *= 1e300
        return batch

    monkeypatch.setattr(sweep, "draw_coupled", poisoned_draw)
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK
    fit = _read_json(out / "sweep_fit.json")
    assert fit["grid"] == [32, 128, 1024]
    assert fit["fits"] == {}
    assert fit["skipped_fits"] == {"excess_risk": "fewer than 4 grid values",
                                   "w2_corrected": "fewer than 4 grid values"}
    err = capsys.readouterr().err
    for name in ("excess_risk", "w2_corrected"):
        assert f"sweep: {name} fit left out: fewer than 4 grid values\n" in err


def test_sweep_with_no_usable_cell_exits_3(tmp_path, monkeypatch, capsys):
    # every cell diverges: all three files are still written
    real_draw = sweep.draw_coupled

    def poisoned_draw(rng, pi0, pi1, n):
        batch = real_draw(rng, pi0, pi1, n)
        if n != _SMALL_SWEEP["sweep"]["proxy_n"]:
            batch.disp *= 1e300
        return batch

    monkeypatch.setattr(sweep, "draw_coupled", poisoned_draw)
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_NUMERIC
    assert _read_csv(out / "sweep.csv")[2] == []
    assert len(_read_csv(out / "sweep_failures.csv")[2]) == 10
    assert len(_read_json(out / "sweep_fit.json")["skipped_fits"]) == 2
    assert "sweep: no usable cell" in capsys.readouterr().err


def test_sweep_value_error_in_a_cell_exits_3_before_any_output(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    # a ValueError is no cell failure: the sweep stops and writes no file
    real_score = sweep._score_cell
    calls = []

    def failing_score(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("precondition broken in one cell")
        return real_score(*args)

    monkeypatch.setattr(sweep, "_score_cell", failing_score)
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_NUMERIC
    assert "numeric failure: precondition broken in one cell" \
        in capsys.readouterr().err
    for name in ("sweep.csv", "sweep_failures.csv", "sweep_fit.json"):
        assert not (out / name).exists()


def test_sweep_rerun_and_jobs_agree(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["--config", cfg, "--out", str(out_a), "sweep"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_b), "sweep"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_c), "--jobs", "2",
                 "sweep"]) == EXIT_OK
    # runtime_ms is wall-clock noise; everything else is reproducible
    ref = _strip_runtime(out_a / "sweep.csv")
    assert _strip_runtime(out_b / "sweep.csv") == ref
    assert _strip_runtime(out_c / "sweep.csv") == ref
    assert (out_a / "sweep_fit.json").read_bytes() \
        == (out_b / "sweep_fit.json").read_bytes()
    assert (out_a / "sweep_fit.json").read_bytes() \
        == (out_c / "sweep_fit.json").read_bytes()


def test_sweep_divergent_cells_go_to_failures_csv(tmp_path, monkeypatch):
    # both n = 64 cells regress on displacements scaled by 1e300: their loss
    # is infinite at the first record step, so training reports a divergence
    real_draw = sweep.draw_coupled

    def poisoned_draw(rng, pi0, pi1, n):
        batch = real_draw(rng, pi0, pi1, n)
        if n == 64:
            batch.disp *= 1e300
        return batch

    monkeypatch.setattr(sweep, "draw_coupled", poisoned_draw)
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    out = tmp_path / "out"
    # failed cells are recorded, not fatal
    with np.errstate(all="ignore"):
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK

    _, _, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 8
    assert all(int(r[0]) != 64 for r in rows)

    _, _, frows = _read_csv(out / "sweep_failures.csv")
    assert [(int(r[0]), int(r[1])) for r in frows] == [(64, 0), (64, 1)]
    assert all(r[3] == "DivergenceError" for r in frows)
    assert all("at step 0" in r[4] for r in frows)
    assert _read_json(out / "sweep_fit.json")["failures"] == 2


def test_sweep_tiny_unequal_stds_have_no_closed_form(tmp_path):
    # stds 1e-13 and 5e-13 differ by less than 1e-12 but are not equal
    # relative to their size: the closed-form velocity does not apply, so
    # vel_l2 is NaN rather than an abort
    obj = json.loads(json.dumps(_SMALL_SWEEP))
    obj["pi0"] = {"kind": "gaussian", "mean": [0.0], "std": 1e-13}
    obj["pi1"] = {"kind": "gaussian", "mean": [2.0], "std": 5e-13}
    cfg = _write_config(tmp_path, obj)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK
    _, header, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 10
    assert all(math.isnan(float(r[header.index("vel_l2")])) for r in rows)


def test_sweep_records_a_non_finite_cell_and_carries_on(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, _SMALL_SWEEP)
    ref = tmp_path / "ref"
    assert main(["--config", cfg, "--out", str(ref), "sweep"]) == EXIT_OK
    real_draw = sweep.draw_coupled
    cells = []

    def poisoned_draw(rng, pi0, pi1, n):
        batch = real_draw(rng, pi0, pi1, n)
        if n == 64:
            cells.append(n)
            if len(cells) == 2:   # trial 1: the first update overflows
                batch.disp[:] = 1e308
        return batch

    monkeypatch.setattr(sweep, "draw_coupled", poisoned_draw)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == EXIT_OK
    _, _, frows = _read_csv(out / "sweep_failures.csv")
    assert frows == [["64", "1", frows[0][2], "FloatingPointError",
                      "non-finite parameters after the update at step 0"]]
    # every other cell, trial 0 of the same n included, is unchanged
    meta, header, rows = _strip_runtime(ref / "sweep.csv")
    assert _strip_runtime(out / "sweep.csv") \
        == (meta, header, [r for r in rows if r[:2] != ["64", "1"]])


def test_sweep_cells_honour_the_train_block(tmp_path, monkeypatch):
    # the proxy and every cell train under the configured guard and
    # curvature assumptions, not under TrainConfig defaults
    seen = []
    real_train = sweep.train

    def spy_train(net, data, cfg, seed):
        seen.append((len(data),
                     (cfg.divergence_factor, cfg.mu_hat, cfg.kappa_hat)))
        return real_train(net, data, cfg, seed=seed)

    monkeypatch.setattr(sweep, "train", spy_train)
    obj = json.loads(json.dumps(_SMALL_SWEEP))
    obj["train"].update({"divergence_factor": 50.0, "mu_hat": 0.5,
                         "kappa_hat": 0.01})
    obj["sweep"].update({"grid": [16, 32, 64, 128, 512], "trials": 1})
    cfg = _write_config(tmp_path, obj)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "sweep"]) == EXIT_OK
    assert [n for n, _ in seen] == [512, 16, 32, 64, 128, 512]
    assert all(fields == (50.0, 0.5, 0.01) for _, fields in seen)


def test_sweep_config_takes_a_batch_above_the_default_n_samples(tmp_path,
                                                                monkeypatch):
    # a sweep never reads n_samples: each net trains on its own n rows in
    # minibatches of min(batch_size, n)
    seen = []
    real_train = sweep.train

    def spy_train(net, data, cfg, seed):
        seen.append((len(data), cfg.batch_size))
        return real_train(net, data, cfg, seed=seed)

    monkeypatch.setattr(sweep, "train", spy_train)
    obj = {"train": {"batch_size": 2048},
           "sweep": {**_SWEEP_BLOCK, "grid": [128, 256, 512, 1024, 4096]}}
    cfg = _write_config(tmp_path, obj)
    assert config.load_experiment(cfg).n_samples == 1024
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "sweep"]) == EXIT_OK
    # the proxy first, then one group per n
    assert seen == [(256, 64), (128, 128), (256, 256), (512, 512),
                    (1024, 1024), (4096, 2048)]


# -- bounds ------------------------------------------------------------------------

_SMALL_BOUNDS = {"P": 4, "n": 20000, "B": 0.02, "L_ell": 1.0, "mu": 1.0,
                 "L_theta": 1.0, "delta": 0.2, "epsilon": 1.5}


def test_bounds_outputs(tmp_path):
    cfg = _write_config(tmp_path, {"bounds": dict(_SMALL_BOUNDS)})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "bounds"]) == EXIT_OK

    rep = _read_json(out / "bounds.json")
    assert rep["const_product_705_288"] == 203040
    assert rep["inputs"]["C_univ"] == 1.0
    assert rep["inputs"]["P"] == 4
    assert rep["n_required"] == 11671
    assert rep["stat_bound"] > 0.0

    _, header, rows = _read_csv(out / "bounds.csv")
    assert header == ["key", "value"]
    keys = [r[0] for r in rows]
    assert keys == sorted(keys)
    assert "inputs.C_univ" in keys
    assert any(k.startswith("truncation.") for k in keys)


def test_bounds_derives_B_from_L_theta_and_mu(tmp_path):
    blk = dict(_SMALL_BOUNDS)
    del blk["B"]
    blk["L_theta"] = 1.0
    blk["mu"] = 0.5
    cfg = _write_config(tmp_path, {"bounds": blk})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "bounds"]) == EXIT_OK
    assert _read_json(out / "bounds.json")["inputs"]["B"] == 4.0


def test_bounds_halving_epsilon_scales_n_required(tmp_path):
    # eps^-2 scaling with log slack; the toy instance above is too small for
    # the window, so this one runs at the documented scale
    n_req = {}
    for eps in (0.3, 0.15):
        blk = {"P": 10, "n": 10 ** 6, "B": 1.0, "L_ell": 1.0, "mu": 1.0,
               "L_theta": 1.0, "delta": 0.1, "epsilon": eps}
        cfg = _write_config(tmp_path, {"bounds": blk}, name=f"b{eps}.json")
        out = tmp_path / f"out{eps}"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == EXIT_OK
        n_req[eps] = _read_json(out / "bounds.json")["n_required"]
    ratio = n_req[0.15] / n_req[0.3]
    assert 3.4 <= ratio <= 4.6


def test_bounds_invalid_inputs_exit_config(tmp_path, capsys):
    blk = dict(_SMALL_BOUNDS)
    blk["P"] = 0
    cfg = _write_config(tmp_path, {"bounds": blk})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "bounds"])
    assert code == EXIT_CONFIG
    assert "field 'bounds'" in capsys.readouterr().err


def test_bounds_vacuous_regime_exits_numeric(tmp_path, capsys):
    # n this small leaves every localization radius vacuous
    blk = dict(_SMALL_BOUNDS)
    blk["n"] = 3
    cfg = _write_config(tmp_path, {"bounds": blk})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "bounds"])
    assert code == EXIT_NUMERIC
    assert "numeric failure:" in capsys.readouterr().err


def test_bounds_confidence_precondition_exits_numeric(tmp_path, capsys):
    # delta this small needs 2n > e^x, far beyond n = 20000
    blk = dict(_SMALL_BOUNDS)
    blk["delta"] = 1e-10
    cfg = _write_config(tmp_path, {"bounds": blk})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "bounds"])
    assert code == EXIT_NUMERIC
    assert "numeric failure:" in capsys.readouterr().err


# -- lowerbound --------------------------------------------------------------------


def test_lowerbound_outputs(tmp_path):
    cfg = _write_config(tmp_path, {
        "seed": 0, "lowerbound": {"R": 10.0, "epsilon": 0.1}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "lowerbound"]) == EXIT_OK

    summary = _read_json(out / "lowerbound_summary.json")
    assert math.isclose(summary["eta"], 1e-4, rel_tol=1e-12)
    assert summary["tv"] <= summary["eta"] + 1e-8
    # default m floors the half tv budget; eta carries one ulp from 0.1 ** 2
    assert summary["m"] == int(0.5 / summary["eta"])
    assert summary["m"] in (4999, 5000)
    assert summary["risk_floor"] > 0.0
    assert summary["separation_rms_on_interval"] >= 0.9 * 10.0

    _, header, rows = _read_csv(out / "lowerbound.csv")
    assert header == ["x", "v1", "v2", "diff", "density_pi_star"]
    assert len(rows) == 801
    x = np.array([float(r[0]) for r in rows])
    v1 = np.array([float(r[1]) for r in rows])
    v2 = np.array([float(r[2]) for r in rows])
    assert x[0] == -14.0 and x[-1] == 14.0
    # the two alternatives mirror each other through the origin
    assert np.max(np.abs(v1 + v2[::-1])) < 1e-9


def test_lowerbound_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, {"lowerbound": {"R": 10.0, "epsilon": 0.1}})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "lowerbound"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_b), "lowerbound"]) == EXIT_OK
    for name in ("lowerbound.csv", "lowerbound_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_lowerbound_separation_requires_wide_modes(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"lowerbound": {"R": 4.0, "epsilon": 0.1}})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "lowerbound"])
    assert code == EXIT_CONFIG
    assert "field 'lowerbound'" in capsys.readouterr().err


# -- global flags ------------------------------------------------------------------


def test_out_override_places_outputs(tmp_path):
    cfg = _write_config(tmp_path, {"out_dir": str(tmp_path / "from_config")})
    out = tmp_path / "elsewhere"
    assert main(["--config", cfg, "--out", str(out), "gradcheck"]) == EXIT_OK
    assert (out / "gradcheck.json").exists()
    assert not (tmp_path / "from_config").exists()


def test_seed_override_changes_train_data(tmp_path):
    cfg = _write_config(tmp_path, _SMALL_TRAIN)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "train"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_b), "--seed", "77",
                 "train"]) == EXIT_OK
    sum_a = _read_json(out_a / "train_summary.json")
    sum_b = _read_json(out_b / "train_summary.json")
    assert sum_a["seed"] == 11
    assert sum_b["seed"] == 77
    assert sum_a["final_loss"] != sum_b["final_loss"]
