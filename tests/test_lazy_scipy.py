"""Heavy modules are imported on first use. scipy: only a sweep in d >= 2
(the exact assignment W2) loads it; `lowerbound` integrates in numpy alone
and loads no scipy module. numpy.polynomial (the Gauss-Legendre rule): of
the runs without scipy, only `lowerbound` loads it. multiprocessing: only a
sweep at --jobs > 1 (its worker pool) loads it. Each case runs commands
in-process through main() in a fresh interpreter and reports which of these
modules that interpreter holds afterwards; module presence is checked, never
wall time.
"""

import json
import os
import subprocess
import sys

import pytest

import rflab

_CHILD = """
import json, sys
from rflab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, **{top: sorted(
    m for m in sys.modules if m == top or m.startswith(top + "."))
    for top in ("scipy", "numpy.polynomial", "multiprocessing")}}))
"""

_TRAIN = {"train": {"n_samples": 64, "batch_size": 32, "steps": 4}}
_SWEEP = {"grid": [32, 64, 128, 256, 1024], "trials": 1, "epochs": 1,
          "proxy_n": 256, "proxy_epochs": 1, "proxy_batch": 64,
          "eval_samples": 64, "euler_steps": 4}

# case: (config, command lines after the global flags, a scipy module the
# run must load, or None when it must load none)
_CASES = {
    "import-only": ({}, [], None),
    "train": (_TRAIN, [["train"]], None),
    "sample-reflow": (_TRAIN, [["train"],
                               ["sample", "--checkpoint", "{out}/checkpoint.bin",
                                "--reflow", "1", "--steps", "4",
                                "--count", "16"]], None),
    "bounds": ({"bounds": {"P": 4, "n": 20000, "B": 0.02, "L_ell": 1.0,
                           "mu": 1.0, "L_theta": 1.0}}, [["bounds"]], None),
    "gradcheck": ({}, [["gradcheck"]], None),
    "sweep-1d": ({"sweep": _SWEEP}, [["sweep"]], None),
    "lowerbound": ({"lowerbound": {"R": 10.0, "epsilon": 0.1}},
                   [["lowerbound"]], None),
    "sweep-2d": ({"task": "gaussian_2d", "sweep": _SWEEP}, [["sweep"]],
                 "scipy.optimize"),
}


def _run_child(tmp_path, config, commands):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = str(tmp_path / "out")
    argvs = [["--config", str(cfg), "--out", out,
              *(arg.format(out=out) for arg in cmd)] for cmd in commands]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rflab.__file__)))
    run = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, check=True)
    # the commands print their own lines first
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("config,commands,needs", _CASES.values(),
                         ids=_CASES.keys())
def test_scipy_loads_only_where_it_is_called(tmp_path, config, commands,
                                             needs):
    report = _run_child(tmp_path, config, commands)
    assert report["codes"] == [0] * len(commands)
    if needs is None:
        assert report["scipy"] == []
        # scipy loads numpy.polynomial itself, so only scipy-free runs tell
        assert bool(report["numpy.polynomial"]) == (commands == [["lowerbound"]])
    else:
        assert needs in report["scipy"]


# case: (command lines after the global flags, whether the run must load
# multiprocessing)
_POOL_CASES = {
    "train-then-sweep-jobs-1": ([["train"], ["--jobs", "1", "sweep"]], False),
    "sweep-jobs-2": ([["--jobs", "2", "sweep"]], True),
}


@pytest.mark.parametrize("commands,needs", _POOL_CASES.values(),
                         ids=_POOL_CASES.keys())
def test_multiprocessing_loads_only_for_a_worker_pool(tmp_path, commands,
                                                      needs):
    report = _run_child(tmp_path, {**_TRAIN, "sweep": _SWEEP}, commands)
    assert report["codes"] == [0] * len(commands)
    assert ("multiprocessing" in report["multiprocessing"]) == needs
