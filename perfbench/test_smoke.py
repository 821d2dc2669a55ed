"""Smoke tests of the benchmark itself, at the tiny `--size smoke`.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Outcome  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, RUN, "--size", "smoke",
                           "--seconds", "1", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_the_code():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layers == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, stdout = _bench("--workload", workload, "--seed", "5",
                            "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert f"{workload}  fail_frac = 0 ratio" in stdout
    assert stdout.startswith("machine: ")
    if trace:
        # the top-level spans account for the traced run time
        assert result["metrics"]["trace.span_coverage"]["value"] > 0.5
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _produce(name: str, rep_dir: str) -> None:
    wl = WORKLOADS[name]
    os.makedirs(rep_dir)
    for step in wl.steps(7, rep_dir, wl.sizes["smoke"]):
        c = run.spawn([step.kind, *step.args],
                      os.path.join(rep_dir, step.name + ".log"))
        assert c.code == 0


def _tamper_sweep(rep):
    with open(os.path.join(rep, "sweep", "sweep_failures.csv"), "a",
              encoding="utf-8") as fh:
        fh.write("32,0,1,DivergenceError,loss blew up\n")


def _tamper_reflow(rep):
    path = os.path.join(rep, "samples.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[-1] = "nan,0.0\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _tamper_risk(rep):
    path = os.path.join(rep, "risk.json")
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["empirical"][0] = res["dudley"][0] * 2.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)


TAMPER = {"sweep-1d": _tamper_sweep, "reflow-2d": _tamper_reflow,
          "risk-1d": _tamper_risk}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_output_check_rejects_a_tampered_file(workload, tmp_path):
    wl = WORKLOADS[workload]
    size = wl.sizes["smoke"]
    clean = str(tmp_path / "clean")
    _produce(workload, clean)

    outcome = Outcome()
    wl.check(clean, size, outcome, "rep0.", windows=False)
    assert not outcome.failed, outcome.reasons

    bad = str(tmp_path / "bad")
    shutil.copytree(clean, bad)
    TAMPER[workload](bad)
    outcome = Outcome()
    wl.check(bad, size, outcome, "rep0.", windows=False)
    assert outcome.failed

    # a deterministic output that differs from the first run's is rejected
    inv = run.Invocation(wl, 7, "smoke", str(tmp_path))
    inv.ref = wl.digests(clean)
    flipped = str(tmp_path / "flipped")
    shutil.copytree(clean, flipped)
    rel = next(r for r in wl.outputs if r.endswith(".json"))
    with open(os.path.join(flipped, rel), "a", encoding="utf-8") as fh:
        fh.write(" ")
    inv._check(run.Rep(), flipped, "rep1.")
    assert any("differs from the first run" in r for r in inv.outcome.reasons)


def test_scientific_windows(tmp_path):
    wl = WORKLOADS["sweep-1d"]
    rep = str(tmp_path / "rep")
    _produce("sweep-1d", rep)
    path = os.path.join(rep, "sweep", "sweep_fit.json")
    with open(path, encoding="utf-8") as fh:
        fit = json.load(fh)

    def reasons(excess, w2):
        fit["fits"]["excess_risk"] = {"slope": excess}
        fit["fits"]["w2_corrected"] = {"slope": w2}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fit, fh)
        outcome = Outcome()
        wl.check(rep, wl.sizes["smoke"], outcome, "rep0.", windows=True)
        return outcome.reasons

    assert reasons(-1.0, -0.5) == []
    assert reasons(-0.3, -0.5) == [
        "rep0.sweep: excess_risk slope -0.3 outside [-1.35, -0.65]"]
    assert reasons(-1.0, -0.1) == [
        "rep0.sweep: w2_corrected slope -0.1 outside [-0.75, -0.25]"]


def test_metrics_are_reported_when_a_check_fails(tmp_path):
    # a run whose outputs fail their check still measured the program: the
    # result carries every metric, and correct is false through `failed`
    wl = WORKLOADS["risk-1d"]

    class Failing(type(wl)):
        def check(self, rep_dir, size, outcome, prefix, windows):
            outcome.fail(prefix + "risk", "forced failure")
            return {}

    inv = run.Invocation(Failing(), 7, "smoke", str(tmp_path))
    metrics = run.run_timed(inv, 1.0)
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert inv.outcome.failed and not any(r.ok for r in inv.reps)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no rflab
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(RUN), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "risk-1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
