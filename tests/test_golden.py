"""Golden output manifest: the SHA-256 of every deterministic output of a small
run set, compared with tests/golden/manifest.json.

The run set covers each command and both W2 routes: train + sample with two
reflow rounds and trajectories (2-D mixture), train + one reflow round (1-D
Gaussian), train on an empirical target, small sweeps at --jobs 1 and 2 and
in 2-D, bounds, lowerbound, gradcheck and the benchmark's risk run. sweep.csv
is hashed without its wall-clock runtime_ms column.

Output bytes depend on the Python, numpy and scipy versions, the BLAS and
numpy's SIMD dispatch level, so the manifest holds one entry per environment
fingerprint. On a known fingerprint a mismatch fails and names the files; on
an unknown one the test prints the computed entry and skips.

A change that alters output bytes on purpose rewrites the entry:

    PYTHONPATH=src python tests/test_golden.py --update

which prints each output it added, removed or changed, with the first 12
hex digits of the old and new hash, or "no entry changed".
"""

import hashlib
import importlib.util
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest
import scipy

from rflab.cli import EXIT_OK, main

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.join(_HERE, os.pardir)
_MANIFEST = os.path.join(_HERE, "golden", "manifest.json")

_SWEEP = {"grid": [32, 64, 128, 256, 1024], "trials": 2, "epochs": 3,
          "proxy_n": 512, "proxy_epochs": 3, "proxy_batch": 128,
          "eval_samples": 128, "euler_steps": 16, "steps_exponent": 1.0}
_SWEEP_1D = {"task": "gaussian_1d", "seed": 5,
             "train": {"batch_size": 32, "eta": 0.05}, "sweep": _SWEEP}
_SAMPLE = ["--count", "64", "--steps", "8"]


def fingerprint() -> str:
    """The environment the output bytes depend on, as one manifest key."""
    from numpy._core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, blas {blas}, "
            f"dispatch {enabled[-1] if enabled else 'baseline'}")


def _preset(name: str, **train) -> dict:
    """configs/name, with the given train keys replaced."""
    with open(os.path.join(_ROOT, "configs", name), encoding="utf-8") as fh:
        obj = json.load(fh)
    if train:
        obj["train"].update(train)
    return obj


def _cli(work: str, name: str, obj: dict, *commands) -> None:
    """Each command line in turn on config obj, writing into work/name."""
    cfg = os.path.join(work, f"{name}.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    for command in commands:
        argv = ["--config", cfg, "--out", os.path.join(work, name), *command]
        assert main(argv) == EXIT_OK, argv


def run_set(work: str) -> None:
    """Every command of the golden run set, writing under work."""
    for name, preset, flags in (
            ("mix", "mixture2d_reflow.json", ["--reflow", "2", "--trajectories"]),
            ("g1", "gaussian1d_train.json", ["--reflow", "1"])):
        ck = os.path.join(work, name, "checkpoint.bin")
        _cli(work, name, _preset(preset, steps=200), ["train"],
             ["sample", "--checkpoint", ck, *flags, *_SAMPLE])
    _cli(work, "emp", {"seed": 3, "pi1": {"kind": "empirical",
                                          "points": [[1.0], [2.0], [2.5], [4.0]]},
                       "train": {"n_samples": 128, "batch_size": 32, "steps": 60,
                                 "record_every": 20}}, ["train"])
    _cli(work, "sweep1", _SWEEP_1D, ["--jobs", "1", "sweep"])
    _cli(work, "sweep2", _SWEEP_1D, ["--jobs", "2", "sweep"])
    _cli(work, "gauss2d", {**_SWEEP_1D, "task": "gaussian_2d", "arch": {
        "dim": 2, "hidden": [6], "activation": "sigmoid", "l1_budget": 3.0}},
        ["sweep"])
    _cli(work, "mix2d", {**_SWEEP_1D, "task": "mixture_2d", "arch": {
        "dim": 2, "hidden": [6], "activation": "softplus_clamped",
        "l1_budget": 2.0, "act_bound": 2.0}}, ["sweep"])
    _cli(work, "bounds", _preset("bounds_table.json"), ["bounds"])
    _cli(work, "lowerbound", _preset("lowerbound.json"), ["lowerbound"])
    _cli(work, "gradcheck", _preset("gaussian1d_train.json"), ["gradcheck"])
    spec = importlib.util.spec_from_file_location(
        "golden_risk", os.path.join(_ROOT, "perfbench", "risk.py"))
    risk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(risk)
    os.makedirs(os.path.join(work, "risk"))
    assert risk.run(501, os.path.join(work, "risk", "risk.json"),
                    3, 256, 2, 2, 20) == 0


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    if os.path.basename(path) == "sweep.csv":
        # runtime_ms, the last column, is wall-clock time
        lines = [ln if ln.startswith((b"#", b"n,")) else ln.rsplit(b",", 1)[0] + b"\n"
                 for ln in lines]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def hashes(work: str) -> dict:
    """SHA-256 of every output under work, by path relative to it; the
    configs the run set wrote are inputs and left out."""
    out = {}
    for name in sorted(os.listdir(work)):
        sub = os.path.join(work, name)
        if os.path.isdir(sub):
            for f in sorted(os.listdir(sub)):
                out[f"{name}/{f}"] = _digest(os.path.join(sub, f))
    return out


def _read_manifest() -> dict:
    if not os.path.exists(_MANIFEST):
        return {}
    with open(_MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def _changed(want: dict, got: dict) -> list[str]:
    """The outputs whose hash differs between two entries, or that only one
    of them has."""
    return sorted(f for f in set(want) | set(got) if want.get(f) != got.get(f))


def _report(want: dict, got: dict) -> list[str]:
    """One line per output that an update adds, removes or changes, with the
    first 12 hex digits of its old and new hash."""
    return [f"{'added' if f not in want else 'removed' if f not in got else 'changed'}"
            f" {f}: {want.get(f, '-')[:12]} -> {got.get(f, '-')[:12]}"
            for f in _changed(want, got)] or ["no entry changed"]


def test_update_report_names_each_changed_entry():
    want = {"a/x": "1" * 64, "a/y": "2" * 64, "b/z": "3" * 64}
    got = {"a/x": "1" * 64, "a/y": "4" * 64, "c/w": "5" * 64}
    assert _report(want, got) == [
        "changed a/y: 222222222222 -> 444444444444",
        "removed b/z: 333333333333 -> -",
        "added c/w: - -> 555555555555"]
    assert _report(want, want) == ["no entry changed"]


def test_outputs_match_the_golden_manifest(tmp_path, capsys):
    run_set(str(tmp_path))
    got = hashes(str(tmp_path))
    key = fingerprint()
    want = _read_manifest().get(key)
    if want is None:
        with capsys.disabled():
            print(f"\nno golden manifest for {key!r}; computed:\n"
                  + json.dumps({key: got}, indent=2, sort_keys=True))
        pytest.skip(f"no golden manifest for this environment: {key}")
    changed = _changed(want, got)
    assert not changed, f"outputs differ from the golden manifest: {changed}"


def update() -> None:
    """Rewrite this environment's entry of the manifest, and print each
    entry that changed."""
    with tempfile.TemporaryDirectory() as work:
        run_set(work)
        got = hashes(work)
    manifest = _read_manifest()
    print("\n".join(_report(manifest.get(fingerprint(), {}), got)))
    manifest[fingerprint()] = got
    os.makedirs(os.path.dirname(_MANIFEST), exist_ok=True)
    with open(_MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{_MANIFEST}: {len(got)} files for {fingerprint()}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    update()
