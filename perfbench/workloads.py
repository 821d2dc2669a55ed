"""The benchmark's workloads: the child steps of one run and their output checks.

A workload run is a list of steps, each one child process (or, in the traced
run, one in-process call). Every workload takes its inputs from the benchmark
seed alone, passed to rflab through `--seed` or the RngStream root in risk.py.

Output checks never compare against a stored digest: deterministic outputs
must be byte-identical across the runs of one benchmark invocation, and the
scientific windows of the acceptance battery must hold at the full size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")


@dataclasses.dataclass(frozen=True)
class Step:
    """One operation of a workload run: `kind` is "cli" (rflab.cli.main with
    `args`) or "risk" (risk.run with one JSON argument)."""

    name: str
    kind: str
    args: tuple


class Outcome:
    """Attempted and failed operations of one benchmark invocation.

    An operation is a subcommand invocation, a sweep cell or a Rademacher
    radius; it fails on a non-zero exit, a row in sweep_failures.csv or a
    failed output check."""

    def __init__(self):
        self.ops: list[str] = []
        self.failed: set[str] = set()
        self.reasons: list[str] = []

    def attempt(self, op: str) -> str:
        self.ops.append(op)
        return op

    def fail(self, op: str, reason: str) -> None:
        self.failed.add(op)
        self.reasons.append(f"{op}: {reason}")


def _digest(path: str, drop_last_column: bool = False) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        if not drop_last_column:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
            return h.hexdigest()
        # sweep.csv: runtime_ms is the one wall-clock column, dropped as c11 does
        for line in fh:
            if line.startswith(b"#") or line.startswith(b"n,"):
                h.update(line)
            else:
                h.update(line.rsplit(b",", 1)[0] + b"\n")
    return h.hexdigest()


def _csv_rows(path: str) -> list[list[str]]:
    """Data rows of an rflab CSV (metadata comment and header skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:] if ln]


def _all_finite(path: str) -> bool:
    """No nan or inf among the values of an rflab CSV. rflab writes floats
    with repr, so a non-finite value reads 'nan', 'inf' or '-inf', and the
    metadata line (hex digest) and the header cannot contain either."""
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        data = fh.read()
    return b"nan" not in data and b"inf" not in data


def spearman(x, y) -> float:
    """Spearman rank correlation, ties given their average rank. Written out
    so that the parent stays free of numpy and scipy: a child's max-RSS
    starts at the parent's resident size when it is spawned."""
    def ranks(v):
        order = sorted(range(len(v)), key=v.__getitem__)
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for k in order[i:j + 1]:
                r[k] = (i + j) / 2.0
            i = j + 1
        return r

    rx, ry = ranks(list(x)), ranks(list(y))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


class Workload:
    name: str
    sizes: dict
    # deterministic output file -> the step that writes it
    outputs: dict
    # files too large to keep once digested and checked
    bulky: tuple = ()

    def steps(self, seed: int, rep_dir: str, size: dict) -> list[Step]:
        raise NotImplementedError

    def check(self, rep_dir: str, size: dict, outcome: Outcome, prefix: str,
              windows: bool) -> dict:
        """Structural checks always; scientific windows when `windows`.
        Returns the checked scientific quantities."""
        raise NotImplementedError

    def digests(self, rep_dir: str) -> dict:
        return {rel: _digest(os.path.join(rep_dir, rel),
                             drop_last_column=rel.endswith("sweep.csv"))
                for rel in self.outputs
                if os.path.exists(os.path.join(rep_dir, rel))}


class Sweep1D(Workload):
    """`rflab sweep --jobs 1` on the c03/c04 configuration shape: the SGD hot
    path, about 90% of it in network and training."""

    name = "sweep-1d"
    sizes = {
        # epochs, batch, step schedule, eval points and Euler steps are the
        # c03 shape. The n = 8192 cell alone takes 65% of a trial's SGD
        # steps, so the grid stops at 4096 to make room for 8 trials: with 3
        # trials on the full grid the median per n is so noisy that the
        # excess-risk slope left its window on some seeds (-0.625). At this
        # size both slopes sit 4 standard deviations (over 25 seeds) inside
        # their windows. proxy_n is halved; that moves slopes by about 0.02
        "full": {"grid": [128, 256, 512, 1024, 2048, 4096], "trials": 8,
                 "proxy_n": 32768},
        "smoke": {"grid": [32, 64, 128, 256, 1024], "trials": 1, "epochs": 2,
                  "proxy_n": 1024, "proxy_epochs": 2, "eval_samples": 256,
                  "euler_steps": 10, "steps_exponent": 1.0},
    }
    outputs = {"sweep/sweep.csv": "sweep", "sweep/sweep_failures.csv": "sweep",
               "sweep/sweep_fit.json": "sweep"}

    def _config(self, size: dict) -> dict:
        with open(os.path.join(CONFIGS, "gaussian1d_sweep.json"),
                  encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg.pop("out_dir", None)
        cfg["sweep"].update(size)
        return cfg

    def steps(self, seed, rep_dir, size):
        path = os.path.join(rep_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._config(size), fh)
        return [Step("sweep", "cli",
                     ("--config", path, "--seed", str(seed), "--jobs", "1",
                      "--out", os.path.join(rep_dir, "sweep"), "sweep"))]

    def check(self, rep_dir, size, outcome, prefix, windows):
        sw = self._config(size)["sweep"]
        out = os.path.join(rep_dir, "sweep")
        ok_rows = {(int(r[0]), int(r[1])) for r in
                   _csv_rows(os.path.join(out, "sweep.csv"))}
        failed_rows = {(int(r[0]), int(r[1])): r[3] for r in
                       _csv_rows(os.path.join(out, "sweep_failures.csv"))}
        for n in sw["grid"]:
            for t in range(sw["trials"]):
                op = outcome.attempt(f"{prefix}cell.{n}.{t}")
                if (n, t) in failed_rows:
                    outcome.fail(op, f"in sweep_failures.csv ({failed_rows[n, t]})")
                elif (n, t) not in ok_rows:
                    outcome.fail(op, "missing from sweep.csv")
        with open(os.path.join(out, "sweep_fit.json"), encoding="utf-8") as fh:
            fit = json.load(fh)
        op = prefix + "sweep"
        if fit["failures"] != 0:
            outcome.fail(op, f"sweep_fit.json reports {fit['failures']} failures")
        if not _all_finite(os.path.join(out, "sweep.csv")):
            outcome.fail(op, "non-finite value in sweep.csv")
        slopes = {key: fit["fits"].get(key, {}).get("slope")
                  for key in ("excess_risk", "w2_corrected")}
        if windows:
            for key, lo, hi in (("excess_risk", -1.35, -0.65),
                                ("w2_corrected", -0.75, -0.25)):
                if slopes[key] is None or not lo <= slopes[key] <= hi:
                    outcome.fail(op, f"{key} slope {slopes[key]} outside "
                                     f"[{lo}, {hi}]")
        return {f"{key}_slope": v for key, v in slopes.items()}


class Reflow2D(Workload):
    """`rflab train`, then `rflab sample --reflow 2 --trajectories`, on
    configs/mixture2d_reflow.json: the same network used the other way round
    (large-batch forward passes through Euler) plus CSV output; little SGD."""

    name = "reflow-2d"
    # count is the 1024 points the straightness rounds use. At 4096 the
    # trajectory rows take ~100 MB of fresh memory per run, and run_s then
    # spread 0.27 (IQR/median over 6 seeds) against 0.13 at 1024, measured
    # interleaved on the same 2-vCPU VM
    sizes = {"full": {"count": 1024, "steps": 100},
             "smoke": {"count": 64, "steps": 8}}
    outputs = {"checkpoint.bin": "train", "trace.csv": "train",
               "train_summary.json": "train", "samples.csv": "sample",
               "trajectories.csv": "sample", "sample_summary.json": "sample"}
    bulky = ("trajectories.csv",)

    def steps(self, seed, rep_dir, size):
        common = ("--config", os.path.join(CONFIGS, "mixture2d_reflow.json"),
                  "--seed", str(seed), "--out", rep_dir)
        return [
            Step("train", "cli", common + ("train",)),
            Step("sample", "cli", common + (
                "sample", "--checkpoint", os.path.join(rep_dir, "checkpoint.bin"),
                "--reflow", "2", "--trajectories",
                "--count", str(size["count"]), "--steps", str(size["steps"]))),
        ]

    def check(self, rep_dir, size, outcome, prefix, windows):
        op = prefix + "sample"
        for rel in ("samples.csv", "trajectories.csv"):
            if not _all_finite(os.path.join(rep_dir, rel)):
                outcome.fail(op, f"non-finite value in {rel}")
        n_samples = len(_csv_rows(os.path.join(rep_dir, "samples.csv")))
        if n_samples != size["count"]:
            outcome.fail(op, f"samples.csv has {n_samples} rows, "
                             f"expected {size['count']}")
        with open(os.path.join(rep_dir, "sample_summary.json"),
                  encoding="utf-8") as fh:
            rounds = json.load(fh)["straightness_per_round"]
        if len(rounds) != 3:
            outcome.fail(op, f"{len(rounds)} straightness values, expected 3")
        if windows and not all(b < a for a, b in zip(rounds, rounds[1:])):
            outcome.fail(op, f"straightness {rounds} not strictly decreasing")
        return {"straightness_per_round": rounds}


class Risk1D(Workload):
    """The c06 Rademacher sandwich through the public API (risk.py), then
    `rflab bounds` and `rflab lowerbound` on the shipped configs: the
    risk-analysis side, bound by forward passes, not by SGD."""

    name = "risk-1d"
    sizes = {
        # c06 shape (P = 33, n = 512, 4 signs, 2 restarts, 40 ascent steps)
        # on a shorter r-grid over the same span
        "full": {"radii": 3, "n": 512, "n_signs": 4, "n_restarts": 2,
                 "ascent_steps": 40},
        "smoke": {"radii": 3, "n": 64, "n_signs": 1, "n_restarts": 1,
                  "ascent_steps": 3},
    }
    outputs = {"risk.json": "risk", "bounds/bounds.json": "bounds",
               "bounds/bounds.csv": "bounds",
               "lowerbound/lowerbound.csv": "lowerbound",
               "lowerbound/lowerbound_summary.json": "lowerbound"}

    def steps(self, seed, rep_dir, size):
        spec = {"seed": seed, "out": os.path.join(rep_dir, "risk.json"), **size}
        return [
            Step("risk", "risk", (json.dumps(spec),)),
            Step("bounds", "cli", (
                "--config", os.path.join(CONFIGS, "bounds_table.json"),
                "--seed", str(seed), "--out", os.path.join(rep_dir, "bounds"),
                "bounds")),
            Step("lowerbound", "cli", (
                "--config", os.path.join(CONFIGS, "lowerbound.json"),
                "--seed", str(seed),
                "--out", os.path.join(rep_dir, "lowerbound"), "lowerbound")),
        ]

    def check(self, rep_dir, size, outcome, prefix, windows):
        with open(os.path.join(rep_dir, "risk.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        emp, dud = res["empirical"], res["dudley"]
        for i in range(size["radii"]):
            op = outcome.attempt(f"{prefix}radius.{i}")
            if i >= len(emp):
                outcome.fail(op, "missing from risk.json")
            elif not (math.isfinite(emp[i]) and emp[i] <= dud[i]):
                outcome.fail(op, f"empirical {emp[i]} above Dudley {dud[i]}")
        rho = spearman(res["r"], emp)
        if windows and not rho >= 0.9:
            outcome.fail(prefix + "risk", f"Spearman {rho} below 0.9")
        return {"spearman": rho,
                "max_share": max(e / d for e, d in zip(emp, dud))}


WORKLOADS = {w.name: w for w in (Sweep1D(), Reflow2D(), Risk1D())}
