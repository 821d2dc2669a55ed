"""rflab benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see workloads.py): sweep-1d, reflow-2d, risk-1d, or all of them one
at a time. Each workload run is a closed loop: the runs go back to back, the
next starting only when the previous one has exited, until --seconds is used.

--trace 0 runs every step of a workload run as its own child process and
reports, as medians over the runs:
    setup_s      spawn until rflab is imported and ready, summed over the
                 run's child processes (extra import-only children are
                 spawned until there are at least 7 samples)
    run_s        wall time of the run minus setup_s
    cpu_s        user + system CPU time of the run's children
    peak_rss_mb  largest max-RSS of any child of the run
fail_frac (failed / attempted operations) is printed and carried by the
`attempted` and `failed` fields of the result.

--trace 1 runs each workload run in one child process, alternately with and
without the span tracer of tracer.py, and reports the per-layer metrics
(tracer.PER_LAYER), including the tracing overhead.

Every child gets single-threaded BLAS and rflab from this checkout's src/.
Outputs are checked on every run: deterministic files must be byte-identical
across the runs of one invocation, and at --size full the scientific windows
of the acceptance battery must hold. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracer import PER_LAYER, layer_metrics, summarize
from workloads import ROOT, WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
REQUIRED = ("src/rflab/cli.py", "configs/gaussian1d_sweep.json",
            "configs/mixture2d_reflow.json", "configs/bounds_table.json",
            "configs/lowerbound.json")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170.0
MIN_SETUP_SAMPLES = 7


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


ENV = child_env()


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    rflab: str | None


def spawn(args: list[str], log_path: str, ready_only: bool = False) -> Child:
    """Run one child to completion: exit code, wall, set-up, CPU, max-RSS."""
    ready_path = log_path + ".ready"
    flag = ["--ready-only"] if ready_only else []
    with open(log_path, "ab") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *flag, ready_path, *args],
            cwd=ROOT, env=ENV, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        t1 = time.monotonic()
    ready, rflab = t1, None
    if os.path.exists(ready_path):
        with open(ready_path, encoding="utf-8") as fh:
            info = json.load(fh)
        ready, rflab = info["ready"], info["rflab"]
        os.remove(ready_path)
    return Child(proc.returncode, t1 - t0, ready - t0,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 rflab)


def _own_rflab(child: Child) -> bool:
    src = os.path.join(ROOT, "src") + os.sep
    return child.rflab is not None and child.rflab.startswith(src)


@dataclasses.dataclass
class Rep:
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    run_s: float = 0.0
    # ran: every step exited 0, so the timings are valid;
    # ok: ran, and the outputs passed their checks
    ran: bool = True
    ok: bool = True
    science: dict | None = None
    summary: dict | None = None


class Invocation:
    """One benchmark invocation of one workload: its runs and their checks."""

    def __init__(self, workload, seed: int, size: str, work_dir: str):
        self.wl = workload
        self.seed = seed
        self.size_name = size
        self.size = workload.sizes[size]
        self.windows = size == "full"
        self.dir = work_dir
        self.outcome = Outcome()
        self.ref: dict = {}
        self.reps: list[Rep] = []

    def _rep_dir(self) -> tuple[str, str]:
        k = len(self.reps)
        path = os.path.join(self.dir, f"rep{k}")
        os.makedirs(path)
        return path, f"rep{k}."

    def warm_up(self) -> None:
        """Untimed import of everything a run loads: fills the bytecode and
        file caches that a user's repeated runs find warm."""
        spawn(["inproc"], os.path.join(self.dir, "warmup.log"), ready_only=True)

    def timed_rep(self) -> Rep:
        rep_dir, prefix = self._rep_dir()
        rep = Rep()
        for step in self.wl.steps(self.seed, rep_dir, self.size):
            op = self.outcome.attempt(prefix + step.name)
            if not rep.ran:
                self.outcome.fail(op, "not run: an earlier step failed")
                continue
            c = spawn([step.kind, *step.args],
                      os.path.join(rep_dir, step.name + ".log"))
            rep.wall_s += c.wall_s
            rep.setup_s += c.setup_s
            rep.cpu_s += c.cpu_s
            rep.rss_mb = max(rep.rss_mb, c.rss_mb)
            if c.code != 0:
                rep.ran = rep.ok = False
                self.outcome.fail(op, f"exit code {c.code} (see {rep_dir})")
            elif not _own_rflab(c):
                rep.ran = rep.ok = False
                self.outcome.fail(op, f"rflab imported from {c.rflab}")
        rep.run_s = rep.wall_s - rep.setup_s
        self._check(rep, rep_dir, prefix)
        return rep

    def inproc_rep(self, traced: bool) -> Rep:
        rep_dir, prefix = self._rep_dir()
        steps = self.wl.steps(self.seed, rep_dir, self.size)
        ops = [self.outcome.attempt(prefix + s.name) for s in steps]
        spec = {"traced": traced,
                "steps": [(s.kind, list(s.args)) for s in steps],
                "timing": os.path.join(rep_dir, "timing.json"),
                "spans": os.path.join(rep_dir, "spans.npz")}
        c = spawn(["inproc", json.dumps(spec)],
                  os.path.join(rep_dir, "inproc.log"))
        ran = c.code == 0 and _own_rflab(c)
        rep = Rep(ran=ran, ok=ran)
        codes = []
        if rep.ran:
            with open(spec["timing"], encoding="utf-8") as fh:
                timing = json.load(fh)
            rep.run_s, codes = timing["run_s"], timing["codes"]
        for i, op in enumerate(ops):
            if i >= len(codes):
                rep.ran = rep.ok = False
                self.outcome.fail(op, f"not run (child exit {c.code}, "
                                      f"see {rep_dir})")
            elif codes[i] != 0:
                rep.ran = rep.ok = False
                self.outcome.fail(op, f"returned {codes[i]} (see {rep_dir})")
        if rep.ran and traced:
            rep.summary = summarize(spec["spans"])
            os.remove(spec["spans"])
        self._check(rep, rep_dir, prefix)
        return rep

    def _check(self, rep: Rep, rep_dir: str, prefix: str) -> None:
        """Output checks of one run; a clean run's directory is removed."""
        self.reps.append(rep)
        if not rep.ran:
            return
        failed_before = len(self.outcome.reasons)
        try:
            rep.science = self.wl.check(rep_dir, self.size, self.outcome,
                                        prefix, self.windows)
        except (OSError, ValueError, KeyError, IndexError) as e:
            last_step = list(self.wl.outputs.values())[-1]
            self.outcome.fail(prefix + last_step,
                              f"output check raised {e!r}")
        digests = self.wl.digests(rep_dir)
        for rel, step in self.wl.outputs.items():
            if rel not in digests:
                self.outcome.fail(prefix + step, f"{rel} missing")
            elif self.ref.setdefault(rel, digests[rel]) != digests[rel]:
                self.outcome.fail(prefix + step,
                                  f"{rel} differs from the first run")
        for rel in self.wl.bulky:
            path = os.path.join(rep_dir, rel)
            if os.path.exists(path):
                os.remove(path)
        if len(self.outcome.reasons) == failed_before:
            shutil.rmtree(rep_dir)
        else:
            rep.ok = False

    def setup_samples(self) -> list[float]:
        """Per-run set-up sums, topped up with import-only children."""
        samples = [r.setup_s for r in self.reps if r.ran]
        kinds = [s.kind for s in self.wl.steps(self.seed, self.dir, self.size)]
        k = 0
        while len(samples) < MIN_SETUP_SAMPLES:
            total = 0.0
            for kind in kinds:
                c = spawn([kind], os.path.join(self.dir, f"setup{k}.log"),
                          ready_only=True)
                if c.code != 0 or not _own_rflab(c):
                    return samples
                total += c.setup_s
            samples.append(total)
            k += 1
        return samples


def _closed_loop(seconds: float, run_once) -> None:
    """Back-to-back runs; another starts only if it is expected to end
    within `seconds` of the first start. At least one run."""
    t0 = time.monotonic()
    lengths = []
    while True:
        t = time.monotonic()
        if not run_once():
            return
        lengths.append(time.monotonic() - t)
        if time.monotonic() - t0 + statistics.median(lengths) > seconds:
            return


def run_timed(inv: Invocation, seconds: float) -> dict:
    inv.warm_up()
    _closed_loop(seconds, lambda: inv.timed_rep().ran)
    ran = [r for r in inv.reps if r.ran]
    if not ran:
        return {}
    return {
        "setup_s": statistics.median(inv.setup_samples()),
        "run_s": statistics.median(r.run_s for r in ran),
        "cpu_s": statistics.median(r.cpu_s for r in ran),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ran),
    }


def run_traced(inv: Invocation, seconds: float) -> dict:
    inv.warm_up()

    def pair():
        # alternate which side goes first so that drift hits both equally
        first = len(inv.reps) // 2 % 2 == 1
        return all(inv.inproc_rep(traced=t).ran for t in (first, not first))

    _closed_loop(seconds, pair)
    plain = [r.run_s for r in inv.reps if r.ran and r.summary is None]
    traced = [r for r in inv.reps if r.ran and r.summary is not None]
    if not plain or not traced:
        return {}
    base = statistics.median(plain)
    per_rep = [layer_metrics(r.summary, r.run_s, base) for r in traced]
    return {name: statistics.median(m[name] for m in per_rep)
            for name, _ in PER_LAYER}


def machine_facts() -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": {v: ENV[v] for v in THREAD_VARS}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> tuple[Invocation, dict]:
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-seed{seed}-trace{int(trace)}-",
                                dir=WORK)
    inv = Invocation(WORKLOADS[name], seed, size, work_dir)
    metrics = (run_traced if trace else run_timed)(inv, seconds)
    return inv, metrics


def _report(name: str, inv: Invocation, metrics: dict, units: dict,
            machine: dict, trace: bool) -> None:
    out = inv.outcome
    attempted, failed = len(out.ops), len(out.failed)
    runs = sum(r.ran for r in inv.reps)
    for metric, value in metrics.items():
        print(f"{name}  {metric} = {value:.6g} {units[metric]}"
              f"  ({runs} runs)")
    print(f"{name}  fail_frac = {failed / max(attempted, 1):.6g} ratio"
          f"  ({failed} of {attempted} operations failed)")
    for reason in out.reasons:
        print(f"{name}  FAILED {reason}", file=sys.stderr)
    with open(os.path.join(inv.dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": inv.seed, "trace": trace,
                   "size": inv.size_name, "machine": machine,
                   "metrics": metrics, "attempted": attempted,
                   "failed": failed, "failures": out.reasons,
                   "runs": [dataclasses.asdict(r) for r in inv.reps]},
                  fh, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, scientific windows not checked")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be an unsigned 64-bit integer")
    missing = [r for r in REQUIRED if not os.path.exists(os.path.join(ROOT, r))]
    if missing:
        print(f"benchmark: not an rflab checkout, missing {missing}",
              file=sys.stderr)
        return 2

    machine = machine_facts()
    print("machine: " + json.dumps(machine, sort_keys=True))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        inv, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.size)
        _report(name, inv, m, units, machine, bool(args.trace))
        correct &= not inv.outcome.failed and bool(m)
        attempted += len(inv.outcome.ops)
        failed += len(inv.outcome.failed)
        key = (lambda k: k) if len(names) == 1 else (lambda k: f"{name}.{k}")
        metrics.update({key(k): {"value": v, "unit": units[k]}
                        for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
