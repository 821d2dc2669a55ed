"""Span tracer for the benchmark's traced run.

Wraps rflab's public functions and methods from outside the program. Each
call records a span (name, start, end, parent span) into flat in-memory
arrays; the spans are written out when the run ends and self times are
derived from the parent links afterwards. Counters are recorded at the same
call boundaries.

A function bound elsewhere by `from .x import y` (cli.train, cli.euler_integrate,
network.l1_project_row, the cli._DISPATCH table, ...) is rebound everywhere
it is found, so no call bypasses its wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

# (span name, module, attribute): every public function or method the traced
# run wraps; a dotted attribute is a method patched on its class
TARGETS = (
    ("cli.cmd_sweep", "rflab.cli", "cmd_sweep"),
    ("cli.cmd_sample", "rflab.cli", "cmd_sample"),
    ("cli.cmd_train", "rflab.cli", "cmd_train"),
    ("cli.cmd_bounds", "rflab.cli", "cmd_bounds"),
    ("cli.cmd_lowerbound", "rflab.cli", "cmd_lowerbound"),
    ("cli.write_csv", "rflab.cli", "write_csv"),
    ("cli.write_json", "rflab.cli", "write_json"),
    ("training.train", "rflab.training", "train"),
    ("network.loss_and_grad", "rflab.network", "VelocityNet.loss_and_grad"),
    ("network.call", "rflab.network", "VelocityNet.__call__"),
    ("network.loss", "rflab.network", "VelocityNet.loss"),
    ("network.project_constraints", "rflab.network",
     "VelocityNet.project_constraints"),
    ("network.get_theta", "rflab.network", "VelocityNet.get_theta"),
    ("network.set_theta", "rflab.network", "VelocityNet.set_theta"),
    ("network.save_checkpoint", "rflab.network", "save_checkpoint"),
    ("network.load_checkpoint", "rflab.network", "load_checkpoint"),
    ("linalg_rng.l1_project_row", "rflab.linalg_rng", "l1_project_row"),
    ("distributions.draw_coupled", "rflab.distributions", "draw_coupled"),
    ("distributions.take", "rflab.distributions", "CoupledBatch.take"),
    ("sampler.euler_integrate", "rflab.sampler", "euler_integrate"),
    ("sampler.reflow", "rflab.sampler", "reflow"),
    ("sampler.straightness", "rflab.sampler", "straightness"),
    ("oracles.velocity_l2_error", "rflab.oracles", "velocity_l2_error"),
    ("oracles.tv_distance_mixtures", "rflab.oracles", "tv_distance_mixtures"),
    ("oracles.velocity_separation", "rflab.oracles", "velocity_separation"),
    ("bounds.empirical_local_rademacher", "rflab.bounds",
     "empirical_local_rademacher"),
    ("bounds.dudley_local_rad", "rflab.bounds", "dudley_local_rad"),
    ("bounds.full_report", "rflab.bounds", "full_report"),
    ("metrics.w2_empirical_1d", "rflab.metrics", "w2_empirical_1d"),
    ("metrics.w2_empirical_assignment", "rflab.metrics",
     "w2_empirical_assignment"),
    ("metrics.excess_risk", "rflab.metrics", "excess_risk"),
)

# the per-layer metrics of the traced run, with units
PER_LAYER = (
    ("cli.cmd_sweep.self_s", "s"),
    ("cli.cmd_sample.self_s", "s"),
    ("cli.cmd_train.self_s", "s"),
    ("cli.cmd_bounds.self_s", "s"),
    ("cli.cmd_lowerbound.self_s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "B"),
    ("cli.write_json.self_s", "s"),
    ("training.train.calls", "count"),
    ("training.train.self_s", "s"),
    ("training.train.steps", "count"),
    ("training.step_us", "us"),
    ("network.loss_and_grad.calls", "count"),
    ("network.loss_and_grad.self_s", "s"),
    ("network.loss_and_grad.rows", "count"),
    ("network.loss_and_grad.gflops_computed", "GFLOP"),
    ("network.call.calls", "count"),
    ("network.call.self_s", "s"),
    ("network.call.rows", "count"),
    ("network.loss.self_s", "s"),
    ("network.project_constraints.calls", "count"),
    ("network.project_constraints.self_s", "s"),
    ("network.project_constraints.bound_frac", "ratio"),
    ("network.get_theta.calls", "count"),
    ("network.set_theta.calls", "count"),
    ("network.set_theta.self_s", "s"),
    ("network.save_checkpoint.self_s", "s"),
    ("network.load_checkpoint.self_s", "s"),
    ("linalg_rng.l1_project_row.calls", "count"),
    ("linalg_rng.l1_project_row.self_s", "s"),
    ("distributions.draw_coupled.self_s", "s"),
    ("distributions.take.calls", "count"),
    ("distributions.take.self_s", "s"),
    ("sampler.euler_integrate.calls", "count"),
    ("sampler.euler_integrate.self_s", "s"),
    ("sampler.euler_integrate.point_steps", "count"),
    ("sampler.reflow.self_s", "s"),
    ("sampler.straightness.self_s", "s"),
    ("oracles.velocity_l2_error.self_s", "s"),
    ("oracles.tv_distance_mixtures.self_s", "s"),
    ("oracles.velocity_separation.self_s", "s"),
    ("bounds.empirical_local_rademacher.calls", "count"),
    ("bounds.empirical_local_rademacher.self_s", "s"),
    ("bounds.dudley_local_rad.calls", "count"),
    ("bounds.full_report.self_s", "s"),
    ("metrics.w2_empirical_1d.self_s", "s"),
    ("metrics.w2_empirical_assignment.calls", "count"),
    ("metrics.excess_risk.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_coverage", "ratio"),
)

# span of the bound_frac probe: a child span, so it is kept out of the self
# time of the code around project_constraints
_PROBE = "trace.probe"


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) < 2 else int(shape[0])


def _flops_per_row(arch) -> int:
    """Multiply-adds x 2 of one loss_and_grad row, from the layer shapes:
    forward and weight gradient over the augmented input of every layer, and
    the back-propagated activation gradient of every layer but the first."""
    dims = arch.layer_dims
    total = 0
    for k in range(len(dims) - 1):
        total += 2 * 2 * dims[k + 1] * (dims[k] + 1)
        if k > 0:
            total += 2 * dims[k + 1] * dims[k]
    return total


class Tracer:
    """Spans and counters of one traced run, in memory until `save`."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, pre=None, post=None):
        """`fn` recording one span per call; `pre(args, kwargs)` runs before
        the span opens, `post(args, kwargs)` after it closes."""
        nid = self._id(name)
        sname, sparent = self.span_name, self.span_parent
        sstart, send, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = len(sstart)
            sname.append(nid)
            sparent.append(stack[-1])
            send.append(0.0)
            stack.append(idx)
            sstart.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                send[idx] = clock()
                stack.pop()
                if post is not None:
                    post(args, kwargs)

        return traced

    def _hooks(self, span: str):
        """Counters recorded at the boundary of `span`: (pre, post)."""
        count = self.count
        if span == "training.train":
            def pre(args, kwargs):
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                count("training.train.steps", cfg.steps)
            return pre, None
        if span == "network.loss_and_grad":
            per_row: dict = {}

            def pre(args, kwargs):
                net, n = args[0], len(args[1])
                arch = net.arch
                if arch not in per_row:
                    per_row[arch] = _flops_per_row(arch)
                count("network.loss_and_grad.rows", n)
                count("network.loss_and_grad.flops", n * per_row[arch])
            return pre, None
        if span == "network.call":
            def pre(args, kwargs):
                count("network.call.rows", _rows(args[1]))
            return pre, None
        if span == "network.project_constraints":
            def probe(args, kwargs):
                net = args[0]
                count("network.project_constraints.bound",
                      net.max_row_l1() > net.arch.l1_budget)
            return self.wrap(_PROBE, probe), None
        if span == "sampler.euler_integrate":
            def pre(args, kwargs):
                steps = args[2] if len(args) > 2 else kwargs["steps"]
                count("sampler.euler_integrate.point_steps",
                      _rows(args[1]) * steps)
            return pre, None
        if span == "cli.write_csv":
            def post(args, kwargs):
                if os.path.exists(args[0]):
                    count("cli.write_csv.bytes", os.path.getsize(args[0]))
            return None, post
        return None, None

    def install(self, extra_modules=()) -> None:
        """Wrap every TARGET and rebind it in every module that holds it."""
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        holders = [m for name, m in sys.modules.items()
                   if name == "rflab" or name.startswith("rflab.")]
        holders += list(extra_modules)
        for span, modname, attr in TARGETS:
            owner_name, _, fname = attr.rpartition(".")
            mod = sys.modules[modname]
            if owner_name:
                cls = getattr(mod, owner_name)
                setattr(cls, fname, self.wrap(span, cls.__dict__[fname],
                                              *self._hooks(span)))
                continue
            orig = getattr(mod, fname)
            wrapped = self.wrap(span, orig, *self._hooks(span))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is orig:
                                value[k] = wrapped

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.intc),
                 parent=np.frombuffer(self.span_parent, dtype=np.intc),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 names=np.array(self.names, dtype=str),
                 counters=np.array(json.dumps(self.counters)))


def summarize(path: str) -> dict:
    """Per-span calls, inclusive and self time, the top-level total and the
    counters of a saved span file. Self time is a span's duration minus the
    durations of its direct children (spans nest on one thread)."""
    import numpy as np

    with np.load(path) as z:
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        names = [str(s) for s in z["names"]]
        counters = json.loads(str(z["counters"]))
    child = np.zeros(dur.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    self_t = np.bincount(name, weights=dur - child, minlength=k)
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "incl_s": {n: float(incl[i]) for i, n in enumerate(names)},
        "self_s": {n: float(self_t[i]) for i, n in enumerate(names)},
        "top_level_s": float(dur[~nested].sum()),
        "spans": int(dur.size),
        "counters": counters,
    }


def layer_metrics(summary: dict, traced_run_s: float,
                  plain_run_s: float) -> dict:
    """Values of PER_LAYER from one traced run and its untraced twin."""
    calls, self_s = summary["calls"], summary["self_s"]
    counters = summary["counters"]
    steps = counters.get("training.train.steps", 0.0)
    pc_calls = calls.get("network.project_constraints", 0)
    special = {
        "training.step_us": (1e6 * summary["incl_s"].get("training.train", 0.0)
                             / steps if steps else 0.0),
        "network.loss_and_grad.gflops_computed":
            counters.get("network.loss_and_grad.flops", 0.0) / 1e9,
        "network.project_constraints.bound_frac":
            (counters.get("network.project_constraints.bound", 0.0) / pc_calls
             if pc_calls else 0.0),
        "trace.overhead_frac": traced_run_s / plain_run_s - 1.0,
        "trace.span_coverage": summary["top_level_s"] / traced_run_s,
    }
    out = {}
    for metric, _ in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif stat == "calls":
            out[metric] = float(calls.get(span, 0))
        elif stat == "self_s":
            out[metric] = self_s.get(span, 0.0)
        else:
            out[metric] = float(counters.get(metric, 0.0))
    return out
