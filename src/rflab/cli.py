"""Command-line entry point: training runs, sampling, rate sweeps, bound
tables, and the two-hypothesis construction, all driven by one JSON config.

Single-threaded BLAS is pinned before numpy loads so that identical configs
produce byte-identical outputs regardless of host core count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time
import typing

import numpy as np

from . import __version__
from .bounds import BoundInputs, VacuousRegimeError, full_report
from .distributions import CoupledBatch, DistributionSpec, draw_coupled
from .linalg_rng import RngStream, splitmix64
from .metrics import ASSIGNMENT_CAP, excess_risk, fit_rate, w2_empirical
from .network import (CHECKPOINT_FORMAT, NetArchitecture, VelocityNet,
                      finite_diff_grad, load_checkpoint, save_checkpoint)
from .oracles import (LowerBoundInstance, gaussian_closed_form, lecam_budget,
                      lowerbound_grid, velocity_l2_error)
from .sampler import MAX_REFLOW_ROUNDS, euler_integrate, reflow, straightness
from .training import DivergenceError, TrainConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# -- config ---------------------------------------------------------------------


def _number(kind, value, field: str):
    """kind(value) for kind int or float; a string, a boolean, a non-finite
    float (JSON Infinity) or a value kind would change (4.5 for an int) is a
    config error that names the field."""
    try:
        number = kind(value) if type(value) in (int, float) else None
    except (ValueError, OverflowError):   # int() of nan or inf
        number = None
    if number is None or isinstance(value, float) \
            and not (math.isfinite(value) and number == value):
        raise ConfigError(f"field '{field}' must be "
                          f"{'an integer' if kind is int else 'a number'}, "
                          f"not {value!r}")
    return number


def _floats(value, field: str) -> np.ndarray:
    """A JSON number, or lists of them nested to any depth in a rectangular
    array, as float64."""
    for v in np.asarray(value, dtype=object).flat:
        if isinstance(v, list):   # numpy keeps ragged rows as list leaves
            raise ConfigError(f"field '{field}' must be a rectangular array")
        _number(float, v, field)
    return np.asarray(value, dtype=np.float64)


def _block(obj: dict, name: str, names, default=None):
    """Config block `name`, or default when absent: a JSON object with no
    key outside names."""
    if name not in obj:
        return default
    blk = obj[name]
    if not isinstance(blk, dict):
        raise ConfigError(f"field '{name}' must be a JSON object")
    unknown = sorted(set(blk) - set(names))
    if unknown:
        raise ConfigError(f"unknown field '{name}.{unknown[0]}'")
    return blk


_NUMBER_KINDS = {int: int, float: float, float | None: float,
                 list[int]: int, tuple[int, ...]: int}


def _typed(cls, obj: dict, name: str, base: dict | None = None, extra=()):
    """Config block `name` over the values in base, built into a cls (None when
    the block is absent); the caller reads its `extra` keys. Int, float and int
    list fields go through _number by annotation (an optional None stays None);
    a missing field or a value the constructor rejects is a config error too."""
    hints = typing.get_type_hints(cls)
    blk = _block(obj, name, [*hints, *extra])
    if blk is None:
        return None
    args = {k: v for k, v in {**(base or {}), **blk}.items() if k not in extra}
    for f in dataclasses.fields(cls):
        kind, field = _NUMBER_KINDS.get(hints[f.name]), f"{name}.{f.name}"
        if f.name not in args:
            if f.default is f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing field '{field}'")
        elif kind and typing.get_origin(hints[f.name]) in (list, tuple):
            if not isinstance(args[f.name], (list, tuple)):
                raise ConfigError(f"field '{field}' must be a list")
            args[f.name] = [_number(kind, v, field) for v in args[f.name]]
        elif kind and not (args[f.name] is None and hints[f.name] == float | None):
            args[f.name] = _number(kind, args[f.name], field)
    try:
        return cls(**args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field '{name}': {e}") from None


_N01 = {"kind": "gaussian", "dim": 1, "mean": [0.0], "std": 1.0}
_N02 = {"kind": "gaussian", "dim": 2, "mean": [0.0, 0.0], "std": 1.0}
# the tasks, each with its default (pi0, pi1)
_TASK_ENDPOINTS = {
    "gaussian_1d": (_N01, {**_N01, "mean": [2.0]}),
    "gaussian_2d": (_N02, {**_N02, "mean": [2.0, 1.0]}),
    "mixture_2d": (_N02, {"kind": "gaussian_mixture", "dim": 2, "components": [
        {"weight": 0.5, "mean": [-2.0, 0.0], "std": 0.5},
        {"weight": 0.5, "mean": [2.0, 0.0], "std": 0.5}]}),
    "lowerbound": (_N01, _N01),
}


@dataclasses.dataclass
class SweepSpec:
    grid: list[int]
    trials: int = 10
    epochs: int = 30
    proxy_n: int = 65536
    proxy_epochs: int = 40
    proxy_batch: int = 512
    eval_samples: int = 4096
    euler_steps: int = 100
    steps_exponent: float = 1.0

    def __post_init__(self):
        if len(self.grid) < 5:
            raise ValueError("grid needs >= 5 values")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly ascending")
        if self.grid[0] < 1:
            raise ValueError("grid values must be >= 1")
        if math.log10(self.grid[-1] / self.grid[0]) < 1.5:
            raise ValueError("grid must span >= 1.5 decades")
        for name in ("trials", "epochs", "proxy_n", "proxy_epochs",
                     "proxy_batch", "euler_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # a cell's velocity error carries a standard error over its points
        if self.eval_samples < 2:
            raise ValueError("eval_samples must be >= 2")
        if not (1.0 <= self.steps_exponent <= 2.0):
            raise ValueError("steps_exponent must be in [1, 2]")


@dataclasses.dataclass
class Experiment:
    task: str
    seed: int
    out_dir: str
    pi0: DistributionSpec
    pi1: DistributionSpec
    arch: NetArchitecture
    train: TrainConfig
    n_samples: int
    sweep: SweepSpec | None
    bounds: BoundInputs | None
    sigma: float | None
    lowerbound: LowerBoundInstance | None
    lowerbound_m: int | None
    sha: str


# the train block's defaults where they differ from TrainConfig's
_DEFAULT_TRAIN = {"batch_size": 64, "steps": 480, "record_every": 10}

_TOP_FIELDS = ("task", "seed", "out_dir", "pi0", "pi1", "arch", "train",
               "sweep", "bounds", "lowerbound")
_SPEC_FIELDS = ("kind", "dim", "mean", "std", "components", "points")


def _endpoint(obj: dict, name: str, default: dict) -> DistributionSpec:
    """The pi0 or pi1 block as a DistributionSpec. A missing number reads as
    null ("must be a number, not None"); a given `dim` must be the width of
    its means or point rows."""
    blk = _block(obj, name, _SPEC_FIELDS, default)
    kind = blk.get("kind")
    try:
        if kind == "gaussian":
            mean = _floats(blk.get("mean"), f"{name}.mean")
            spec = DistributionSpec(kind, mean.size, mean=mean, std=_number(
                float, blk.get("std"), f"{name}.std"))
        elif kind == "gaussian_mixture":
            comps, raw = [], blk.get("components", [])
            if not isinstance(raw, list):
                raise ConfigError(f"field '{name}.components' must be a list")
            for i, c in enumerate(raw):
                field = f"{name}.components[{i}]"
                c = _block({field: c}, field, ("weight", "mean", "std"))
                comps.append((_number(float, c.get("weight"), f"{field}.weight"),
                              _floats(c.get("mean"), f"{field}.mean"),
                              _number(float, c.get("std"), f"{field}.std")))
            spec = DistributionSpec(kind, comps[0][1].size if comps else 1,
                                    components=comps)
        elif kind == "empirical":
            pts = _floats(blk.get("points"), f"{name}.points")
            pts = pts.reshape(len(pts), -1)
            spec = DistributionSpec(kind, pts.shape[1], points=pts)
        else:
            raise ConfigError(f"field '{name}.kind' must be one of "
                              f"('gaussian', 'gaussian_mixture', 'empirical')")
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:   # scalar points, rejected values
        raise ConfigError(f"field '{name}': {e}") from None
    if "dim" in blk and _number(int, blk["dim"], f"{name}.dim") != spec.dim:
        raise ConfigError(f"field '{name}.dim' is {blk['dim']}, not the data's "
                          f"width {spec.dim}")
    return spec


def load_experiment(config_path: str | None, seed_override: int | None = None,
                    out_override: str | None = None) -> Experiment:
    if config_path is None:
        raw_bytes = b"{}"
        obj = {}
    else:
        try:
            with open(config_path, "rb") as fh:
                raw_bytes = fh.read()
            obj = json.loads(raw_bytes)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be a JSON object")
    unknown = sorted(set(obj) - set(_TOP_FIELDS))
    if unknown:
        raise ConfigError(f"unknown field '{unknown[0]}'")

    task = obj.get("task", "gaussian_1d")
    if task not in tuple(_TASK_ENDPOINTS):
        raise ConfigError(f"field 'task' must be one of {tuple(_TASK_ENDPOINTS)}")
    seed = seed_override if seed_override is not None else obj.get("seed", 0)
    if type(seed) is not int or not (0 <= seed < 2 ** 64):
        source = "--seed" if seed_override is not None else "field 'seed'"
        raise ConfigError(f"{source} must be an unsigned 64-bit integer")
    out_dir = out_override or obj.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("field 'out_dir' must be a string")

    pi0, pi1 = (_endpoint(obj, name, default)
                for name, default in zip(("pi0", "pi1"), _TASK_ENDPOINTS[task]))
    if pi0.dim != pi1.dim:
        raise ConfigError("field 'pi0'/'pi1': dimensions differ")

    obj = {"arch": {}, "train": {}, **obj}   # built from defaults when absent
    arch = _typed(NetArchitecture, obj, "arch",
                  {"hidden": (8,), "dim": pi0.dim})
    if arch.dim != pi0.dim:
        raise ConfigError("field 'arch.dim' must match the endpoint dimension")
    train = _typed(TrainConfig, obj, "train", _DEFAULT_TRAIN,
                   extra=("n_samples",))
    n_samples = _number(int, obj["train"].get("n_samples", 1024),
                        "train.n_samples")
    if n_samples < 1:
        raise ConfigError("field 'train.n_samples' must be >= 1")

    sweep = _typed(SweepSpec, obj, "sweep")
    # in d >= 2 each cell's W2 goes through the capped assignment route, so
    # scoring would fail after every cell had trained
    if sweep and pi0.dim >= 2 and sweep.eval_samples > ASSIGNMENT_CAP:
        raise ConfigError(
            f"field 'sweep.eval_samples' must be <= {ASSIGNMENT_CAP} "
            f"in d >= 2 (the exact W2 assignment is capped there)")

    bounds = _typed(BoundInputs, obj, "bounds", extra=("sigma",))
    sigma = None if bounds is None else _number(
        float, obj["bounds"].get("sigma", 1.0), "bounds.sigma")
    lowerbound = _typed(LowerBoundInstance, obj, "lowerbound",
                        {"sigma": 1.0}, extra=("m",))
    m = None if lowerbound is None else _number(int, obj["lowerbound"].get(
        "m", max(1, int(0.5 / lowerbound.eta))), "lowerbound.m")
    if m is not None and m < 1:
        raise ConfigError("field 'lowerbound.m' must be >= 1")

    return Experiment(
        task=task, seed=seed, out_dir=out_dir, pi0=pi0, pi1=pi1, arch=arch,
        train=train, n_samples=n_samples, sweep=sweep, bounds=bounds,
        sigma=sigma, lowerbound=lowerbound, lowerbound_m=m,
        sha=hashlib.sha256(raw_bytes).hexdigest())


# -- output helpers --------------------------------------------------------------


def _meta_line(exp: Experiment) -> str:
    return f"# config_sha256={exp.sha} version={__version__}"


def _fmt(v) -> str:
    # repr of a Python float round-trips exactly; numpy scalars must be
    # unwrapped first or their repr carries the dtype
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


CSV_BLOCK_ROWS = 4096


def _cells(column):
    """The text of one block of a column. tolist() yields the Python floats and
    ints that _fmt prints, so a float64 or integer array skips the per-cell
    dispatch; an object array must hold the text of its cells already."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return map(repr, column.tolist())
        if column.dtype.kind in "iu":
            return map(str, column.tolist())
        if column.dtype == object:
            return column.tolist()
    return map(_fmt, column)


def _by_column(rows: list, width: int) -> list:
    """A list of equal-length rows as write_csv columns; no rows, `width`
    empty columns."""
    return list(zip(*rows)) or [()] * width


def write_csv(path: str, exp: Experiment, header: list[str], columns) -> None:
    """One CSV column per header name, formatted and written CSV_BLOCK_ROWS
    rows at a time so that no whole-table text is ever held."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_meta_line(exp) + "\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [_cells(c[lo:lo + CSV_BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def write_json(path: str, exp: Experiment, obj: dict) -> None:
    payload = {"config_sha256": exp.sha, "version": __version__, **obj}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(exp: Experiment) -> str:
    try:
        os.makedirs(exp.out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"field 'out_dir' not writable: {e}") from None
    return exp.out_dir


# -- train -----------------------------------------------------------------------


def _check_n_samples(exp: Experiment) -> None:
    """train and reflow draw one data set of train.n_samples rows, which must
    hold a minibatch; no other command reads n_samples."""
    if exp.n_samples < exp.train.batch_size:
        raise ConfigError(f"field 'train.n_samples' ({exp.n_samples}) must be "
                          f">= train.batch_size ({exp.train.batch_size})")


def cmd_train(exp: Experiment, args) -> int:
    _check_n_samples(exp)
    out = _ensure_out(exp)
    root = RngStream(exp.seed)
    data = draw_coupled(root.derive(1), exp.pi0, exp.pi1, exp.n_samples)
    net = VelocityNet.init(exp.arch, root.derive(2))
    trace = train(net, data, exp.train, seed=exp.seed)
    save_checkpoint(net, os.path.join(out, "checkpoint.bin"), seed=exp.seed,
                    step=exp.train.steps,
                    extra={"config_sha256": exp.sha, "version": __version__})
    write_csv(os.path.join(out, "trace.csv"), exp,
              ["step", "loss", "grad_norm", "eta", "max_row_l1"],
              [trace.step, trace.loss, trace.grad_norm, trace.eta,
               trace.max_row_l1])
    write_json(os.path.join(out, "train_summary.json"), exp, {
        "task": exp.task, "seed": exp.seed, "n_samples": exp.n_samples,
        "steps": exp.train.steps, "initial_loss": trace.initial_loss,
        "final_loss": trace.final_loss,
        "param_count": exp.arch.param_count})
    print(f"train: final loss {trace.final_loss:.6g} "
          f"({exp.train.steps} steps, n={exp.n_samples})")
    return EXIT_OK


# -- sample ----------------------------------------------------------------------


def _sample_flags(exp: Experiment, args) -> tuple[VelocityNet, dict]:
    """Reject bad sample flags before any work; returns the checkpoint."""
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    if not 0 <= args.reflow <= MAX_REFLOW_ROUNDS:
        raise ConfigError(f"--reflow must be in [0, {MAX_REFLOW_ROUNDS}]")
    if args.reflow and args.steps < 2:
        raise ConfigError("--steps must be >= 2 with --reflow (straightness "
                          "needs two steps)")
    if args.reflow:
        _check_n_samples(exp)
    try:
        net, header = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"--checkpoint: not a readable {CHECKPOINT_FORMAT} "
                          f"checkpoint: {e}") from None
    if net.arch.dim != exp.pi0.dim:
        raise ConfigError(f"--checkpoint: net dimension {net.arch.dim} does "
                          f"not match the endpoint dimension {exp.pi0.dim}")
    return net, header


def cmd_sample(exp: Experiment, args) -> int:
    net, header = _sample_flags(exp, args)
    out = _ensure_out(exp)
    root = RngStream(exp.seed)
    rounds = []
    if args.reflow > 0:
        for r in range(args.reflow + 1):
            if r:
                net = reflow(net, r - 1, exp.pi0, exp.n_samples, exp.train,
                             root.derive(4), integrate_steps=args.steps,
                             seed=exp.seed)
            _, traj = euler_integrate(
                net, exp.pi0.sample(root.derive(3), min(args.count, 1024)),
                args.steps, record=True)
            rounds.append(straightness(traj))
    z0 = exp.pi0.sample(root.derive(5), args.count)
    z1, traj = euler_integrate(net, z0, args.steps,
                               record=args.trajectories)
    dim_cols = [f"dim_{j}" for j in range(z1.shape[1])]
    write_csv(os.path.join(out, "samples.csv"), exp, dim_cols, list(z1.T))
    if args.trajectories:
        # step-major, sample-minor rows; the sample, step and time cells are
        # formatted once per sample and once per step, then repeated
        n_steps, count, _ = traj.states.shape
        samples = np.array([str(i) for i in range(count)], dtype=object)
        steps = np.array([str(s) for s in range(n_steps)], dtype=object)
        times = np.array([repr(t) for t in traj.times.tolist()], dtype=object)
        prefix = [np.tile(samples, n_steps), np.repeat(steps, count),
                  np.repeat(times, count)]
        states = traj.states.reshape(-1, z1.shape[1])
        write_csv(os.path.join(out, "trajectories.csv"), exp,
                  ["sample", "step", "time", *dim_cols], prefix + list(states.T))
    write_json(os.path.join(out, "sample_summary.json"), exp, {
        "checkpoint": os.path.basename(args.checkpoint),
        "checkpoint_seed": header.get("seed"),
        "count": args.count, "euler_steps": args.steps,
        "reflow_rounds": args.reflow,
        "straightness_per_round": rounds})
    if rounds:
        print("sample: straightness per round "
              + ", ".join(f"{v:.6g}" for v in rounds))
    print(f"sample: wrote {args.count} samples ({args.steps} steps)")
    return EXIT_OK


# -- sweep -----------------------------------------------------------------------

def _sweep_cfg(exp: Experiment, n: int, epochs: int, batch: int) -> TrainConfig:
    """The train block for one sweep net on n rows: minibatches of
    min(batch, n), epochs x (n / batch)^steps_exponent steps, and one loss
    record, at the last step."""
    batch = min(batch, n)
    # superlinear step growth keeps the optimization error decaying at least
    # as fast as the 1/n statistical term across the grid
    steps = round(epochs * (n / batch) ** exp.sweep.steps_exponent)
    return dataclasses.replace(exp.train, batch_size=batch, steps=steps,
                               record_every=steps)


def _cell_seed(seed: int, n: int, trial: int) -> int:
    return splitmix64(seed ^ splitmix64(n * 4096 + trial))


def _run_group(exp: Experiment, proxy: VelocityNet, holdout: CoupledBatch,
               n: int) -> list:
    """All trials of one n: the cells train in lockstep as one stack, then
    each is scored on its own. Every cell draws its data, init, shuffles and
    evaluation points from its own streams, so results do not depend on how
    cells are grouped. A cell's runtime_ms is its own evaluation time plus
    its share (1/trials) of the group's data, init and training time."""
    sw = exp.sweep
    trials = range(sw.trials)
    seeds = tuple(_cell_seed(exp.seed, n, trial) for trial in trials)
    streams = [RngStream(exp.seed).derive(n).derive(trial) for trial in trials]
    t0 = time.perf_counter()
    data = CoupledBatch.stack([draw_coupled(s.derive(1), exp.pi0, exp.pi1, n)
                               for s in streams])
    net = VelocityNet.stack([VelocityNet.init(exp.arch, s.derive(2))
                             for s in streams])
    cfg = _sweep_cfg(exp, n, sw.epochs, exp.train.batch_size)
    outcomes = train(net, data, cfg, seed=seeds)
    train_ms = 1000.0 * (time.perf_counter() - t0) / sw.trials

    results = []
    for trial, s, cell_seed, outcome in zip(trials, streams, seeds, outcomes):
        t1 = time.perf_counter()
        if not isinstance(outcome, Exception):
            try:
                scores = _score_cell(exp, proxy, holdout, net.member(trial), s)
                ms = train_ms + 1000.0 * (time.perf_counter() - t1)
                results.append(("ok", [n, trial, cell_seed, *scores, ms]))
                continue
            except FloatingPointError as e:
                outcome = e
        results.append(("fail", [n, trial, cell_seed, type(outcome).__name__,
                                 str(outcome)]))
    return results


def _score_cell(exp: Experiment, proxy: VelocityNet, holdout: CoupledBatch,
                net: VelocityNet, s: RngStream) -> list:
    """excess risk, velocity L2 error, W2 of the Euler samples and its baseline."""
    sw = exp.sweep
    excess = excess_risk(net, proxy, holdout)
    if gaussian_closed_form(exp.pi0, exp.pi1):
        vel, _ = velocity_l2_error(net, exp.pi0, exp.pi1, sw.eval_samples,
                                   s.derive(3))
    else:
        vel = float("nan")
    m = sw.eval_samples
    z0 = exp.pi0.sample(s.derive(4), m)
    z1, _ = euler_integrate(net, z0, sw.euler_steps)
    ref = exp.pi1.sample(s.derive(5), m)
    refb = exp.pi1.sample(s.derive(6), m)
    return [excess, vel, w2_empirical(z1, ref), w2_empirical(refb, ref)]


def _train_proxy(exp: Experiment) -> VelocityNet:
    sw = exp.sweep
    root = RngStream(exp.seed).derive(7)
    data = draw_coupled(root.derive(1), exp.pi0, exp.pi1, sw.proxy_n)
    net = VelocityNet.init(exp.arch, root.derive(2))
    cfg = _sweep_cfg(exp, sw.proxy_n, sw.proxy_epochs, sw.proxy_batch)
    train(net, data, cfg, seed=splitmix64(exp.seed ^ 0x70))
    return net


def cmd_sweep(exp: Experiment, args) -> int:
    out = _ensure_out(exp)
    sw = exp.sweep

    proxy = _train_proxy(exp)
    holdout = draw_coupled(RngStream(exp.seed).derive(8), exp.pi0, exp.pi1,
                           sw.eval_samples)

    # the trials of one n train in lockstep; --jobs spreads the n values
    run = functools.partial(_run_group, exp, proxy, holdout)
    if args.jobs > 1:
        import multiprocessing   # only a pool needs it (10 ms at start-up)
        with multiprocessing.Pool(args.jobs) as pool:
            groups = pool.map(run, sw.grid)
    else:
        groups = list(map(run, sw.grid))
    results = [cell for group in groups for cell in group]

    # (n, trial) order: the grid ascends, and so do the trials of a group
    rows = [r for kind, r in results if kind == "ok"]
    failures = [r for kind, r in results if kind == "fail"]
    write_csv(os.path.join(out, "sweep.csv"), exp,
              ["n", "trial", "seed", "excess_risk", "vel_l2", "w2",
               "w2_baseline", "runtime_ms"], _by_column(rows, 8))
    write_csv(os.path.join(out, "sweep_failures.csv"), exp,
              ["n", "trial", "seed", "error", "message"],
              _by_column(failures, 5))

    ns, med_excess, w2c_per_n = [], [], []
    for n, cells in itertools.groupby(rows, key=lambda r: r[0]):
        cells = list(cells)
        ns.append(n)
        med_excess.append(float(np.median([r[3] for r in cells])))
        w2c_per_n.append(float(np.median(
            [math.sqrt(max(r[5] ** 2 - r[6] ** 2, 1e-12)) for r in cells])))
    summary = {"grid": ns, "trials": sw.trials,
               "median_excess_risk": med_excess,
               "median_w2_corrected": w2c_per_n,
               "failures": len(failures)}
    fits, skipped = {}, {}
    for name, vals in (("excess_risk", med_excess), ("w2_corrected", w2c_per_n)):
        bad = [n for n, v in zip(ns, vals) if not v > 0]
        if len(ns) < 4:
            skipped[name] = "fewer than 4 grid values"
        elif bad:
            skipped[name] = ("non-positive median at n = "
                             + ", ".join(map(str, bad)))
        else:
            f = fit_rate(np.array(ns, dtype=float), np.array(vals))
            fits[name] = {"slope": f.slope, "intercept": f.intercept,
                          "stderr": f.stderr, "r2": f.r2}
    summary["fits"] = fits
    if skipped:   # absent from a healthy sweep, whose file stays as it was
        summary["skipped_fits"] = skipped
    write_json(os.path.join(out, "sweep_fit.json"), exp, summary)
    for name, f in fits.items():
        print(f"sweep: {name} slope {f['slope']:.4f} "
              f"(stderr {f['stderr']:.4f}, r2 {f['r2']:.4f})")
    for name, reason in skipped.items():
        print(f"sweep: {name} fit left out: {reason}", file=sys.stderr)
    print(f"sweep: {len(rows)} rows, {len(failures)} failures")
    if not rows:
        print("sweep: no usable cell; every cell is in sweep_failures.csv",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- bounds ----------------------------------------------------------------------


def cmd_bounds(exp: Experiment, args) -> int:
    out = _ensure_out(exp)
    rep = full_report(exp.bounds, sigma=exp.sigma)
    payload = dataclasses.asdict(rep)
    payload["const_product_705_288"] = 705 * 288
    write_json(os.path.join(out, "bounds.json"), exp, payload)
    flat = {**{f"inputs.{k}": v for k, v in payload["inputs"].items()},
            **{k: v for k, v in payload.items()
               if not isinstance(v, dict)},
            **{f"truncation.{k}": v for k, v in payload["truncation"].items()}}
    write_csv(os.path.join(out, "bounds.csv"), exp, ["key", "value"],
              _by_column(sorted(flat.items()), 2))
    print(f"bounds: r_star {rep.r_star:.6g}, stat {rep.stat_bound:.6g}, "
          f"n_required {rep.n_required}")
    return EXIT_OK


# -- lowerbound ------------------------------------------------------------------


def cmd_lowerbound(exp: Experiment, args) -> int:
    inst, m = exp.lowerbound, exp.lowerbound_m
    out = _ensure_out(exp)

    lc = lecam_budget(inst, m)
    tv, sep = lc.tv_pair, lc.separation
    if sep.interval_rms < 0.9 * inst.R:
        raise FloatingPointError(
            f"separation rms {sep.interval_rms:.4g} below 0.9 R")
    # 801 points over [-(R + 4 sigma), R + 4 sigma]: both signal modes and
    # their tails
    grid = lowerbound_grid(inst, -inst.R - 4.0 * inst.sigma,
                           inst.R + 4.0 * inst.sigma, 801)
    names = ["x", "v1", "v2", "diff", "density_pi_star"]
    write_csv(os.path.join(out, "lowerbound.csv"), exp, names,
              [grid[k] for k in names])
    write_json(os.path.join(out, "lowerbound_summary.json"), exp, {
        "sigma": inst.sigma, "R": inst.R, "epsilon": inst.epsilon,
        "eta": inst.eta, "tv": tv, "m": m, "m_eta_budget": lc.tv_budget_m,
        "separation_rms_on_interval": sep.interval_rms,
        "separation_pointwise_min": sep.pointwise_min,
        "separation_l2_sq": sep.l2_separation_sq,
        "risk_floor": lc.risk_floor, "risk_floor_ratio": lc.floor_ratio,
        "interval": list(inst.interval)})
    print(f"lowerbound: eta {inst.eta:.6g}, tv {tv:.6g}, "
          f"rms separation {sep.interval_rms:.4g} (>= 0.9 R ok)")
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------


def _gradcheck_battery(exp: Experiment) -> list[NetArchitecture]:
    archs = [exp.arch]
    base = [
        NetArchitecture(dim=1, hidden=(4,), activation="tanh", l1_budget=2.0),
        NetArchitecture(dim=2, hidden=(5, 4), activation="sigmoid",
                        l1_budget=3.0),
        NetArchitecture(dim=2, hidden=(6,), activation="softplus_clamped",
                        l1_budget=2.0, act_bound=2.0),
    ]
    archs.extend(a for a in base if a != exp.arch)
    return archs


def cmd_gradcheck(exp: Experiment, args) -> int:
    out = _ensure_out(exp)
    root = RngStream(exp.seed).derive(9)
    reports = []
    worst = 0.0
    for i, arch in enumerate(_gradcheck_battery(exp)):
        s = root.derive(i)
        net = VelocityNet.init(arch, s)
        pi = DistributionSpec(kind="gaussian", dim=arch.dim,
                              mean=np.zeros(arch.dim), std=1.0)
        data = draw_coupled(s.derive(1), pi, pi, 16)
        g = net.loss_and_grad(data)[1]
        fd = finite_diff_grad(net, data)
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        rel = float(np.linalg.norm(g - fd)) / denom
        worst = max(worst, rel)
        reports.append({"activation": arch.activation, "depth": arch.depth,
                        "param_count": arch.param_count, "rel_err": rel})
        print(f"gradcheck: {arch.activation} depth {arch.depth} "
              f"P={arch.param_count} rel err {rel:.3e}")
    ok = worst <= 1e-5
    write_json(os.path.join(out, "gradcheck.json"), exp, {
        "max_rel_err": worst, "tolerance": 1e-5, "passed": ok,
        "cases": reports})
    print(f"gradcheck: max rel err {worst:.3e} "
          f"({'ok' if ok else 'FAIL'} at 1e-5)")
    return EXIT_OK if ok else EXIT_NUMERIC


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rflab",
        description="Rectified-flow training, sampling, rate sweeps, and "
                    "sample-complexity bound evaluation.")
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (unsigned 64-bit)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sweeps")
    p.add_argument("--out", default=None, help="override the output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train one model, write checkpoint + trace")
    sp = sub.add_parser("sample", help="integrate a checkpoint to samples")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--count", type=int, default=1024)
    sp.add_argument("--reflow", type=int, default=0,
                    help="self-distillation rounds before sampling")
    sp.add_argument("--trajectories", action="store_true",
                    help="also write the full integration path")
    sub.add_parser("sweep", help="rate sweep over the n grid")
    sub.add_parser("bounds", help="evaluate the bound formulas")
    sub.add_parser("lowerbound", help="two-hypothesis construction report")
    sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    return p


_DISPATCH = {
    "train": cmd_train,
    "sample": cmd_sample,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "lowerbound": cmd_lowerbound,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("config error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        exp = load_experiment(args.config, seed_override=args.seed,
                              out_override=args.out)
        # sweep, bounds and lowerbound need the config block of their name
        if getattr(exp, args.command, True) is None:
            raise ConfigError(f"missing field '{args.command}'")
        return _DISPATCH[args.command](exp, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, VacuousRegimeError, FloatingPointError,
            OverflowError, ValueError) as e:
        # ConfigError is caught above, so a ValueError reaching this point is a
        # runtime domain violation (vacuous regime, failed precondition), not a
        # malformed config.
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
