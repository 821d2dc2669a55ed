"""The rate sweep: a proxy for the population minimizer, then every (n, trial)
cell of the grid trained, scored against the proxy and fitted on a log-log
scale. Its config block is a SweepSpec.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
import typing

import numpy as np

from .distributions import CoupledBatch, draw_coupled
from .linalg_rng import RngStream, splitmix64
from .metrics import excess_risk, fit_rate, w2_empirical
from .network import VelocityNet
from .oracles import gaussian_closed_form, velocity_l2_error
from .sampler import euler_integrate
from .training import TrainConfig, train

if typing.TYPE_CHECKING:   # config imports SweepSpec from here
    from .config import Experiment


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
                     "proxy_batch", "eval_samples", "euler_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (1.0 <= self.steps_exponent <= 2.0):
            raise ValueError("steps_exponent must be in [1, 2]")


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
        vel = velocity_l2_error(net, exp.pi0, exp.pi1, sw.eval_samples,
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


def run(exp: Experiment, jobs: int) -> tuple[list, list, dict]:
    """The sweep of exp on `jobs` worker processes: its scored cells and its
    failed cells, each in (n, trial) order, and the summary that holds the
    per-n medians and their rate fits."""
    sw = exp.sweep

    proxy = _train_proxy(exp)
    holdout = draw_coupled(RngStream(exp.seed).derive(8), exp.pi0, exp.pi1,
                           sw.eval_samples)

    # the trials of one n train in lockstep; jobs spreads the n values
    per_n = functools.partial(_run_group, exp, proxy, holdout)
    if jobs > 1:
        import multiprocessing   # only a pool needs it (10 ms at start-up)
        with multiprocessing.Pool(min(jobs, len(sw.grid))) as pool:
            groups = pool.map(per_n, sw.grid)
    else:
        groups = list(map(per_n, sw.grid))
    results = [cell for group in groups for cell in group]

    # (n, trial) order: the grid ascends, and so do the trials of a group
    rows = [r for kind, r in results if kind == "ok"]
    failures = [r for kind, r in results if kind == "fail"]

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
    return rows, failures, summary
