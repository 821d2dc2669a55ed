"""Command-line entry point: six subcommands (train, sample, sweep, bounds,
lowerbound, gradcheck), each driven by one JSON config and writing its CSV
and JSON outputs under the config's out_dir. Exit codes: 0 ok, 2 config
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, sweep
from .bounds import VacuousRegimeError, full_report
from .config import ConfigError, Experiment, load_experiment
from .distributions import DistributionSpec, draw_coupled
from .linalg_rng import RngStream
from .network import (CHECKPOINT_FORMAT, NetArchitecture, VelocityNet,
                      finite_diff_grad, load_checkpoint, save_checkpoint)
from .oracles import lecam_budget, lowerbound_grid
from .sampler import MAX_REFLOW_ROUNDS, euler_integrate, reflow, straightness
from .training import DivergenceError, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


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


def cmd_sweep(exp: Experiment, args) -> int:
    out = _ensure_out(exp)
    rows, failures, summary = sweep.run(exp, args.jobs)
    write_csv(os.path.join(out, "sweep.csv"), exp,
              ["n", "trial", "seed", "excess_risk", "vel_l2", "w2",
               "w2_baseline", "runtime_ms"], _by_column(rows, 8))
    write_csv(os.path.join(out, "sweep_failures.csv"), exp,
              ["n", "trial", "seed", "error", "message"],
              _by_column(failures, 5))
    write_json(os.path.join(out, "sweep_fit.json"), exp, summary)
    for name, f in summary["fits"].items():
        print(f"sweep: {name} slope {f['slope']:.4f} "
              f"(stderr {f['stderr']:.4f}, r2 {f['r2']:.4f})")
    for name, reason in summary.get("skipped_fits", {}).items():
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
    try:
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
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
