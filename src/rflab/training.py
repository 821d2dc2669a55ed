"""Projected SGD on the displacement-regression loss, with the constant and
diminishing step schedules and the divergence guard.

Minibatches are epoch-shuffled without replacement (documented deviation from
the per-i.i.d.-draw analysis). The feasibility projection runs after every
step so the derived network constants stay valid throughout training.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .distributions import CoupledBatch
from .linalg_rng import RngStream
from .network import VelocityNet

_SHUFFLE_TAG = 0x5347440A  # stream tag for minibatch shuffling


class DivergenceError(RuntimeError):
    """Training loss exceeded the divergence threshold."""


@dataclasses.dataclass
class TrainConfig:
    batch_size: int
    steps: int
    schedule: str = "diminishing"      # "constant" | "diminishing"
    eta: float = 0.05                  # constant schedule step
    c: float = 4.0                     # diminishing: eta_k = c / (k + gamma)
    gamma: float = 40.0
    mu_hat: float | None = None        # assumed PL constant; validates c > 1/mu_hat
    kappa_hat: float | None = None     # assumed smoothness; validates gamma >= kappa_hat*c
    divergence_factor: float = 1e3
    record_every: int = 1              # cadence of full-data loss records

    def __post_init__(self):
        if self.schedule not in ("constant", "diminishing"):
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        if self.batch_size < 1 or self.steps < 1:
            raise ValueError("batch_size and steps must be >= 1")
        if self.schedule == "constant":
            if not (self.eta > 0):
                raise ValueError("constant schedule needs eta > 0")
            if self.kappa_hat is not None and self.eta > 1.0 / self.kappa_hat:
                raise ValueError("constant schedule requires eta <= 1/kappa_hat")
        else:
            if not (self.c > 0 and self.gamma > 0):
                raise ValueError("diminishing schedule needs c > 0 and gamma > 0")
            if self.mu_hat is not None and not (self.c > 1.0 / self.mu_hat):
                raise ValueError("diminishing schedule requires c > 1/mu_hat")
            if self.kappa_hat is not None and not (self.gamma >= self.kappa_hat * self.c):
                raise ValueError("diminishing schedule requires gamma >= kappa_hat*c")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def step_size(cfg: TrainConfig, k: int) -> float:
    """eta_k for step index k (0-based)."""
    if cfg.schedule == "constant":
        return cfg.eta
    return cfg.c / (k + cfg.gamma)


@dataclasses.dataclass
class TrainTrace:
    """Recorded at steps k = 0, record_every, 2*record_every, ..., and the last.

    loss is the full-data empirical loss; grad_norm is the norm of that step's
    minibatch gradient (exact gradient when batch_size = n)."""

    step: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    eta: np.ndarray
    max_row_l1: np.ndarray
    initial_loss: float
    final_loss: float


def train(net: VelocityNet, data: CoupledBatch, cfg: TrainConfig,
          seed: int | tuple[int, ...] = 0):
    """Projected SGD in place, minibatches shuffled from seed; returns the
    trace. Raises DivergenceError when the full-data loss at a record step
    exceeds divergence_factor x (initial loss, floored at 1e-12), and
    FloatingPointError when an update leaves a non-finite parameter.

    A stack of K nets trains in lockstep on a stacked batch (K batches of the
    same n), with seed a tuple of K shuffle seeds. Each member takes the
    same steps, in the same floating-point order, as it would alone. The
    result is a list with, per member, its TrainTrace or the error a training
    run of that member alone would raise; a failed member stays at zero
    parameters while the others carry on.
    """
    n = len(data)
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds the {n} rows of data")
    lead = net.theta.shape[:-1]
    seeds = seed if lead else (seed,)
    if data.t.shape[:-1] != lead or not isinstance(seeds, tuple) \
            or len(seeds) != (lead[0] if lead else 1):
        raise ValueError("a stack of K nets needs a stacked batch of K and K seeds")
    K = len(seeds)
    shuffles = [RngStream(seed, _SHUFFLE_TAG) for seed in seeds]
    loss0 = np.reshape(net.loss(data), -1)
    ceiling = cfg.divergence_factor * np.maximum(loss0, 1e-12)
    errors: dict[int, Exception] = {}

    def fail(i: int, err: Exception) -> None:
        if not lead:
            raise err
        errors[i] = err
        net.theta[i] = 0.0

    def epoch(laid=None):
        # one gather per epoch, into the kernel's layout and the first buffer
        order = np.stack([s.gen.permutation(n) for s in shuffles]).reshape(lead + (n,))
        return net.lay_out(data.take(order), laid)

    records = []   # (step, full-data losses, gradient norms, eta, row l1) per record
    laid, pos = epoch(), 0
    for k in range(cfg.steps):
        if pos + cfg.batch_size > n:
            laid, pos = epoch(laid), 0
        _, g = net.loss_and_grad(laid[pos:pos + cfg.batch_size])
        pos += cfg.batch_size
        if errors:
            g[list(errors)] = 0.0
        eta = step_size(cfg, k)
        net.theta -= eta * g
        finite = np.isfinite(net.theta).all(axis=-1)
        if not finite.all():
            for i in np.flatnonzero(~finite):
                fail(int(i), FloatingPointError(
                    f"non-finite parameters after the update at step {k}"))
        net.project_constraints()
        if k % cfg.record_every == 0 or k == cfg.steps - 1:
            full = np.reshape(net.loss(data), -1)
            gnorm = [float(np.linalg.norm(gi)) for gi in g.reshape(K, -1)]
            records.append((k, full, gnorm, eta, np.reshape(net.row_l1(), -1)))
            diverged = ~np.isfinite(full) | (full > ceiling)
            diverged[list(errors)] = False
            for i in np.flatnonzero(diverged):
                fail(int(i), DivergenceError(
                    f"loss {full[i]:.3e} exceeded {cfg.divergence_factor:.0e} x "
                    f"initial {loss0[i]:.3e} at step {k}"))
    step, loss, grad_norm, eta, row_l1 = (np.array(col) for col in zip(*records))
    traces = [errors[i] if i in errors else TrainTrace(
        step=step.astype(np.int64), loss=loss[:, i], grad_norm=grad_norm[:, i],
        eta=eta.copy(), max_row_l1=row_l1[:, i],
        initial_loss=float(loss0[i]), final_loss=float(loss[-1, i]),
    ) for i in range(K)]
    return traces if lead else traces[0]
