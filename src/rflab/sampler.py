"""ODE transport by explicit Euler (one step is one-step sampling), trajectory
bookkeeping, and the reflow loop.

Euler only, by design: the few-step behavior under the crudest integrator is
itself an object of study here, and higher-order schemes would blur it.
Reflow draws fresh source samples, pushes them through the current net to get
synthetic endpoints, couples each Z0 with its own Z1, and retrains; it never
touches the target distribution, which is what its draw counter certifies.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .distributions import DistributionSpec, couple_given
from .linalg_rng import RngStream, as_field_input, splitmix64
from .network import VelocityNet
from .training import TrainConfig, TrainTrace, train

MAX_REFLOW_ROUNDS = 3


@dataclasses.dataclass
class FlowTrajectory:
    """times: (S+1,) strictly increasing from 0 to 1; states: (S+1, n, d)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 3:
            raise ValueError("times must be (S+1,), states (S+1, n, d)")
        if self.states.shape[0] != self.times.size:
            raise ValueError("states length must match times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def steps(self) -> int:
        return self.times.size - 1

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.states[0], self.states[-1]


def euler_integrate(field, z0, steps: int, record: bool = False):
    """Integrate dZ = field(Z, t) dt over [0, 1] on the uniform S-step grid:
    Z_{s+1} = Z_s + (1/S) field(Z_s, s/S).

    Returns (z1, trajectory) with the trajectory recorded only on request.
    Aborts with a diagnostic if the state leaves the finite range.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z, _, single = as_field_input(z0)
    times = np.linspace(0.0, 1.0, steps + 1)
    states = np.empty((steps + 1, *z.shape)) if record else None
    if record:
        states[0] = z
    for s in range(steps):
        v = field(z, np.full(z.shape[0], times[s]))
        z = z + (times[s + 1] - times[s]) * v
        if not np.isfinite(z).all():
            raise FloatingPointError(
                f"integration diverged to a non-finite state at step {s + 1}/{steps}")
        if record:
            states[s + 1] = z
    z1 = z[0] if single else z
    traj = FlowTrajectory(times, states) if record else None
    return z1, traj


def chord_deviations(traj: FlowTrajectory) -> np.ndarray:
    """Squared distance of each state from the endpoint chord, shape (S+1, n)."""
    z0, z1 = traj.endpoints()
    t = traj.times[:, None, None]
    dev = traj.states - ((1.0 - t) * z0[None] + t * z1[None])
    return np.sum(dev * dev, axis=2)


def straightness(traj: FlowTrajectory) -> float:
    """Mean over grid points (and batch) of the squared chord deviation.

    Zero exactly when the trajectory is the chord.
    """
    if traj.steps < 2:
        raise ValueError("straightness needs at least 2 steps")
    return float(chord_deviations(traj).mean())


@dataclasses.dataclass
class ReflowState:
    """round_index 0 holds the data-trained net and an empty buffer; round k >= 1
    holds the net retrained on couplings generated by the round-(k-1) net."""

    round_index: int
    net: VelocityNet
    z0: np.ndarray | None = None
    z1: np.ndarray | None = None
    trace: TrainTrace | None = None


def reflow(state: ReflowState, pi0: DistributionSpec, n_synth: int,
           cfg: TrainConfig, rng: RngStream, integrate_steps: int = 100) -> ReflowState:
    """One reflow round: fresh pi0 draws -> Euler endpoints under the current
    net -> retrain (warm-started) on the coupled pairs. Consumes no target
    samples by construction; rounds are capped at 3."""
    if state.round_index >= MAX_REFLOW_ROUNDS:
        raise ValueError(f"reflow is capped at {MAX_REFLOW_ROUNDS} rounds")
    if n_synth < 1:
        raise ValueError("n_synth must be >= 1")
    z0 = pi0.sample(rng.derive(1), n_synth)
    z1, _ = euler_integrate(state.net, z0, integrate_steps)
    pairs = couple_given(rng.derive(2), z0, z1)
    net = state.net.copy()
    cfg_round = dataclasses.replace(
        cfg, n_samples=n_synth,
        seed=splitmix64(cfg.seed ^ splitmix64(state.round_index + 1)))
    trace = train(net, pairs, cfg_round)
    return ReflowState(state.round_index + 1, net, z0, z1, trace)
