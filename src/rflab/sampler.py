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
from .training import TrainConfig, train

MAX_REFLOW_ROUNDS = 3


@dataclasses.dataclass
class FlowTrajectory:
    """times: (S+1,) strictly increasing from 0 to 1; states: (S+1, n, d)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def steps(self) -> int:
        return self.times.size - 1

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.states[0], self.states[-1]


def euler_integrate(field, z0, steps: int, record: bool = False):
    """Integrate dZ = field(Z, t) dt over [0, 1] on the uniform S-step grid:
    Z_{s+1} = Z_s + (1/S) field(Z_s, s/S).

    Returns (z1, trajectory) with the trajectory recorded only on request.
    Aborts with a diagnostic if the state leaves the finite range. The state
    is (d, n), updated in place; a VelocityNet runs through its flow().
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z, _, single = as_field_input(z0)
    times = np.linspace(0.0, 1.0, steps + 1)
    states = np.empty((steps + 1, *z.shape)) if record else None
    if record:
        states[0] = z
    velocity = field.flow(len(z)) if isinstance(field, VelocityNet) else \
        lambda zt, t: field(np.ascontiguousarray(zt.T), np.full(zt.shape[1], t)).T
    z = z.T.copy()
    for s in range(steps):
        z += (times[s + 1] - times[s]) * velocity(z, times[s])
        if not np.isfinite(z).all():
            raise FloatingPointError(
                f"integration diverged to a non-finite state at step {s + 1}/{steps}")
        if record:
            states[s + 1] = z.T
    z1 = z[:, 0] if single else np.ascontiguousarray(z.T)
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


def reflow(net: VelocityNet, round_index: int, pi0: DistributionSpec,
           n_synth: int, cfg: TrainConfig, rng: RngStream,
           integrate_steps: int = 100, seed: int = 0) -> VelocityNet:
    """Round round_index + 1 (of at most 3) for a net that has had round_index
    rounds: fresh pi0 draws -> Euler endpoints under net -> a copy of net,
    retrained on the coupled pairs with a shuffle seed derived from seed and
    the round, is returned. Draws no target samples."""
    if round_index >= MAX_REFLOW_ROUNDS:
        raise ValueError(f"reflow is capped at {MAX_REFLOW_ROUNDS} rounds")
    z0 = pi0.sample(rng.derive(1), n_synth)
    z1, _ = euler_integrate(net, z0, integrate_steps)
    pairs = couple_given(rng.derive(2), z0, z1)
    out = net.copy()
    train(out, pairs, cfg, seed=splitmix64(seed ^ splitmix64(round_index + 1)))
    return out
