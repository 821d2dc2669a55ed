"""Reference oracles only the tests use: a binned Monte-Carlo conditional
mean, displacement tail helpers, and SGD on a quadratic against the envelope
delta_{k+1} <= (1 - mu eta_k) delta_k + kappa sigma^2 eta_k^2 / 2."""

import dataclasses
import math

import numpy as np

from rflab.distributions import DistributionSpec
from rflab.linalg_rng import RngStream
from rflab.metrics import fit_rate
from rflab.training import TrainConfig, step_size


def conditional_mean_mc(pi0: DistributionSpec, pi1: DistributionSpec, t: float,
                        grid: np.ndarray, n_mc: int, rng: RngStream):
    """Binned Monte-Carlo estimate of E[X1 - X0 | X_t = x] on a 1-D grid.

    Returns (estimates, stderrs, counts) per grid cell. Cells are the nearest-
    grid-point partition, bounded by half a cell beyond the span; draws outside
    are discarded so edge cells do not swallow the tails.
    """
    if pi0.dim != 1 or pi1.dim != 1:
        raise ValueError("binned estimator is 1-D only")
    grid = np.asarray(grid, dtype=np.float64).reshape(-1)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be increasing with >= 2 points")
    x0 = pi0.sample(rng, n_mc)
    x1 = pi1.sample(rng, n_mc)
    xt = ((1.0 - t) * x0 + t * x1).reshape(-1)
    disp = (x1 - x0).reshape(-1)
    lo = grid[0] - 0.5 * (grid[1] - grid[0])
    hi = grid[-1] + 0.5 * (grid[-1] - grid[-2])
    keep = (xt >= lo) & (xt <= hi)
    xt, disp = xt[keep], disp[keep]
    edges = 0.5 * (grid[1:] + grid[:-1])
    cell = np.searchsorted(edges, xt)
    counts = np.bincount(cell, minlength=grid.size)
    sums = np.bincount(cell, weights=disp, minlength=grid.size)
    sq = np.bincount(cell, weights=disp * disp, minlength=grid.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
        var = sq / counts - means ** 2
        stderr = np.sqrt(np.maximum(var, 0.0) / np.maximum(counts, 1))
    return means, stderr, counts


def pair_subgaussian_sigma(s0: float, s1: float) -> float:
    """Tail parameter for the displacement X1 - X0 of an independent coupling
    of two gaussians with stds s0 and s1."""
    return math.sqrt(s0 ** 2 + s1 ** 2)


def tail_mass_outside(pi0: DistributionSpec, pi1: DistributionSpec, M: float,
                      n_mc: int, rng: RngStream) -> tuple[float, float]:
    """Monte-Carlo estimate of P(||X1 - X0|| > M) with its standard error."""
    if not (M > 0):
        raise ValueError("M must be > 0")
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    x0 = pi0.sample(rng, n_mc)
    x1 = pi1.sample(rng, n_mc)
    hits = (np.linalg.norm(x1 - x0, axis=1) > M).astype(np.float64)
    p = float(hits.mean())
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / n_mc)
    return p, stderr


@dataclasses.dataclass
class QuadraticProblem:
    """L(theta) = 0.5 sum_i lambda_i theta_i^2; PL constant mu = min lambda,
    smoothness kappa = max lambda, minimum 0 at the origin. Gradient noise is
    isotropic with E||xi||^2 = noise_var."""

    lambdas: np.ndarray
    theta0: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        self.theta0 = np.asarray(self.theta0, dtype=np.float64)
        if self.lambdas.ndim != 1 or self.lambdas.size != self.theta0.size:
            raise ValueError("lambdas and theta0 must be vectors of equal length")
        if np.min(self.lambdas) <= 0:
            raise ValueError("lambdas must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")

    @property
    def mu(self) -> float:
        return float(np.min(self.lambdas))

    @property
    def kappa(self) -> float:
        return float(np.max(self.lambdas))

    def loss(self, theta: np.ndarray) -> float:
        return 0.5 * float(np.dot(self.lambdas, theta * theta))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.lambdas * theta

    def noisy_grad(self, theta: np.ndarray, rng: RngStream) -> np.ndarray:
        g = self.grad(theta)
        if self.noise_var == 0:
            return g
        d = theta.size
        return g + math.sqrt(self.noise_var / d) * rng.gen.standard_normal(d)


def recursion_envelope(problem: QuadraticProblem, cfg: TrainConfig, steps: int) -> np.ndarray:
    """Numerically iterated upper envelope for E[L(theta_k) - L*], k = 0..steps."""
    mu, kappa = problem.mu, problem.kappa
    env = np.empty(steps + 1)
    env[0] = problem.loss(problem.theta0)
    for k in range(steps):
        eta = step_size(cfg, k)
        env[k + 1] = (1.0 - mu * eta) * env[k] + 0.5 * kappa * problem.noise_var * eta * eta
    return env


def closed_envelope_constant(problem: QuadraticProblem, cfg: TrainConfig,
                             delta0: float) -> float:
    """C = max(gamma*delta_0, kappa sigma^2 c^2 / (2 (mu c - 1))) for the
    C/(k+gamma) closed form; requires the diminishing schedule with c > 1/mu."""
    if cfg.schedule != "diminishing":
        raise ValueError("closed envelope applies to the diminishing schedule")
    if not (cfg.c > 1.0 / problem.mu):
        raise ValueError("closed envelope requires c > 1/mu")
    return max(cfg.gamma * delta0,
               problem.kappa * problem.noise_var * cfg.c ** 2
               / (2.0 * (problem.mu * cfg.c - 1.0)))


@dataclasses.dataclass
class SgdRateReport:
    mean_delta: np.ndarray       # E[L(theta_k) - L*] over seeds, k = 0..K
    slope: float                 # log-log fit over the final decade
    envelope_ok: bool            # mean <= 1.5 x envelope for all k >= 10
    closed_constant: float | None
    closed_ok: bool | None
    n_seeds: int


def sgd_rate_check(problem: QuadraticProblem, cfg: TrainConfig, n_seeds: int = 20,
                   slack: float = 1.5) -> SgdRateReport:
    """Run SGD on the quadratic across seeds; fit the decay exponent of the mean
    optimality gap over the final decade of steps and compare against the
    iterated recursion envelope."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    K = cfg.steps
    deltas = np.zeros(K + 1)
    for s in range(n_seeds):
        rng = RngStream(0, 0).derive(1000 + s)
        theta = problem.theta0.copy()
        deltas[0] += problem.loss(theta)
        for k in range(K):
            theta = theta - step_size(cfg, k) * problem.noisy_grad(theta, rng)
            deltas[k + 1] += problem.loss(theta)
    deltas /= n_seeds

    env = recursion_envelope(problem, cfg, K)
    ks = np.arange(K + 1)
    tail = ks >= 10
    envelope_ok = bool(np.all(deltas[tail] <= slack * env[tail]))

    lo = max(10, K // 10)
    window = np.arange(lo, K + 1)
    fit = fit_rate(window.astype(float), np.maximum(deltas[window], 1e-300))

    closed_c = None
    closed_ok = None
    if cfg.schedule == "diminishing" and problem.mu * cfg.c > 1.0:
        closed_c = closed_envelope_constant(problem, cfg, deltas[0])
        bound = closed_c / (ks + cfg.gamma)
        closed_ok = bool(np.all(deltas[tail] <= slack * bound[tail]))
    return SgdRateReport(deltas, fit.slope, envelope_ok, closed_c, closed_ok, n_seeds)
