"""Two-sample transport distances, held-out excess risk, and log-log rate fits.

Empirical W2 is always sample-vs-sample on equal counts: the 1-D route sorts,
the d >= 2 route solves the balanced assignment exactly (O(n^3), capped at
n = 512). Finite-sample bias is handled by the caller via a same-distribution
baseline, never folded in here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .distributions import CoupledBatch

ASSIGNMENT_CAP = 512


def w2_empirical_1d(a, b) -> float:
    """Exact empirical W2 between equal-size 1-D samples: sorted pairing."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise ValueError("empty input")
    if a.size != b.size:
        raise ValueError("samples must have equal size")
    d = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(d * d)))


def w2_empirical_assignment(a, b) -> float:
    """Exact empirical W2 in d >= 1 via min-cost perfect matching.

    Capped at n = 512; subsample both sides to at most 512 points for larger
    clouds and report the cap alongside.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] == 0:
        raise ValueError("empty input")
    if a.shape != b.shape:
        raise ValueError("samples must have equal shape")
    if a.shape[0] > ASSIGNMENT_CAP:
        raise ValueError(
            f"assignment route is capped at n = {ASSIGNMENT_CAP}; subsample first")
    # scipy costs about half a second to import; only this route needs it
    from scipy.optimize import linear_sum_assignment

    diff = a[:, None, :] - b[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def w2_empirical(a, b) -> float:
    """Dispatch: sorted route in 1-D, exact assignment otherwise."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1 or a.shape[1] == 1:
        return w2_empirical_1d(a, np.asarray(b))
    return w2_empirical_assignment(a, b)


def excess_risk(net, theta_star_proxy, holdout: CoupledBatch):
    """Mean squared velocity gap between net and the proxy on held-out points.

    Both arguments are fields (VelocityNet or any callable(x, t) -> velocities);
    with an oracle field as proxy this is the full L2 velocity error. A float,
    or a (K,) array, one value per member, when net is a stack.
    """
    if len(holdout) == 0:
        raise ValueError("empty holdout")
    gap = net(holdout.xt, holdout.t) - theta_star_proxy(holdout.xt, holdout.t)
    risk = np.mean(np.sum(gap * gap, axis=-1), axis=-1)
    return risk if risk.ndim else float(risk)


@dataclasses.dataclass
class RateFit:
    slope: float
    intercept: float
    stderr: float       # standard error of the slope
    r2: float


def fit_rate(ns, values) -> RateFit:
    """OLS of log(value) on log(n); the slope is the empirical decay exponent."""
    ns = np.asarray(ns, dtype=np.float64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if ns.size != values.size:
        raise ValueError("grid lengths disagree")
    if ns.size < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(values <= 0) or np.any(ns <= 0):
        raise ValueError("rate fitting needs positive n and values")
    x = np.log(ns)
    y = np.log(values)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0:
        raise ValueError("grid has no spread in n")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    rss = float(np.sum(resid ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    dof = max(ns.size - 2, 1)
    stderr = float(np.sqrt(rss / dof / sxx))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return RateFit(slope, intercept, stderr, r2)
