"""Ground-truth velocity fields and the two-hypothesis hardness construction.

For independent Gaussian endpoints with equal variances the optimal velocity
is an exact joint-Gaussian regression, which scores a sweep cell's velocity
error; no other endpoint pair has a closed form here. The hardness side
builds the contaminated-target pair, its t=1/2 posterior velocities (in
log-density space, so the R/sigma >= 8 regime does not underflow), total
variation and separation integrals by an adaptive Gauss-Legendre rule in
numpy alone, and the m-sample testing budget.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .distributions import DistributionSpec, draw_coupled
from .linalg_rng import RngStream, as_field_input
from .metrics import excess_risk

_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_closed_form(pi0: DistributionSpec, pi1: DistributionSpec) -> bool:
    """Whether vstar_gaussian applies: gaussians of equal dim and std (to a
    relative 1e-12)."""
    return (pi0.kind == pi1.kind == "gaussian" and pi0.dim == pi1.dim
            and abs(pi0.std - pi1.std) <= 1e-12 * max(pi0.std, pi1.std))


def _require_closed_form(pi0: DistributionSpec, pi1: DistributionSpec) -> None:
    if not gaussian_closed_form(pi0, pi1):
        raise ValueError("closed form needs gaussian endpoints of equal dim and std")


def vstar_gaussian(pi0: DistributionSpec, pi1: DistributionSpec, x, t):
    """Exact optimal velocity E[X1 - X0 | X_t = x] for equal-std gaussians:

        (mu1 - mu0) + ((2t - 1) / ((1-t)^2 + t^2)) (x - ((1-t) mu0 + t mu1)).

    The variance cancels from the regression coefficient. x may be (d,) or
    (n, d); t a scalar in [0,1] or (n,).
    """
    _require_closed_form(pi0, pi1)
    xb, tb, single = as_field_input(x, t)
    coef = (2.0 * tb - 1.0) / ((1.0 - tb) ** 2 + tb ** 2)
    center = (1.0 - tb)[:, None] * pi0.mean + tb[:, None] * pi1.mean
    out = (pi1.mean - pi0.mean) + coef[:, None] * (xb - center)
    return out[0] if single else out


def velocity_l2_error(net, pi0: DistributionSpec, pi1: DistributionSpec,
                      n_mc: int, rng: RngStream):
    """Monte-Carlo estimate of the integrated squared velocity error
    int_0^1 E||net(X_t, t) - v*(X_t, t)||^2 dt: the excess risk against v* on
    n_mc coupled draws of rng. A float, or a (K,) array, one value per member,
    when net is a stack."""
    _require_closed_form(pi0, pi1)   # before drawing: unequal dims cannot pair
    return excess_risk(net, functools.partial(vstar_gaussian, pi0, pi1),
                       draw_coupled(rng, pi0, pi1, n_mc))


# -- two-hypothesis construction ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class LowerBoundInstance:
    """Source N(0, sigma^2); targets (1-eta) N(0, sigma^2) + eta N(-+R, sigma^2)
    under hypotheses 1/2, with contamination eta = eps^2 sigma^2 / R^2."""

    sigma: float
    R: float
    epsilon: float
    c_interval: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError("sigma must be > 0")
        if not (self.R >= 8.0 * self.sigma):
            raise ValueError("construction validity range requires R >= 8 sigma")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (self.c_interval > 0):
            raise ValueError("c_interval must be > 0")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must lie in (0, 1)")

    @property
    def eta(self) -> float:
        return self.epsilon ** 2 * self.sigma ** 2 / self.R ** 2

    def signal_mean(self, hypothesis: int) -> float:
        if hypothesis == 1:
            return -self.R
        if hypothesis == 2:
            return self.R
        raise ValueError("hypothesis must be 1 or 2")

    @property
    def interval(self) -> tuple[float, float]:
        half = self.c_interval * self.sigma
        return (self.R / 2.0 - half, self.R / 2.0 + half)


def _norm_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + np.log(var) + _LOG_2PI)


def _contaminated_pdf(inst: LowerBoundInstance, x, var: float, signal: float):
    """(1 - eta) N(0, var) + eta N(signal, var) at x."""
    x = np.asarray(x, dtype=np.float64)
    bg = np.exp(_norm_logpdf(x, 0.0, var))
    sig = np.exp(_norm_logpdf(x, signal, var))
    return (1.0 - inst.eta) * bg + inst.eta * sig


def target_pdf(inst: LowerBoundInstance, hypothesis: int, x):
    """Density of the contaminated target pi_1 under the given hypothesis."""
    return _contaminated_pdf(inst, x, inst.sigma ** 2,
                             inst.signal_mean(hypothesis))


def midpoint_pdf(inst: LowerBoundInstance, hypothesis: int, x):
    """Density of Z = X_{1/2} = (X0 + X1)/2: component means halve, variance
    sigma^2/2 either way."""
    return _contaminated_pdf(inst, x, 0.5 * inst.sigma ** 2,
                             0.5 * inst.signal_mean(hypothesis))


def pi_star_pdf(inst: LowerBoundInstance, x):
    """Reference midpoint density: the even mixture of the two hypotheses."""
    return 0.5 * (midpoint_pdf(inst, 1, x) + midpoint_pdf(inst, 2, x))


def posterior_weights(inst: LowerBoundInstance, hypothesis: int, x):
    """P(component | Z = x) for (background, signal), computed in log space."""
    x = np.asarray(x, dtype=np.float64)
    var = 0.5 * inst.sigma ** 2
    log_bg = math.log1p(-inst.eta) + _norm_logpdf(x, 0.0, var)
    log_sig = math.log(inst.eta) + _norm_logpdf(
        x, 0.5 * inst.signal_mean(hypothesis), var)
    norm = np.logaddexp(log_bg, log_sig)
    return np.exp(log_bg - norm), np.exp(log_sig - norm)


def conditional_x0_mean(inst: LowerBoundInstance, hypothesis: int, x):
    """E[X0 | Z = x]: within each component the regression coefficient is 1 and
    E[X0 | Z = x, comp] = x + (mu0 - mu1)/2; the posterior mixes the shifts."""
    x = np.asarray(x, dtype=np.float64)
    _, w_sig = posterior_weights(inst, hypothesis, x)
    return x - 0.5 * w_sig * inst.signal_mean(hypothesis)


def mixture_posterior_velocity(inst: LowerBoundInstance, hypothesis: int, x):
    """v_i(x, 1/2) = 2 (x - E^{(i)}[X0 | Z = x]) = w_signal(x) * (signal mean)."""
    return 2.0 * (np.asarray(x, dtype=np.float64)
                  - conditional_x0_mean(inst, hypothesis, x))


_QUAD_ROUNDS = 30      # a panel is halved at most this often,
_QUAD_PANELS = 4096    # and at most this many panels are open at once
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


def _gauss(f, a, b, rule):
    """Gauss-Legendre sums of f and of |f| over the panels [a, b] (arrays),
    from one call of the vectorized integrand; rule is (nodes, weights)."""
    nodes, weights = rule
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
    fx = np.asarray(f(x.ravel()), dtype=np.float64).reshape(x.shape)
    if not np.isfinite(fx).all():
        raise FloatingPointError("quadrature integrand is not finite")
    return half * (fx @ weights), half * (np.abs(fx) @ weights)


def _quad(f, lo: float, hi: float, points=(), *, tol: float) -> float:
    """int_lo^hi f to absolute error tol, by adaptive composite Gauss-Legendre.

    The breakpoints inside (lo, hi) cut the first panels. Each round evaluates
    the 20-point rule on both halves of every open panel in one call of f. A
    panel closes when its halves agree with its whole-panel sum within its
    width's share of tol, or within the roundoff of that sum (QUADPACK's
    50 eps floor); otherwise its halves become panels. An integrand that is
    not finite, or that has not converged after _QUAD_ROUNDS halvings or with
    more than _QUAD_PANELS panels open, raises FloatingPointError.
    """
    # numpy.polynomial is imported on first use, so that only lowerbound pays
    rule = np.polynomial.legendre.leggauss(20)
    edges = np.unique([lo, hi, *(p for p in points if lo < p < hi)])
    a, b = edges[:-1], edges[1:]
    whole, _ = _gauss(f, a, b, rule)
    closed = []
    for _ in range(_QUAD_ROUNDS):
        m = 0.5 * (a + b)
        sums, mags = _gauss(f, np.concatenate([a, m]), np.concatenate([m, b]),
                            rule)
        left, right = np.split(sums, 2)
        fine = left + right
        share = np.maximum(tol * (b - a) / (hi - lo),
                           _ROUNDOFF * np.add(*np.split(mags, 2)))
        done = np.abs(fine - whole) <= share
        closed.append(fine[done])
        keep = ~done
        a, b = (np.concatenate([a[keep], m[keep]]),
                np.concatenate([m[keep], b[keep]]))
        whole = np.concatenate([left[keep], right[keep]])
        if a.size == 0:
            return math.fsum(np.concatenate(closed))
        if a.size > _QUAD_PANELS:
            break
    raise FloatingPointError(f"quadrature did not converge on [{lo}, {hi}] "
                             f"to {tol:.0e} ({a.size} panels still open)")


def tv_distance_mixtures(inst: LowerBoundInstance) -> float:
    """TV(pi_1^(1), pi_1^(2)) = 1/2 int |p1 - p2|, by _quad over
    +-(R + 12 sigma) with breakpoints at the component means and their
    midpoints, to an absolute min(1e-8, 1e-3 eta).

    The result must not exceed eta (the backgrounds cancel exactly); violation
    beyond that tolerance is raised as an error, as is a quadrature that
    does not converge. The tolerance scales with eta below 1e-5, so that the
    guard still sees a TV of a few eta when eta is small.
    """
    tol = min(1e-8, 1e-3 * inst.eta)
    tv = 0.5 * _quad(
        lambda x: np.abs(target_pdf(inst, 1, x) - target_pdf(inst, 2, x)),
        -inst.R - 12.0 * inst.sigma, inst.R + 12.0 * inst.sigma,
        points=(-inst.R, -inst.R / 2, 0.0, inst.R / 2, inst.R), tol=tol)
    if tv > inst.eta + tol:
        raise FloatingPointError(f"computed TV {tv:.3e} exceeds eta {inst.eta:.3e}")
    return tv


@dataclasses.dataclass(frozen=True)
class SeparationReport:
    interval: tuple[float, float]
    pointwise_min: float      # min |v1 - v2| over the interval grid
    interval_rms: float       # sqrt of the pi_*-weighted mean of |v1-v2|^2 on I_R
    l2_separation_sq: float   # int |v1 - v2|^2 d pi_{*,1/2} over the whole line


def velocity_separation(inst: LowerBoundInstance, n_grid: int = 2001) -> SeparationReport:
    """Pointwise and pi_*-weighted separation of the two posterior velocities."""
    lo, hi = inst.interval
    grid = np.linspace(lo, hi, n_grid)
    diff = np.abs(mixture_posterior_velocity(inst, 1, grid)
                  - mixture_posterior_velocity(inst, 2, grid))

    def weighted_sq_diff(x):
        d = (mixture_posterior_velocity(inst, 1, x)
             - mixture_posterior_velocity(inst, 2, x))
        return d * d * pi_star_pdf(inst, x)

    num = _quad(weighted_sq_diff, lo, hi, tol=1e-10)
    den = _quad(lambda x: pi_star_pdf(inst, x), lo, hi, tol=1e-12)
    total = _quad(weighted_sq_diff, -inst.R - 12.0 * inst.sigma,
                  inst.R + 12.0 * inst.sigma,
                  points=(-inst.R / 2, 0.0, inst.R / 2), tol=1e-12)
    return SeparationReport(
        interval=(lo, hi),
        pointwise_min=float(diff.min()),
        interval_rms=float(math.sqrt(num / den)),
        l2_separation_sq=float(total),
    )


@dataclasses.dataclass(frozen=True)
class LeCamReport:
    tv_pair: float            # quadrature TV between the two targets
    tv_budget_m: float        # min(1, m * eta): product-measure TV budget
    separation: SeparationReport  # its l2_separation_sq is ||v1 - v2||^2
    risk_floor: float         # (separation/4) * (1 - budget), two-point reduction
    floor_ratio: float        # risk_floor / (eps^2 sigma^2)


def lecam_budget(inst: LowerBoundInstance, m: int) -> LeCamReport:
    """m-sample testing budget and the implied two-point risk floor.

    With m samples the product TV is at most m*eta; the two-point argument
    yields inf-sup risk >= (separation/4)(1 - TV_m), which is of order
    eps^2 sigma^2 whenever m*eta <= 1/2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    tv = tv_distance_mixtures(inst)
    budget = min(1.0, m * inst.eta)
    sep = velocity_separation(inst)
    floor = 0.25 * sep.l2_separation_sq * (1.0 - budget)
    scale = inst.epsilon ** 2 * inst.sigma ** 2
    return LeCamReport(tv, budget, sep, floor, floor / scale)


def lowerbound_grid(inst: LowerBoundInstance, lo: float, hi: float, n: int):
    """Arrays for the CSV export: x, v1, v2, diff, density_pi_star."""
    if n < 2 or not (hi > lo):
        raise ValueError("need an increasing grid with >= 2 points")
    x = np.linspace(lo, hi, n)
    v1 = mixture_posterior_velocity(inst, 1, x)
    v2 = mixture_posterior_velocity(inst, 2, x)
    return {
        "x": x,
        "v1": v1,
        "v2": v2,
        "diff": np.abs(v1 - v2),
        "density_pi_star": pi_star_pdf(inst, x),
    }
