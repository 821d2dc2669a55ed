"""Generalization-bound formulas and their numerical consistency checks.

Every closed-form quantity used by the sample-complexity analysis lives here:
the Bernstein constant, metric-entropy counts in log domain, the localized
Dudley integral bound, the sub-root fixed point (closed form and bisection
root), the excess-risk and statistical-error bounds, the sample-size search,
and the truncation bias budget. A Monte-Carlo lower estimator for the
empirical Rademacher complexity of the localized loss class provides the
matching sanity check from below.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg_rng import RngStream
from .network import VelocityNet

_SQRT_PI_HALF = math.sqrt(math.pi) / 2.0

# C_ARCH in L_theta = C_ARCH D (L_phi V)^D: the source bound leaves it unnamed
C_ARCH = 1.0


class VacuousRegimeError(ValueError):
    """A bound was evaluated where its logarithm argument drops below 1."""


@dataclasses.dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the bound formulas.

    B defaults to bernstein_B(L_theta, mu) and x_conf to log(2/delta); pass a
    value to override either directly.
    """

    P: int
    n: int
    L_ell: float
    mu: float
    L_theta: float
    B: float | None = None
    b: float = 1.0
    V: float = 4.0
    L_phi: float = 1.0
    D: int = 2
    C_univ: float = 1.0
    epsilon: float = 0.3
    delta: float = 0.1
    x_conf: float | None = None

    def __post_init__(self):
        if self.B is None:
            object.__setattr__(self, "B", bernstein_B(self.L_theta, self.mu))
        for name in ("P", "n", "B", "L_ell", "mu", "L_theta", "b", "V",
                     "L_phi", "C_univ", "epsilon"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")
        if self.D < 2:
            raise ValueError("D must be >= 2")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.x_conf is None:
            object.__setattr__(self, "x_conf", math.log(2.0 / self.delta))
        if not (self.x_conf > 0):
            raise ValueError("x_conf must be > 0")

    @classmethod
    def from_architecture(cls, arch, mu: float, n: int, m_disp: float = 0.0,
                          **kw) -> "BoundInputs":
        """L_ell = 2 (V b + m_disp) and L_theta = C_ARCH D (L_phi V)^D."""
        if m_disp < 0:
            raise ValueError("m_disp must be >= 0")
        l_phi, V, D = arch.act().lipschitz, arch.l1_budget, arch.depth
        return cls(P=arch.param_count, n=n, L_ell=2.0 * (V * arch.act_bound + m_disp),
                   mu=mu, L_theta=C_ARCH * D * (l_phi * V) ** D, b=arch.act_bound,
                   V=V, L_phi=l_phi, D=D, **kw)

    def with_n(self, n: int) -> "BoundInputs":
        return dataclasses.replace(self, n=n)


def bernstein_B(L_theta: float, mu: float) -> float:
    """Variance-to-mean constant of the curvature argument: B = 2 L^2 / mu."""
    if not (mu > 0):
        raise ValueError("mu must be > 0")
    return 2.0 * L_theta ** 2 / mu


def amplitude_A(P: int, b: float, V: float, L_phi: float, D: int) -> float:
    """Entropy amplitude A = 4 e b P (L_phi V)^D / (L_phi V - 1)."""
    q = L_phi * V
    if q <= 1.0:
        raise ValueError("need L_phi * V > 1")
    return 4.0 * math.e * b * P * q ** D / (q - 1.0)


def log_covering(P: int, m: int, eps: float, b: float, V: float,
                 L_phi: float, D: int) -> float:
    """log of the sup-norm covering count at scale eps over m points:

        P * log(4 e m b P (L_phi V)^D / (eps (L_phi V - 1))).

    Valid for 0 < eps <= 2b (the class has sup norm b, so wider scales
    trivialize the cover).
    """
    if not (P >= 1 and m >= 1):
        raise ValueError("P and m must be >= 1")
    if not (0.0 < eps <= 2.0 * b):
        raise ValueError("eps must lie in (0, 2b]")
    q = L_phi * V
    if q <= 1.0:
        raise ValueError("need L_phi * V > 1")
    return P * (math.log(4.0 * math.e * m * b * P) + D * math.log(q)
                - math.log(eps) - math.log(q - 1.0))


def dudley_local_rad(inputs: BoundInputs, r: float) -> float:
    """Dudley chaining bound on the Rademacher complexity of the localized
    class at radius r:

        (12 sqrt(P r) / (L_ell sqrt(n))) (sqrt(log(A n L_ell / sqrt(r))) + sqrt(pi)/2).
    """
    if not (r > 0):
        raise ValueError("r must be > 0")
    A = amplitude_A(inputs.P, inputs.b, inputs.V, inputs.L_phi, inputs.D)
    arg = A * inputs.n * inputs.L_ell / math.sqrt(r)
    if arg <= 1.0:
        raise VacuousRegimeError(
            f"log argument {arg:.3e} <= 1: bound vacuous at r = {r:.3e}")
    pref = 12.0 * math.sqrt(inputs.P * r) / (inputs.L_ell * math.sqrt(inputs.n))
    return pref * (math.sqrt(math.log(arg)) + _SQRT_PI_HALF)


def r_star_closed(inputs: BoundInputs) -> float:
    """Closed-form sub-root fixed point:

        r* = (288 B^2 P / n) (log(C n L_ell^2 / P) + 1).
    """
    arg = inputs.C_univ * inputs.n * inputs.L_ell ** 2 / inputs.P
    if arg <= 1.0:
        raise VacuousRegimeError(
            f"log argument {arg:.3e} <= 1: closed-form fixed point vacuous")
    return (288.0 * inputs.B ** 2 * inputs.P / inputs.n) * (math.log(arg) + 1.0)


def psi_and_fixed_point(inputs: BoundInputs, rel_tol: float = 1e-10):
    """The sub-root function psi(r) = B L_ell * dudley_local_rad(r), its
    closed-form fixed point, and a bisection root of r = psi(r).

    Returns (psi, r_star, r_root). The closed form absorbs an unnamed
    universal constant, so the two roots agree only up to a modest factor.
    """

    def psi(r: float) -> float:
        return inputs.B * inputs.L_ell * dudley_local_rad(inputs, r)

    r_star = r_star_closed(inputs)

    # psi(r)/sqrt(r) decreasing: r < psi(r) below the root, r > psi(r) above.
    lo = r_star
    while psi(lo) <= lo:
        lo /= 2.0
        if lo < 1e-300:
            raise FloatingPointError("bisection bracket failure from below")
    hi = max(r_star, lo * 2.0)
    while psi(hi) >= hi:
        hi *= 2.0
        if hi > 1e300:
            raise FloatingPointError("bisection bracket failure from above")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if psi(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return psi, r_star, 0.5 * (lo + hi)


def excess_risk_bound(inputs: BoundInputs, r_star: float,
                      x: float | None = None) -> float:
    """Localized excess-risk bound 705 r*/B + (11 L_ell + 2B) x / n.

    Substituting the closed-form r* must reproduce the 203040 B P / n leading
    term exactly; the identity is asserted to relative error 1e-10.
    """
    if x is None:
        x = inputs.x_conf
    if x < 0:
        raise ValueError("x must be >= 0")
    lead = 705.0 * r_star / inputs.B
    if abs(r_star - r_star_closed(inputs)) <= 1e-12 * r_star:
        arg = inputs.C_univ * inputs.n * inputs.L_ell ** 2 / inputs.P
        direct = (203040.0 * inputs.B * inputs.P / inputs.n) * (math.log(arg) + 1.0)
        if abs(lead - direct) > 1e-10 * direct:
            raise FloatingPointError("705 r*/B != 203040 B P (log+1) / n")
    return lead + (11.0 * inputs.L_ell + 2.0 * inputs.B) * x / inputs.n


def stat_bound(inputs: BoundInputs, x: float | None = None) -> float:
    """Statistical term B * excess_risk_bound with x = log(2/delta).

    The concentration step needs 2n > e^x; violations are rejected.
    """
    if x is None:
        x = inputs.x_conf
    if 2.0 * inputs.n <= math.exp(x):
        raise ValueError(
            f"confidence precondition 2n > e^x fails: n = {inputs.n}, x = {x:.4g}")
    return inputs.B * excess_risk_bound(inputs, r_star_closed(inputs), x=x)


def _min_valid_n(inputs: BoundInputs, x: float) -> int:
    n_conf = int(math.floor(math.exp(x) / 2.0)) + 1
    n_log = int(math.floor(inputs.P / (inputs.C_univ * inputs.L_ell ** 2))) + 1
    return max(2, n_conf, n_log)


def sample_size(inputs: BoundInputs) -> int:
    """Smallest n with stat_bound(n) <= epsilon^2 / 9, by doubling then
    bisection. The confidence exponent uses the three-way union bound, so
    x = log(6/delta) here rather than the single-event log(2/delta).
    """
    budget = inputs.epsilon ** 2 / 9.0
    x = math.log(6.0 / inputs.delta)
    lo = _min_valid_n(inputs, x)
    if stat_bound(inputs.with_n(lo), x=x) <= budget:
        return lo
    hi = lo
    while stat_bound(inputs.with_n(hi), x=x) > budget:
        hi *= 2
        if hi > 2 ** 62:
            raise OverflowError(
                "sample-size budget unsatisfiable below overflow guard")
    # invariant: stat(lo) > budget >= stat(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stat_bound(inputs.with_n(mid), x=x) > budget:
            lo = mid
        else:
            hi = mid
    return hi


# -- empirical Rademacher lower estimate ---------------------------------------


@dataclasses.dataclass(frozen=True)
class RademacherReport:
    """Mean of per-sign maxima; an explicit lower estimate of the empirical
    Rademacher complexity (the inner sup is non-concave, ascent only finds
    local maxima)."""

    value: float
    per_sign: np.ndarray
    best_thetas: list


def _localization_sq(net, ref_loss: np.ndarray, batch, l_ell: float):
    """L_ell^2 mean_i gap_i^2 per member; the mean over the last axis of a
    (K, n) array has the bits of the 1-D mean of each row, and so does its
    sum divided by n, which is how np.mean computes it."""
    gap = net.sample_losses(batch) - ref_loss
    gap *= gap
    return l_ell ** 2 * (np.add.reduce(gap, axis=-1) / gap.shape[-1])


# The pull stops once a bracket is at most 2 eps = 2^-40 wide, the precision
# of 40 bisection steps on [0, 1]
_PULL_EPS = 2.0 ** -41
# ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020) with kappa2 = 2 and
# n0 = 1: no bracket takes more than 40 + 1 passes, whatever kappa1 is, as
# that worst case comes from ITP's projection alone. kappa1 is set on this
# estimator's own workload (P 33, 4 signs, 2 restarts, 40 ascent steps).
# Summed over six seeds of the benchmark's 3-radius instance at n = 512,
# c06's 10 radii and 11-radius profiles at n = 128, 256 and 512, the pulls
# took 23,599 passes at 0.2, the paper's value for a unit bracket; 18,780 at
# 0.02; 16,735 at 0.005, the fewest (16,748 at 0.007, 16,761 at 0.003); and
# 16,927 at 0.001. A larger kappa1 spends each early pass near the midpoint;
# a smaller one lets regula falsi creep, up to 1,537 passes on one 3-radius
# run at 0, against 1,166 at 0.2
_ITP_KAPPA1 = 0.005
_ITP_N_MAX = 41


def _itp_points(lo, hi, y_lo, y_hi, plain, j: int):
    """Pass j's evaluation point in each bracket [lo, hi] of g, where
    g(lo) = y_lo < 0 <= y_hi = g(hi): ITP's regula falsi point, moved
    kappa1 width^2 towards the midpoint and kept within 2^-j - width/2 of it,
    which halves the worst case of every pass as bisection does. The move is
    at least eps, since a smaller one would leave a point that sits at the
    float resolution of the root where it is. A `plain` bracket takes its
    midpoint, as does one whose y_hi is not finite (its regula falsi point
    is NaN)."""
    width = hi - lo
    mid = 0.5 * (lo + hi)
    with np.errstate(invalid="ignore"):   # inf * 0 and inf / inf: NaN
        x_f = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
    sigma = np.sign(mid - x_f)
    delta = np.maximum(_ITP_KAPPA1 * width * width, _PULL_EPS)
    x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
    # ITP's projection radius eps 2^(n_max - j) - width / 2
    rad = np.maximum(math.ldexp(_PULL_EPS, _ITP_N_MAX - j) - 0.5 * width, 0.0)
    x = np.where(np.abs(x_t - mid) <= rad, x_t, mid - sigma * rad)
    return np.where(plain, mid, x)


def _pull_to_ball(net, theta_ref: np.ndarray, ref_loss: np.ndarray, batch,
                  r: float, l_ell: float) -> None:
    """Move every member of a stack that lies outside the localization ball
    back along the segment to the reference, in place.

    A member outside gets theta_ref + lo (theta - theta_ref), where lo is
    the inside end of a bracket [lo, hi] of the blend weight, narrowed until
    hi - lo <= 2^-40, the precision of 40 bisection steps. The brackets are
    narrowed in lockstep by ITP on g(w) = sqrt(loc(w)) - sqrt(r), which is
    nearly linear in w: each pass evaluates one sub-stack of the members
    whose bracket is still wider, and no bracket takes more than 41 passes.
    A member whose own localization is not finite bisects, and at r = 0,
    where only the reference is inside, every member outside goes to it.
    The members inside are left untouched."""
    # both endpoints satisfy the row constraints, so every blend does too.
    # A NaN localization counts as outside, as in a one-net `<= r` test
    loc = _localization_sq(net, ref_loss, batch, l_ell)
    outside = np.flatnonzero(~(loc <= r))
    if outside.size == 0:
        return
    step = net.theta[outside] - theta_ref
    lo, hi = np.zeros(outside.size), np.ones(outside.size)
    root = math.sqrt(r)
    y_lo = np.full(outside.size, -root)
    y_hi = np.sqrt(loc[outside]) - root
    plain = ~np.isfinite(y_hi)
    live = np.arange(outside.size if r > 0 else 0)
    j = 0
    while live.size:
        x = _itp_points(lo[live], hi[live], y_lo[live], y_hi[live], plain[live], j)
        sub = VelocityNet(net.arch, theta_ref + x[:, None] * step[live])
        loc_x = _localization_sq(sub, ref_loss, batch, l_ell)
        y = np.sqrt(loc_x) - root
        inside = loc_x <= r
        up, down = live[inside], live[~inside]
        lo[up], y_lo[up] = x[inside], y[inside]
        hi[down], y_hi[down] = x[~inside], y[~inside]
        # an inside point with y = 0 is a root: its bracket closes on it
        hit = inside & (y == 0)
        hi[live[hit]] = x[hit]
        live = live[hi[live] - lo[live] > 2.0 * _PULL_EPS]
        j += 1
    net.theta[outside] = theta_ref + lo[:, None] * step


def empirical_local_rademacher(sampler, net_ref, data, r: float,
                               n_signs: int, n_restarts: int, rng: RngStream,
                               l_ell: float, ascent_steps: int = 60,
                               step_size: float = 0.05,
                               init_thetas: list | None = None) -> RademacherReport:
    """Monte-Carlo lower estimate of the empirical Rademacher complexity of
    the localized loss-gap class {z -> loss(theta, z) - loss(ref, z) :
    L_ell^2 mean_gap_sq <= r}.

    For each Rademacher sign vector the sign correlation is maximized by
    projected gradient ascent over theta (restarted), pulling back to the
    localization boundary along the segment to the reference whenever the
    ball is left. init_thetas seeds extra restarts, letting callers chain
    warm starts across an increasing r grid: restart j < len(init_thetas)
    starts from init_thetas[j], the others from the sampler.

    Every (sign, restart) pair is one member of one stack of nets that
    carries its own sign vector as its row of the sample weights, so each
    ascent step is one stacked gradient call. Each member goes through the
    floating-point operations of a serial ascent of that pair, so the report
    equals the one a loop over the pairs computes, bit for bit.

    Small instances only: the ascent is dense in P and n.
    """
    if not r >= 0:
        raise ValueError(f"r must be >= 0 (inf allowed), got {r}")
    if not (math.isfinite(l_ell) and l_ell > 0):
        raise ValueError(f"l_ell must be finite and > 0, got {l_ell}")
    if ascent_steps < 0:
        raise ValueError(f"ascent_steps must be >= 0, got {ascent_steps}")
    if not (math.isfinite(step_size) and step_size > 0):
        raise ValueError(f"step_size must be finite and > 0, got {step_size}")
    if net_ref.arch.param_count > 200 or len(data) > 512:
        raise ValueError("estimator restricted to P <= 200 and n <= 512")
    if n_signs < 1 or n_restarts < 1:
        raise ValueError("n_signs and n_restarts must be >= 1")
    n = len(data)
    theta_ref = net_ref.get_theta()
    ref_loss = net_ref.sample_losses(data)
    sign_gen = rng.derive(1)
    signs = np.array([sign_gen.gen.integers(0, 2, size=n) * 2.0 - 1.0
                      for _ in range(n_signs)])
    warm = (VelocityNet(net_ref.arch, init_thetas).project_constraints().theta
            if init_thetas else [])
    n_seeds = max(len(warm), n_restarts)
    thetas = []  # member s * n_seeds + j: sign s, restart j
    for s in range(n_signs):
        thetas.extend(warm)
        thetas.extend(sampler(rng.derive(10 + 31 * s + j)).theta
                      for j in range(len(warm), n_seeds))
    net = VelocityNet(net_ref.arch, thetas)
    wts = np.repeat(signs, n_seeds, axis=0)
    _pull_to_ball(net, theta_ref, ref_loss, data, r, l_ell)
    laid = net.lay_out(data)
    for _ in range(ascent_steps):
        _, g = net.loss_and_grad(laid, sample_weights=wts)
        net.theta += step_size * g
        net.project_constraints()
        _pull_to_ball(net, theta_ref, ref_loss, data, r, l_ell)
    vals = np.mean(wts * (net.sample_losses(data) - ref_loss), axis=-1)
    # per sign, the first restart of the largest positive value; a NaN never
    # wins, and with no positive value the reference (value 0) stays
    top = np.where(vals > 0, vals, 0.0).reshape(n_signs, n_seeds)
    per_sign = top.max(axis=-1)
    pick = np.arange(n_signs) * n_seeds + top.argmax(axis=-1)
    best = np.where(per_sign[:, None] > 0, net.theta[pick], theta_ref)
    return RademacherReport(float(per_sign.mean()), per_sign, list(best))


# -- truncation budget ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TruncationReport:
    M: float
    delta_n: float
    bias_budget: float
    bad_event_budget: float


def truncation_bias_report(inputs: BoundInputs, sigma: float,
                           C: float = 2.0, c: float = 0.5) -> TruncationReport:
    """Truncation level M, tail weight delta_n = C e^{-c M^2/sigma^2} = 1/(2n^2)
    exactly by the choice of M, the loss bias budget (M^2 + sigma^2) delta_n,
    and the n-sample bad-event budget n delta_n = 1/(2n)."""
    from .distributions import truncation_level

    n = inputs.n
    M = truncation_level(sigma, n, C=C, c=c)
    delta_n = 1.0 / (2.0 * n * n)
    return TruncationReport(
        M=M, delta_n=delta_n,
        bias_budget=(M * M + sigma * sigma) * delta_n,
        bad_event_budget=n * delta_n)


# -- aggregate report ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundReport:
    inputs: BoundInputs
    covering_eps: float
    log_covering: float
    dudley_at_r_star: float
    psi_at_r_star: float
    r_star: float
    r_root: float
    excess_bound: float
    stat_bound: float
    n_required: int
    truncation: TruncationReport


def full_report(inputs: BoundInputs, sigma: float = 1.0) -> BoundReport:
    """Evaluate the whole bound chain at the given inputs."""
    covering_eps = min(1.0 / math.sqrt(inputs.n), 2.0 * inputs.b)
    psi, r_star, r_root = psi_and_fixed_point(inputs)
    return BoundReport(
        inputs=inputs,
        covering_eps=covering_eps,
        log_covering=log_covering(inputs.P, inputs.n, covering_eps, inputs.b,
                                  inputs.V, inputs.L_phi, inputs.D),
        dudley_at_r_star=dudley_local_rad(inputs, r_star),
        psi_at_r_star=psi(r_star),
        r_star=r_star,
        r_root=r_root,
        excess_bound=excess_risk_bound(inputs, r_star),
        stat_bound=stat_bound(inputs),
        n_required=sample_size(inputs),
        truncation=truncation_bias_report(inputs, sigma))
