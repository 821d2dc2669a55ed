import dataclasses
import math

import mpmath
import numpy as np
import pytest

from rflab.bounds import (BoundInputs, RademacherReport, TruncationReport,
                          VacuousRegimeError, amplitude_A, bernstein_B,
                          dudley_local_rad, empirical_local_rademacher,
                          excess_risk_bound, full_report, log_covering,
                          psi_and_fixed_point, r_star_closed, sample_size,
                          stat_bound, truncation_bias_report, _ITP_KAPPA1,
                          _localization_sq, _min_valid_n, _pull_to_ball)
from rflab.distributions import CoupledBatch, DistributionSpec, draw_coupled
from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet


def _inputs(**kw):
    base = dict(P=10, n=10 ** 6, B=1.0, L_ell=1.0, mu=1.0, L_theta=1.0,
                C_univ=1.0, delta=0.1, epsilon=0.3)
    base.update(kw)
    return BoundInputs(**base)


# -- constants --------------------------------------------------------------------------


def test_bernstein_constant():
    assert bernstein_B(2.0, 0.5) == 16.0
    assert bernstein_B(1.0, 2.0) == 1.0
    # quadratic in L
    assert bernstein_B(6.0, 0.7) == 4.0 * bernstein_B(3.0, 0.7)
    with pytest.raises(ValueError):
        bernstein_B(1.0, 0.0)


def test_amplitude():
    # 4 e b P q^D / (q - 1) with q = L_phi V
    assert amplitude_A(10, 1.0, 2.0, 1.0, 3) == pytest.approx(
        4.0 * math.e * 10 * 8.0 / 1.0, rel=1e-14)
    with pytest.raises(ValueError):
        amplitude_A(10, 1.0, 1.0, 1.0, 2)   # q = 1 degenerate


# -- covering numbers --------------------------------------------------------------------


def test_log_covering_frozen_value():
    got = log_covering(P=10, m=1000, eps=0.5, b=1.0, V=2.0, L_phi=1.0, D=3)
    # analytic: 10 * log(4 e * 1000 * 10 * 8 / 0.5) = 10 * log(640000 e)
    assert got == pytest.approx(10.0 * (math.log(640000.0) + 1.0), rel=1e-15)
    assert got == pytest.approx(143.6922345533585459, rel=1e-15)
    # independent high-precision route
    mpmath.mp.dps = 40
    hp = 10 * mpmath.log(4 * mpmath.e * 1000 * 10 * 8 / mpmath.mpf("0.5"))
    assert got == pytest.approx(float(hp), rel=1e-14)


def test_log_covering_log2_identities():
    kw = dict(P=7, b=1.0, V=3.0, L_phi=1.0, D=2)
    base = log_covering(m=500, eps=0.25, **kw)
    assert log_covering(m=1000, eps=0.25, **kw) - base == pytest.approx(
        7 * math.log(2.0), rel=1e-12)
    assert log_covering(m=500, eps=0.125, **kw) - base == pytest.approx(
        7 * math.log(2.0), rel=1e-12)


def test_log_covering_rejects_invalid():
    with pytest.raises(ValueError):
        log_covering(10, 100, eps=2.5, b=1.0, V=2.0, L_phi=1.0, D=2)  # eps > 2b
    with pytest.raises(ValueError):
        log_covering(10, 100, eps=0.0, b=1.0, V=2.0, L_phi=1.0, D=2)
    with pytest.raises(ValueError):
        log_covering(10, 100, eps=0.5, b=1.0, V=0.5, L_phi=1.0, D=2)  # q <= 1
    with pytest.raises(ValueError):
        log_covering(0, 100, eps=0.5, b=1.0, V=2.0, L_phi=1.0, D=2)


# -- localized dudley bound ---------------------------------------------------------------


def test_dudley_scaling_in_n_with_frozen_log():
    # the 1/sqrt(n) prefactor halves at 4n; the residual drift is exactly the
    # log factor, so the two routes must agree to float precision
    inp = _inputs(n=10 ** 4, V=4.0)
    inp4 = inp.with_n(4 * 10 ** 4)
    r = 0.01
    d1 = dudley_local_rad(inp, r)
    d4 = dudley_local_rad(inp4, r)
    A = amplitude_A(inp.P, inp.b, inp.V, inp.L_phi, inp.D)
    arg1 = A * inp.n * inp.L_ell / math.sqrt(r)
    arg4 = A * inp4.n * inp4.L_ell / math.sqrt(r)
    s = math.sqrt(math.pi) / 2.0
    expect = 0.5 * (math.sqrt(math.log(arg4)) + s) / (math.sqrt(math.log(arg1)) + s)
    assert d4 / d1 == pytest.approx(expect, rel=1e-12)
    assert d4 < d1


def test_dudley_monotone_in_r_and_vanishes_at_zero():
    inp = _inputs(n=10 ** 4, V=4.0)
    rs = np.logspace(-8, 2, 30)
    vals = [dudley_local_rad(inp, float(r)) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert dudley_local_rad(inp, 1e-30) < 1e-12


def test_dudley_vacuous_regime():
    inp = _inputs(n=10, V=4.0)
    A = amplitude_A(inp.P, inp.b, inp.V, inp.L_phi, inp.D)
    r_big = (2.0 * A * inp.n * inp.L_ell) ** 2
    with pytest.raises(VacuousRegimeError):
        dudley_local_rad(inp, r_big)
    with pytest.raises(ValueError):
        dudley_local_rad(inp, 0.0)


# -- fixed point ---------------------------------------------------------------------------


def test_r_star_frozen_value():
    inp = _inputs()
    got = r_star_closed(inp)
    # (288 * 1 * 10 / 1e6) (log(1e6 * 1 / 10) + 1) = 2.88e-3 (log 1e5 + 1)
    assert got == pytest.approx(2880.0 / 10 ** 6 * (math.log(10 ** 5) + 1.0),
                                rel=1e-15)
    assert got == pytest.approx(0.03603722533911426, rel=1e-15)
    mpmath.mp.dps = 40
    hp = (mpmath.mpf(288) * 10 / 10 ** 6) * (mpmath.log(10 ** 5) + 1)
    assert got == pytest.approx(float(hp), rel=1e-14)


def test_r_star_vacuous_regime():
    with pytest.raises(VacuousRegimeError):
        r_star_closed(_inputs(n=5))   # C n L^2 / P = 0.5


def test_r_star_inverse_n_scaling():
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        ratio = r_star_closed(_inputs(n=4 * n)) / r_star_closed(_inputs(n=n))
        assert 0.25 <= ratio <= 0.35


def test_psi_is_sub_root_and_root_brackets_closed_form():
    inp = _inputs(V=4.0)
    psi, r_star, r_root = psi_and_fixed_point(inp)
    # psi(r)/sqrt(r) non-increasing on a log grid
    rs = np.logspace(-6, 1, 40)
    ratios = [psi(float(r)) / math.sqrt(r) for r in rs]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(ratios, ratios[1:]))
    # the bisection root solves r = psi(r)
    assert psi(r_root) == pytest.approx(r_root, rel=1e-8)
    # closed form and root agree up to the absorbed universal constant
    assert 1.0 / 3.0 <= r_root / r_star <= 3.0


def test_psi_fixed_point_deterministic():
    inp = _inputs(V=4.0)
    _, r_star_a, root_a = psi_and_fixed_point(inp)
    _, r_star_b, root_b = psi_and_fixed_point(inp)
    assert r_star_a == r_star_b
    assert root_a == root_b


# -- excess risk and statistical bound --------------------------------------------------


def test_excess_risk_identity_and_x_zero():
    inp = _inputs(V=4.0)
    r_star = r_star_closed(inp)
    # substituting the closed form must reproduce 203040 B P (log+1) / n
    arg = inp.C_univ * inp.n * inp.L_ell ** 2 / inp.P
    lead = 203040.0 * inp.B * inp.P / inp.n * (math.log(arg) + 1.0)
    assert excess_risk_bound(inp, r_star, x=0.0) == pytest.approx(lead, rel=1e-12)
    assert 705.0 * 288.0 == 203040.0
    # confidence term added on top
    x = 2.0
    assert excess_risk_bound(inp, r_star, x=x) == pytest.approx(
        lead + (11.0 * inp.L_ell + 2.0 * inp.B) * x / inp.n, rel=1e-12)
    with pytest.raises(ValueError):
        excess_risk_bound(inp, r_star, x=-1.0)


def test_excess_risk_decreasing_in_n():
    vals = [excess_risk_bound(_inputs(n=n), r_star_closed(_inputs(n=n)))
            for n in (10 ** 4, 4 * 10 ** 4, 16 * 10 ** 4, 10 ** 6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_stat_bound_confidence_precondition():
    # 2n > e^x with x = log(2/delta): tiny delta at small n must be rejected
    inp = _inputs(n=40, delta=1e-10, P=1)
    with pytest.raises(ValueError, match="2n > e\\^x"):
        stat_bound(inp)
    # and the same inputs pass once n clears e^x / 2 ~ 1e10
    big = inp.with_n(10 ** 11)
    assert stat_bound(big) > 0


def test_stat_bound_is_b_times_excess():
    inp = _inputs(n=10 ** 5, B=3.0)
    expect = 3.0 * excess_risk_bound(inp, r_star_closed(inp), x=inp.x_conf)
    assert stat_bound(inp) == pytest.approx(expect, rel=1e-14)


# -- sample-size search -------------------------------------------------------------------


def test_sample_size_matches_linear_scan():
    small = BoundInputs(P=4, n=100, B=0.02, L_ell=1.0, mu=1.0, L_theta=1.0,
                        C_univ=1.0, delta=0.2, epsilon=1.5)
    n_req = sample_size(small)
    x = math.log(6.0 / small.delta)
    budget = small.epsilon ** 2 / 9.0
    lo = _min_valid_n(small, x)
    scan = next(n for n in range(lo, n_req + 10)
                if stat_bound(small.with_n(n), x=x) <= budget)
    assert scan == n_req == 11671


def test_sample_size_boundary_certificate():
    # the full-scale instance is too large to scan; certify optimality at the
    # boundary instead (stat is strictly decreasing in n on the valid range)
    inp = _inputs()
    n_req = sample_size(inp)
    assert n_req == 4236307572
    x = math.log(6.0 / inp.delta)
    budget = inp.epsilon ** 2 / 9.0
    assert stat_bound(inp.with_n(n_req), x=x) <= budget
    assert stat_bound(inp.with_n(n_req - 1), x=x) > budget


def test_sample_size_quadrupling_epsilon():
    # eps^-2 scaling with log slack: quadrupling eps divides n by 16 to 24
    for eps in (0.3, 0.6, 1.2):
        hi = sample_size(_inputs(epsilon=eps))
        lo = sample_size(_inputs(epsilon=eps / 4.0))
        assert 16.0 <= lo / hi <= 24.0


def test_sample_size_monotone_in_delta():
    loose = sample_size(_inputs(delta=0.2))
    tight = sample_size(_inputs(delta=0.01))
    assert tight > loose


def test_inputs_validation():
    with pytest.raises(ValueError):
        _inputs(P=0)
    with pytest.raises(ValueError):
        _inputs(delta=1.0)
    with pytest.raises(ValueError):
        _inputs(epsilon=0.0)
    with pytest.raises(ValueError):
        BoundInputs(P=10, n=100, B=1.0, L_ell=1.0, mu=1.0, L_theta=1.0, D=1)


def test_inputs_default_confidence():
    inp = _inputs(delta=0.1)
    assert inp.x_conf == pytest.approx(math.log(20.0))
    override = _inputs(delta=0.1, x_conf=5.0)
    assert override.x_conf == 5.0


def test_inputs_from_architecture():
    arch = NetArchitecture(dim=1, hidden=(8,), l1_budget=4.0)
    inp = BoundInputs.from_architecture(arch, mu=0.5, n=1024, m_disp=6.0)
    assert inp.P == arch.param_count
    assert inp.L_theta == 32.0              # C_ARCH * D * (L_phi V)^D
    assert inp.B == 2.0 * 32.0 ** 2 / 0.5   # 2 L^2 / mu
    assert inp.L_ell == 20.0                # 2 (M0 + M_disp) = 2 (4 + 6)
    assert inp.V == 4.0 and inp.b == 1.0 and inp.D == 2 and inp.L_phi == 1.0
    assert inp.with_n(2048).n == 2048


# -- empirical rademacher estimate ---------------------------------------------------------


def _rad_setup(n=48):
    arch = NetArchitecture(dim=1, hidden=(4,), l1_budget=2.0)
    pi0 = DistributionSpec("gaussian", 1, mean=np.zeros(1), std=1.0)
    pi1 = DistributionSpec("gaussian", 1, mean=np.array([2.0]), std=1.0)
    data = draw_coupled(RngStream(3), pi0, pi1, n)
    ref = VelocityNet.init(arch, RngStream(1))
    sampler = lambda rng: VelocityNet.init(arch, rng)
    return arch, data, ref, sampler


def test_rademacher_zero_radius_is_zero():
    _, data, ref, sampler = _rad_setup()
    rep = empirical_local_rademacher(sampler, ref, data, 0.0, n_signs=3,
                                     n_restarts=1, rng=RngStream(9), l_ell=10.0,
                                     ascent_steps=10)
    assert rep.value == pytest.approx(0.0, abs=1e-6)


def test_rademacher_monotone_in_r():
    _, data, ref, sampler = _rad_setup()
    vals = []
    for r in (0.0, 0.05, 0.5, 5.0):
        rep = empirical_local_rademacher(sampler, ref, data, r, n_signs=2,
                                         n_restarts=1, rng=RngStream(9),
                                         l_ell=10.0, ascent_steps=15)
        vals.append(rep.value)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_rademacher_deterministic_and_reports_shape():
    _, data, ref, sampler = _rad_setup()
    kw = dict(r=0.2, n_signs=2, n_restarts=2, l_ell=10.0, ascent_steps=10)
    rep1 = empirical_local_rademacher(sampler, ref, data, rng=RngStream(4), **kw)
    rep2 = empirical_local_rademacher(sampler, ref, data, rng=RngStream(4), **kw)
    assert rep1.value == rep2.value
    assert rep1.per_sign.shape == (2,)
    assert len(rep1.best_thetas) == 2


def _serial_local_rademacher(sampler, net_ref, data, r, n_signs, n_restarts,
                             rng, l_ell, ascent_steps, step_size=0.05,
                             init_thetas=None):
    """Reference: one projected ascent per (sign, restart) pair, one net at a
    time, with a scalar ITP pull that returns early inside the ball. Also
    returns how many pulls ran."""

    def per_sample_loss(net):
        res = net(data.xt, data.t) - data.disp
        return np.sum(res * res, axis=1)

    def localization_sq(net):
        gap = per_sample_loss(net) - ref_loss
        return l_ell ** 2 * float(np.mean(gap * gap))

    def pull_to_ball(net):
        # ITP on g(w) = sqrt(loc(w)) - sqrt(r), one float at a time
        loc = localization_sq(net)
        if loc <= r:
            return 0
        step = net.get_theta() - theta_ref
        lo, hi, j = 0.0, 1.0, 0
        root = math.sqrt(r)
        y_lo, y_hi = -root, math.sqrt(loc) - root
        plain = not math.isfinite(y_hi)
        while r > 0 and hi - lo > 2.0 ** -40:
            width, mid = hi - lo, 0.5 * (lo + hi)
            x = mid
            if not plain and math.isfinite(y_hi):
                x_f = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
                sigma = float((mid > x_f) - (mid < x_f))
                delta = max(_ITP_KAPPA1 * width * width, 2.0 ** -41)
                x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
                rad = max(2.0 ** -j - 0.5 * width, 0.0)
                x = x_t if abs(x_t - mid) <= rad else mid - sigma * rad
            net.set_theta(theta_ref + x * step)
            loc = localization_sq(net)
            y = math.sqrt(loc) - root
            if loc <= r:
                lo, y_lo = x, y
                if y == 0:
                    hi = x
            else:
                hi, y_hi = x, y
            j += 1
        net.set_theta(theta_ref + lo * step)
        return 1

    theta_ref = net_ref.get_theta()
    ref_loss = per_sample_loss(net_ref)
    sign_gen = rng.derive(1)
    per_sign, best_thetas, pulls = np.empty(n_signs), [], 0
    for s in range(n_signs):
        signs = sign_gen.gen.integers(0, 2, size=len(data)) * 2.0 - 1.0
        best, best_theta = 0.0, theta_ref.copy()
        seeds = list(init_thetas or [])
        while len(seeds) < n_restarts:
            seeds.append(None)
        for j, seed_theta in enumerate(seeds):
            if seed_theta is not None:
                net = net_ref.copy()
                net.set_theta(np.asarray(seed_theta, dtype=np.float64))
                net.project_constraints()
            else:
                net = sampler(rng.derive(10 + 31 * s + j))
            pulls += pull_to_ball(net)
            for _ in range(ascent_steps):
                _, g = net.loss_and_grad(data, sample_weights=signs)
                net.theta += step_size * g
                net.project_constraints()
                pulls += pull_to_ball(net)
            val = float(np.mean(signs * (per_sample_loss(net) - ref_loss)))
            if val > best:
                best, best_theta = val, net.get_theta()
        per_sign[s] = best
        best_thetas.append(best_theta)
    return float(per_sign.mean()), per_sign, best_thetas, pulls


@pytest.mark.parametrize("r,n_restarts,n_warm", [
    (0.0, 2, 0), (1e12, 2, 0), (0.05, 2, 3), (0.05, 3, 1)],
    ids=["zero-radius", "no-member-leaves", "warm-longer", "warm-shorter"])
def test_stacked_estimator_matches_serial_loop(r, n_restarts, n_warm):
    # the stacked ascent computes what a loop over the pairs computes, bit
    # for bit; warm starts scaled out of the l1 ball are projected first
    arch, data, ref, sampler = _rad_setup()
    warm = [VelocityNet.init(arch, RngStream(40 + i)).theta * 3.0
            for i in range(n_warm)] or None
    kw = dict(n_signs=3, n_restarts=n_restarts, l_ell=10.0, ascent_steps=10,
              init_thetas=warm)
    rep = empirical_local_rademacher(sampler, ref, data, r, rng=RngStream(9), **kw)
    value, per_sign, best_thetas, pulls = _serial_local_rademacher(
        sampler, ref, data, r, rng=RngStream(9), **kw)
    assert rep.value == value
    assert rep.per_sign.tobytes() == per_sign.tobytes()
    assert len(rep.best_thetas) == len(best_thetas) == 3
    for got, want in zip(rep.best_thetas, best_thetas):
        assert got.tobytes() == want.tobytes()
    assert (pulls == 0) == (r == 1e12)
    if n_warm:
        assert rep.value > 0


def test_estimator_passes_over_a_nan_restart():
    # restart 0 of every sign starts from NaN parameters and, with no ascent
    # step to reject them in the projection, ends on a NaN value. The serial
    # loop never picks it, so neither may the stacked pick; a sign whose
    # other restarts are all below 0 keeps the reference
    arch, data, ref, _ = _rad_setup()
    first = {RngStream(9).derive(10 + 31 * s).stream_id for s in range(6)}

    def sampler(rng):
        net = VelocityNet.init(arch, rng)
        if rng.stream_id in first:
            net.theta[:] = np.nan
        return net

    kw = dict(n_signs=6, n_restarts=3, l_ell=10.0, ascent_steps=0)
    with np.errstate(invalid="ignore"):
        rep = empirical_local_rademacher(sampler, ref, data, 0.05,
                                         rng=RngStream(9), **kw)
        value, per_sign, best_thetas, _ = _serial_local_rademacher(
            sampler, ref, data, 0.05, rng=RngStream(9), **kw)
    assert rep.value == value and not math.isnan(value)
    assert rep.per_sign.tobytes() == per_sign.tobytes()
    assert 0.0 in per_sign and (per_sign > 0).any()
    for got, want in zip(rep.best_thetas, best_thetas):
        assert got.tobytes() == want.tobytes()


def test_rademacher_size_caps():
    arch, data, ref, sampler = _rad_setup(n=48)
    big = draw_coupled(RngStream(0),
                       DistributionSpec("gaussian", 1, mean=np.zeros(1), std=1.0),
                       DistributionSpec("gaussian", 1, mean=np.ones(1), std=1.0),
                       513)
    with pytest.raises(ValueError, match="P <= 200 and n <= 512"):
        empirical_local_rademacher(sampler, ref, big, 0.1, 1, 1, RngStream(0), 10.0)
    wide = VelocityNet.init(NetArchitecture(dim=1, hidden=(100,)), RngStream(0))
    with pytest.raises(ValueError, match="P <= 200 and n <= 512"):
        empirical_local_rademacher(sampler, wide, data, 0.1, 1, 1, RngStream(0), 10.0)
    with pytest.raises(ValueError):
        empirical_local_rademacher(sampler, ref, data, -0.1, 1, 1, RngStream(0), 10.0)


def _estimate(**kw):
    _, data, ref, sampler = _rad_setup()
    args = dict(r=0.1, n_signs=1, n_restarts=1, rng=RngStream(0), l_ell=10.0,
                ascent_steps=2)
    args.update(kw)
    return empirical_local_rademacher(sampler, ref, data, **args)


def test_estimator_rejects_a_bad_radius():
    for r in (math.nan, -math.inf, -0.1):
        with pytest.raises(ValueError, match="^r must be >= 0"):
            _estimate(r=r)
    assert _estimate(r=math.inf).value > 0


def test_estimator_rejects_a_bad_l_ell():
    for l_ell in (math.nan, math.inf, 0.0, -10.0):
        with pytest.raises(ValueError, match="^l_ell must be finite and > 0"):
            _estimate(l_ell=l_ell)


def test_estimator_rejects_negative_ascent_steps():
    with pytest.raises(ValueError, match="^ascent_steps must be >= 0"):
        _estimate(ascent_steps=-5)
    assert _estimate(ascent_steps=0).per_sign.shape == (1,)


def test_estimator_rejects_a_bad_step_size():
    # a negative step descends, and the estimate silently reads 0
    for step_size in (-0.05, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^step_size must be finite and > 0"):
            _estimate(step_size=step_size)


@np.errstate(invalid="ignore", over="ignore")
def test_pull_to_ball_contract():
    # targets the reference fits exactly, and members that differ from it
    # only in the output layer: along each segment the localization is w^4
    # times a constant, monotone in the blend weight w. The output bias of
    # the reference is 0 (VelocityNet.init), and a member's bias is 1 or 2,
    # so that the pulled bias reads lo exactly, or 2 lo. At r = 1e300,
    # member 5's localization overflows to inf at w = 1 but not at w = 1/2,
    # and its root is near 6e-3
    arch, data, ref, _ = _rad_setup()
    fitted = CoupledBatch(data.t, data.xt, ref(data.xt, data.t))
    ref_loss = ref.sample_losses(fitted)
    theta_ref = ref.get_theta()
    stack = VelocityNet.stack([ref] * 6)
    out = stack.weights[-1]                  # (6, 1, 5): each member's output row
    out[0, 0, :] += 1e-4                     # inside
    out[1, 0, :] += [0.5, -0.3, 0.2, 0.1, 1.0]
    out[2, 0, :] += [-0.2, 0.4, 0.0, 0.3, 2.0]
    stack.theta[3] = np.nan                  # row 4 is the reference itself
    out[5, 0, -1] = 5e76
    l_ell, r = 10.0, 1.0

    def loc_at(theta):
        return _localization_sq(VelocityNet(arch, theta), ref_loss, fitted, l_ell)

    def bisect(step, r):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if loc_at(theta_ref + mid * step) <= r:
                lo = mid
            else:
                hi = mid
        return lo

    loc = loc_at(stack.theta)
    assert loc[0] <= r and loc[4] == 0.0 and (loc[1:3] > r).all()
    assert loc[5] == math.inf
    assert 1e300 < loc_at(theta_ref + 0.5 * (stack.theta[5] - theta_ref)) < math.inf
    before = stack.theta.copy()
    _pull_to_ball(stack, theta_ref, ref_loss, fitted, r, l_ell)
    for i in (0, 4):
        assert stack.theta[i].tobytes() == before[i].tobytes()
    assert np.isnan(stack.theta[3]).all()
    for i, bias in ((1, 1.0), (2, 2.0)):
        step = before[i] - theta_ref
        lo = stack.theta[i, -1] / bias
        assert 0.0 < lo < 1.0
        assert stack.theta[i].tobytes() == (theta_ref + lo * step).tobytes()
        assert loc_at(stack.theta[i]) <= r
        assert loc_at(theta_ref + (lo + 2.0 ** -39) * step) > r
        assert abs(lo - bisect(step, r)) <= 2.0 ** -39
    # a member whose localization at w = 1 is not finite bisects
    stack.theta[:] = before
    _pull_to_ball(stack, theta_ref, ref_loss, fitted, 1e300, l_ell)
    step = before[5] - theta_ref
    lo = bisect(step, 1e300)
    assert 5e-3 < lo < 7e-3
    assert stack.theta[5].tobytes() == (theta_ref + lo * step).tobytes()
    assert np.isnan(stack.theta[3]).all()
    assert stack.theta[[0, 1, 2, 4]].tobytes() == before[[0, 1, 2, 4]].tobytes()

    # at r = 0 only the reference is inside the ball
    stack.theta[:] = before
    _pull_to_ball(stack, theta_ref, ref_loss, fitted, 0.0, l_ell)
    for i in (0, 1, 2, 4, 5):
        assert stack.theta[i].tobytes() == theta_ref.tobytes()
    assert np.isnan(stack.theta[3]).all()


def test_pull_closes_a_bracket_on_an_exact_root(monkeypatch):
    # a stand-in localization of 4 (w c)^2, where the member's first
    # parameter is w c on a segment from a zero reference to c: at r = 1,
    # g(w) = 2 c w - 1. For c = 1 ITP's first point, the midpoint, is the
    # root, so that member leaves the passes after one; for c = 3/4 the root
    # 2/3 is not a float, and its bracket narrows to 2^-40
    evaluated = []

    def localization_sq(net, ref_loss, batch, l_ell):
        evaluated.append(len(net.theta))
        return 4.0 * net.theta[:, 0] ** 2

    monkeypatch.setattr("rflab.bounds._localization_sq", localization_sq)
    arch, _, _, _ = _rad_setup()
    net = VelocityNet(arch, np.zeros((2, arch.param_count)))
    net.theta[:, 0] = [1.0, 0.75]
    _pull_to_ball(net, np.zeros(arch.param_count), None, None, 1.0, 1.0)
    assert evaluated[:3] == [2, 2, 1] and len(evaluated) <= 1 + 41
    assert net.theta[0, 0] == 0.5
    assert 0.0 <= 0.5 - net.theta[1, 0] <= 2.0 ** -40 * 0.75
    # at r = 0 only the reference is inside: no pass runs
    evaluated.clear()
    net.theta[:, 0] = [1.0, 0.75]
    _pull_to_ball(net, np.zeros(arch.param_count), None, None, 0.0, 1.0)
    assert evaluated == [2] and not net.theta.any()


def test_pull_keeps_its_worst_case_where_regula_falsi_stalls(monkeypatch):
    # a stand-in localization of 10 w below w = 0.1 and 1 + 1e7 (w - 0.1)
    # above: at r = 1 the regula falsi point creeps towards the kink from
    # below, and only ITP's projection keeps the pull within 41 passes
    passes = []

    def localization_sq(net, ref_loss, batch, l_ell):
        passes.append(1)
        w = net.theta[:, 0]
        return np.where(w < 0.1, 10.0 * w, 1.0 + 1e7 * (w - 0.1))

    monkeypatch.setattr("rflab.bounds._localization_sq", localization_sq)
    arch, _, _, _ = _rad_setup()
    net = VelocityNet(arch, np.zeros((1, arch.param_count)))
    net.theta[0, 0] = 1.0
    _pull_to_ball(net, np.zeros(arch.param_count), None, None, 1.0, 1.0)
    assert len(passes) - 1 <= 41
    assert localization_sq(net, None, None, None)[0] <= 1.0
    assert 0.0 <= 0.1 - net.theta[0, 0] <= 2.0 ** -40


# -- truncation ---------------------------------------------------------------------------


def test_truncation_report_frozen():
    rep = truncation_bias_report(_inputs(n=10), sigma=1.0, C=1.0, c=1.0)
    assert rep.delta_n == 0.005                      # 1 / (2 * 10^2)
    assert rep.M == pytest.approx(math.sqrt(math.log(200.0)), rel=1e-14)
    assert rep.bias_budget == pytest.approx((rep.M ** 2 + 1.0) * 0.005, rel=1e-14)
    assert rep.bad_event_budget == pytest.approx(1.0 / 20.0, rel=1e-14)


def test_truncation_bias_is_little_o_of_inverse_n():
    scaled = [truncation_bias_report(_inputs(n=n), sigma=1.0).bias_budget * n
              for n in (10 ** 2, 10 ** 3, 10 ** 4)]
    assert all(b < a for a, b in zip(scaled, scaled[1:]))


# -- aggregate report ----------------------------------------------------------------------


def test_full_report_coherent():
    inp = _inputs(n=10 ** 5, V=4.0)
    rep = full_report(inp, sigma=1.0)
    assert rep.covering_eps == pytest.approx(min(1.0 / math.sqrt(10 ** 5), 2.0))
    assert rep.r_star == r_star_closed(inp)
    assert rep.psi_at_r_star == pytest.approx(
        inp.B * inp.L_ell * rep.dudley_at_r_star, rel=1e-14)
    assert rep.n_required == sample_size(inp)
    assert rep.stat_bound == stat_bound(inp)
    assert isinstance(rep.truncation, TruncationReport)
    js = dataclasses.asdict(rep)
    assert js["inputs"]["P"] == 10
    assert js["truncation"]["delta_n"] == rep.truncation.delta_n
