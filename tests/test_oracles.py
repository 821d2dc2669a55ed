import functools
import math

import numpy as np
import pytest
from scipy import integrate

from oracles_support import conditional_mean_mc
from rflab import oracles
from rflab.distributions import DistributionSpec, draw_coupled
from rflab.linalg_rng import RngStream
from rflab.metrics import excess_risk
from rflab.network import NetArchitecture, VelocityNet
from rflab.oracles import (LowerBoundInstance, _quad, conditional_x0_mean,
                           gaussian_closed_form, lecam_budget, lowerbound_grid,
                           midpoint_pdf, mixture_posterior_velocity,
                           pi_star_pdf, posterior_weights, target_pdf,
                           tv_distance_mixtures, velocity_l2_error,
                           velocity_separation, vstar_gaussian)


def _gauss(mean, std):
    mean = np.asarray(mean, dtype=np.float64)
    return DistributionSpec("gaussian", mean.size, mean=mean, std=float(std))


def _spec_1d():
    return _gauss([0.0], 1.0), _gauss([2.0], 1.0)


# -- closed-form optimal velocity ------------------------------------------------------


def test_vstar_at_half_is_mean_displacement():
    # the regression coefficient (2t-1) vanishes at t = 1/2
    spec = _gauss([1.0, -1.0], 0.7), _gauss([3.0, 0.0], 0.7)
    x = np.array([[5.0, 5.0], [-2.0, 0.3]])
    out = vstar_gaussian(*spec, x, 0.5)
    assert np.allclose(out, [2.0, 1.0])


def test_vstar_affine_structure():
    spec = _spec_1d()
    t = 0.25
    center = (1 - t) * 0.0 + t * 2.0
    coef = (2 * t - 1) / ((1 - t) ** 2 + t ** 2)
    for x in (-3.0, 0.0, 4.0):
        got = float(vstar_gaussian(*spec, np.array([x]), t)[0])
        assert got == pytest.approx(2.0 + coef * (x - center), rel=1e-14)


def test_vstar_matches_quadrature_posterior():
    # independent route: integrate the joint density of (X0, X_t) directly;
    # E[X1 | x] then follows from the path identity x1 = (x - (1-t) x0) / t
    spec = _spec_1d()

    def vstar_quad(x, t):
        f0 = lambda u: math.exp(-0.5 * u * u)
        f1 = lambda u: math.exp(-0.5 * (u - 2.0) ** 2)
        w = lambda u: f0(u) * f1((x - (1 - t) * u) / t)
        z, _ = integrate.quad(w, -12, 12, limit=200)
        m0, _ = integrate.quad(lambda u: u * w(u), -12, 12, limit=200)
        m0 /= z
        return (x - (1 - t) * m0) / t - m0

    for x, t in [(0.5, 0.3), (1.0, 0.5), (2.5, 0.8), (-1.0, 0.25), (0.0, 0.9)]:
        closed = float(vstar_gaussian(*spec, np.array([x]), t)[0])
        assert closed == pytest.approx(vstar_quad(x, t), abs=1e-8)


def test_vstar_rejects_unequal_variance_and_bad_t():
    uneq = _gauss([0.0], 1.0), _gauss([1.0], 2.0)
    assert not gaussian_closed_form(*uneq)
    with pytest.raises(ValueError, match="gaussian endpoints of equal dim"):
        vstar_gaussian(*uneq, np.zeros(1), 0.5)
    with pytest.raises(ValueError):
        vstar_gaussian(*_spec_1d(), np.zeros(1), 1.5)


def test_vstar_field_and_shapes():
    spec = _spec_1d()
    field = functools.partial(vstar_gaussian, *spec)
    x = np.array([[0.1], [0.7], [1.3]])
    t = np.array([0.2, 0.5, 0.8])
    out = field(x, t)
    assert out.shape == (3, 1)
    single = field(x[1], 0.5)
    assert single.shape == (1,)
    assert np.allclose(single, out[1])
    with pytest.raises(ValueError):
        field(x[None], t)
    with pytest.raises(ValueError):
        field(x, np.array([0.2, 0.5, 1.2]))


def test_spec_validation():
    # the closed form needs two gaussian endpoints of equal dim and std
    g = _gauss([0.0], 1.0)
    mixture = DistributionSpec("gaussian_mixture", 1,
                               components=[(1.0, np.zeros(1), 1.0)])
    for pair in ((g, _gauss([1.0], 2.0)), (mixture, g),
                 (g, _gauss([0.0, 1.0], 1.0))):
        assert not gaussian_closed_form(*pair)
        with pytest.raises(ValueError, match="gaussian endpoints of equal dim"):
            vstar_gaussian(*pair, np.zeros(1), 0.5)
        with pytest.raises(ValueError, match="gaussian endpoints of equal dim"):
            velocity_l2_error(lambda x, t: x, *pair, 16, RngStream(0))


# -- binned Monte-Carlo route ----------------------------------------------------------


def test_binned_mc_agrees_with_closed_form():
    # the seed is fixed; across t and populated cells the standardized error
    # must stay within 3 (checked over seeds when frozen)
    spec = _spec_1d()
    grid = np.linspace(-2.0, 4.0, 25)
    worst = 0.0
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        means, stderr, counts = conditional_mean_mc(
            *spec, t, grid, 200_000, RngStream(15).derive(int(t * 10)))
        ok = counts >= 50
        assert ok.sum() >= 10
        closed = vstar_gaussian(*spec, grid[ok, None], t)[:, 0]
        z = np.abs(means[ok] - closed) / stderr[ok]
        worst = max(worst, float(z.max()))
    assert worst < 3.0


def test_binned_mc_discards_out_of_span_draws():
    spec = _spec_1d()
    grid = np.linspace(-0.5, 0.5, 5)     # narrow window in a wide distribution
    means, stderr, counts = conditional_mean_mc(*spec, 0.5, grid, 50_000,
                                                RngStream(8))
    # all cells populated, none inflated by tail captures
    assert (counts > 0).all()
    assert counts.sum() < 50_000
    closed = vstar_gaussian(*spec, grid[:, None], 0.5)[:, 0]
    assert (np.abs(means - closed) <= 4 * stderr).all()


def test_binned_mc_validation():
    spec = _spec_1d()
    with pytest.raises(ValueError):
        conditional_mean_mc(*spec, 0.5, np.array([0.0]), 100, RngStream(0))
    with pytest.raises(ValueError):
        conditional_mean_mc(*spec, 0.5, np.array([0.0, -1.0]), 100, RngStream(0))
    spec2 = _gauss([0.0, 0.0], 1.0), _gauss([1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="1-D"):
        conditional_mean_mc(*spec2, 0.5, np.linspace(0, 1, 5), 100, RngStream(0))


# -- integrated velocity error ---------------------------------------------------------


def test_velocity_l2_error_zero_for_exact_field():
    spec = _spec_1d()
    est = velocity_l2_error(functools.partial(vstar_gaussian, *spec),
                            *spec, 2000, RngStream(1))
    assert est == 0.0


def _window(field, spec, seed):
    """5 standard errors of the mean squared gap between field and v* on the
    points that velocity_l2_error(field, *spec, 400_000, RngStream(seed))
    draws."""
    b = draw_coupled(RngStream(seed), *spec, 400_000)
    gap = field(b.xt, b.t) - vstar_gaussian(*spec, b.xt, b.t)
    vals = np.sum(gap * gap, axis=-1)
    return 5 * (vals.std(ddof=1) / math.sqrt(vals.size))


def test_velocity_l2_error_analytic_constants():
    # E||v*(X_t,t)||^2 = ||mu1-mu0||^2 + sigma^2 (2 - pi/2); the time integral
    # int (2t-1)^2 / ((1-t)^2 + t^2) dt = 2 - pi/2 is done by hand
    spec = _spec_1d()
    zero = lambda x, t: np.zeros_like(x)
    est = velocity_l2_error(zero, *spec, 400_000, RngStream(42))
    assert est == pytest.approx(4.0 + 2.0 - math.pi / 2.0,
                                abs=_window(zero, spec, 42))
    # subtracting the mean displacement leaves only the variance term
    const = lambda x, t: np.full_like(x, 2.0)
    est2 = velocity_l2_error(const, *spec, 400_000, RngStream(43))
    assert est2 == pytest.approx(2.0 - math.pi / 2.0,
                                 abs=_window(const, spec, 43))


def _stack_case(dim, n, width):
    spec = _gauss(np.zeros(dim), 1.0), _gauss(np.full(dim, 2.0), 1.0)
    arch = NetArchitecture(dim=dim, hidden=(width,))
    return spec, [VelocityNet.init(arch, RngStream(33, i)) for i in range(3)]


_STACK_CASES = pytest.mark.parametrize(
    "dim,n,width", [(1, 64, 4), (2, 64, 4), (1, 9000, 24)],
    ids=["1d", "2d", "1d-blocked"])


@_STACK_CASES
def test_velocity_l2_error_of_a_stack_is_one_value_per_member(dim, n, width):
    # 9,000 rows of width 25 run the forward pass in blocks
    spec, nets = _stack_case(dim, n, width)
    est = velocity_l2_error(VelocityNet.stack(nets), *spec, n, RngStream(34))
    assert est.shape == (3,)
    for i, net in enumerate(nets):
        alone = velocity_l2_error(net, *spec, n, RngStream(34))
        assert isinstance(alone, float)
        assert est[i] == alone


@_STACK_CASES
def test_velocity_l2_error_is_the_excess_risk_against_vstar(dim, n, width):
    # one estimator: the sweep's velocity error is excess_risk with v* as the
    # proxy, on the coupled points that the same stream draws
    spec, nets = _stack_case(dim, n, width)
    vstar = functools.partial(vstar_gaussian, *spec)
    for net in (nets[0], VelocityNet.stack(nets)):
        got = velocity_l2_error(net, *spec, n, RngStream(35))
        want = excess_risk(net, vstar, draw_coupled(RngStream(35), *spec, n))
        assert type(got) is type(want)
        assert np.array_equal(got, want)


# -- two-hypothesis construction -------------------------------------------------------


def _inst(R=8.0, eps=0.1, sigma=1.0):
    return LowerBoundInstance(sigma=sigma, R=R, epsilon=eps)


def test_instance_validation_and_eta():
    inst = _inst()
    assert inst.eta == pytest.approx(0.1 ** 2 / 64.0)
    assert inst.signal_mean(1) == -8.0
    assert inst.signal_mean(2) == 8.0
    with pytest.raises(ValueError):
        inst.signal_mean(3)
    with pytest.raises(ValueError):
        LowerBoundInstance(sigma=1.0, R=7.9, epsilon=0.1)
    with pytest.raises(ValueError):
        LowerBoundInstance(sigma=1.0, R=8.0, epsilon=1.0)
    with pytest.raises(ValueError):
        LowerBoundInstance(sigma=0.0, R=8.0, epsilon=0.1)


def test_doubling_r_quarters_eta():
    assert _inst(R=16.0).eta == pytest.approx(_inst(R=8.0).eta / 4.0, rel=1e-14)


def test_densities_normalize():
    inst = _inst()
    for pdf in (lambda x: target_pdf(inst, 1, x),
                lambda x: midpoint_pdf(inst, 2, x),
                lambda x: pi_star_pdf(inst, x)):
        val, _ = integrate.quad(pdf, -30, 30, limit=400,
                                points=[-8.0, -4.0, 0.0, 4.0, 8.0])
        assert val == pytest.approx(1.0, abs=1e-9)


def test_posterior_weights_are_probabilities():
    inst = _inst()
    x = np.linspace(-20, 20, 2001)
    for hyp in (1, 2):
        w_bg, w_sig = posterior_weights(inst, hyp, x)
        assert (w_bg >= 0).all() and (w_sig >= 0).all()
        assert (w_bg <= 1).all() and (w_sig <= 1).all()
        assert np.abs(w_bg + w_sig - 1.0).max() < 1e-12


def test_posterior_velocity_identity():
    inst = _inst()
    x = np.linspace(-10, 10, 101)
    for hyp in (1, 2):
        v = mixture_posterior_velocity(inst, hyp, x)
        assert np.allclose(v, 2.0 * (x - conditional_x0_mean(inst, hyp, x)))
        # equivalent closed form: w_signal(x) * signal mean
        _, w_sig = posterior_weights(inst, hyp, x)
        assert np.allclose(v, w_sig * inst.signal_mean(hyp), atol=1e-12)


def test_velocities_are_mirror_images():
    inst = _inst()
    x = np.linspace(-12, 12, 401)
    v1 = mixture_posterior_velocity(inst, 1, x)
    v2 = mixture_posterior_velocity(inst, 2, x[::-1])
    assert np.allclose(v1, -v2, atol=1e-12)


def test_posterior_odds_at_interval_edge_r8():
    # at x = R/2 - sigma the log odds are log((1-eta)/eta) - 8 exactly
    # (midpoint components have variance sigma^2/2 and means 0 and R/2)
    inst = _inst(R=8.0)
    x = np.array([inst.interval[0]])
    w_bg, w_sig = posterior_weights(inst, 2, x)
    odds = (1.0 - inst.eta) / inst.eta * math.exp(-8.0)
    assert w_sig[0] == pytest.approx(1.0 / (1.0 + odds), rel=1e-10)


def test_tv_equals_eta_and_respects_budget():
    for R, eps in [(8.0, 0.1), (10.0, 0.1), (8.0, 0.3), (12.0, 0.05)]:
        inst = _inst(R=R, eps=eps)
        tv = tv_distance_mixtures(inst)
        # signal components at -+R barely overlap, so the backgrounds cancel
        # and the TV collapses to the contamination mass
        assert tv <= inst.eta + 1e-8
        assert tv == pytest.approx(inst.eta, rel=1e-6)


def test_tv_tiny_epsilon():
    inst = _inst(eps=1e-3)
    tv = tv_distance_mixtures(inst)
    assert tv <= inst.eta + 1e-8
    assert tv == pytest.approx(inst.eta, rel=1e-3, abs=1e-12)
    # the tolerance scales with eta, so far smaller contaminations converge
    for eps in (1e-3, 1e-4):
        inst = _inst(R=40.0, eps=eps)
        assert tv_distance_mixtures(inst) == pytest.approx(inst.eta, rel=1e-9)


def _weighted_sq_diff(inst):
    def f(x):
        d = (mixture_posterior_velocity(inst, 1, x)
             - mixture_posterior_velocity(inst, 2, x))
        return d * d * pi_star_pdf(inst, x)
    return f


def _quadpack(inst):
    """The TV and the three separation integrals by scipy's QUADPACK, with the
    oracles' intervals, breakpoints and absolute tolerances."""
    R, wide = inst.R, (-inst.R - 12.0 * inst.sigma, inst.R + 12.0 * inst.sigma)
    lo, hi = inst.interval
    sq = _weighted_sq_diff(inst)
    tv, _ = integrate.quad(
        lambda x: abs(target_pdf(inst, 1, x) - target_pdf(inst, 2, x)), *wide,
        epsabs=1e-8, limit=400, points=[-R, -R / 2, 0.0, R / 2, R])
    num, _ = integrate.quad(sq, lo, hi, epsabs=1e-10, limit=400)
    den, _ = integrate.quad(lambda x: pi_star_pdf(inst, x), lo, hi,
                            epsabs=1e-12, limit=400)
    total, _ = integrate.quad(sq, *wide, epsabs=1e-12, limit=800,
                              points=[-R / 2, 0.0, R / 2])
    return 0.5 * tv, num, den, total


# R >= 8 sigma is the construction's validity range
@pytest.mark.parametrize("R,eps,sigma", [
    (R, eps, sigma) for R in (8.0, 10.0, 12.0, 16.0, 40.0)
    for eps in (0.3, 0.1, 0.05) for sigma in (1.0, 2.0) if R >= 8.0 * sigma])
def test_quadrature_matches_quadpack(R, eps, sigma):
    inst = _inst(R=R, eps=eps, sigma=sigma)
    tv_ref, num_ref, den_ref, total_ref = _quadpack(inst)
    lo, hi = inst.interval
    tv, rep = tv_distance_mixtures(inst), velocity_separation(inst)
    assert tv == pytest.approx(tv_ref, rel=1e-9)
    assert _quad(_weighted_sq_diff(inst), lo, hi, tol=1e-10) \
        == pytest.approx(num_ref, rel=1e-9)
    assert _quad(lambda x: pi_star_pdf(inst, x), lo, hi, tol=1e-12) \
        == pytest.approx(den_ref, rel=1e-9)
    assert rep.interval_rms == pytest.approx(math.sqrt(num_ref / den_ref),
                                             rel=1e-9)
    assert rep.l2_separation_sq == pytest.approx(total_ref, rel=1e-9)
    # deterministic: a second call returns the same floats
    assert tv_distance_mixtures(inst) == tv
    assert velocity_separation(inst) == rep


def test_quadrature_raises_on_nan_and_on_a_jump_off_the_breakpoints():
    with pytest.raises(FloatingPointError, match="not finite"):
        _quad(lambda x: np.where(x > 0.3, np.nan, 1.0), 0.0, 1.0, tol=1e-10)
    with pytest.raises(FloatingPointError, match="did not converge"):
        _quad(lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0, points=(0.5,),
              tol=1e-10)
    # the same jump on a breakpoint is a smooth panel edge
    assert _quad(lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0,
                 points=(0.3,), tol=1e-10) == pytest.approx(0.7, abs=1e-10)
    assert _quad(np.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0,
                                                                  abs=1e-12)


def test_tv_guards(monkeypatch):
    inst = _inst()
    real = oracles.target_pdf
    # a density jump away from every breakpoint never converges
    monkeypatch.setattr(oracles, "target_pdf", lambda i, h, x: real(i, h, x)
                        + (h == 1) * 1e-3 * (np.asarray(x) > 1.7))
    with pytest.raises(FloatingPointError, match="did not converge"):
        tv_distance_mixtures(inst)
    # mass beyond the contamination cannot come from this construction
    monkeypatch.setattr(oracles, "target_pdf", lambda i, h, x: real(i, h, x)
                        * (1.0 + 0.5 * (h == 1)))
    with pytest.raises(FloatingPointError, match="exceeds eta"):
        tv_distance_mixtures(inst)
    # at eta 6.25e-10 a second copy of hypothesis 1's signal, TV 1.5 eta,
    # is far inside an absolute 1e-8 but still caught
    monkeypatch.setattr(oracles, "target_pdf", lambda i, h, x: real(i, h, x)
                        + (h == 1) * i.eta * np.exp(oracles._norm_logpdf(
                            np.asarray(x, dtype=float), i.signal_mean(1),
                            i.sigma ** 2)))
    with pytest.raises(FloatingPointError,
                       match="computed TV 9.375e-10 exceeds eta 6.250e-10"):
        tv_distance_mixtures(_inst(R=40.0, eps=1e-3))


def test_separation_frozen_values():
    rep8 = velocity_separation(_inst(R=8.0))
    assert rep8.interval == pytest.approx((3.0, 5.0))
    assert rep8.pointwise_min / 8.0 == pytest.approx(0.317801, abs=1e-5)
    # the pi_*-weighted RMS restores the 0.9R separation despite the dip
    assert rep8.interval_rms / 8.0 == pytest.approx(0.917340, abs=1e-5)
    assert rep8.interval_rms >= 0.9 * 8.0
    rep10 = velocity_separation(_inst(R=10.0))
    assert rep10.pointwise_min >= 0.996 * 10.0
    rep16 = velocity_separation(_inst(R=16.0))
    assert rep16.pointwise_min >= 0.9999 * 16.0


def test_separation_kappa_floor():
    # kappa = interval RMS / R stays above 0.85 across the working R range
    kappas = [velocity_separation(_inst(R=R)).interval_rms / R
              for R in (8.0, 10.0, 12.0, 16.0)]
    assert min(kappas) >= 0.85


def test_background_region_velocity_vanishes_with_eta():
    # around the origin both posteriors agree as eta -> 0, and the gap there
    # scales linearly in eta (quadratically in epsilon)
    xs = np.linspace(-3.0, 3.0, 601)

    def gap(eps):
        inst = _inst(eps=eps)
        return float(np.abs(mixture_posterior_velocity(inst, 1, xs)
                            - mixture_posterior_velocity(inst, 2, xs)).max())

    g1, g2 = gap(1e-3), gap(5e-4)
    assert g1 < 1e-3
    assert g1 / g2 == pytest.approx(4.0, rel=1e-2)


def test_lecam_budget_arithmetic():
    inst = _inst()
    m = int(math.floor(0.5 / inst.eta))
    rep = lecam_budget(inst, m)
    assert rep.tv_budget_m == pytest.approx(m * inst.eta)
    assert rep.tv_budget_m <= 0.5
    assert rep.risk_floor == pytest.approx(
        0.25 * rep.separation.l2_separation_sq * (1.0 - rep.tv_budget_m),
        rel=1e-14)
    assert rep.separation == velocity_separation(inst)
    assert rep.tv_pair == tv_distance_mixtures(inst)
    assert rep.floor_ratio == pytest.approx(
        rep.risk_floor / (inst.epsilon ** 2 * inst.sigma ** 2), rel=1e-14)
    # the floor stays a constant fraction of eps^2 sigma^2
    assert rep.floor_ratio > 0.1
    # and saturating the budget kills it
    rep_big = lecam_budget(inst, 100 * m)
    assert rep_big.tv_budget_m == 1.0
    assert rep_big.risk_floor == 0.0
    with pytest.raises(ValueError):
        lecam_budget(inst, 0)


def test_lowerbound_grid_export():
    inst = _inst()
    out = lowerbound_grid(inst, -12.0, 12.0, 201)
    assert set(out) == {"x", "v1", "v2", "diff", "density_pi_star"}
    assert all(v.shape == (201,) for v in out.values())
    assert np.allclose(out["diff"], np.abs(out["v1"] - out["v2"]))
    assert (out["density_pi_star"] > 0).all()
    # grid symmetry carries the mirror identity
    assert np.allclose(out["v1"], -out["v2"][::-1], atol=1e-12)
    with pytest.raises(ValueError):
        lowerbound_grid(inst, 1.0, -1.0, 10)
