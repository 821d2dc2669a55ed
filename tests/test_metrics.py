import itertools
import math

import numpy as np
import pytest

from rflab.distributions import DistributionSpec, draw_coupled
from rflab.linalg_rng import RngStream
from rflab.metrics import (ASSIGNMENT_CAP, excess_risk, fit_rate, w2_empirical,
                           w2_empirical_1d, w2_empirical_assignment)
from rflab.network import NetArchitecture, VelocityNet


# -- transport distance ---------------------------------------------------------------


def test_w2_1d_hand_cases():
    # identical clouds
    assert w2_empirical_1d([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0
    # pure shift by s has W2 = s
    assert w2_empirical_1d([0.0, 1.0], [2.0, 3.0]) == pytest.approx(2.0)
    # one point moved by d: W2 = d / sqrt(n)
    assert w2_empirical_1d([0.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 2.0]) == pytest.approx(1.0)


def _w2_brute_force(a, b):
    # all n! pairings; the definition, affordable up to n = 7
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.sum((a - b[list(perm)]) ** 2))
        best = min(best, cost)
    return math.sqrt(best / n)


def test_w2_1d_matches_brute_force():
    gen = np.random.default_rng(0)
    for _ in range(5):
        a = gen.normal(size=6)
        b = gen.normal(size=6) + 1.0
        assert w2_empirical_1d(a, b) == pytest.approx(_w2_brute_force(a, b),
                                                      rel=1e-12)


def test_w2_assignment_matches_brute_force_2d():
    gen = np.random.default_rng(1)
    for _ in range(4):
        a = gen.normal(size=(6, 2))
        b = gen.normal(size=(6, 2)) + np.array([1.0, -0.5])
        assert w2_empirical_assignment(a, b) == pytest.approx(
            _w2_brute_force(a, b), rel=1e-12)


def test_w2_routes_agree_in_1d():
    gen = np.random.default_rng(2)
    a = gen.normal(size=40)
    b = gen.normal(size=40) * 1.3 + 0.7
    assert w2_empirical_1d(a, b) == pytest.approx(
        w2_empirical_assignment(a[:, None], b[:, None]), rel=1e-12)


def test_w2_dispatch():
    gen = np.random.default_rng(3)
    a1 = gen.normal(size=(20, 1))
    b1 = gen.normal(size=(20, 1))
    assert w2_empirical(a1, b1) == w2_empirical_1d(a1, b1)
    a2 = gen.normal(size=(20, 2))
    b2 = gen.normal(size=(20, 2))
    assert w2_empirical(a2, b2) == w2_empirical_assignment(a2, b2)


def test_w2_assignment_cap():
    big = np.zeros((ASSIGNMENT_CAP + 1, 2))
    with pytest.raises(ValueError, match="subsample first"):
        w2_empirical_assignment(big, big)
    assert ASSIGNMENT_CAP == 512


def test_w2_validation():
    with pytest.raises(ValueError):
        w2_empirical_1d([], [])
    with pytest.raises(ValueError):
        w2_empirical_1d([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        w2_empirical_assignment(np.zeros((3, 2)), np.zeros((4, 2)))


def test_w2_shift_invariance_2d():
    gen = np.random.default_rng(4)
    a = gen.normal(size=(30, 2))
    shift = np.array([3.0, -1.0])
    # shifting both clouds together changes nothing
    assert w2_empirical(a + shift, a + shift) == pytest.approx(0.0, abs=1e-12)
    # shifting one cloud by s gives exactly ||s|| when the clouds match otherwise
    assert w2_empirical(a, a + shift) == pytest.approx(float(np.linalg.norm(shift)),
                                                       rel=1e-9)


# -- excess risk ----------------------------------------------------------------------


def _holdout(n=64, seed=0, dim=1):
    pi0 = DistributionSpec("gaussian", dim, mean=np.zeros(dim), std=1.0)
    pi1 = DistributionSpec("gaussian", dim, mean=np.full(dim, 2.0), std=1.0)
    return draw_coupled(RngStream(seed), pi0, pi1, n)


def test_excess_risk_zero_against_self():
    net = VelocityNet.init(NetArchitecture(dim=1, hidden=(4,)), RngStream(5))
    holdout = _holdout()
    assert excess_risk(net, net, holdout) == 0.0


def test_excess_risk_constant_gap():
    holdout = _holdout(dim=2)

    def field_a(x, t):
        return np.zeros_like(x)

    def field_b(x, t):
        return np.full_like(x, 1.5)

    # constant per-coordinate gap 1.5 in 2-D: sum of squares is 2 * 1.5^2
    assert excess_risk(field_a, field_b, holdout) == pytest.approx(4.5)


@pytest.mark.parametrize("dim,n,width", [(1, 64, 4), (2, 64, 4), (1, 9000, 24)],
                         ids=["1d", "2d", "1d-blocked"])
def test_excess_risk_of_a_stack_is_one_value_per_member(dim, n, width):
    # 9,000 rows of width 25 run the forward pass in blocks
    arch = NetArchitecture(dim=dim, hidden=(width,))
    nets = [VelocityNet.init(arch, RngStream(30, i)) for i in range(3)]
    proxy = VelocityNet.init(arch, RngStream(31))
    holdout = _holdout(n=n, seed=32, dim=dim)
    risks = excess_risk(VelocityNet.stack(nets), proxy, holdout)
    assert risks.shape == (3,)
    for risk, net in zip(risks, nets):
        alone = excess_risk(net, proxy, holdout)
        assert isinstance(alone, float) and risk == alone


def test_excess_risk_empty_holdout():
    from rflab.distributions import CoupledBatch
    empty = CoupledBatch(np.zeros(0), np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        excess_risk(lambda x, t: x, lambda x, t: x, empty)


# -- rate fitting ---------------------------------------------------------------------


def test_fit_rate_exact_power_law():
    ns = np.array([64.0, 128.0, 256.0, 512.0, 1024.0])
    vals = 3.0 / ns
    fit = fit_rate(ns, vals)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    half = fit_rate(ns, 5.0 / np.sqrt(ns))
    assert half.slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_stderr_reflects_scatter():
    gen = np.random.default_rng(6)
    ns = np.array([64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0])
    noisy = (7.0 / ns) * np.exp(gen.normal(0, 0.15, size=ns.size))
    fit = fit_rate(ns, noisy)
    assert fit.stderr > 0
    assert abs(fit.slope + 1.0) < 4 * fit.stderr + 0.15


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])         # too few points
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.0, 0.1])  # nonpositive value
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.25])    # length mismatch
    with pytest.raises(ValueError):
        fit_rate([2.0, 2.0, 2.0, 2.0], [1.0, 0.5, 0.25, 0.125])  # no spread
