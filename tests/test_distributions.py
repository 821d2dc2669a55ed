import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles_support import pair_subgaussian_sigma, tail_mass_outside
from rflab.config import ConfigError, load_experiment
from rflab.distributions import (CoupledBatch, DistributionSpec, couple_given,
                                 draw_coupled, interpolate, truncation_level)
from rflab.linalg_rng import RngStream


def _g(mean, std):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    return DistributionSpec("gaussian", mean.size, mean=mean, std=std)


# -- spec construction ---------------------------------------------------------------


def test_gaussian_spec_validation():
    _g([1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        _g([1.0], 0.0)
    with pytest.raises(ValueError):
        DistributionSpec("gaussian", 1, mean=np.array([np.nan]), std=1.0)
    with pytest.raises(ValueError):
        DistributionSpec("nonsense", 1, mean=np.zeros(1), std=1.0)


def test_mixture_spec_validation():
    comps = [(0.5, np.array([-2.0, 0.0]), 0.5), (0.5, np.array([2.0, 0.0]), 0.5)]
    DistributionSpec("gaussian_mixture", 2, components=comps)
    with pytest.raises(ValueError, match="sum to 1"):
        DistributionSpec("gaussian_mixture", 2,
                         components=[(0.5, np.zeros(2), 1.0),
                                     (0.6, np.ones(2), 1.0)])
    with pytest.raises(ValueError):
        DistributionSpec("gaussian_mixture", 2, components=[])


def test_empirical_spec_validation():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    DistributionSpec("empirical", 2, points=pts)
    with pytest.raises(ValueError):
        DistributionSpec("empirical", 2, points=np.zeros((0, 2)))


def test_sampling_moments_and_draw_counter():
    spec = _g([1.0, -1.0], 2.0)
    assert spec.draws == 0
    x = spec.sample(RngStream(3), 100_000)
    assert spec.draws == 100_000
    assert np.allclose(x.mean(axis=0), [1.0, -1.0], atol=0.05)
    assert np.allclose(x.std(axis=0), 2.0, atol=0.05)
    spec.sample(RngStream(3), 5)
    assert spec.draws == 100_005
    with pytest.raises(ValueError):
        spec.sample(RngStream(3), 0)


def test_draw_counter_excluded_from_equality():
    a = _g([0.0], 1.0)
    b = _g([0.0], 1.0)
    a.sample(RngStream(0), 10)
    assert a == b


def test_mixture_sampling_hits_both_modes():
    comps = [(0.5, np.array([-10.0]), 0.1), (0.5, np.array([10.0]), 0.1)]
    spec = DistributionSpec("gaussian_mixture", 1, components=comps)
    x = spec.sample(RngStream(4), 4000)
    frac_left = float((x[:, 0] < 0).mean())
    assert 0.45 < frac_left < 0.55


def test_empirical_sampling_returns_points():
    pts = np.array([[1.0], [2.0], [3.0]])
    spec = DistributionSpec("empirical", 1, points=pts)
    x = spec.sample(RngStream(5), 500)
    assert set(np.unique(x)) <= {1.0, 2.0, 3.0}


def test_json_roundtrip(tmp_path):
    # config blocks as a JSON config file spells them, loaded as the pi0 and
    # pi1 of an experiment, against the spec built directly
    cases = [
        ({"kind": "gaussian", "mean": [1.0, 2.0], "std": 0.5}, _g([1.0, 2.0], 0.5)),
        ({"kind": "gaussian_mixture",
          "components": [{"weight": 0.25, "mean": [-2.0], "std": 0.5},
                         {"weight": 0.75, "mean": [2.0], "std": 1.5}]},
         DistributionSpec("gaussian_mixture", 1,
                          components=[(0.25, np.array([-2.0]), 0.5),
                                      (0.75, np.array([2.0]), 1.5)])),
        ({"kind": "empirical", "points": [[0.0, 1.0], [2.0, 3.0]]},
         DistributionSpec("empirical", 2, points=np.array([[0.0, 1.0], [2.0, 3.0]]))),
    ]
    path = tmp_path / "config.json"
    for obj, spec in cases:
        path.write_text(json.dumps({"pi0": obj, "pi1": obj}), encoding="utf-8")
        exp = load_experiment(str(path))
        for back in (exp.pi0, exp.pi1):
            assert back.kind == spec.kind
            assert back.dim == spec.dim
            assert (back.sample(RngStream(3), 5) == spec.sample(RngStream(3), 5)).all()
    path.write_text(json.dumps({"pi0": {"kind": "uniform"}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="field 'pi0.kind' must be one of"):
        load_experiment(str(path))


# -- interpolation and coupling ------------------------------------------------------


def test_interpolate_exact_endpoints():
    x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    x1 = np.array([[-1.0, 0.5], [0.0, 0.0]])
    assert (interpolate(x0, x1, 0.0) == x0).all()
    assert (interpolate(x0, x1, 1.0) == x1).all()
    t = np.array([0.0, 1.0])
    out = interpolate(x0, x1, t)
    assert (out[0] == x0[0]).all()
    assert (out[1] == x1[1]).all()


@given(st.floats(0, 1), st.floats(-5, 5), st.floats(-5, 5))
def test_interpolate_between_endpoints_scalar(t, a, b):
    y = float(interpolate(np.array([a]), np.array([b]), t)[0])
    assert min(a, b) - 1e-12 <= y <= max(a, b) + 1e-12


def test_coupled_batch_invariants():
    pi0, pi1 = _g([0.0], 1.0), _g([2.0], 1.0)
    batch = draw_coupled(RngStream(7), pi0, pi1, 64)
    assert len(batch) == 64
    assert batch.xt.shape == batch.disp.shape == (64, 1)
    # the same stream gives the endpoints the triple was formed from
    rng = RngStream(7)
    x0, x1 = pi0.sample(rng, 64), pi1.sample(rng, 64)
    assert (batch.t == rng.gen.uniform(0.0, 1.0, size=64)).all()
    assert (batch.xt == interpolate(x0, x1, batch.t)).all()
    assert (batch.disp == x1 - x0).all()
    assert (batch.t >= 0).all() and (batch.t <= 1).all()


def test_coupled_batch_take():
    batch = draw_coupled(RngStream(7), _g([0.0], 1.0), _g([2.0], 1.0), 10)
    sub = batch.take(np.array([0, 3, 5]))
    assert len(sub) == 3
    assert sub.t[1] == batch.t[3]
    assert (sub.disp[1] == batch.disp[3]).all()
    assert (sub.xt[2] == batch.xt[5]).all()


def test_stacked_batch_length_and_take():
    batches = [draw_coupled(RngStream(7, i), _g([0.0, 1.0], 1.0),
                            _g([2.0, 0.0], 1.0), 10) for i in range(3)]
    stacked = CoupledBatch.stack(batches)
    assert stacked.xt.shape == (3, 10, 2) and stacked.t.shape == (3, 10)
    assert len(stacked) == 10
    idx = np.array([[0, 3], [9, 9], [4, 1]])
    sub = stacked.take(idx)
    assert len(sub) == 2
    for i in range(3):
        solo = batches[i].take(idx[i])
        for name in ("t", "xt", "disp"):
            assert (getattr(sub, name)[i] == getattr(solo, name)).all()
    with pytest.raises(ValueError):
        CoupledBatch.stack([batches[0], batches[1].take(np.arange(5))])


def test_from_pairs_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        CoupledBatch.from_pairs(np.zeros((3, 1)), np.zeros((4, 1)),
                                np.zeros(3))
    with pytest.raises(ValueError):
        CoupledBatch.from_pairs(np.zeros((3, 1)), np.zeros((3, 1)),
                                np.zeros(2))


def test_couple_given_keeps_endpoints():
    x0 = np.array([[0.0], [1.0]])
    x1 = np.array([[10.0], [11.0]])
    batch = couple_given(RngStream(9), x0, x1)
    assert (batch.disp == x1 - x0).all()
    assert (batch.xt == interpolate(x0, x1, batch.t)).all()
    assert np.allclose(batch.disp, 10.0)


# -- truncation machinery ------------------------------------------------------------


def test_truncation_level_frozen_value():
    # sigma=1, n=100, C=2, c=0.5: M = sqrt(2 log(40000))
    assert truncation_level(1.0, 100) == pytest.approx(4.60361482600273, abs=1e-12)
    assert truncation_level(1.0, 100) == pytest.approx(
        math.sqrt(2.0 * math.log(40000.0)), abs=1e-14)


def test_truncation_level_constant_tail_budget():
    # C*exp(-c M^2/sigma^2) = 1/(2 n^2) identically in C and c
    for C, c, sigma, n in [(2.0, 0.5, 1.0, 100), (1.0, 1.0, 2.0, 10),
                           (5.0, 0.25, 0.3, 1000)]:
        M = truncation_level(sigma, n, C=C, c=c)
        assert C * math.exp(-c * M * M / sigma ** 2) == pytest.approx(
            1.0 / (2.0 * n * n), rel=1e-12)


def test_truncation_level_rejects_bad_inputs():
    with pytest.raises(ValueError):
        truncation_level(0.0, 100)
    with pytest.raises(ValueError):
        truncation_level(1.0, 1)
    with pytest.raises(ValueError):
        truncation_level(1.0, 100, C=0.0)


def test_pair_subgaussian_sigma():
    assert pair_subgaussian_sigma(3.0, 4.0) == pytest.approx(5.0)


def test_tail_mass_outside_gaussian():
    pi0 = _g([0.0], 1.0)
    pi1 = _g([2.0], 1.0)
    # X1 - X0 ~ N(2, 2): P(|disp| > 6) = P(|Z| > (6-2)/sqrt 2 ...) two-sided
    p, se = tail_mass_outside(pi0, pi1, 6.0, 200_000, RngStream(11))
    s = math.sqrt(2.0)
    exact = (1.0 - 0.5 * (1.0 + math.erf((6.0 - 2.0) / (s * math.sqrt(2.0))))
             + 0.5 * (1.0 + math.erf((-6.0 - 2.0) / (s * math.sqrt(2.0)))))
    assert abs(p - exact) < 4 * se + 1e-4
    with pytest.raises(ValueError):
        tail_mass_outside(pi0, pi1, -1.0, 10, RngStream(0))
