"""Call counts of the SGD, Euler and Rademacher-ascent hot loops: the layout
work happens once per epoch, once per integration and once per estimate, not
once per step, and the ascent's pulls to the localization ball stay within
their pass budget."""

import numpy as np

import rflab.bounds
import rflab.linalg_rng
import rflab.network
import rflab.sampler
from rflab.bounds import empirical_local_rademacher
from rflab.distributions import CoupledBatch, DistributionSpec, draw_coupled
from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet
from rflab.sampler import euler_integrate
from rflab.training import TrainConfig, train

_ARCH = NetArchitecture(dim=1, hidden=(6,), l1_budget=4.0)


def _data(n, seed):
    pi0 = DistributionSpec("gaussian", 1, mean=np.zeros(1), std=1.0)
    pi1 = DistributionSpec("gaussian", 1, mean=np.full(1, 2.0), std=0.5)
    return draw_coupled(RngStream(seed), pi0, pi1, n)


def test_train_gathers_from_its_data_once_per_epoch(monkeypatch):
    gathers = []
    take = CoupledBatch.take

    def counting_take(self, idx):
        gathers.append(np.shape(idx))
        return take(self, idx)

    monkeypatch.setattr(CoupledBatch, "take", counting_take)
    # 70 rows in minibatches of 16: four steps per epoch, so 23 steps are
    # six epochs, each gathered whole
    cfg = TrainConfig(batch_size=16, steps=23, record_every=23)
    train(VelocityNet.init(_ARCH, RngStream(1)), _data(70, seed=2), cfg, seed=3)
    assert gathers == [(70,)] * 6
    gathers.clear()
    stack = VelocityNet.stack(VelocityNet.init(_ARCH, RngStream(1, i)) for i in range(3))
    data = CoupledBatch.stack([_data(70, seed=2 + i) for i in range(3)])
    train(stack, data, cfg, seed=(3, 4, 5))
    assert gathers == [(3, 70)] * 6


def test_euler_on_a_net_normalises_its_input_once(monkeypatch):
    calls = []
    normalise = rflab.linalg_rng.as_field_input

    def counting(*args):
        calls.append(len(args))
        return normalise(*args)

    for module in (rflab.sampler, rflab.network):
        monkeypatch.setattr(module, "as_field_input", counting)
    net = VelocityNet.init(_ARCH, RngStream(6))
    z0 = RngStream(7).gen.standard_normal((50, 1))
    euler_integrate(net, z0, 40)
    assert len(calls) == 1
    # a plain callable is still called, and its input normalised, per step
    euler_integrate(lambda z, t: net(z, t), z0, 40)
    assert len(calls) == 1 + 1 + 40


def test_rademacher_ascent_lays_out_its_batch_once(monkeypatch):
    layouts = []
    lay_out = VelocityNet.lay_out

    def counting(self, batch, into=None):
        layouts.append(len(batch))
        return lay_out(self, batch, into)

    monkeypatch.setattr(VelocityNet, "lay_out", counting)
    ref = VelocityNet.init(_ARCH, RngStream(8))
    empirical_local_rademacher(lambda rng: VelocityNet.init(_ARCH, rng), ref,
                               _data(48, seed=9), 0.1, n_signs=2, n_restarts=2,
                               rng=RngStream(10), l_ell=10.0, ascent_steps=5)
    assert layouts == [48]


def test_rademacher_pulls_stay_within_the_itp_pass_bounds(monkeypatch):
    """Each pull back to the localization ball takes at most 41 passes
    (bisection's 40 plus ITP's n0 = 1), and on this instance the pulls take
    at most 30 passes each on average, where the 40-step bisection took 40
    on every pull. A pass is one `_localization_sq` call after the pull's
    first, which decides who is outside."""
    passes = []
    localization_sq, pull = rflab.bounds._localization_sq, rflab.bounds._pull_to_ball

    def counting_sq(*args):
        passes[-1] += 1
        return localization_sq(*args)

    def counting_pull(*args):
        passes.append(-1)
        pull(*args)

    monkeypatch.setattr(rflab.bounds, "_localization_sq", counting_sq)
    monkeypatch.setattr(rflab.bounds, "_pull_to_ball", counting_pull)
    ref = VelocityNet.init(_ARCH, RngStream(8))
    empirical_local_rademacher(lambda rng: VelocityNet.init(_ARCH, rng), ref,
                               _data(48, seed=9), 0.1, n_signs=2, n_restarts=2,
                               rng=RngStream(10), l_ell=10.0, ascent_steps=5)
    pulls = [p for p in passes if p > 0]
    assert len(passes) == 6 and len(pulls) >= 5
    assert max(pulls) <= 41
    assert sum(pulls) <= 30 * len(pulls)
