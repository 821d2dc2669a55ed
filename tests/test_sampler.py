import math

import numpy as np
import pytest

import rflab.network
from rflab.distributions import DistributionSpec
from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet
from rflab.sampler import (MAX_REFLOW_ROUNDS, FlowTrajectory, chord_deviations,
                           euler_integrate, reflow, straightness)
from rflab.training import TrainConfig


def _gauss(mean, std=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    return DistributionSpec("gaussian", mean.size, mean=mean, std=std)


# -- euler integration ----------------------------------------------------------------


def test_euler_zero_field_is_identity():
    z0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    z1, traj = euler_integrate(lambda z, t: np.zeros_like(z), z0, 7, record=True)
    assert (z1 == z0).all()
    assert (traj.states == z0[None]).all()


def test_euler_constant_field_exact():
    # dZ = v dt transports by exactly v in one unit of time, any step count
    v = np.array([2.0, -1.0])
    z0 = np.array([[0.0, 0.0], [1.0, 1.0]])
    for steps in (1, 3, 10):
        z1, _ = euler_integrate(lambda z, t: np.broadcast_to(v, z.shape), z0, steps)
        assert np.allclose(z1, z0 + v, atol=1e-14)


def test_euler_linear_field_compound_growth():
    # dZ = Z dt: Euler gives (1 + 1/S)^S exactly, approaching e from below
    z0 = np.array([[1.0]])
    for steps in (1, 4, 64):
        z1, _ = euler_integrate(lambda z, t: z, z0, steps)
        assert z1[0, 0] == pytest.approx((1.0 + 1.0 / steps) ** steps, rel=1e-13)
    assert euler_integrate(lambda z, t: z, z0, 4096)[0][0, 0] < math.e


def test_euler_single_point_shape():
    z1, _ = euler_integrate(lambda z, t: np.ones_like(z), np.array([1.0, 2.0]), 5)
    assert z1.shape == (2,)
    assert np.allclose(z1, [2.0, 3.0])


def test_euler_time_grid_passed_to_field():
    seen = []

    def field(z, t):
        seen.append(float(t[0]))
        return np.zeros_like(z)

    euler_integrate(field, np.array([[0.0]]), 4)
    assert seen == pytest.approx([0.0, 0.25, 0.5, 0.75])


def test_euler_rejects_bad_inputs():
    with pytest.raises(ValueError):
        euler_integrate(lambda z, t: z, np.array([[1.0]]), 0)
    with pytest.raises(ValueError):
        euler_integrate(lambda z, t: z, np.array([[np.nan]]), 3)
    with pytest.raises(ValueError):
        euler_integrate(lambda z, t: z, np.zeros((2, 2, 2)), 3)
    arch = NetArchitecture(dim=1, hidden=(4,))
    stack = VelocityNet.stack(VelocityNet.init(arch, RngStream(1, i)) for i in range(3))
    with pytest.raises(ValueError, match="single net"):
        euler_integrate(stack, np.zeros((5, 1)), 1)


def test_euler_raises_on_divergence():
    def exploding(z, t):
        return z * 1e200

    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="diverged"):
            euler_integrate(exploding, np.array([[1.0]]), 3)


def test_one_step_equals_single_step_integration():
    # the step is exactly 1.0, so one step is z0 + field(z0, 0) bit for bit
    field = lambda z, t: z * 2.0 + 1.0 + t[:, None] / 3.0
    z0 = np.array([[0.5], [-1.0]])
    via_euler, _ = euler_integrate(field, z0, 1)
    assert np.array_equal(via_euler, z0 + field(z0, np.zeros(2)))
    single, _ = euler_integrate(field, np.array([0.5]), 1)
    assert single.shape == (1,)
    assert np.array_equal(single, via_euler[0])


@pytest.mark.parametrize("dim, n", [(1, 300), (2, 300), (1, None), (2, None),
                                    (1, 6000)],
                         ids=["1d", "2d", "1d-point", "2d-point", "1d-blocked"])
def test_euler_on_a_net_equals_euler_on_its_call(dim, n):
    # the net's own flow and a plain callable around the net give the same
    # bits: a single point, and a pass over FORWARD_BLOCK_BYTES
    arch = NetArchitecture(dim=dim, hidden=(24,), l1_budget=4.0)
    net = VelocityNet.init(arch, RngStream(30, dim))
    net.theta += RngStream(31, dim).gen.uniform(-0.3, 0.3, net.param_count)
    net.project_constraints()
    z0 = RngStream(32, dim).gen.standard_normal((n or 1, dim))
    if n is None:
        z0 = z0[0]
    elif n == 6000:
        assert n * 8 * (24 + 1) > rflab.network.FORWARD_BLOCK_BYTES
    z1, traj = euler_integrate(net, z0, 9, record=True)
    z1_call, traj_call = euler_integrate(lambda z, t: net(z, t), z0, 9, record=True)
    assert z1.shape == z1_call.shape == z0.shape
    assert z1.tobytes() == z1_call.tobytes()
    assert traj.states.tobytes() == traj_call.states.tobytes()
    assert (traj.times == traj_call.times).all()
    assert (traj.states[0] == np.atleast_2d(z0)).all()


# -- straightness ---------------------------------------------------------------------


def test_chord_deviation_zero_for_linear_motion():
    z0 = np.array([[0.0, 1.0]])
    z1, traj = euler_integrate(
        lambda z, t: np.broadcast_to([2.0, -2.0], z.shape), z0, 8, record=True)
    dev = chord_deviations(traj)
    assert dev.shape == (9, 1)
    assert np.abs(dev).max() < 1e-28
    assert straightness(traj) < 1e-28


def test_straightness_positive_for_curved_paths():
    # dZ = Z dt bends the log-scale path away from the chord
    _, traj = euler_integrate(lambda z, t: z, np.array([[1.0]]), 16, record=True)
    assert straightness(traj) > 1e-4


def test_straightness_known_piecewise_path():
    # tent path 0 -> 1 -> 0 over two steps: midpoint sits 1 off the chord,
    # endpoints sit on it, so the mean squared deviation is 1/3
    times = np.array([0.0, 0.5, 1.0])
    states = np.array([[[0.0]], [[1.0]], [[0.0]]])
    assert straightness(FlowTrajectory(times, states)) == pytest.approx(1.0 / 3.0)


def test_straightness_needs_two_steps():
    times = np.array([0.0, 1.0])
    states = np.zeros((2, 1, 1))
    with pytest.raises(ValueError):
        straightness(FlowTrajectory(times, states))


# -- reflow ---------------------------------------------------------------------------


def _trained_toy_net(seed=0):
    arch = NetArchitecture(dim=1, hidden=(6,), l1_budget=4.0)
    return VelocityNet.init(arch, RngStream(seed))


def _reflow_cfg():
    return TrainConfig(batch_size=16, steps=40, c=4.0, gamma=40.0)


def test_reflow_round_bookkeeping():
    pi0 = _gauss([0.0])
    net = _trained_toy_net()
    theta = net.get_theta().copy()
    out = reflow(net, 0, pi0, 64, _reflow_cfg(), RngStream(11),
                 integrate_steps=20, seed=5)
    # the input net is untouched and the retrained net is a distinct object
    assert out is not net
    assert (net.get_theta() == theta).all()
    assert (out.get_theta() != theta).any()


def test_reflow_never_draws_from_target():
    pi0 = _gauss([0.0])
    pi1 = _gauss([2.0])
    net = _trained_toy_net()
    before = pi1.draws
    net = reflow(net, 0, pi0, 32, _reflow_cfg(), RngStream(3),
                 integrate_steps=10, seed=5)
    net = reflow(net, 1, pi0, 32, _reflow_cfg(), RngStream(4),
                 integrate_steps=10, seed=5)
    assert pi1.draws == before
    assert pi0.draws == 64


def test_reflow_round_cap():
    assert MAX_REFLOW_ROUNDS == 3
    pi0 = _gauss([0.0])
    net = _trained_toy_net()
    for k in range(MAX_REFLOW_ROUNDS):
        net = reflow(net, k, pi0, 32, _reflow_cfg(), RngStream(7),
                     integrate_steps=10, seed=5)
    with pytest.raises(ValueError, match="capped"):
        reflow(net, MAX_REFLOW_ROUNDS, pi0, 32, _reflow_cfg(), RngStream(7),
               integrate_steps=10, seed=5)


def test_reflow_is_deterministic():
    pi0_a = _gauss([0.0])
    pi0_b = _gauss([0.0])
    out_a = reflow(_trained_toy_net(), 0, pi0_a, 48,
                   _reflow_cfg(), RngStream(9), integrate_steps=10, seed=5)
    out_b = reflow(_trained_toy_net(), 0, pi0_b, 48,
                   _reflow_cfg(), RngStream(9), integrate_steps=10, seed=5)
    assert (out_a.get_theta() == out_b.get_theta()).all()


def test_reflow_validates_n_synth():
    with pytest.raises(ValueError):
        reflow(_trained_toy_net(), 0, _gauss([0.0]), 0, _reflow_cfg(),
               RngStream(0), seed=5)
