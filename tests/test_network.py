import dataclasses
import json
import math
import os
import pickle
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rflab
import rflab.network
from rflab.distributions import CoupledBatch, draw_coupled, DistributionSpec
from rflab.linalg_rng import RngStream
from rflab.bounds import BoundInputs
from rflab.network import (CHECKPOINT_FORMAT, NetArchitecture, VelocityNet,
                           finite_diff_grad, load_checkpoint, make_activation,
                           save_checkpoint)


def _arch(dim=1, hidden=(3,), activation="tanh", V=2.0, b=1.0):
    return NetArchitecture(dim=dim, hidden=hidden, activation=activation,
                           l1_budget=V, act_bound=b)


def _batch(dim, n, seed=0):
    pi0 = DistributionSpec("gaussian", dim, mean=np.zeros(dim), std=1.0)
    pi1 = DistributionSpec("gaussian", dim, mean=np.full(dim, 2.0), std=1.0)
    return draw_coupled(RngStream(seed), pi0, pi1, n)


# -- activations ---------------------------------------------------------------------


def test_activation_values():
    tanh = make_activation("tanh", 1.0)
    sig = make_activation("sigmoid", 1.0)
    sp = make_activation("softplus_clamped", 2.0)
    z = np.array([-1.0, 0.0, 1.0])
    assert np.allclose(tanh.value(z), np.tanh(z))
    assert np.allclose(sig.value(z), 1.0 / (1.0 + np.exp(-z)))
    assert np.allclose(sp.value(z), np.minimum(np.log1p(np.exp(z)), 2.0))
    # clamp binds above the bound: value pinned, derivative dead
    zc = np.array([3.0])
    assert sp.value(zc)[0] == 2.0
    assert sp.deriv(zc, sp.value(zc))[0] == 0.0


def test_activation_derivs_match_finite_diff():
    h = 1e-6
    for name, bound in [("tanh", 1.0), ("sigmoid", 1.0),
                        ("softplus_clamped", 5.0)]:
        act = make_activation(name, bound)
        z = np.linspace(-2.0, 2.0, 9)   # away from any clamp kink
        a = act.value(z)
        fd = (act.value(z + h) - act.value(z - h)) / (2 * h)
        assert np.allclose(act.deriv(z, a), fd, atol=1e-8), name


@pytest.mark.parametrize("name,bound", [
    ("tanh", 1.0), ("sigmoid", 1.0), ("softplus_clamped", 1.5)])
def test_activation_out_matches_allocating_path(name, bound):
    # the forward pass writes each activation into the [..., :-1, :] block
    # of the next layer's augmented buffer; that path must give the bits of
    # the allocating one, clamp included
    act = make_activation(name, bound)
    rng = np.random.default_rng(5)
    for shape in [(1, 7), (8, 33), (3, 5, 65)]:
        z = rng.standard_normal(shape) * 6.0
        aug = np.full(shape[:-2] + (shape[-2] + 1, shape[-1]), -7.0)
        act.value(z, out=aug[..., :-1, :])
        assert aug[..., :-1, :].tobytes() == act.value(z).tobytes()
        assert (aug[..., -1, :] == -7.0).all()


def test_activation_lipschitz_constants():
    assert make_activation("tanh", 1.0).lipschitz == 1.0
    assert make_activation("sigmoid", 1.0).lipschitz == 0.25
    assert make_activation("softplus_clamped", 3.0).lipschitz == 1.0


def test_make_activation_validation():
    with pytest.raises(ValueError):
        make_activation("tanh", 2.0)
    with pytest.raises(ValueError):
        make_activation("sigmoid", 0.5)
    with pytest.raises(ValueError):
        make_activation("softplus_clamped", 0.0)
    with pytest.raises(ValueError):
        make_activation("relu", 1.0)


# -- architecture --------------------------------------------------------------------


def test_param_count_hand_counts():
    # dims [2, 3, 1]: 3 rows of width 2+1, then 1 row of width 3+1
    assert _arch(dim=1, hidden=(3,)).param_count == 3 * 3 + 1 * 4
    # dims [3, 4, 5, 2]
    a = _arch(dim=2, hidden=(4, 5))
    assert a.param_count == 4 * 4 + 5 * 5 + 2 * 6
    assert a.depth == 3
    assert a.layer_dims == [3, 4, 5, 2]


def test_architecture_validation():
    with pytest.raises(ValueError):
        _arch(dim=0)
    with pytest.raises(ValueError):
        _arch(hidden=())
    with pytest.raises(ValueError):
        _arch(V=0.0)
    with pytest.raises(ValueError):
        _arch(activation="tanh", b=2.0)


def test_architecture_json_roundtrip():
    a = _arch(dim=2, hidden=(4, 3), activation="softplus_clamped", V=5.0, b=2.0)
    assert NetArchitecture(**json.loads(json.dumps(dataclasses.asdict(a)))) == a
    # JSON gives a list of widths and may give integer budgets; the
    # checkpoint header prints the budget and the bound as floats
    b = NetArchitecture(dim=1, hidden=[3], l1_budget=4, act_bound=1)
    assert b.hidden == (3,)
    assert json.dumps(dataclasses.asdict(b), sort_keys=True) == (
        '{"act_bound": 1.0, "activation": "tanh", "dim": 1, "hidden": [3], '
        '"l1_budget": 4.0}')


# -- initialization and constraints --------------------------------------------------


def _init_by_concatenation(arch, rng):
    """The per-layer construction VelocityNet.init replaced: each layer's
    uniform weights with a zero bias column appended, the layers
    concatenated into theta."""
    dims = arch.layer_dims
    v = arch.l1_budget
    layers = []
    for k in range(len(dims) - 1):
        fan_in = dims[k]
        w = rng.gen.uniform(-v / fan_in, v / fan_in, size=(dims[k + 1], fan_in))
        layers.append(np.concatenate([w, np.zeros((dims[k + 1], 1))], axis=1))
    return np.concatenate([w.reshape(-1) for w in layers])


@pytest.mark.parametrize("arch", [
    _arch(dim=1, hidden=(4,)),
    _arch(dim=2, hidden=(3, 5), activation="sigmoid"),
    _arch(dim=2, hidden=(6,), activation="softplus_clamped", b=1.5),
], ids=["tanh", "sigmoid", "softplus"])
def test_init_matches_the_concatenation_construction(arch):
    net = VelocityNet.init(arch, RngStream(41))
    assert (net.theta == _init_by_concatenation(arch, RngStream(41))).all()


def test_constructor_copies_one_buffer_of_one_or_k_nets():
    arch = _arch(dim=2, hidden=(4, 3))
    p = arch.param_count
    theta = np.arange(3 * p, dtype=np.float64).reshape(3, p)
    for buf in (theta[1], theta, theta.tolist()):
        net = VelocityNet(arch, buf)
        assert net.theta.shape == np.shape(buf)
        assert (net.theta == buf).all()
        assert not np.shares_memory(net.theta, theta)
        assert all(np.shares_memory(w, net.theta) for w in net.weights)
    net = VelocityNet(arch, theta[1])
    theta[1, 0] = -5.0
    assert net.theta[0] == p and net.weights[0][0, 0] == p
    # a column-major or strided buffer is laid out row-major afresh, so the
    # layer views still alias theta
    for buf in (np.asfortranarray(theta), np.zeros((3, 2 * p))[:, ::2]):
        net = VelocityNet(arch, buf)
        assert (net.theta == buf).all() and net.theta.flags.c_contiguous
        assert all(np.shares_memory(w, net.theta) for w in net.weights)
    for bad in (np.zeros((2, 3, p)), np.zeros(p - 1), np.zeros((2, p + 1)),
                np.zeros(())):
        with pytest.raises(ValueError, match="theta has shape"):
            VelocityNet(arch, bad)


def test_init_is_feasible_with_zero_biases():
    arch = _arch(dim=2, hidden=(6, 4), V=3.0)
    net = VelocityNet.init(arch, RngStream(1))
    assert net.max_row_l1() <= 3.0 + 1e-12
    for w in net.weights:
        assert (w[:, -1] == 0.0).all()
    # deterministic in the stream
    again = VelocityNet.init(arch, RngStream(1))
    assert all((u == v).all() for u, v in zip(net.weights, again.weights))


def test_zeros_net_outputs_zero():
    net = VelocityNet.zeros(_arch(dim=2, hidden=(4,)))
    x = np.array([[1.0, -2.0], [0.5, 0.5]])
    assert (net(x, np.array([0.2, 0.9])) == 0.0).all()


def test_projection_restores_feasibility_and_is_idempotent():
    arch = _arch(dim=1, hidden=(3,), V=1.5)
    net = VelocityNet.zeros(arch)
    net.set_theta(np.linspace(-2.0, 2.0, net.param_count))
    assert net.max_row_l1() > 1.5
    net.project_constraints()
    assert net.max_row_l1() <= 1.5 + 1e-12
    theta = net.get_theta()
    net.project_constraints()
    # re-projecting a feasible point moves nothing beyond float rounding
    assert np.abs(net.get_theta() - theta).max() <= 1e-12
    net.theta[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        net.project_constraints()


@pytest.mark.parametrize("binding", [False, True])
def test_stacked_projection_is_the_member_projection(binding):
    arch = _arch(dim=2, hidden=(4, 3), V=1.5)
    gen = np.random.default_rng(8)
    nets = []
    for i in range(3):
        net = VelocityNet.zeros(arch)
        # member 1 has rows far outside the ball when the constraint binds
        scale = 3.0 if binding and i == 1 else 0.1
        net.set_theta(scale * gen.normal(size=net.param_count))
        nets.append(net)
    stack = VelocityNet.stack(nets)
    before = stack.get_theta()
    stack.project_constraints()
    assert (stack.theta != before).any() == binding
    for i, net in enumerate(nets):
        assert (stack.member(i).theta == net.project_constraints().theta).all()
    assert stack.max_row_l1() <= 1.5 + 1e-12


def test_stack_layout_and_members():
    arch = _arch(dim=2, hidden=(4, 3), V=3.0)
    nets = [VelocityNet.init(arch, RngStream(30, i)) for i in range(3)]
    stack = VelocityNet.stack(nets)
    assert stack.theta.shape == (3, arch.param_count)
    assert [w.shape for w in stack.weights] == [(3, 4, 4), (3, 3, 5), (3, 2, 4)]
    assert all(np.shares_memory(w, stack.theta) for w in stack.weights)
    assert not any(np.shares_memory(stack.theta, n.theta) for n in nets)
    for i, net in enumerate(nets):
        member = stack.member(i)
        assert member.theta.shape == (arch.param_count,)
        assert (member.theta == net.theta).all()
        assert not np.shares_memory(member.theta, stack.theta)
    # the same points through every member at once
    x = np.array([[0.3, -0.7], [1.0, 2.0]])
    t = np.array([0.1, 0.8])
    out = stack(x, t)
    assert out.shape == (3, 2, 2)
    assert all((out[i] == nets[i](x, t)).all() for i in range(3))
    assert all((stack(x[0], t[0])[i] == nets[i](x[0], t[0])).all() for i in range(3))
    back = pickle.loads(pickle.dumps(stack))
    assert (back.theta == stack.theta).all()
    assert all(np.shares_memory(w, back.theta) for w in back.weights)
    with pytest.raises(ValueError):
        VelocityNet.stack([nets[0], VelocityNet.zeros(_arch(dim=2, hidden=(4,)))])
    with pytest.raises(ValueError):
        VelocityNet.stack([stack])
    with pytest.raises(ValueError):
        VelocityNet.stack([])
    with pytest.raises(ValueError):
        nets[0].member(0)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.5, 4.0))
def test_output_bound_is_exact_after_projection(seed, scale):
    # augmented-bias rows make |v_j| <= V * b hold exactly, not just in expectation
    arch = _arch(dim=2, hidden=(3,), V=2.0, b=1.0)
    net = VelocityNet.zeros(arch)
    gen = np.random.default_rng(seed)
    net.set_theta(scale * gen.normal(size=net.param_count))
    net.project_constraints()
    x = 50.0 * gen.normal(size=(16, 2))   # far outside any training range
    t = gen.uniform(0, 1, size=16)
    out = net(x, t)
    assert np.abs(out).max() <= 2.0 * 1.0 + 1e-12


def test_output_bound_scales_with_act_bound():
    arch = _arch(dim=1, hidden=(4,), activation="softplus_clamped", V=3.0, b=2.0)
    net = VelocityNet.zeros(arch)
    gen = np.random.default_rng(7)
    net.set_theta(5.0 * gen.normal(size=net.param_count))
    net.project_constraints()
    out = net(100.0 * gen.normal(size=(32, 1)), gen.uniform(0, 1, 32))
    assert np.abs(out).max() <= 3.0 * 2.0 + 1e-12


# -- lipschitz bookkeeping ------------------------------------------------------------


def _bound_inputs(arch, m_disp=0.0):
    return BoundInputs.from_architecture(arch, mu=1.0, n=1, m_disp=m_disp)


def test_lipschitz_report_frozen_arithmetic():
    inp = _bound_inputs(_arch(dim=1, hidden=(8,), V=4.0), m_disp=6.0)
    assert inp.L_theta == 32.0                 # C_ARCH * D * (L_phi V)^D = 1*2*16
    assert inp.L_ell == 20.0                   # 2 (M0 + M_disp), M0 = V b = 4
    assert _bound_inputs(_arch(dim=1, hidden=(8, 8), V=4.0)).L_theta == 3.0 * 64.0
    # sigmoid folds L_phi = 1/4 into the product
    sig = _arch(dim=1, hidden=(8,), activation="sigmoid", V=4.0)
    assert _bound_inputs(sig).L_theta == 2.0


def test_loss_lipschitz_helper():
    # 2 (M0 + M_disp): the output bound M0 = V b plus the displacement bound
    arch = _arch(dim=1, hidden=(8,), V=4.0)
    assert _bound_inputs(arch).L_ell == 8.0
    assert _bound_inputs(arch, m_disp=6.0).L_ell == 20.0
    with pytest.raises(ValueError):
        _bound_inputs(_arch(), m_disp=-1.0)


def test_contractive_budget_bounds_state_lipschitz():
    # V <= 1 with tanh keeps every layer 1-Lipschitz, so the state constant
    # (L_phi V)^(D-1) is a true bound on measured sup-norm ratios
    arch = _arch(dim=2, hidden=(5, 4), V=0.8)
    state_lipschitz = (arch.act().lipschitz * arch.l1_budget) ** (arch.depth - 1)
    net = VelocityNet.init(arch, RngStream(3))
    gen = np.random.default_rng(3)
    t = 0.4
    for _ in range(50):
        x = gen.normal(size=2) * 3
        y = x + gen.normal(size=2) * 0.1
        num = np.abs(net(x, t) - net(y, t)).max()
        den = np.abs(x - y).max()
        assert num <= state_lipschitz * den + 1e-12


def test_layerwise_product_bounds_measured_slope():
    # V > 1: per-layer row norms give |f(x)-f(y)| <= prod_k ||W_k||_row * L_phi^(D-1)
    arch = _arch(dim=1, hidden=(6,), V=4.0)
    net = VelocityNet.init(arch, RngStream(5))
    prod = 1.0
    for w in net.weights:
        prod *= float(np.abs(w).sum(axis=1).max())
    gen = np.random.default_rng(5)
    for _ in range(50):
        x = gen.normal(size=1) * 2
        y = x + gen.normal(size=1) * 0.05
        num = np.abs(net(x, 0.5) - net(y, 0.5)).max()
        assert num <= prod * np.abs(x - y).max() + 1e-12


# -- forward semantics ----------------------------------------------------------------


def test_call_single_and_batch_agree():
    net = VelocityNet.init(_arch(dim=2, hidden=(4,)), RngStream(2))
    x = np.array([[0.3, -0.7], [1.0, 2.0]])
    t = np.array([0.1, 0.8])
    batch_out = net(x, t)
    assert batch_out.shape == (2, 2)
    for i in range(2):
        assert np.allclose(net(x[i], t[i]), batch_out[i])


def test_call_validates_inputs():
    net = VelocityNet.init(_arch(dim=1, hidden=(3,)), RngStream(2))
    with pytest.raises(ValueError):
        net(np.array([np.nan]), 0.5)
    with pytest.raises(ValueError):
        net(np.array([0.0]), 1.5)
    with pytest.raises(ValueError):
        net(np.array([0.0]), -0.1)
    with pytest.raises(ValueError):
        net(np.zeros((2, 2, 1)), 0.5)
    with pytest.raises(ValueError):
        net(np.zeros((3, 1)), np.zeros(2))


# -- gradients ------------------------------------------------------------------------


def test_gradient_matches_finite_diff():
    for arch in [_arch(dim=1, hidden=(4,)),
                 _arch(dim=2, hidden=(3, 3), activation="sigmoid"),
                 _arch(dim=1, hidden=(5,), activation="softplus_clamped", b=4.0)]:
        net = VelocityNet.init(arch, RngStream(11))
        batch = _batch(arch.dim, 8, seed=11)
        loss, grad = net.loss_and_grad(batch)
        assert loss == pytest.approx(net.loss(batch), rel=1e-12)
        fd = finite_diff_grad(net, batch)
        denom = max(1.0, float(np.linalg.norm(fd)))
        assert np.linalg.norm(grad - fd) / denom < 1e-6
        # the stacked probes are the one-at-a-time central differences
        for j in (0, net.param_count - 1):
            probe = net.copy()
            probe.theta[j] += 1e-5
            lp = probe.loss(batch)
            probe.theta[j] = net.theta[j] - 1e-5
            assert fd[j] == (lp - probe.loss(batch)) / 2e-5
        # a stack of K: every member's loss and gradient are its solo ones,
        # bit for bit, and pass the same gradient check
        for K in (1, 3):
            nets = [VelocityNet.init(arch, RngStream(11, i)) for i in range(K)]
            batches = [_batch(arch.dim, 8, seed=12 + i) for i in range(K)]
            stack = VelocityNet.stack(nets)
            stacked = CoupledBatch.stack(batches)
            losses, grads = stack.loss_and_grad(stacked)
            assert losses.shape == (K,) and grads.shape == (K, arch.param_count)
            assert (stack.loss(stacked) == [n.loss(b) for n, b in zip(nets, batches)]).all()
            for i in range(K):
                solo_loss, solo_grad = nets[i].loss_and_grad(batches[i])
                assert losses[i] == solo_loss and (grads[i] == solo_grad).all()
                fd = finite_diff_grad(stack.member(i), batches[i])
                denom = max(1.0, float(np.linalg.norm(fd)))
                assert np.linalg.norm(grads[i] - fd) / denom < 1e-6


def test_sample_weights_semantics():
    net = VelocityNet.init(_arch(dim=1, hidden=(4,)), RngStream(13))
    batch = _batch(1, 6, seed=13)
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    loss_w, grad_w = net.loss_and_grad(batch, sample_weights=signs)
    res = net(batch.xt, batch.t) - batch.disp
    per = (res * res).sum(axis=1)
    assert loss_w == pytest.approx(float((signs * per).mean()), rel=1e-12)
    # all-ones weights reproduce the plain path
    loss_1, grad_1 = net.loss_and_grad(batch, sample_weights=np.ones(6))
    loss_p, grad_p = net.loss_and_grad(batch)
    assert loss_1 == pytest.approx(loss_p, rel=1e-15)
    assert np.allclose(grad_1, grad_p)
    # signed gradient against a finite-difference of the signed objective
    theta = net.get_theta()
    h = 1e-6
    fd = np.empty_like(theta)
    probe = net.copy()
    for j in range(theta.size):
        tp = theta.copy(); tp[j] += h
        probe.set_theta(tp)
        lp = probe.loss_and_grad(batch, sample_weights=signs)[0]
        tm = theta.copy(); tm[j] -= h
        probe.set_theta(tm)
        lm = probe.loss_and_grad(batch, sample_weights=signs)[0]
        fd[j] = (lp - lm) / (2 * h)
    assert np.linalg.norm(grad_w - fd) / max(1.0, np.linalg.norm(fd)) < 1e-6


@pytest.mark.parametrize("arch", [
    _arch(dim=1, hidden=(4,)),
    _arch(dim=2, hidden=(3, 5), activation="sigmoid"),
    _arch(dim=1, hidden=(5,), activation="softplus_clamped", b=1.5),
], ids=["tanh", "sigmoid", "softplus"])
def test_stacked_sample_weights_match_members(arch):
    # a stack on one batch with (K, n) weights, one row per member: every
    # member's loss and gradient are its solo ones with its row, bit for bit
    K, n = 4, 37
    nets = [VelocityNet.init(arch, RngStream(21, i)) for i in range(K)]
    batch = _batch(arch.dim, n, seed=21)
    wts = RngStream(22).gen.integers(0, 2, size=(K, n)) * 2.0 - 1.0
    losses, grads = VelocityNet.stack(nets).loss_and_grad(batch, sample_weights=wts)
    assert losses.shape == (K,) and grads.shape == (K, arch.param_count)
    for i in range(K):
        solo_loss, solo_grad = nets[i].loss_and_grad(batch, sample_weights=wts[i])
        assert losses[i] == solo_loss
        assert grads[i].tobytes() == solo_grad.tobytes()
    with pytest.raises(ValueError, match="sample_weights"):
        nets[0].loss_and_grad(batch, sample_weights=wts)


def test_sample_weights_error_names_each_accepted_shape_once():
    # a single net takes (n,) weights only; a stack takes (n,) or (K, n)
    net = VelocityNet.init(_arch(dim=1, hidden=(4,)), RngStream(24))
    batch = _batch(1, 5, seed=24)
    with pytest.raises(ValueError, match=r"shape \(3, 5\), expected \(5,\)$"):
        net.loss_and_grad(batch, sample_weights=np.ones((3, 5)))
    stack = VelocityNet.stack([net, net])
    with pytest.raises(ValueError,
                       match=r"shape \(3, 5\), expected \(5,\) or \(2, 5\)$"):
        stack.loss_and_grad(batch, sample_weights=np.ones((3, 5)))


def test_loss_of_zero_net_is_mean_square_displacement():
    net = VelocityNet.zeros(_arch(dim=2, hidden=(3,)))
    batch = _batch(2, 32, seed=4)
    expect = float(np.mean(np.sum(batch.disp ** 2, axis=1)))
    assert net.loss(batch) == pytest.approx(expect, rel=1e-12)


def test_per_member_results_of_a_stack():
    # sample_losses and row_l1 give one row or value per member, each equal
    # to the member's own; loss is the mean of sample_losses
    arch = _arch(dim=2, hidden=(4,))
    batch = _batch(2, 16, seed=7)
    nets = [VelocityNet.init(arch, RngStream(3, i)) for i in range(3)]
    stack = VelocityNet.stack(nets)
    losses, rows = stack.sample_losses(batch), stack.row_l1()
    assert losses.shape == (3, 16) and rows.shape == (3,)
    for i, net in enumerate(nets):
        res = net.residual(batch)
        assert net.sample_losses(batch).tobytes() == losses[i].tobytes() \
            == np.sum(res * res, axis=-1).tobytes()
        assert net.loss(batch) == np.mean(losses[i]) == stack.loss(batch)[i]
        assert isinstance(net.row_l1(), float) and net.row_l1() == rows[i]


def test_residual_is_the_call_minus_the_displacement():
    # the Rademacher estimator reads residuals without re-checking its batch
    arch = _arch(dim=2, hidden=(4,))
    batch = _batch(2, 16, seed=6)
    net = VelocityNet.init(arch, RngStream(1))
    assert net.residual(batch).tobytes() \
        == (net(batch.xt, batch.t) - batch.disp).tobytes()
    stack = VelocityNet.stack([net, VelocityNet.init(arch, RngStream(2))])
    res = stack.residual(batch)
    assert res.shape == (2, 16, 2)
    assert res.tobytes() == (stack(batch.xt, batch.t) - batch.disp).tobytes()


# -- a reference kernel that does not share the activation layout --------------------


def _reference_forward(arch, theta, x, t):
    """One net, layer by layer on (n, features) arrays: a @ W[:, :-1]^T +
    b W[:, -1]. Returns the output, every layer's input and every
    activated layer's pre-activation."""
    weights = VelocityNet(arch, theta).weights
    act, b = arch.act(), arch.act_bound
    a = np.column_stack([x, t])
    inputs, pres = [], []
    for w in weights[:-1]:
        inputs.append(a)
        pres.append(a @ w[:, :-1].T + b * w[:, -1])
        a = act.value(pres[-1])
    inputs.append(a)
    w = weights[-1]
    return a @ w[:, :-1].T + b * w[:, -1], inputs, pres


def _reference_loss_and_grad(arch, theta, t, xt, disp, wts):
    """Loss and flat gradient of (1/n) sum_i w_i ||v(xt_i, t_i) - disp_i||^2
    for one net, backward layer by layer in the same form."""
    weights = VelocityNet(arch, theta).weights
    act, b = arch.act(), arch.act_bound
    out, inputs, pres = _reference_forward(arch, theta, xt, t)
    n = len(t)
    res = out - disp
    loss = np.sum(wts * np.sum(res * res, axis=1)) / n
    g = 2.0 * res * wts[:, None] / n
    grads = []
    for k in range(len(weights) - 1, -1, -1):
        grads.append(np.column_stack([g.T @ inputs[k], b * g.sum(axis=0)]))
        if k > 0:
            g = (g @ weights[k][:, :-1]) * act.deriv(pres[k - 1], inputs[k])
    return loss, np.concatenate([gk.ravel() for gk in reversed(grads)])


def _assert_close(actual, expected):
    # the kernel sums in another order; a sum that cancels keeps the
    # roundoff of its largest terms, hence the floor at the array's scale
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("mode", ["solo", "stack-shared", "stack-stacked"])
@pytest.mark.parametrize("hidden", [(5,), (4, 3)], ids=["depth2", "depth3"])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "softplus_clamped"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_matches_the_per_layer_reference(dim, activation, hidden, mode):
    # every member and every feature gets its own values, so a swapped
    # member, feature or sample axis in the kernel cannot pass
    K, n = 3, 37
    b = 1.5 if activation == "softplus_clamped" else 1.0
    arch = _arch(dim=dim, hidden=hidden, activation=activation, V=3.0, b=b)
    nets = [VelocityNet.init(arch, RngStream(70 + dim, i)) for i in range(K)]
    for i, net in enumerate(nets):   # nonzero biases, so the bias channel counts
        net.theta += RngStream(71 + dim, i).gen.uniform(-0.3, 0.3, net.param_count)
        net.project_constraints()
    net = nets[0] if mode == "solo" else VelocityNet.stack(nets)
    batches = [_batch(dim, n, seed=72 + i) for i in range(K)]
    batch = CoupledBatch.stack(batches) if mode == "stack-stacked" else batches[0]
    members = range(1) if mode == "solo" else range(K)
    own = [batches[i] if mode == "stack-stacked" else batches[0] for i in members]
    signs = RngStream(73).gen.integers(0, 2, size=(K, n)) * 2.0 - 1.0
    weightings = [None, signs[0]] + ([signs] if mode != "solo" else [])

    def pick(values, i):
        return values if mode == "solo" else values[i]

    if mode != "stack-stacked":
        call = net(batch.xt, batch.t)
        for i in members:
            ref = _reference_forward(arch, nets[i].theta, own[i].xt, own[i].t)[0]
            _assert_close(pick(call, i), ref)
    residual, loss = net.residual(batch), net.loss(batch)
    for i in members:
        ref = _reference_forward(arch, nets[i].theta, own[i].xt, own[i].t)[0]
        _assert_close(pick(residual, i), ref - own[i].disp)
        ref_loss = _reference_loss_and_grad(arch, nets[i].theta, own[i].t,
                                            own[i].xt, own[i].disp, np.ones(n))[0]
        _assert_close(pick(loss, i), ref_loss)
    for wts in weightings:
        losses, grads = net.loss_and_grad(batch, sample_weights=wts)
        for i in members:
            w = np.ones(n) if wts is None else (wts[i] if wts.ndim == 2 else wts)
            ref_loss, ref_grad = _reference_loss_and_grad(
                arch, nets[i].theta, own[i].t, own[i].xt, own[i].disp, w)
            _assert_close(pick(losses, i), ref_loss)
            _assert_close(pick(grads, i), ref_grad)


# -- blocked forward pass ------------------------------------------------------------

_ONE_SHOT = 1 << 62   # a budget no pass reaches: the whole pass is one block


def _row_bytes(arch):
    """Bytes per row of the widest augmented layer input of one net."""
    return 8 * (max(arch.layer_dims[:-1]) + 1)


def _residual_at(net, batch, budget, monkeypatch):
    monkeypatch.setattr(rflab.network, "FORWARD_BLOCK_BYTES", budget)
    return net.residual(batch)


def _stacked_batch(dim, n, k, seed):
    return CoupledBatch.stack([_batch(dim, n, seed=seed + i) for i in range(k)])


@pytest.mark.parametrize("mode", ["solo", "stack-shared", "stack-stacked"])
@pytest.mark.parametrize("hidden", [(24,), (16,), (6, 5), (32, 32)],
                         ids=["24", "16", "6-5", "32-32"])
@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "softplus_clamped"])
def test_blocked_pass_matches_the_one_shot_pass(activation, hidden, mode,
                                                monkeypatch):
    # a budget that gives every architecture the smallest row blocks, 1,024
    # rows, so the row counts below are: just below one block, two blocks,
    # two blocks and a short tail (joined to the last block), two blocks and
    # a tail of its own
    for dim in (1, 2, 3):
        arch = _arch(dim=dim, hidden=hidden, activation=activation, V=3.0)
        nets = [VelocityNet.init(arch, RngStream(40 + dim, i)) for i in range(3)]
        net = nets[0] if mode == "solo" else VelocityNet.stack(nets)
        budget = _row_bytes(arch) * (1024 + 1023)
        for n in (1023, 2048, 2048 + 500, 2048 + 1500):
            batch = (_stacked_batch(dim, n, 3, seed=n) if mode == "stack-stacked"
                     else _batch(dim, n, seed=n))
            blocked = _residual_at(net, batch, budget, monkeypatch)
            whole = _residual_at(net, batch, _ONE_SHOT, monkeypatch)
            assert blocked.tobytes() == whole.tobytes(), (dim, n)
            if mode != "stack-stacked":
                monkeypatch.setattr(rflab.network, "FORWARD_BLOCK_BYTES", budget)
                assert (net(batch.xt, batch.t) - batch.disp).tobytes() \
                    == whole.tobytes(), (dim, n)


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
def test_stack_member_is_its_solo_net_over_several_blocks(stacked):
    # 9,000 rows of width 25 are two row blocks per member at the shipped
    # budget (4,096 rows and 4,904 with the short tail); loss and residual
    # of every member equal its solo net's, bit for bit
    arch = _arch(dim=1, hidden=(24,), V=4.0)
    stack = VelocityNet.stack(VelocityNet.init(arch, RngStream(50, i))
                              for i in range(3))
    n = 9000
    assert n * _row_bytes(arch) > rflab.network.FORWARD_BLOCK_BYTES
    batch = _stacked_batch(1, n, 3, seed=51) if stacked else _batch(1, n, seed=51)
    res, losses = stack.residual(batch), stack.loss(batch)
    for i in range(3):
        own = CoupledBatch(batch.t[i], batch.xt[i], batch.disp[i]) \
            if stacked else batch
        member = stack.member(i)
        assert res[i].tobytes() == member.residual(own).tobytes()
        assert losses[i] == member.loss(own)
        if not stacked:
            assert stack(own.xt, own.t)[i].tobytes() \
                == member(own.xt, own.t).tobytes()


def test_blocked_loss_of_a_big_stack_stays_small(monkeypatch):
    # a sweep's full-data loss at the acceptance shape: 10 members on 8,192
    # rows each through hidden [24]. In one pass its hidden buffers alone were
    # about 31 MB; in blocks the traced peak stays under 4 MB. Traced bytes
    # are checked, never wall time.
    arch = _arch(dim=1, hidden=(24,), V=4.0)
    stack = VelocityNet.stack(VelocityNet.init(arch, RngStream(60, i))
                              for i in range(10))
    batch = _stacked_batch(1, 8192, 10, seed=61)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        losses = stack.loss(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    monkeypatch.setattr(rflab.network, "FORWARD_BLOCK_BYTES", _ONE_SHOT)
    assert losses.tobytes() == stack.loss(batch).tobytes()


def test_loss_and_grad_rejects_empty_batch():
    net = VelocityNet.zeros(_arch())
    empty = CoupledBatch(np.zeros(0), np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        net.loss_and_grad(empty)


# -- serialization --------------------------------------------------------------------


def test_theta_roundtrip():
    net = VelocityNet.init(_arch(dim=2, hidden=(4, 3)), RngStream(21))
    theta = net.get_theta()
    assert theta.size == net.param_count
    other = VelocityNet.zeros(net.arch)
    other.set_theta(theta)
    assert (other.get_theta() == theta).all()
    x = np.array([[0.2, 0.4]])
    assert np.allclose(other(x, 0.3), net(x, 0.3))
    with pytest.raises(ValueError):
        other.set_theta(theta[:-1])


def test_pickle_keeps_one_parameter_buffer():
    net = VelocityNet.init(_arch(dim=2, hidden=(5, 3), V=3.0), RngStream(22))
    back = pickle.loads(pickle.dumps(net))
    assert back.arch == net.arch
    assert (back.get_theta() == net.get_theta()).all()
    assert all(np.shares_memory(w, back.theta) for w in back.weights)
    assert not np.shares_memory(back.theta, net.theta)
    back.theta[0] = 7.0
    assert back.weights[0][0, 0] == 7.0


def test_checkpoint_roundtrip_and_byte_identity(tmp_path):
    net = VelocityNet.init(_arch(dim=2, hidden=(4,), V=3.0), RngStream(23))
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(net, p1, seed=99, step=17, extra={"note": "x"})
    save_checkpoint(net, p2, seed=99, step=17, extra={"note": "x"})
    assert p1.read_bytes() == p2.read_bytes()
    loaded, header = load_checkpoint(p1)
    assert header["format"] == CHECKPOINT_FORMAT
    assert header["seed"] == 99 and header["step"] == 17 and header["note"] == "x"
    assert loaded.arch == net.arch
    assert (loaded.get_theta() == net.get_theta()).all()


def test_checkpoint_rejects_a_stack(tmp_path):
    # the header holds one net's parameter count, so a stack could not load
    stack = VelocityNet.stack([VelocityNet.init(_arch(), RngStream(25, i))
                               for i in range(4)])
    path = tmp_path / "stack.ckpt"
    with pytest.raises(ValueError, match="not a stack"):
        save_checkpoint(stack, path, seed=0, step=0)
    assert not path.exists()


def test_checkpoint_rejects_corruption(tmp_path):
    net = VelocityNet.init(_arch(), RngStream(24))
    path = tmp_path / "c.ckpt"
    save_checkpoint(net, path, seed=0, step=0)
    raw = path.read_bytes()
    header, _, blob = raw.partition(b"\n")
    obj = json.loads(header)
    obj["format"] = "something-else"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(obj).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(bad)
    short = tmp_path / "short.ckpt"
    short.write_bytes(header + b"\n" + blob[:-8])
    with pytest.raises(ValueError, match="length"):
        load_checkpoint(short)


# -- heap layout ---------------------------------------------------------------------

_FAULT_PROBE = """
import resource
import numpy as np
import rflab

def churn(reps):
    for _ in range(reps):
        a, b = np.ones(40_000), np.ones(40_000)
        del a, b

churn(20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn(200)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc malloc thresholds")
def test_import_rflab_stops_the_free_and_fault_cycle():
    # two 320 KB buffers freed per pass, as in a stacked forward pass: under
    # glibc's adaptive thresholds each pass handed them back to the kernel and
    # faulted them in again (24,800 minor faults over these 200 passes)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rflab.__file__)))
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert int(run.stdout) < 1000


# -- BLAS threads ----------------------------------------------------------------------

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_BLAS_PROBE = """
import ctypes, glob, json, os, sys
import rflab.network
import numpy as np

threads = None
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = (), ctypes.c_int
        threads = get()
print(json.dumps({"env": {v: os.environ.get(v) for v in sys.argv[1:]},
                  "threads": threads}))
"""


def test_importing_any_rflab_module_pins_blas_to_one_thread():
    # the package pins BLAS, so a module imported on its own, without the
    # cli, runs single-threaded too
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rflab.__file__))
    run = subprocess.run([sys.executable, "-c", _BLAS_PROBE, *_BLAS_VARS],
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    assert report["env"] == {v: "1" for v in _BLAS_VARS}
    # numpy's bundled OpenBLAS, where this numpy ships one
    assert report["threads"] in (None, 1)
