import numpy as np
import pytest

from oracles_support import (QuadraticProblem, closed_envelope_constant,
                             recursion_envelope, sgd_rate_check)
from rflab.distributions import CoupledBatch, DistributionSpec, draw_coupled
from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet
from rflab.training import (_SHUFFLE_TAG, DivergenceError, TrainConfig,
                            step_size, train)


def _arch(V=4.0):
    return NetArchitecture(dim=1, hidden=(8,), l1_budget=V)


def _data(n, seed=0, mu1=2.0):
    pi0 = DistributionSpec("gaussian", 1, mean=np.zeros(1), std=1.0)
    pi1 = DistributionSpec("gaussian", 1, mean=np.array([mu1]), std=1.0)
    return draw_coupled(RngStream(seed), pi0, pi1, n)


def _point_mass_data(n, seed=0):
    pi0 = DistributionSpec("empirical", 1, points=np.array([[0.0]]))
    pi1 = DistributionSpec("empirical", 1, points=np.array([[2.0]]))
    return draw_coupled(RngStream(seed), pi0, pi1, n)


# -- config validation ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0, steps=10)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=4, steps=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=4, steps=10, schedule="cosine")
    with pytest.raises(ValueError):
        TrainConfig(batch_size=4, steps=10, record_every=0)
    # diminishing schedule needs c > 1/mu_hat and gamma >= kappa_hat * c
    with pytest.raises(ValueError):
        TrainConfig(batch_size=4, steps=10, c=1.0, mu_hat=0.5)
    TrainConfig(batch_size=4, steps=10, c=4.0, mu_hat=0.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=4, steps=10, c=4.0, gamma=10.0,
                    kappa_hat=5.0)
    # constant schedule needs eta <= 1/kappa_hat
    with pytest.raises(ValueError):
        TrainConfig(batch_size=4, steps=10, schedule="constant",
                    eta=0.5, kappa_hat=4.0)
    TrainConfig(batch_size=4, steps=10, schedule="constant",
                eta=0.25, kappa_hat=4.0)


def test_step_size_formulas():
    cfg_c = TrainConfig(batch_size=4, steps=10,
                        schedule="constant", eta=0.07)
    assert step_size(cfg_c, 0) == 0.07
    assert step_size(cfg_c, 99) == 0.07
    cfg_d = TrainConfig(batch_size=4, steps=10, c=4.0, gamma=40.0)
    assert step_size(cfg_d, 0) == 0.1
    assert step_size(cfg_d, 60) == pytest.approx(4.0 / 100.0)


# -- the training loop ----------------------------------------------------------------


def test_train_is_deterministic():
    data = _data(64, seed=5)
    cfg = TrainConfig(batch_size=16, steps=40)
    net_a = VelocityNet.init(_arch(), RngStream(2))
    net_b = net_a.copy()
    tr_a = train(net_a, data, cfg, seed=9)
    tr_b = train(net_b, data, cfg, seed=9)
    assert (net_a.get_theta() == net_b.get_theta()).all()
    assert (tr_a.loss == tr_b.loss).all()
    assert (tr_a.grad_norm == tr_b.grad_norm).all()


def test_train_trace_layout():
    data = _data(32, seed=1)
    cfg = TrainConfig(batch_size=8, steps=12, record_every=5)
    net = VelocityNet.init(_arch(), RngStream(0))
    loss0_expected = net.loss(data)
    tr = train(net, data, cfg, seed=3)
    assert tr.step.tolist() == [0, 5, 10, 11]
    assert tr.initial_loss == pytest.approx(loss0_expected, rel=1e-12)
    assert tr.final_loss == tr.loss[-1]
    for i, k in enumerate(tr.step):
        assert tr.eta[i] == step_size(cfg, int(k))
    assert (tr.max_row_l1 <= 4.0 + 1e-9).all()
    # the columns of trace.csv: one int64 step column, float64 for the rest
    assert tr.step.dtype == np.int64
    for col in (tr.loss, tr.grad_norm, tr.eta, tr.max_row_l1):
        assert col.dtype == np.float64 and col.shape == tr.step.shape


def test_train_keeps_iterates_feasible():
    data = _data(64, seed=2)
    cfg = TrainConfig(batch_size=8, steps=60, schedule="constant",
                      eta=0.5)
    net = VelocityNet.init(_arch(V=1.5), RngStream(4))
    train(net, data, cfg, seed=1)
    assert net.max_row_l1() <= 1.5 + 1e-9


def test_train_updates_the_parameter_buffer_in_place():
    # the constraint binds at this step size, so both the SGD step and the
    # projection write through the layer views
    data = _data(64, seed=2)
    cfg = TrainConfig(batch_size=8, steps=60, schedule="constant",
                      eta=0.5)
    net = VelocityNet.init(_arch(V=1.5), RngStream(4))
    theta, before = net.theta, net.get_theta()
    train(net, data, cfg, seed=1)
    assert net.theta is theta
    assert all(np.shares_memory(w, net.theta) for w in net.weights)
    assert (np.concatenate([w.ravel() for w in net.weights]) == net.theta).all()
    assert not (net.theta == before).all()
    # a stack keeps its buffer and views through lockstep training too
    stack = VelocityNet.stack([VelocityNet.init(_arch(V=1.5), RngStream(4, i))
                               for i in range(3)])
    theta = stack.theta
    train(stack, CoupledBatch.stack([_data(64, seed=i) for i in range(3)]), cfg,
          seed=(1, 2, 3))
    assert stack.theta is theta
    assert all(np.shares_memory(w, stack.theta) for w in stack.weights)
    assert (np.concatenate([w.reshape(3, -1) for w in stack.weights], axis=1)
            == stack.theta).all()


_LOCKSTEP = {
    # plain SGD under the default diminishing schedule
    "plain": ({}, 4.0, 1.0),
    # the l1 constraint binds on most steps
    "binding": ({"schedule": "constant", "eta": 0.5}, 1.5, 1.0),
    # member 2's loss is infinite at the first record step
    "diverges": ({}, 4.0, 1e300),
    # member 2's first update overflows
    "overflow": ({"schedule": "constant", "eta": 1e10}, 4.0, 1e300),
}


@pytest.mark.parametrize("scenario", sorted(_LOCKSTEP))
def test_lockstep_train_matches_solo_runs(scenario):
    overrides, V, scale = _LOCKSTEP[scenario]
    datas = [_data(64, seed=20 + i) for i in range(4)]
    datas[2].disp[:] *= scale
    nets = [VelocityNet.init(_arch(V), RngStream(5, i)) for i in range(4)]
    seeds = (7, 8, 9, 10)
    cfg = TrainConfig(batch_size=16, steps=40, record_every=7,
                      **overrides)
    stack = VelocityNet.stack(nets)
    with np.errstate(all="ignore"):
        solo = []
        for net, data, seed in zip(nets, datas, seeds):
            try:
                solo.append(train(net, data, cfg, seed=seed))
            except (DivergenceError, FloatingPointError) as e:
                solo.append(e)
        out = train(stack, CoupledBatch.stack(datas), cfg, seed=seeds)
    failed = {"diverges": DivergenceError, "overflow": FloatingPointError}
    assert len(out) == 4
    for i in range(4):
        if i == 2 and scenario in failed:
            assert type(solo[i]) is type(out[i]) is failed[scenario]
            assert str(out[i]) == str(solo[i])
            assert "at step 0" in str(out[i])
            continue
        assert (stack.member(i).theta == nets[i].theta).all()
        for name in ("step", "loss", "grad_norm", "eta", "max_row_l1"):
            assert (getattr(out[i], name) == getattr(solo[i], name)).all(), name
        assert out[i].initial_loss == solo[i].initial_loss
        assert out[i].final_loss == solo[i].final_loss
    if scenario == "binding":
        assert all(tr.max_row_l1[-1] == pytest.approx(1.5) for tr in out)


def _reference_train(net, data, cfg, seeds):
    """Projected SGD written out step by step, with every minibatch gathered
    from the data on its own: the loop `train` must reproduce bit for bit.
    Returns the initial losses and, per record step, (step, full-data losses,
    gradient norms, eta, largest row l1 norm per member)."""
    n, B, K = len(data), cfg.batch_size, len(seeds)
    lead = net.theta.shape[:-1]
    shuffles = [RngStream(seed, _SHUFFLE_TAG) for seed in seeds]

    def permutation():
        return np.stack([s.gen.permutation(n) for s in shuffles]).reshape(lead + (n,))

    loss0 = np.reshape(net.loss(data), -1)
    order, pos, records = permutation(), 0, []
    for k in range(cfg.steps):
        if pos + B > n:   # the tail of an epoch that B does not fill is dropped
            order, pos = permutation(), 0
        _, g = net.loss_and_grad(data.take(order[..., pos:pos + B]))
        pos += B
        eta = step_size(cfg, k)
        net.theta -= eta * g
        assert np.isfinite(net.theta).all()
        net.project_constraints()
        if k % cfg.record_every == 0 or k == cfg.steps - 1:
            rows = np.max([np.abs(w).sum(-1).max(-1) for w in net.weights], axis=0)
            records.append((k, np.reshape(net.loss(data), -1),
                            [float(np.linalg.norm(gi)) for gi in g.reshape(K, -1)],
                            eta, np.reshape(rows, -1)))
    return loss0, records


def _data_in(dim, n, seed):
    pi0 = DistributionSpec("gaussian", dim, mean=np.zeros(dim), std=1.0)
    pi1 = DistributionSpec("gaussian", dim, mean=np.full(dim, 2.0), std=0.5)
    return draw_coupled(RngStream(seed), pi0, pi1, n)


@pytest.mark.parametrize("n", [64, 70])
@pytest.mark.parametrize("binding", [False, True], ids=["plain", "binding"])
@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stack"])
@pytest.mark.parametrize("dim", [1, 2])
def test_train_matches_the_step_by_step_reference(dim, stacked, binding, n):
    # minibatches of 16: four steps per epoch on 64 rows, and on 70 with 6
    # rows dropped, so 23 steps cross five reshuffles
    V = 1.5 if binding else 4.0
    overrides = {"schedule": "constant", "eta": 0.5} if binding else {}
    cfg = TrainConfig(batch_size=16, steps=23, record_every=5, **overrides)
    arch = NetArchitecture(dim=dim, hidden=(6,), l1_budget=V)
    K = 3 if stacked else 1
    nets = [VelocityNet.init(arch, RngStream(80 + dim, i)) for i in range(K)]
    datas = [_data_in(dim, n, seed=90 + i) for i in range(K)]
    seeds = tuple(range(11, 11 + K))
    if stacked:
        net, data, seed = VelocityNet.stack(nets), CoupledBatch.stack(datas), seeds
    else:
        net, data, seed = nets[0], datas[0], seeds[0]
    ref = net.copy()
    loss0, records = _reference_train(ref, data, cfg, seeds)
    traces = train(net, data, cfg, seed=seed)
    traces = traces if stacked else [traces]
    assert net.theta.tobytes() == ref.theta.tobytes()
    for i, tr in enumerate(traces):
        assert tr.step.tolist() == [r[0] for r in records] == [0, 5, 10, 15, 20, 22]
        assert tr.loss.tobytes() == np.array([r[1][i] for r in records]).tobytes()
        assert tr.grad_norm.tobytes() == np.array([r[2][i] for r in records]).tobytes()
        assert tr.eta.tobytes() == np.array([r[3] for r in records]).tobytes()
        assert tr.max_row_l1.tobytes() == np.array([r[4][i] for r in records]).tobytes()
        assert tr.initial_loss == loss0[i] and tr.final_loss == records[-1][1][i]
        if binding:   # the projection acted, so it is pinned too
            assert tr.max_row_l1[-1] == pytest.approx(V)


def test_train_rejects_a_mismatched_stack():
    stack = VelocityNet.stack([VelocityNet.init(_arch(), RngStream(0, i))
                               for i in range(2)])
    stacked = CoupledBatch.stack([_data(32, seed=i) for i in range(2)])
    cfg = TrainConfig(batch_size=8, steps=5)
    for net, data, seed in [(stack, stacked, 3), (stack, stacked, (1, 2, 3)),
                            (stack, _data(32), (1, 2)),
                            (VelocityNet.init(_arch(), RngStream(0)), stacked, 1)]:
        with pytest.raises(ValueError):
            train(net, data, cfg, seed=seed)


def test_train_rejects_a_batch_above_the_rows():
    # n is the data's length, for a single net and for a stack
    cfg = TrainConfig(batch_size=64, steps=5)
    with pytest.raises(ValueError, match="batch_size 64 exceeds the 32 rows"):
        train(VelocityNet.init(_arch(), RngStream(0)), _data(32), cfg)
    stack = VelocityNet.stack([VelocityNet.init(_arch(), RngStream(0, i))
                               for i in range(2)])
    stacked = CoupledBatch.stack([_data(32, seed=i) for i in range(2)])
    with pytest.raises(ValueError, match="batch_size 64 exceeds the 32 rows"):
        train(stack, stacked, cfg, seed=(1, 2))


def test_train_fits_point_mass_coupling():
    # deterministic endpoints: the displacement is the constant 2, which the
    # augmented bias row can represent exactly. Realizable, so constant steps
    # converge; per-sample gradients vanish together at the optimum.
    data = _point_mass_data(64, seed=7)
    cfg = TrainConfig(batch_size=16, steps=2000,
                      schedule="constant", eta=0.5)
    net = VelocityNet.init(_arch(), RngStream(7))
    tr = train(net, data, cfg, seed=7)
    assert tr.final_loss < 1e-4
    assert tr.final_loss < tr.initial_loss


def test_divergence_error():
    data = _data(32, seed=3)
    cfg = TrainConfig(batch_size=8, steps=50,
                      divergence_factor=1e-6)
    net = VelocityNet.init(_arch(), RngStream(3))
    with pytest.raises(DivergenceError, match="exceeded"):
        train(net, data, cfg, seed=3)


# -- quadratic testbed ----------------------------------------------------------------


def _quad(noise=0.5):
    return QuadraticProblem(lambdas=np.array([1.0, 2.0]),
                            theta0=np.array([2.0, -1.0]), noise_var=noise)


def test_quadratic_problem_basics():
    q = _quad(0.0)
    assert q.mu == 1.0 and q.kappa == 2.0
    theta = np.array([2.0, -1.0])
    assert q.loss(theta) == pytest.approx(0.5 * (4.0 + 2.0))
    assert np.allclose(q.grad(theta), [2.0, -2.0])
    assert np.allclose(q.noisy_grad(theta, RngStream(0)), q.grad(theta))
    with pytest.raises(ValueError):
        QuadraticProblem(lambdas=np.array([0.0, 1.0]), theta0=np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticProblem(lambdas=np.array([1.0]), theta0=np.zeros(2))


def test_recursion_envelope_first_step_by_hand():
    q = _quad(0.5)
    cfg = TrainConfig(batch_size=2, steps=2, c=2.0, gamma=4.0)
    env = recursion_envelope(q, cfg, 2)
    eta0 = 2.0 / 4.0
    d0 = q.loss(q.theta0)
    assert env[0] == d0
    assert env[1] == pytest.approx((1 - 1.0 * eta0) * d0
                                   + 0.5 * 2.0 * 0.5 * eta0 ** 2, rel=1e-14)


def test_iterated_envelope_dominated_by_closed_form():
    # two routes to the same decay statement: the iterated recursion must sit
    # under the closed C/(k+gamma) envelope whose constant comes from induction
    q = _quad(0.5)
    cfg = TrainConfig(batch_size=2, steps=500, c=2.0, gamma=4.0)
    env = recursion_envelope(q, cfg, 500)
    C = closed_envelope_constant(q, cfg, env[0])
    ks = np.arange(501)
    assert (env <= C / (ks + cfg.gamma) + 1e-12).all()
    # and the closed constant is exactly max(gamma d0, kappa sigma^2 c^2/(2(mu c - 1)))
    assert C == pytest.approx(max(4.0 * env[0], 2.0 * 0.5 * 4.0 / (2.0 * 1.0)))


def test_closed_envelope_validation():
    q = _quad(0.5)
    cfg_const = TrainConfig(batch_size=2, steps=5,
                            schedule="constant", eta=0.1)
    with pytest.raises(ValueError):
        closed_envelope_constant(q, cfg_const, 1.0)
    cfg_slow = TrainConfig(batch_size=2, steps=5, c=0.5, gamma=4.0)
    with pytest.raises(ValueError):
        closed_envelope_constant(q, cfg_slow, 1.0)


def test_sgd_rate_check_smoke():
    q = _quad(0.5)
    cfg = TrainConfig(batch_size=2, steps=1000, c=3.0, gamma=6.0)
    rep = sgd_rate_check(q, cfg, n_seeds=10)
    assert rep.n_seeds == 10
    assert -1.3 < rep.slope < -0.7
    assert rep.envelope_ok
    assert rep.closed_ok
    assert rep.closed_constant == pytest.approx(
        closed_envelope_constant(q, cfg, q.loss(q.theta0)))
    # deterministic across calls
    rep2 = sgd_rate_check(q, cfg, n_seeds=10)
    assert (rep.mean_delta == rep2.mean_delta).all()
