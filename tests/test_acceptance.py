"""Acceptance battery: eleven end-to-end checks, one test per criterion.

Each test prints a single summary line with the measured quantities and
asserts the documented window plus its runtime budget. The rate sweep that
feeds criteria 3 and 4 runs once per session through the command line
driver, exactly as a user would invoke it.
"""

import functools
import json
import time

import mpmath
import numpy as np
import pytest
from scipy.stats import spearmanr

from oracles_support import (QuadraticProblem, conditional_mean_mc,
                             pair_subgaussian_sigma, sgd_rate_check)
from rflab.bounds import (BoundInputs, dudley_local_rad,
                          empirical_local_rademacher, psi_and_fixed_point,
                          r_star_closed)
from rflab.cli import EXIT_OK, main
from rflab.distributions import DistributionSpec, draw_coupled, truncation_level
from rflab.linalg_rng import RngStream
from rflab.metrics import w2_empirical
from rflab.network import NetArchitecture, VelocityNet, finite_diff_grad
from rflab.oracles import (LowerBoundInstance, posterior_weights,
                           tv_distance_mixtures, velocity_separation,
                           vstar_gaussian)
from rflab.sampler import euler_integrate, reflow, straightness
from rflab.training import TrainConfig


def _line(k: int, detail: str) -> None:
    print(f"criterion {k:02d}: PASS  {detail}")


def _gauss1d():
    pi0 = DistributionSpec("gaussian", 1, mean=np.zeros(1), std=1.0)
    pi1 = DistributionSpec("gaussian", 1, mean=np.array([2.0]), std=1.0)
    return pi0, pi1


# -- shared rate sweep (criteria 3 and 4) -------------------------------------------

_SWEEP_CONFIG = {
    "task": "gaussian_1d",
    "seed": 20260819,
    "train": {"batch_size": 64, "eta": 0.05, "c": 32.0, "gamma": 320.0},
    "arch": {"dim": 1, "hidden": [24], "activation": "tanh",
             "l1_budget": 8.0},
    "sweep": {"grid": [128, 256, 512, 1024, 2048, 4096, 8192],
              "trials": 10, "epochs": 40, "proxy_n": 65536,
              "proxy_epochs": 60, "proxy_batch": 512,
              "eval_samples": 4096, "euler_steps": 250,
              "steps_exponent": 1.5},
}


@pytest.fixture(scope="session")
def rate_sweep(tmp_path_factory):
    """One full sweep over n = 2^7 .. 2^13 with 10 trials per cell."""
    root = tmp_path_factory.mktemp("rate_sweep")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(_SWEEP_CONFIG), encoding="utf-8")
    out = root / "out"
    t0 = time.perf_counter()
    code = main(["--config", str(cfg), "--out", str(out), "sweep"])
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    with open(out / "sweep_fit.json", encoding="utf-8") as fh:
        fit = json.load(fh)
    return fit, elapsed


# -- criteria ------------------------------------------------------------------------


def test_c01_gradient_correctness():
    t0 = time.perf_counter()
    archs = [
        NetArchitecture(dim=1, hidden=(4,), activation="tanh", l1_budget=2.0),
        NetArchitecture(dim=2, hidden=(5, 4), activation="sigmoid",
                        l1_budget=3.0),
        NetArchitecture(dim=3, hidden=(6,), activation="softplus_clamped",
                        l1_budget=2.0, act_bound=2.0),
        NetArchitecture(dim=2, hidden=(8, 8), activation="tanh",
                        l1_budget=1.5),
    ]
    worst = 0.0
    for seed in range(20):
        for i, arch in enumerate(archs):
            s = RngStream(5000 + seed).derive(i)
            net = VelocityNet.init(arch, s)
            pi = DistributionSpec("gaussian", arch.dim,
                                  mean=np.zeros(arch.dim), std=1.0)
            data = draw_coupled(s.derive(1), pi, pi, 8)
            g = net.loss_and_grad(data)[1]
            fd = finite_diff_grad(net, data)
            rel = float(np.linalg.norm(g - fd)
                        / max(float(np.linalg.norm(fd)), 1e-12))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 10.0
    _line(1, f"backprop vs finite differences, worst rel err {worst:.3e} "
             f"over 20 seeds x 4 architectures ({elapsed:.1f}s)")


def test_c02_oracle_fidelity():
    t0 = time.perf_counter()
    spec = _gauss1d()
    grid = np.linspace(-2.0, 4.0, 25)
    worst_z = 0.0
    for t in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        means, stderr, counts = conditional_mean_mc(
            *spec, t, grid, 200_000, RngStream(58).derive(int(t * 10)))
        exact = vstar_gaussian(*spec, grid.reshape(-1, 1), t).reshape(-1)
        # populated = enough draws for the plug-in stderr to be meaningful
        pop = counts >= 50
        assert pop.sum() >= 20
        z = np.abs(means[pop] - exact[pop]) / stderr[pop]
        worst_z = max(worst_z, float(z.max()))
    assert worst_z < 3.0

    pi0, pi1 = _gauss1d()
    root = RngStream(77)
    z0 = pi0.sample(root.derive(1), 4096)
    z1, _ = euler_integrate(functools.partial(vstar_gaussian, *spec), z0, 1000)
    ref = pi1.sample(root.derive(2), 4096)
    w2 = w2_empirical(z1, ref)
    elapsed = time.perf_counter() - t0
    assert w2 < 5e-2
    assert elapsed < 60.0
    _line(2, f"binned MC worst |z| {worst_z:.2f} < 3, exact-field pushforward "
             f"W2 {w2:.4f} < 0.05 ({elapsed:.1f}s)")


def test_c03_excess_risk_rate(rate_sweep):
    fit, elapsed = rate_sweep
    assert fit["failures"] == 0
    slope = fit["fits"]["excess_risk"]["slope"]
    assert -1.35 <= slope <= -0.65
    assert elapsed < 900.0
    _line(3, f"excess risk slope {slope:.3f} in [-1.35, -0.65] over "
             f"n = 128..8192, 10 trials/n ({elapsed:.0f}s)")


def test_c04_wasserstein_rate(rate_sweep):
    fit, _ = rate_sweep
    slope = fit["fits"]["w2_corrected"]["slope"]
    assert -0.75 <= slope <= -0.25
    _line(4, f"baseline-corrected W2 slope {slope:.3f} in [-0.75, -0.25], "
             f"same sweep as criterion 3")


def test_c05_bound_formulas():
    t0 = time.perf_counter()
    assert 705 * 288 == 203040
    mpmath.mp.dps = 40
    worst = 0.0
    ratios = []
    points = 0
    for P in (2, 5, 10, 20, 50):
        for n in (10 ** 4, 10 ** 6):
            for B in (0.04, 0.25, 1.0, 3.0, 8.0):
                inp = BoundInputs(P=P, n=n, B=B, L_ell=1.0, mu=1.0,
                                  L_theta=1.0)
                closed = r_star_closed(inp)
                hp = (288 * mpmath.mpf(B) ** 2 * P / n) \
                    * (mpmath.log(mpmath.mpf(n) / P) + 1)
                worst = max(worst, abs(closed - float(hp)) / float(hp))
                _, r_star, r_root = psi_and_fixed_point(inp)
                ratios.append(r_root / r_star)
                points += 1
    elapsed = time.perf_counter() - t0
    assert points == 50
    assert worst <= 1e-10
    assert all(1.0 / 3.0 <= q <= 3.0 for q in ratios)
    assert elapsed < 5.0
    _line(5, f"closed-form fixed point vs 40-digit arithmetic, worst rel "
             f"{worst:.1e} on 50 inputs; bisection/closed in "
             f"[{min(ratios):.2f}, {max(ratios):.2f}] ({elapsed:.1f}s)")


def test_c06_rademacher_sandwich():
    t0 = time.perf_counter()
    arch = NetArchitecture(dim=1, hidden=(8,), activation="tanh",
                           l1_budget=2.0)
    assert arch.param_count <= 200
    pi0, pi1 = _gauss1d()
    n = 512
    data = draw_coupled(RngStream(3), pi0, pi1, n)
    ref = VelocityNet.init(arch, RngStream(1))
    sampler = lambda rng: VelocityNet.init(arch, rng)
    m_disp = float(np.max(np.linalg.norm(data.disp, axis=1)))
    inputs = BoundInputs.from_architecture(arch, mu=1.0, n=n, m_disp=m_disp)

    rs = np.logspace(-3, 1, 10)
    emp, dud = [], []
    warm = None
    for r in rs:
        # chained warm starts keep the ascent monotone across the r grid
        rep = empirical_local_rademacher(
            sampler, ref, data, float(r), n_signs=4, n_restarts=2,
            rng=RngStream(9), l_ell=inputs.L_ell, ascent_steps=40,
            init_thetas=warm)
        warm = rep.best_thetas
        emp.append(rep.value)
        dud.append(dudley_local_rad(inputs, float(r)))
    emp, dud = np.array(emp), np.array(dud)
    rho = float(spearmanr(rs, emp).statistic)
    elapsed = time.perf_counter() - t0
    assert np.all(emp <= dud)
    assert rho >= 0.9
    assert elapsed < 300.0
    _line(6, f"empirical estimate below chaining bound at all 10 radii "
             f"(max share {float(np.max(emp / dud)):.3f}), Spearman "
             f"{rho:.3f} ({elapsed:.0f}s)")


def test_c07_lower_bound_construction():
    t0 = time.perf_counter()
    details = []
    for R in (8.0, 10.0, 16.0):
        inst = LowerBoundInstance(sigma=1.0, R=R, epsilon=0.1, c_interval=1.0)
        tv = tv_distance_mixtures(inst)
        assert tv <= inst.eta + 1e-8
        sep = velocity_separation(inst)
        # mass-weighted separation clears 0.9 R for every R; the pointwise
        # minimum does too once the modes stop overlapping the interval edge
        assert sep.interval_rms >= 0.9 * R
        if R >= 10.0:
            assert sep.pointwise_min >= 0.9 * R
        grid = np.linspace(-R - 4.0, R + 4.0, 1001)
        for hyp in (1, 2):
            w_bg, w_sig = posterior_weights(inst, hyp, grid)
            assert np.all(w_bg >= 0.0) and np.all(w_bg <= 1.0)
            assert np.all(w_sig >= 0.0) and np.all(w_sig <= 1.0)
            assert np.max(np.abs(w_bg + w_sig - 1.0)) <= 1e-12
        details.append(f"R={R:g}: tv/eta {tv / inst.eta:.4f}, "
                       f"rms/R {sep.interval_rms / R:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(7, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_c08_sgd_rate():
    t0 = time.perf_counter()
    problem = QuadraticProblem(lambdas=np.array([1.0, 2.0]),
                               theta0=np.array([2.0, -1.0]), noise_var=0.5)
    cfg = TrainConfig(batch_size=2, steps=1000, c=3.0,
                      gamma=6.0)
    rep = sgd_rate_check(problem, cfg, n_seeds=20)
    elapsed = time.perf_counter() - t0
    assert rep.n_seeds == 20
    assert -1.3 <= rep.slope <= -0.7
    assert rep.envelope_ok
    assert elapsed < 30.0
    _line(8, f"mean gap slope {rep.slope:.3f} in [-1.3, -0.7] over the final "
             f"decade, 20 seeds, dominated by 1.5x the recursion envelope "
             f"({elapsed:.1f}s)")


def test_c09_reflow_straightens_and_does_not_hurt_w2():
    t0 = time.perf_counter()
    pi0 = DistributionSpec("gaussian", 2, mean=np.zeros(2), std=1.0)
    arch = NetArchitecture(dim=2, hidden=(16,), activation="tanh",
                           l1_budget=6.0)
    wins_straight = 0
    wins_w2 = 0
    for seed in range(10):
        pi1 = DistributionSpec("gaussian_mixture", 2, components=[
            (0.5, np.array([-2.0, 0.0]), 0.5),
            (0.5, np.array([2.0, 0.0]), 0.5)])
        root = RngStream(1000 + seed)
        data = draw_coupled(root.derive(1), pi0, pi1, 2048)
        net = VelocityNet.init(arch, root.derive(2))
        cfg = TrainConfig(batch_size=64, steps=600,
                          schedule="diminishing", eta=0.05, c=8.0,
                          gamma=80.0, record_every=600)
        from rflab.training import train
        train(net, data, cfg, seed=seed)

        z0 = pi0.sample(root.derive(3), 256)
        _, traj0 = euler_integrate(net, z0, 64, record=True)
        s_before = straightness(traj0)
        ref = pi1.sample(root.derive(4), 256)
        w_before = w2_empirical(euler_integrate(net, z0, 1)[0], ref)

        draws_frozen = pi1.draws
        net1 = reflow(net, 0, pi0, 2048, cfg, root.derive(5),
                      integrate_steps=64, seed=seed)
        assert pi1.draws == draws_frozen  # reflow consumes no target draws

        _, traj1 = euler_integrate(net1, z0, 64, record=True)
        s_after = straightness(traj1)
        w_after = w2_empirical(euler_integrate(net1, z0, 1)[0], ref)
        wins_straight += s_after < s_before
        wins_w2 += w_after <= w_before
    elapsed = time.perf_counter() - t0
    assert wins_straight >= 8
    assert wins_w2 >= 8
    assert elapsed < 300.0
    _line(9, f"one distillation round: straightness down in "
             f"{wins_straight}/10 seeds, one-step W2 not worse in "
             f"{wins_w2}/10, target draw counter frozen ({elapsed:.0f}s)")


def test_c10_truncation_tail_budget():
    t0 = time.perf_counter()
    pi0, pi1 = _gauss1d()
    n = 10_000
    sigma = pair_subgaussian_sigma(pi0.std, pi1.std)
    M = truncation_level(sigma, n)
    data = draw_coupled(RngStream(123), pi0, pi1, n)
    exceed = int(np.sum(np.linalg.norm(data.disp, axis=1) > M))
    delta_n = 1.0 / (2.0 * n * n)
    budget = 5.0 * delta_n * n * n
    elapsed = time.perf_counter() - t0
    assert exceed <= budget
    assert elapsed < 5.0
    _line(10, f"{exceed} of {n} displacement draws above M = {M:.2f}, "
              f"budget {budget:.1f} ({elapsed:.2f}s)")


_DET_CONFIG = {
    "task": "gaussian_1d",
    "seed": 9,
    "train": {"batch_size": 64, "eta": 0.05},
    "sweep": {"grid": [32, 64, 128, 256, 1024], "trials": 2, "epochs": 8,
              "proxy_n": 4096, "proxy_epochs": 8, "proxy_batch": 512,
              "eval_samples": 256, "euler_steps": 25,
              "steps_exponent": 1.0},
}


def _sweep_csv_lines_without_runtime(path):
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("n,"):
                lines.append(line)
            else:
                lines.append(line.rsplit(",", 1)[0])
    return lines


def test_c11_sweep_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_DET_CONFIG), encoding="utf-8")
    outs = {}
    for name, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs), "sweep"]) == EXIT_OK
        outs[name] = out
    # runtime_ms is the one wall-clock column; all else must match exactly
    ref = _sweep_csv_lines_without_runtime(outs["a"] / "sweep.csv")
    assert _sweep_csv_lines_without_runtime(outs["b"] / "sweep.csv") == ref
    assert _sweep_csv_lines_without_runtime(outs["c"] / "sweep.csv") == ref
    for name in ("sweep_fit.json", "sweep_failures.csv"):
        ref_bytes = (outs["a"] / name).read_bytes()
        assert (outs["b"] / name).read_bytes() == ref_bytes, name
        assert (outs["c"] / name).read_bytes() == ref_bytes, name
    _line(11, "sweep byte-identical across reruns and --jobs 1 vs 8 "
              "(runtime column excluded)")
