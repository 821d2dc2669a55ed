"""risk-1d: the c06 Rademacher sandwich through rflab's public API.

On a log grid of radii, the Monte-Carlo lower estimate of the localized
empirical Rademacher complexity is computed with warm starts chained along
the grid, next to the Dudley chaining bound at the same radius. Both go to a
JSON file; the benchmark checks the sandwich and the rank correlation.

rflab functions are looked up through their modules at call time so that the
traced run sees every call.
"""

from __future__ import annotations

import json

import numpy as np

from rflab import bounds, distributions, network
from rflab.linalg_rng import RngStream


def run(seed: int, out: str, radii: int, n: int, n_signs: int,
        n_restarts: int, ascent_steps: int) -> int:
    arch = network.NetArchitecture(dim=1, hidden=(8,), activation="tanh",
                                   l1_budget=2.0)
    pi0 = distributions.DistributionSpec("gaussian", 1, mean=np.zeros(1),
                                         std=1.0)
    pi1 = distributions.DistributionSpec("gaussian", 1, mean=np.array([2.0]),
                                         std=1.0)
    root = RngStream(seed)
    data = distributions.draw_coupled(root.derive(1), pi0, pi1, n)
    ref = network.VelocityNet.init(arch, root.derive(2))
    m_disp = float(np.max(np.linalg.norm(data.disp, axis=1)))
    inputs = bounds.BoundInputs.from_architecture(arch, mu=1.0, n=n,
                                                  m_disp=m_disp)
    rs = [float(r) for r in np.logspace(-3, 1, radii)]
    emp, dud = [], []
    warm = None
    for r in rs:
        rep = bounds.empirical_local_rademacher(
            lambda rng: network.VelocityNet.init(arch, rng), ref, data, r,
            n_signs=n_signs, n_restarts=n_restarts, rng=root.derive(3),
            l_ell=inputs.L_ell, ascent_steps=ascent_steps, init_thetas=warm)
        warm = rep.best_thetas
        emp.append(rep.value)
        dud.append(bounds.dudley_local_rad(inputs, r))
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"r": rs, "empirical": emp, "dudley": dud}, fh, indent=1)
        fh.write("\n")
    return 0
