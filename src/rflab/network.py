"""The constrained velocity-field hypothesis class.

Depth-D feed-forward net on the concatenated input (x, t). Every unit computes
w . z + beta * b where b is the hidden-output bound, and the constraint applies
to the augmented row [w, beta]; because hidden activations live in [-b, b] and
the bias channel is the constant b, every pre-activation after the first layer
obeys |w . z + beta b| <= V * b. That makes the output bound M0 = V * b exact
and keeps the derived Lipschitz constants valid at all times under projected
updates. Layers 1..D-1 carry the bounded activation, layer D is affine.

The forward pass and its gradient are written out by hand (no autodiff) and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .distributions import CoupledBatch
from .linalg_rng import RngStream, as_field_input, l1_project_row

# Architecture constant in the parameter-Lipschitz bound L_theta = C_ARCH * D * (L_phi V)^D.
# The source bound leaves the constant unnamed; we fix 1.0 and report it.
C_ARCH = 1.0


@dataclasses.dataclass(frozen=True)
class Activation:
    name: str
    bound: float       # b: range is [-bound, bound]
    lipschitz: float   # L_phi

    def value(self, z: np.ndarray) -> np.ndarray:
        if self.name == "tanh":
            return np.tanh(z)
        if self.name == "sigmoid":
            return 1.0 / (1.0 + np.exp(-z))
        # softplus clamped to [-b, b]; softplus >= 0 so only the upper clamp binds
        return np.minimum(np.logaddexp(0.0, z), self.bound)

    def deriv(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Derivative, given pre-activation z and activation value a."""
        if self.name == "tanh":
            return 1.0 - a * a
        if self.name == "sigmoid":
            return a * (1.0 - a)
        sp = 1.0 / (1.0 + np.exp(-z))
        return np.where(a < self.bound, sp, 0.0)


def make_activation(name: str, bound: float) -> Activation:
    if name == "tanh":
        if bound != 1.0:
            raise ValueError("tanh has range [-1,1]; act_bound must be 1.0")
        return Activation("tanh", 1.0, 1.0)
    if name == "sigmoid":
        if bound != 1.0:
            raise ValueError("sigmoid fits in [-1,1]; act_bound must be 1.0")
        return Activation("sigmoid", 1.0, 0.25)
    if name == "softplus_clamped":
        if not (bound > 0):
            raise ValueError("act_bound must be > 0")
        return Activation("softplus_clamped", float(bound), 1.0)
    raise ValueError(f"unknown activation: {name!r}")


@dataclasses.dataclass(frozen=True)
class NetArchitecture:
    """dim: ambient dimension d; hidden: widths of the D-1 activated layers;
    l1_budget: the row cap V; act_bound: the hidden-output bound b."""

    dim: int
    hidden: tuple[int, ...]
    activation: str = "tanh"
    l1_budget: float = 4.0
    act_bound: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("need at least one hidden layer of width >= 1 (depth >= 2)")
        if not (self.l1_budget > 0):
            raise ValueError("l1_budget must be > 0")
        make_activation(self.activation, self.act_bound)  # validates the pair
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def depth(self) -> int:
        return len(self.hidden) + 1

    @property
    def layer_dims(self) -> list[int]:
        return [self.dim + 1, *self.hidden, self.dim]

    @property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[k + 1] * (dims[k] + 1) for k in range(len(dims) - 1))

    def act(self) -> Activation:
        return make_activation(self.activation, self.act_bound)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "hidden": list(self.hidden),
            "activation": self.activation,
            "l1_budget": self.l1_budget,
            "act_bound": self.act_bound,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NetArchitecture":
        return cls(
            dim=int(obj["dim"]),
            hidden=tuple(int(h) for h in obj["hidden"]),
            activation=str(obj.get("activation", "tanh")),
            l1_budget=float(obj.get("l1_budget", 4.0)),
            act_bound=float(obj.get("act_bound", 1.0)),
        )


@dataclasses.dataclass(frozen=True)
class LipschitzReport:
    state_lipschitz: float   # (L_phi V)^(D-1), Lipschitz in x
    param_lipschitz: float   # C_ARCH * D * (L_phi V)^D, Lipschitz in theta
    out_bound: float         # M0 = V * b, uniform sup-norm output bound
    loss_lipschitz: float    # 2 * (M0 + M_disp)
    c_arch: float = C_ARCH


def lipschitz_report(arch: NetArchitecture, m_disp: float = 0.0) -> LipschitzReport:
    if m_disp < 0:
        raise ValueError("m_disp must be >= 0")
    act = arch.act()
    lv = act.lipschitz * arch.l1_budget
    m0 = arch.l1_budget * arch.act_bound
    return LipschitzReport(
        state_lipschitz=lv ** (arch.depth - 1),
        param_lipschitz=C_ARCH * arch.depth * lv ** arch.depth,
        out_bound=m0,
        loss_lipschitz=2.0 * (m0 + m_disp),
    )


def loss_lipschitz(out_bound: float, disp_bound: float) -> float:
    """Pointwise-loss Lipschitz constant in the velocity argument."""
    return 2.0 * (out_bound + disp_bound)


def _layer_views(arch: NetArchitecture, flat: np.ndarray) -> list[np.ndarray]:
    """Row-major (out_k, in_k + 1) views, layer by layer, into a flat buffer."""
    dims = arch.layer_dims
    views, pos = [], 0
    for k in range(len(dims) - 1):
        shape = (dims[k + 1], dims[k] + 1)
        views.append(flat[pos:pos + shape[0] * shape[1]].reshape(shape))
        pos += shape[0] * shape[1]
    return views


class VelocityNet:
    """Velocity field v_theta(x, t) with per-row l1-constrained augmented weights.

    theta is the one parameter buffer; weights[k] is a view into it of shape
    (out_k, in_k + 1), and column in_k is the bias coordinate, whose input
    channel is the constant act_bound.
    """

    def __init__(self, arch: NetArchitecture, weights: list[np.ndarray]):
        dims = arch.layer_dims
        if len(weights) != len(dims) - 1:
            raise ValueError("wrong number of weight matrices")
        for k, w in enumerate(weights):
            if w.shape != (dims[k + 1], dims[k] + 1):
                raise ValueError(f"layer {k} has shape {w.shape}, "
                                 f"expected {(dims[k + 1], dims[k] + 1)}")
        self.arch = arch
        self.theta = np.concatenate(
            [np.asarray(w, dtype=np.float64).ravel() for w in weights])
        self.weights = _layer_views(arch, self.theta)
        self._act = arch.act()

    def __reduce__(self):
        return VelocityNet, (self.arch, self.weights)

    @classmethod
    def init(cls, arch: NetArchitecture, rng: RngStream) -> "VelocityNet":
        """Weights uniform in [-V/fan_in, V/fan_in], biases 0; feasible by construction."""
        dims = arch.layer_dims
        v = arch.l1_budget
        weights = []
        for k in range(len(dims) - 1):
            fan_in = dims[k]
            w = rng.gen.uniform(-v / fan_in, v / fan_in, size=(dims[k + 1], fan_in))
            weights.append(np.concatenate([w, np.zeros((dims[k + 1], 1))], axis=1))
        return cls(arch, weights)

    @classmethod
    def zeros(cls, arch: NetArchitecture) -> "VelocityNet":
        dims = arch.layer_dims
        return cls(arch, [np.zeros((dims[k + 1], dims[k] + 1))
                          for k in range(len(dims) - 1)])

    def copy(self) -> "VelocityNet":
        return VelocityNet(self.arch, self.weights)

    # -- parameter vector view ------------------------------------------------

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    def get_theta(self) -> np.ndarray:
        return self.theta.copy()

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.param_count,):
            raise ValueError("theta has the wrong length")
        self.theta[:] = theta

    def project_constraints(self) -> "VelocityNet":
        """Project every augmented row onto the l1 ball of radius V, in place."""
        v = self.arch.l1_budget
        for w in self.weights:
            if np.abs(w).sum(axis=1).max() <= v:
                continue
            w[...] = l1_project_row(w, v)
        return self

    def max_row_l1(self) -> float:
        return max(float(np.abs(w).sum(axis=1).max()) for w in self.weights)

    # -- forward pass and gradient --------------------------------------------

    def _aug(self, a: np.ndarray) -> np.ndarray:
        col = np.full((a.shape[0], 1), self.arch.act_bound)
        return np.concatenate([a, col], axis=1)

    def _forward(self, x: np.ndarray, t: np.ndarray, keep: bool):
        a = np.concatenate([x, t[:, None]], axis=1)
        acts = [a]
        pres = []
        for k, w in enumerate(self.weights[:-1]):
            z = self._aug(a) @ w.T
            a = self._act.value(z)
            if keep:
                pres.append(z)
                acts.append(a)
        out = self._aug(a) @ self.weights[-1].T
        return (out, acts, pres) if keep else (out, None, None)

    def __call__(self, x, t):
        """v_theta(x, t). x: (d,) or (n, d); t: scalar in [0,1] or (n,)."""
        xb, tb, single = as_field_input(x, t)
        out, _, _ = self._forward(xb, tb, keep=False)
        return out[0] if single else out

    def loss(self, batch: CoupledBatch) -> float:
        """Batch-mean squared residual (1/n) sum ||v(xt,t) - disp||^2."""
        out, _, _ = self._forward(batch.xt, batch.t, keep=False)
        res = out - batch.disp
        return float(np.mean(np.sum(res * res, axis=1)))

    def loss_and_grad(self, batch: CoupledBatch,
                      sample_weights: np.ndarray | None = None):
        """Loss and flat gradient of (1/n) sum_i w_i ||v(xt_i,t_i) - disp_i||^2.

        sample_weights defaults to all-ones (the plain batch mean); signed
        weights are allowed (the Rademacher estimator uses +-1).
        """
        n = len(batch)
        if n == 0:
            raise ValueError("empty batch")
        out, acts, pres = self._forward(batch.xt, batch.t, keep=True)
        res = out - batch.disp
        if sample_weights is None:
            wts = np.full(n, 1.0 / n)
        else:
            wts = np.asarray(sample_weights, dtype=np.float64) / n
        loss = float(np.dot((res * res).sum(axis=1), wts))
        grad = np.empty(self.param_count)
        grads = _layer_views(self.arch, grad)
        g = 2.0 * res * wts[:, None]
        for k in range(len(self.weights) - 1, -1, -1):
            np.matmul(g.T, self._aug(acts[k]), out=grads[k])
            if k > 0:
                da = g @ self.weights[k][:, :-1]
                g = da * self._act.deriv(pres[k - 1], acts[k])
        return loss, grad


def finite_diff_grad(net: VelocityNet, batch: CoupledBatch, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the batch-mean loss; the test oracle."""
    theta = net.get_theta()
    probe = net.copy()
    g = np.empty_like(theta)
    for j in range(theta.size):
        tp = theta.copy(); tp[j] += h
        probe.set_theta(tp)
        lp = probe.loss(batch)
        tm = theta.copy(); tm[j] -= h
        probe.set_theta(tm)
        lm = probe.loss(batch)
        g[j] = (lp - lm) / (2.0 * h)
    return g


# -- checkpoint format: one JSON header line + little-endian float64 block ----

CHECKPOINT_FORMAT = "rflab-velnet-1"


def save_checkpoint(net: VelocityNet, path, seed: int, step: int,
                    extra: dict | None = None) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "arch": net.arch.to_json(),
        "param_count": net.param_count,
        "seed": int(seed),
        "step": int(step),
    }
    if extra:
        header.update(extra)
    blob = net.get_theta().astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode())
        fh.write(blob)


def load_checkpoint(path) -> tuple[VelocityNet, dict]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    header = json.loads(header_line.decode())
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format: {header.get('format')!r}")
    arch = NetArchitecture.from_json(header["arch"])
    theta = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if theta.size != header["param_count"] or theta.size != arch.param_count:
        raise ValueError("checkpoint parameter block has the wrong length")
    net = VelocityNet.zeros(arch)
    net.set_theta(theta)
    return net, header
