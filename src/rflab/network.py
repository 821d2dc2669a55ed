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
import functools
import json
import math

import numpy as np

from .distributions import CoupledBatch
from .linalg_rng import RngStream, as_field_input, l1_project_row

# A forward pass that keeps no activations runs in blocks whose widest buffer,
# samples x members x (widest layer + 1) x 8 bytes, stays within
# FORWARD_BLOCK_BYTES: under the 1 MiB mmap threshold set in rflab/__init__.py,
# so block buffers are reused from the heap. A stack runs one member at a
# time, and a member whose own pass is too large is split along its samples,
# in blocks of a multiple of FORWARD_BLOCK_ROWS samples. The samples are the
# N of every layer's product W @ aug, and BLAS computes a small-N product with
# other kernels, so a block never has fewer than FORWARD_BLOCK_ROWS samples: a
# shorter tail joins the block before it, and the block size does not depend
# on the number of members.
FORWARD_BLOCK_BYTES = 1 << 20
FORWARD_BLOCK_ROWS = 1024


@dataclasses.dataclass(frozen=True)
class Activation:
    name: str
    bound: float       # b: range is [-bound, bound]
    lipschitz: float   # L_phi

    def value(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Activation of z, written into out when given (the forward pass
        gives the next layer's [..., :-1, :] block). exp and logaddexp run
        on temporaries; only exact operations write into out, so both paths
        give the same bits."""
        if self.name == "tanh":
            return np.tanh(z, out=out)
        if self.name == "sigmoid":
            e = np.negative(z)
            np.exp(e, out=e)
            e += 1.0
            return np.divide(1.0, e, out=out)
        # softplus clamped to [-b, b]; softplus >= 0 so only the upper clamp binds
        return np.minimum(np.logaddexp(0.0, z), self.bound, out=out)

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
        # JSON gives lists and may give integers for the float fields; the
        # checkpoint header must print the budget and bound as floats
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "l1_budget", float(self.l1_budget))
        object.__setattr__(self, "act_bound", float(self.act_bound))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("need at least one hidden layer of width >= 1 (depth >= 2)")
        if not (self.l1_budget > 0):
            raise ValueError("l1_budget must be > 0")
        make_activation(self.activation, self.act_bound)  # validates the pair

    @property
    def depth(self) -> int:
        return len(self.hidden) + 1

    @property
    def layer_dims(self) -> list[int]:
        return [self.dim + 1, *self.hidden, self.dim]

    @functools.cached_property
    def weight_shapes(self) -> tuple[tuple[int, int], ...]:
        """(out_k, in_k + 1) of every layer's augmented weights."""
        dims = self.layer_dims
        return tuple((out, fan_in + 1) for fan_in, out in zip(dims, dims[1:]))

    @functools.cached_property
    def param_count(self) -> int:
        return sum(rows * cols for rows, cols in self.weight_shapes)

    def act(self) -> Activation:
        return make_activation(self.activation, self.act_bound)


def _layer_views(arch: NetArchitecture, flat: np.ndarray) -> list[np.ndarray]:
    """Row-major (..., out_k, in_k + 1) views, layer by layer, into a buffer
    of shape (..., P): one net, or a stack of nets along the leading axis.
    The parameter layout is known here and nowhere else."""
    lead = flat.shape[:-1]
    views, pos = [], 0
    for shape in arch.weight_shapes:
        size = shape[0] * shape[1]
        views.append(flat[..., pos:pos + size].reshape(lead + shape))
        pos += size
    return views


@dataclasses.dataclass
class LaidBatch:
    """A batch in the kernel's layout: the first layer's input [xt; t; b],
    feature-major (..., d + 2, n), and disp (..., n, d); a slice takes rows."""

    aug: np.ndarray
    disp: np.ndarray

    def __len__(self) -> int:
        return self.aug.shape[-1]

    def __getitem__(self, rows: slice) -> "LaidBatch":
        return LaidBatch(self.aug[..., rows], self.disp[..., rows, :])


class VelocityNet:
    """Velocity field v_theta(x, t) with per-row l1-constrained augmented weights.

    A net is built from its parameter buffer theta alone; weights[k] is a
    view into it of shape (out_k, in_k + 1), and column in_k is the bias
    coordinate, whose input channel is the constant act_bound.

    A stack of K nets of one architecture has theta of shape (K, P) and
    weights[k] of shape (K, out_k, in_k + 1). The methods below work over
    the trailing axes, so a stack runs the same lines as one net; each
    member goes through the same floating-point operations as it would
    alone, so its results match `member(i)` bit for bit.
    """

    def __init__(self, arch: NetArchitecture, theta: np.ndarray):
        """A net from a (P,) parameter vector, or a stack from (K, P); the
        buffer is copied."""
        theta = np.array(theta, dtype=np.float64, order="C")
        if theta.ndim not in (1, 2) or theta.shape[-1] != arch.param_count:
            raise ValueError(f"theta has shape {theta.shape}, expected "
                             f"({arch.param_count},) or (K, {arch.param_count})")
        self.arch = arch
        self.theta = theta
        self.weights = _layer_views(arch, theta)
        self._act = arch.act()
        # bytes per sample of the widest augmented layer input
        self._sample_bytes = 8 * (max(arch.layer_dims[:-1]) + 1)

    def __reduce__(self):
        return VelocityNet, (self.arch, self.theta)

    @classmethod
    def init(cls, arch: NetArchitecture, rng: RngStream) -> "VelocityNet":
        """Weights uniform in [-V/fan_in, V/fan_in], biases 0; feasible by construction."""
        net = cls.zeros(arch)
        v = arch.l1_budget
        for w in net.weights:
            fan_in = w.shape[1] - 1
            w[:, :-1] = rng.gen.uniform(-v / fan_in, v / fan_in, size=(w.shape[0], fan_in))
        return net

    @classmethod
    def zeros(cls, arch: NetArchitecture) -> "VelocityNet":
        return cls(arch, np.zeros(arch.param_count))

    @classmethod
    def stack(cls, nets) -> "VelocityNet":
        """Single nets of one architecture as one stack (their parameters are copied)."""
        nets = list(nets)
        if not nets or any(net.theta.ndim != 1 or net.arch != nets[0].arch
                           for net in nets):
            raise ValueError("stack needs single nets of one architecture")
        return cls(nets[0].arch, [net.theta for net in nets])

    def member(self, i: int) -> "VelocityNet":
        """Member i of a stack as a single net (a copy)."""
        if self.theta.ndim != 2:
            raise ValueError("member() needs a stack of nets")
        return VelocityNet(self.arch, self.theta[i])

    def copy(self) -> "VelocityNet":
        return VelocityNet(self.arch, self.theta)

    # -- parameter vector view ------------------------------------------------

    @property
    def param_count(self) -> int:
        return self.arch.param_count

    def get_theta(self) -> np.ndarray:
        return self.theta.copy()

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise ValueError("theta has the wrong length")
        self.theta[:] = theta

    def project_constraints(self) -> "VelocityNet":
        """Project every augmented row onto the l1 ball of radius V, in place.

        A stack projects the rows of all its members in one call per layer;
        rows inside the ball come back unchanged, so every member gets its
        own projection."""
        v = self.arch.l1_budget
        for w in self.weights:
            if np.abs(w).sum(axis=-1).max() <= v:
                continue
            w[...] = l1_project_row(w.reshape(-1, w.shape[-1]), v).reshape(w.shape)
        return self

    def row_l1(self):
        """Largest augmented-row l1 norm of each member: a float, or a (K,)
        array for a stack."""
        rows = np.max([np.abs(w).sum(-1).max(-1) for w in self.weights], axis=0)
        return rows if rows.ndim else float(rows)

    def max_row_l1(self) -> float:
        """Largest augmented-row l1 norm, over every member of a stack."""
        return float(np.max(self.row_l1()))

    # -- forward pass and gradient --------------------------------------------

    def lay_out(self, batch: CoupledBatch, into: LaidBatch | None = None) -> LaidBatch:
        """batch in the kernel's layout: written into `into` (same shape) when
        given, else into a new first-layer buffer that shares batch.disp."""
        d = self.arch.dim
        if into is None:
            into = LaidBatch(self._buffers([d + 1], batch.t.shape[:-1], len(batch))[0],
                             batch.disp)
        else:
            into.disp[...] = batch.disp
        into.aug[..., :d, :] = batch.xt.swapaxes(-1, -2)
        into.aug[..., d, :] = batch.t
        return into

    def _pass(self, xs: np.ndarray, t, bufs: dict,
              out: np.ndarray | None = None) -> np.ndarray:
        """The net at feature-major points xs (..., d, n) and times t (a
        scalar or (..., n)) into out (..., d, n), new unless given, in blocks
        (FORWARD_BLOCK_BYTES) that change no bit; bufs keeps the layer buffers
        of each block shape across calls."""
        d = xs.shape[-2]
        if out is None:   # a stack on shared points gives (members, d, n)
            out = np.empty((xs.shape[:-2] or self.theta.shape[:-1]) + xs.shape[-2:])
        for ms, rows in self._blocks(out.shape[:-2], out.shape[-1]):
            at = (*ms, ..., rows) if xs.ndim == out.ndim else (..., rows)
            x, o = xs[at], out[(*ms, ..., rows)]
            key = (x.shape, o.shape)
            if key not in bufs:
                bufs[key] = (self._buffers([d + 1], x.shape[:-2], o.shape[-1])
                             + self._buffers(self.arch.hidden, o.shape[:-2], o.shape[-1]))
            first = bufs[key][0]
            first[..., :d, :] = x
            first[..., d, :] = t[at] if np.ndim(t) else t
            weights = (self.weights if self.theta.ndim == 1 or not ms
                       else [w[ms] for w in self.weights])
            self._layers(bufs[key], weights, out=o)
        return out

    def _buffers(self, widths, lead: tuple, n: int) -> list[np.ndarray]:
        """Augmented layer inputs (..., width + 1, n), bias rows set."""
        bufs = [np.empty(lead + (w + 1, n)) for w in widths]
        for buf in bufs:
            buf[..., -1, :] = self.arch.act_bound
        return bufs

    def _blocks(self, lead: tuple, n: int):
        """(member index, row slice) of every block of a pass whose output
        has leading axes lead: the whole pass when it fits the budget."""
        if math.prod(lead) * n * self._sample_bytes <= FORWARD_BLOCK_BYTES:
            return [((), slice(None))]
        # the largest multiple of FORWARD_BLOCK_ROWS that still fits the
        # budget with a tail of FORWARD_BLOCK_ROWS - 1 rows joined to it
        fit = FORWARD_BLOCK_BYTES // self._sample_bytes - (FORWARD_BLOCK_ROWS - 1)
        size = FORWARD_BLOCK_ROWS * max(1, fit // FORWARD_BLOCK_ROWS)
        starts = list(range(0, max(1, n - FORWARD_BLOCK_ROWS + 1), size))
        rows = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]
        members = [(slice(i, i + 1),) for i in range(lead[0])] if lead else [()]
        return [(ms, r) for ms in members for r in rows]

    def _layers(self, augs: list[np.ndarray], weights, pres: list | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """The layer loop through augs, every layer's input (`_buffers`), the
        first filled with [x; t; b]; returns the output (..., d, n), written
        into out when given. An activation fills the next input's [..., :-1, :]
        block, contiguous per member, where its pre-activation is computed
        unless pres keeps it."""
        for w, aug, nxt in zip(weights, augs, augs[1:]):
            a = nxt[..., :-1, :]
            z = np.matmul(w, aug, out=None if pres is not None else a)
            if pres is not None:
                pres.append(z)
            self._act.value(z, out=a)
        return np.matmul(weights[-1], augs[-1], out=out)

    def flow(self, n: int):
        """Euler's velocity of one net on n points: v(z, t) of a feature-major
        state (d, n) and a scalar t, into buffers allocated once."""
        if self.theta.ndim != 1:
            raise ValueError("a flow needs a single net, not a stack")
        v, bufs = np.empty((self.arch.dim, n)), {}
        return lambda z, t: self._pass(z, t, bufs, v)

    def __call__(self, x, t):
        """v_theta(x, t). x: (d,) or (n, d); t: scalar in [0,1] or (n,).
        A stack evaluates every member on the same points: (K, n, d)."""
        xb, tb, single = as_field_input(x, t)
        out = self._pass(xb.T, tb, {}).swapaxes(-1, -2)
        return out[..., 0, :] if single else out

    def residual(self, batch: CoupledBatch) -> np.ndarray:
        """v(xt, t) - disp on a batch, whose arrays are taken as built: (n, d),
        or (K, n, d) for a stack or a stacked batch."""
        out = self._pass(batch.xt.swapaxes(-1, -2), batch.t, {}).swapaxes(-1, -2)
        out -= batch.disp
        return out

    def sample_losses(self, batch: CoupledBatch) -> np.ndarray:
        """Squared residual ||v(xt,t) - disp||^2 of every sample: (n,), or
        (K, n) for a stack or a stacked batch."""
        res = self.residual(batch)
        return np.sum(res * res, axis=-1)

    def loss(self, batch: CoupledBatch):
        """Batch-mean squared residual (1/n) sum ||v(xt,t) - disp||^2: a float,
        or a (K,) array for a stack or a stacked batch."""
        loss = np.mean(self.sample_losses(batch), axis=-1)
        return loss if loss.ndim else float(loss)

    def loss_and_grad(self, batch: CoupledBatch | LaidBatch,
                      sample_weights: np.ndarray | None = None):
        """Loss and flat gradient of (1/n) sum_i w_i ||v(xt_i,t_i) - disp_i||^2.

        The batch may come laid out (`lay_out`). sample_weights defaults to
        all-ones (the plain batch mean); signed weights are allowed (the
        Rademacher estimator uses +-1). A stack gives (K,) losses and (K, P)
        gradients; it may take (K, n) weights, one row per member.
        """
        n = len(batch)
        if n == 0:
            raise ValueError("empty batch")
        if isinstance(batch, CoupledBatch):
            batch = self.lay_out(batch)
        lead = batch.aug.shape[:-2] or self.theta.shape[:-1]
        augs = [batch.aug, *self._buffers(self.arch.hidden, lead, n)]
        pres: list[np.ndarray] = []
        out = self._layers(augs, self.weights, pres)
        res = out.swapaxes(-1, -2) - batch.disp
        if sample_weights is None:
            wts = np.full(n, 1.0 / n)
        else:
            wts = np.asarray(sample_weights, dtype=np.float64) / n
            if wts.shape not in ((n,), res.shape[:-1]):
                shapes = sorted({(n,), res.shape[:-1]}, key=len)
                raise ValueError(f"sample_weights has shape {wts.shape}, expected "
                                 + " or ".join(map(str, shapes)))
        # a (1, n) @ (n, 1) product per member is the same dot product as
        # np.dot on one net's vectors
        loss = ((res * res).sum(axis=-1)[..., None, :] @ wts[..., None])[..., 0, 0]
        loss = loss if loss.ndim else float(loss)
        grad = np.empty(res.shape[:-2] + (self.param_count,))
        grads = _layer_views(self.arch, grad)
        g = 2.0 * res.swapaxes(-1, -2) * wts[..., None, :]   # (..., d, n)
        for k in range(len(self.weights) - 1, -1, -1):
            np.matmul(g, augs[k].swapaxes(-1, -2), out=grads[k])
            if k > 0:
                da = self.weights[k][..., :-1].swapaxes(-1, -2) @ g
                g = da * self._act.deriv(pres[k - 1], augs[k][..., :-1, :])
        return loss, grad


def finite_diff_grad(net: VelocityNet, batch: CoupledBatch, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the batch-mean loss; the test oracle.

    All 2P probes are one stack evaluated in one loss call: member j is
    theta + h e_j and member P + j is theta - h e_j."""
    p = net.param_count
    probe = VelocityNet.stack([net] * (2 * p))
    j = np.arange(p)
    probe.theta[j, j] += h
    probe.theta[p + j, j] -= h
    losses = probe.loss(batch)
    return (losses[:p] - losses[p:]) / (2.0 * h)


# -- checkpoint format: one JSON header line + little-endian float64 block ----

CHECKPOINT_FORMAT = "rflab-velnet-1"


def save_checkpoint(net: VelocityNet, path, seed: int, step: int,
                    extra: dict | None = None) -> None:
    if net.theta.ndim != 1:
        raise ValueError("a checkpoint holds a single net, not a stack")
    header = {
        "format": CHECKPOINT_FORMAT,
        "arch": dataclasses.asdict(net.arch),
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
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format: {fmt!r}")
    arch = NetArchitecture(**header["arch"])
    theta = np.frombuffer(blob, dtype="<f8")
    if theta.size != header["param_count"] or theta.size != arch.param_count:
        raise ValueError("checkpoint parameter block has the wrong length")
    return VelocityNet(arch, theta), header
