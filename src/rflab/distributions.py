"""Source/target distributions, independent couplings along the linear path,
and the displacement-truncation accounting.

The coupling is always the independent product pi0 x pi1 with t ~ Uniform[0,1].
A coupled sample reaches the estimator only as the regression triple
(t, X_t, X1 - X0), and that triple is all a batch keeps. Batches are stored
column-wise because all consumers are vectorized. Each DistributionSpec counts
how many samples it has handed out; reflow's data-isolation guarantee is
checked against that counter.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg_rng import RngStream, assert_all_finite


@dataclasses.dataclass
class DistributionSpec:
    """Declarative distribution: gaussian | gaussian_mixture | empirical."""

    kind: str
    dim: int
    mean: np.ndarray | None = None
    std: float | None = None
    components: list[tuple[float, np.ndarray, float]] | None = None
    points: np.ndarray | None = None
    draws: int = dataclasses.field(default=0, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "gaussian":
            if self.mean is None or self.std is None:
                raise ValueError("gaussian spec needs mean and std")
            self.mean = assert_all_finite("mean", self.mean).reshape(self.dim)
            if not (self.std > 0):
                raise ValueError("std must be > 0")
        elif self.kind == "gaussian_mixture":
            if not self.components:
                raise ValueError("gaussian_mixture spec needs components")
            comps = []
            for w, m, s in self.components:
                m = assert_all_finite("component mean", m).reshape(self.dim)
                if not (w > 0):
                    raise ValueError("mixture weights must be positive")
                if not (s > 0):
                    raise ValueError("component std must be > 0")
                comps.append((float(w), m, float(s)))
            total = sum(w for w, _, _ in comps)
            if abs(total - 1.0) > 1e-12:
                raise ValueError("mixture weights must sum to 1 within 1e-12")
            self.components = comps
        elif self.kind == "empirical":
            if self.points is None:
                raise ValueError("empirical spec needs points")
            pts = assert_all_finite("points", self.points)
            pts = pts.reshape(-1, self.dim)
            if pts.shape[0] < 1:
                raise ValueError("empirical spec needs at least one point")
            self.points = pts
        else:
            raise ValueError(f"unknown distribution kind: {self.kind!r}")

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw n i.i.d. points, shape (n, dim); advances the draw counter."""
        if n < 1:
            raise ValueError("n must be >= 1")
        n = int(n)
        if self.kind == "gaussian":
            out = self.mean + self.std * rng.gen.standard_normal((n, self.dim))
        elif self.kind == "gaussian_mixture":
            weights = np.array([w for w, _, _ in self.components])
            idx = rng.gen.choice(len(self.components), size=n, p=weights)
            z = rng.gen.standard_normal((n, self.dim))
            means = np.stack([m for _, m, _ in self.components])
            stds = np.array([s for _, _, s in self.components])
            out = means[idx] + stds[idx, None] * z
        else:
            idx = rng.gen.integers(0, self.points.shape[0], size=n)
            out = self.points[idx].copy()
        self.draws += n
        return out


def interpolate(x0: np.ndarray, x1: np.ndarray, t) -> np.ndarray:
    """Linear path point (1-t)*x0 + t*x1; exact at the endpoints t=0 and t=1."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        return (1.0 - t) * x0 + t * x1
    return (1.0 - t)[:, None] * x0 + t[:, None] * x1


@dataclasses.dataclass
class CoupledBatch:
    """Batch of regression triples (t, xt, disp): arrays indexed by sample.

    For the pairs (x0, x1) it was formed from, xt = (1-t) x0 + t x1 and
    disp = x1 - x0, row by row; the endpoints themselves are not kept.
    A stacked batch (`CoupledBatch.stack`) holds K batches of n rows each:
    xt is (K, n, d) and t is (K, n); its length is still n.
    """

    t: np.ndarray
    xt: np.ndarray
    disp: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[-1]

    def take(self, idx) -> "CoupledBatch":
        """Rows idx; a stacked batch takes rows idx[i] from batch i."""
        idx = np.asarray(idx)
        lead = self.t.ndim - 1
        if lead:
            # row numbers into the K batches laid end to end
            idx = idx + self.t.shape[-1] * np.arange(idx.shape[0])[:, None]
        return CoupledBatch(*(a.reshape((-1,) + a.shape[lead + 1:]).take(idx, axis=0)
                              for a in (self.t, self.xt, self.disp)))

    @classmethod
    def stack(cls, batches) -> "CoupledBatch":
        """Batches of equal length as one stacked batch."""
        return cls(*(np.stack([getattr(b, f.name) for b in batches])
                     for f in dataclasses.fields(cls)))

    @classmethod
    def from_pairs(cls, x0: np.ndarray, x1: np.ndarray, t: np.ndarray) -> "CoupledBatch":
        x0 = np.asarray(x0, dtype=np.float64)
        x1 = np.asarray(x1, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64).reshape(-1)
        if x0.shape != x1.shape or x0.shape[0] != t.size:
            raise ValueError("x0, x1, t shapes disagree")
        return cls(t, interpolate(x0, x1, t), x1 - x0)


def draw_coupled(rng: RngStream, pi0: DistributionSpec, pi1: DistributionSpec,
                 n: int) -> CoupledBatch:
    """n independent triples: x0 ~ pi0, x1 ~ pi1 (independent), t ~ Uniform[0,1]."""
    return couple_given(rng, pi0.sample(rng, n), pi1.sample(rng, n))


def couple_given(rng: RngStream, x0: np.ndarray, x1: np.ndarray) -> CoupledBatch:
    """Coupled batch from pre-paired endpoints (reflow's synthetic coupling)."""
    x0 = np.asarray(x0, dtype=np.float64)
    t = rng.gen.uniform(0.0, 1.0, size=x0.shape[0])
    return CoupledBatch.from_pairs(x0, x1, t)


def truncation_level(sigma: float, n: int, C: float = 2.0, c: float = 0.5) -> float:
    """Displacement cutoff M = sigma * sqrt((1/c) * log(2*C*n^2)).

    By construction C*exp(-c*M^2/sigma^2) = 1/(2 n^2) regardless of (C, c).
    """
    if not (sigma > 0):
        raise ValueError("sigma must be > 0")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (C > 0 and c > 0):
        raise ValueError("C and c must be > 0")
    return sigma * math.sqrt(math.log(2.0 * C * n * n) / c)

