"""Deterministic randomness and the small vector utilities everything else shares.

Randomness is addressed, never ambient: every consumer receives an RngStream
built from (base_seed, stream_id). Philox is counter-based, so distinct ids give
independent streams and reconstructing any stream is O(1). Two RngStream objects
constructed with the same pair replay bit-identical sequences, which is what the
end-to-end determinism guarantees (fixed seeds => byte-identical outputs,
independent of worker count) rest on.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: bijective 64-bit finalizer, used to derive stream ids."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """A named, replayable randomness source keyed by (base_seed, stream_id).

    The key goes straight into the Philox counter-based generator, so streams
    with distinct ids never overlap and creation order is irrelevant.
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        base_seed = int(base_seed)
        stream_id = int(stream_id)
        if not (0 <= base_seed <= _MASK64 and 0 <= stream_id <= _MASK64):
            raise ValueError("base_seed and stream_id must fit in unsigned 64 bits")
        self.base_seed = base_seed
        self.stream_id = stream_id
        key = np.array([base_seed, stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, tag: int) -> "RngStream":
        """Fresh child stream; a pure function of (stream_id, tag), never of draw state."""
        return RngStream(self.base_seed, splitmix64(self.stream_id ^ splitmix64(int(tag))))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(base_seed={self.base_seed}, stream_id={self.stream_id})"


def l1_project_row(w, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius, of a vector
    or of every row of a matrix at once.

    Sort-and-threshold, O(m log m) per row: find the largest rho with
    u_rho - (cumsum(u)_rho - radius)/rho > 0 over the sorted magnitudes u,
    then soft-threshold at tau = (cumsum(u)_rho - radius)/rho. Rows already
    inside the ball come back unchanged (as a copy). Deterministic under ties.
    """
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2):
        raise ValueError("l1_project_row expects a vector or a matrix")
    if not np.isfinite(w).all():
        raise ValueError("cannot project a vector with non-finite entries")
    rows = w.reshape(-1, w.shape[-1])
    a = np.abs(rows)
    u = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, u.shape[1] + 1, dtype=np.float64)
    # rho is the last index where the condition holds. Index 0 always holds
    # in exact arithmetic, but cancellation can lose it when |w| >> radius
    cond = u - (css - radius) / ks > 0
    cond[:, 0] = True
    rho = u.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (css[np.arange(rho.size), rho] - radius) / (rho + 1.0)
    out = np.sign(rows) * np.maximum(a - tau[:, None], 0.0)
    inside = a.sum(axis=1) <= radius
    out[inside] = rows[inside]
    return out.reshape(w.shape)


def assert_all_finite(name: str, arr) -> np.ndarray:
    """Validation helper: reject NaN/Inf early instead of letting them propagate."""
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_field_input(x, t=0.0) -> tuple[np.ndarray, np.ndarray, bool]:
    """Normalise the (x, t) input of a velocity field: x is (d,) or (n, d);
    t is a scalar or (n,) in [0, 1]. Returns x as (n, d), t as (n,), and
    whether x was a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("x must be (d,) or (n, d)")
    single = x.ndim == 1
    xb = x[None, :] if single else x
    tb = np.asarray(t, dtype=np.float64)
    if tb.ndim == 0:
        tb = np.full(xb.shape[0], float(tb))
    if tb.shape != (xb.shape[0],):
        raise ValueError("t must be a scalar or (n,)")
    if not (np.isfinite(xb).all() and np.isfinite(tb).all()):
        raise ValueError("non-finite field input")
    if np.any(tb < 0.0) or np.any(tb > 1.0):
        raise ValueError("t must lie in [0, 1]")
    return xb, tb, single
