import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from rflab.linalg_rng import (RngStream, assert_all_finite, l1_project_row,
                              splitmix64)


# -- splitmix64 -------------------------------------------------------------------


def test_splitmix64_reference_values():
    # first outputs of the published generator for these seeds
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(2 ** 64 - 1) == 16490336266968443936
    assert splitmix64(0xDEADBEEF) == 5395234354446855067


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_splitmix64_stays_in_u64(x):
    y = splitmix64(x)
    assert 0 <= y < 2 ** 64


def test_splitmix64_wraps_modulo_2_64():
    # the finalizer lives on the 64-bit wheel, so inputs wrap rather than fail
    assert splitmix64(-1) == splitmix64(2 ** 64 - 1)
    assert splitmix64(2 ** 64) == splitmix64(0)


# -- streams ----------------------------------------------------------------------


def test_stream_determinism():
    a = RngStream(123).gen.integers(0, 2 ** 63, size=3)
    b = RngStream(123).gen.integers(0, 2 ** 63, size=3)
    assert a.tolist() == b.tolist()
    # frozen first outputs pin the counter-based generator's keying
    assert a.tolist() == [4768531659826488529, 1695259288091044573,
                          1963077273376458061]


def test_streams_differ_across_seeds_and_ids():
    base = RngStream(1).gen.standard_normal(8)
    assert not np.allclose(base, RngStream(2).gen.standard_normal(8))
    assert not np.allclose(base, RngStream(1, stream_id=1).gen.standard_normal(8))


def test_derive_is_deterministic_and_keyed():
    d = RngStream(123).derive(7)
    assert d.base_seed == 123
    assert d.stream_id == 13309476754707697221
    assert d.stream_id == RngStream(123).derive(7).stream_id
    assert RngStream(123).derive(8).stream_id != d.stream_id
    # chaining gives fresh streams
    assert RngStream(123).derive(7).derive(7).stream_id != d.stream_id


def test_stream_validates_seed():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)


# -- l1 projection ------------------------------------------------------------------


def _project_by_threshold_bisection(w, radius):
    # independent route: bisection on the soft threshold, no sorting
    a = np.abs(w)
    if a.sum() <= radius:
        return w.copy()
    lo, hi = 0.0, a.max()
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        if np.maximum(a - tau, 0.0).sum() > radius:
            lo = tau
        else:
            hi = tau
    return np.sign(w) * np.maximum(a - 0.5 * (lo + hi), 0.0)


def test_projection_matches_bisection_oracle():
    cases = [
        (np.array([3.0, -1.0, 0.5]), 2.0),
        (np.array([1.0, 1.0, 1.0, 1.0]), 1.0),
        (np.array([-5.0, 0.1]), 0.5),
        (np.array([0.2, -0.1, 0.05]), 1.0),   # already feasible
        (np.array([2.0]), 1.5),
    ]
    for w, radius in cases:
        got = l1_project_row(w, radius)
        ref = _project_by_threshold_bisection(w, radius)
        assert np.allclose(got, ref, atol=1e-10), (w, radius)
        assert np.abs(got).sum() <= radius + 1e-12


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
       st.floats(0.01, 8.0))
def test_projection_properties(vals, radius):
    w = np.array(vals)
    p = l1_project_row(w, radius)
    assert np.abs(p).sum() <= radius + 1e-9
    # idempotent
    assert np.allclose(l1_project_row(p, radius), p, atol=1e-12)
    # no-op when already inside
    if np.abs(w).sum() <= radius:
        assert np.allclose(p, w)
    # signs never flip
    assert (np.sign(p) * np.sign(w) >= 0).all()


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
       st.floats(0.1, 4.0), st.integers(0, 2 ** 32))
def test_projection_is_nearest_feasible_point(vals, radius, seed):
    w = np.array(vals)
    p = l1_project_row(w, radius)
    gen = np.random.default_rng(seed)
    for _ in range(10):
        q = gen.normal(size=w.size)
        q = q / max(np.abs(q).sum(), 1e-12) * radius * gen.uniform()
        assert np.linalg.norm(w - p) <= np.linalg.norm(w - q) + 1e-9


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 12)),
              elements=st.floats(-10, 10)),
       st.floats(0.01, 8.0))
def test_matrix_projection_is_rowwise_bit_for_bit(mat, radius):
    out = l1_project_row(mat, radius)
    rows = np.stack([l1_project_row(row, radius) for row in mat])
    assert out.shape == mat.shape
    assert np.array_equal(out.view(np.uint64), rows.view(np.uint64))


def test_project_rows_applies_rowwise():
    m = np.array([[3.0, -1.0, 0.5], [0.1, 0.1, 0.1], [-2.0, 0.0, 0.0]])
    out = l1_project_row(m, 2.0)
    assert np.allclose(out[0], l1_project_row(m[0], 2.0))
    assert np.abs(out[0]).sum() == pytest.approx(2.0)
    # rows inside the ball, boundary included, come back unchanged
    assert (out[1:] == m[1:]).all()
    assert not np.shares_memory(out, m)
    bad = m.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        l1_project_row(bad, 2.0)
    with pytest.raises(ValueError):
        l1_project_row(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        l1_project_row(np.zeros((2, 2, 2)), 1.0)
    # |w| >> radius cancels the threshold test at every index; still feasible
    assert np.abs(l1_project_row(np.array([1e20, 1.0]), 1.0)).sum() <= 1.0


# -- finiteness guard ----------------------------------------------------------------


def test_assert_all_finite():
    out = assert_all_finite("x", np.ones(3))
    assert np.allclose(out, 1.0)
    with pytest.raises(ValueError, match="theta"):
        assert_all_finite("theta", np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="grad"):
        assert_all_finite("grad", np.array([np.inf]))
