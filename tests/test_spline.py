import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stretchgrid import spline
from stretchgrid.spline import MonotoneCubic, _fritsch_carlson_slopes

EPS = np.finfo(float).eps


def test_interpolates_knots_exactly():
    x = np.array([0.0, 1.0, 2.5, 4.0, 7.0])
    y = np.array([1.0, 2.0, 2.2, 5.0, 9.0])
    f = MonotoneCubic(x, y)
    assert np.allclose(f(x), y, rtol=0, atol=0)


def test_monotone_on_monotone_data():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(3, 40)
        x = np.sort(rng.uniform(0, 10, n))
        x += np.arange(n) * 1e-3  # guard against ties
        y = np.cumsum(rng.uniform(0.01, 2.0, n))
        f = MonotoneCubic(x, y)
        xs = np.linspace(x[0], x[-1], 501)
        assert np.all(np.diff(f(xs)) >= -1e-12 * (y[-1] - y[0]))


def test_derivative_matches_finite_differences():
    x = np.linspace(0, 3, 13)
    y = np.sin(x) + 2 * x
    f = MonotoneCubic(x, y)
    xs = np.linspace(0.05, 2.95, 77)
    h = 1e-6
    fd = (f(xs + h) - f(xs - h)) / (2 * h)
    assert np.allclose(f.derivative(xs), fd, atol=1e-6)


def test_inverse_roundtrip():
    x = np.linspace(0, 5, 21)
    y = np.exp(0.5 * x)
    f = MonotoneCubic(x, y)
    yq = np.linspace(y[0], y[-1], 101)
    xq = f.inverse(yq)
    assert np.max(np.abs(f(xq) - yq)) < 1e-10 * y[-1]
    # knot values invert to the knots themselves
    assert np.allclose(f.inverse(y), x, atol=1e-12)


def test_inverse_rejects_out_of_range():
    f = MonotoneCubic(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        f.inverse(2.0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        MonotoneCubic(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        MonotoneCubic(np.array([0.0]), np.array([1.0]))


def reference_slopes(x, y):
    """The Fritsch-Carlson slopes with the limiter looping over every
    interval, as the package computed them before it skipped the intervals
    the limiter cannot act on."""
    h = np.diff(x)
    delta = np.diff(y) / h
    n = x.size
    m = np.empty(n)
    if n == 2:
        m[:] = delta[0]
        return m
    m[1:-1] = 0.5 * (delta[:-1] + delta[1:])
    m[0] = ((2.0 * h[0] + h[1]) * delta[0] - h[0] * delta[1]) / (h[0] + h[1])
    m[-1] = ((2.0 * h[-1] + h[-2]) * delta[-1] - h[-1] * delta[-2]) / (h[-1] + h[-2])
    for k, d in ((0, delta[0]), (n - 1, delta[-1])):
        if m[k] * np.sign(d) < 0.0:
            m[k] = 0.0
        elif abs(m[k]) > 3.0 * abs(d):
            m[k] = 3.0 * d
    for i in range(n - 1):
        if delta[i] == 0.0:
            m[i] = 0.0
            m[i + 1] = 0.0
            continue
        a = m[i] / delta[i]
        b = m[i + 1] / delta[i]
        if a < 0.0:
            m[i] = 0.0
            a = 0.0
        if b < 0.0:
            m[i + 1] = 0.0
            b = 0.0
        r2 = a * a + b * b
        if r2 > 9.0:
            tau = 3.0 / np.sqrt(r2)
            m[i] = tau * a * delta[i]
            m[i + 1] = tau * b * delta[i]
    return m


def test_limiter_matches_full_loop_bit_for_bit():
    rng = np.random.default_rng(20241018)
    for trial in range(3000):
        n = int(rng.integers(2, 40))
        x = np.cumsum(rng.uniform(1e-3, 3.0, n))
        # Secants mixing flat steps, sign changes, tiny and steep jumps.
        steps = rng.choice([0.0, 1.0, -1.0, 1e-9, 40.0, -250.0], size=n) \
            * rng.uniform(0.5, 1.5, n)
        if trial % 3 == 0:
            steps = np.abs(steps)                  # monotone data with plateaus
        y = np.cumsum(steps)
        got = _fritsch_carlson_slopes(x, y)
        want = reference_slopes(x, y)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (x, y)


def test_limiter_matches_full_loop_on_a_placement_sized_grid():
    rng = np.random.default_rng(3)
    x = np.arange(16001.0)
    y = np.cumsum(np.exp(rng.normal(scale=2.0, size=x.size)))
    assert np.array_equal(_fritsch_carlson_slopes(x, y), reference_slopes(x, y))


def test_blocked_inverse_equals_one_whole_array_solve(monkeypatch):
    # A deform pass at the size of a table-3 reference: 16,001 queries, a
    # few blocks and a ragged last one, including exact knot hits.
    rng = np.random.default_rng(11)
    x = np.array([0.0, 3000.3, 7000.7, 12000.2, 16000.0])
    f = MonotoneCubic(x, np.array([0.0, 3000.5, 7000.5, 12000.5, 16000.0]))
    queries = np.concatenate([np.arange(16001.0), rng.uniform(0.0, 16000.0, 998),
                              f.y]).reshape(-1, 2)
    blocked = f.inverse(queries)
    assert spline._INVERSE_BLOCK < queries.size
    monkeypatch.setattr(spline, "_INVERSE_BLOCK", queries.size)
    whole = f.inverse(queries)
    assert blocked.shape == whole.shape == queries.shape
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))
    assert f.inverse(125.0).shape == ()


increments = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(dx=increments, dy=increments, start=st.floats(-1e3, 1e3),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_inverse_roundtrip_property(dx, dy, start, fractions):
    n = min(len(dx), len(dy)) + 1
    x = np.concatenate([[0.0], np.cumsum(dx[: n - 1])])
    y = start + np.concatenate([[0.0], np.cumsum(dy[: n - 1])])
    if np.any(np.diff(y) <= 0.0):
        return                     # increments lost to rounding against start
    f = MonotoneCubic(x, y)
    yq = y[0] + np.asarray(fractions) * (y[-1] - y[0])
    yq = np.clip(yq, y[0], y[-1])
    xq = f.inverse(yq)
    # The result stays inside the segment bracketing its query.
    i = np.clip(np.searchsorted(y, yq, side="right") - 1, 0, n - 2)
    assert np.all(x[i] <= xq) and np.all(xq <= x[i + 1])
    # f(inverse(y)) is y to a few ulps of the data and of the local slope.
    scale = np.max(np.abs(y)) + np.abs(f.derivative(xq)) * np.max(np.abs(x))
    assert np.all(np.abs(f(xq) - yq) <= 8.0 * EPS * scale)
    # Knots invert exactly.
    assert np.array_equal(f.inverse(y), x)
