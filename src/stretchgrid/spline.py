"""Monotonicity-preserving cubic Hermite interpolation (Fritsch-Carlson)."""

from __future__ import annotations

import numpy as np

# Newton on t in [0, 1]: stop once a step is about one ulp of t.  The cap
# only bounds pathological inputs; bisection alone would need ~55 steps.
_T_TOL = 2.0 * np.finfo(float).eps
_NEWTON_CAP = 80
# Queries solved at once by ``inverse``: bounds its temporaries (~1 MB)
# whatever the query count; every step is elementwise, so blocks change no bit.
_INVERSE_BLOCK = 4096


class MonotoneCubic:
    """Shape-preserving C1 cubic interpolant through (x, y).

    Knot slopes start from arithmetic means of adjacent secants and are
    limited with the Fritsch-Carlson rule (alpha^2 + beta^2 <= 9), so the
    interpolant is monotone wherever the data is.  For strictly monotone
    data the interpolant is invertible; ``inverse`` solves y -> x by
    safeguarded Newton iteration on the bracketing Hermite segment.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("need two equal-length 1-d arrays")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        self.x = x
        self.y = y
        self.m = _fritsch_carlson_slopes(x, y)

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        i = self._segment(xq)
        h = self.x[i + 1] - self.x[i]
        t = (xq - self.x[i]) / h
        h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
        h10 = t * (1.0 - t) ** 2
        h01 = t * t * (3.0 - 2.0 * t)
        h11 = t * t * (t - 1.0)
        return (self.y[i] * h00 + h * self.m[i] * h10
                + self.y[i + 1] * h01 + h * self.m[i + 1] * h11)

    def derivative(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        i = self._segment(xq)
        h = self.x[i + 1] - self.x[i]
        t = (xq - self.x[i]) / h
        d00 = (6.0 * t * t - 6.0 * t) / h
        d10 = 3.0 * t * t - 4.0 * t + 1.0
        d01 = -d00
        d11 = 3.0 * t * t - 2.0 * t
        return (self.y[i] * d00 + self.m[i] * d10
                + self.y[i + 1] * d01 + self.m[i + 1] * d11)

    def inverse(self, yq) -> np.ndarray:
        """Solve self(x) = yq for strictly increasing data.

        Each query's segment coefficients are gathered once.  On the segment
        the Hermite cubic, written relative to its left knot value, is solved
        for t in [0, 1] by Newton's method from the linear guess, inside a
        sign bracket: a step that would leave the bracket bisects it instead.
        Iteration stops once the step is about one ulp of t.  Queries are
        solved in blocks of ``_INVERSE_BLOCK``.
        """
        if np.any(np.diff(self.y) <= 0.0):
            raise ValueError("inverse requires strictly increasing values")
        yq = np.asarray(yq, dtype=float)
        if np.any(yq < self.y[0]) or np.any(yq > self.y[-1]):
            raise ValueError("query outside interpolation range")
        q = yq.ravel()
        out = np.empty(q.size)
        for k in range(0, q.size, _INVERSE_BLOCK):
            out[k:k + _INVERSE_BLOCK] = self._inverse_block(q[k:k + _INVERSE_BLOCK])
        return out.reshape(yq.shape)

    def _inverse_block(self, q: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.y, q, side="right") - 1,
                    0, self.y.size - 2)
        x0 = self.x[i]
        h = self.x[i + 1] - x0
        dy = self.y[i + 1] - self.y[i]
        hm0 = h * self.m[i]
        hm1 = h * self.m[i + 1]
        # self(x0 + t*h) - yq = r + t*(c1 + t*(c2 + t*c3)); every term is of
        # the size of dy, so the residual carries no cancellation against y.
        r = self.y[i] - q
        c1 = hm0
        c2 = 3.0 * dy - 2.0 * hm0 - hm1
        c3 = hm0 + hm1 - 2.0 * dy
        t = np.clip(-r / dy, 0.0, 1.0)
        lo = np.zeros_like(t)
        hi = np.ones_like(t)
        live = np.arange(q.size)
        for _ in range(_NEWTON_CAP):
            tl, lo_l, hi_l = t[live], lo[live], hi[live]
            c1l, c2l, c3l = c1[live], c2[live], c3[live]
            f = r[live] + tl * (c1l + tl * (c2l + tl * c3l))
            fp = c1l + tl * (2.0 * c2l + 3.0 * tl * c3l)
            below = f < 0.0
            lo_l = np.where(below, tl, lo_l)
            hi_l = np.where(below, hi_l, tl)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = tl - f / fp
            inside = (newton >= lo_l) & (newton <= hi_l)
            t_next = np.where(inside, newton, 0.5 * (lo_l + hi_l))
            done = ((f == 0.0) | (np.abs(t_next - tl) <= _T_TOL)
                    | (hi_l - lo_l <= _T_TOL))
            t[live] = np.where(f == 0.0, tl, t_next)
            lo[live] = lo_l
            hi[live] = hi_l
            live = live[~done]
            if live.size == 0:
                break
        out = np.minimum(np.maximum(x0 + t * h, x0), self.x[i + 1])
        # Snap exact knot hits so round-trips are clean at the data points.
        exact = np.clip(np.searchsorted(self.y, q), 0, self.y.size - 1)
        hit = self.y[exact] == q
        return np.where(hit, self.x[exact], out)

    def _segment(self, xq: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.x, xq, side="right") - 1
        return np.clip(i, 0, self.x.size - 2)


def _fritsch_carlson_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    h = np.diff(x)
    delta = np.diff(y) / h
    n = x.size
    m = np.empty(n)
    if n == 2:
        m[:] = delta[0]
        return m
    m[1:-1] = 0.5 * (delta[:-1] + delta[1:])
    # Three-point one-sided estimates at the ends, clipped to keep the
    # end segment shape-preserving.
    m[0] = ((2.0 * h[0] + h[1]) * delta[0] - h[0] * delta[1]) / (h[0] + h[1])
    m[-1] = ((2.0 * h[-1] + h[-2]) * delta[-1] - h[-1] * delta[-2]) / (h[-1] + h[-2])
    for k, d in ((0, delta[0]), (n - 1, delta[-1])):
        if m[k] * np.sign(d) < 0.0:
            m[k] = 0.0
        elif abs(m[k]) > 3.0 * abs(d):
            m[k] = 3.0 * d

    # Fritsch-Carlson limiter.  It only ever zeroes a slope or shrinks it
    # toward zero, so an interval whose unlimited ratios pass every test
    # cannot act; the loop visits the others in order, plus the interval
    # after any one that changed its right slope.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = m[:-1] / delta
        b = m[1:] / delta
        passes = (delta != 0.0) & (a >= 0.0) & (b >= 0.0) & (a * a + b * b <= 9.0)
    last = -1
    for i in np.flatnonzero(~passes).tolist():
        if i <= last:
            continue
        while _limit_interval(m, delta, i) and i + 1 < n - 1:
            i += 1
        last = i
    return m


def _limit_interval(m: np.ndarray, delta: np.ndarray, i: int) -> bool:
    """Fritsch-Carlson step on interval i; True when m[i + 1] changed."""
    right = m[i + 1]
    if delta[i] == 0.0:
        m[i] = 0.0
        m[i + 1] = 0.0
        return m[i + 1] != right
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
    return m[i + 1] != right
