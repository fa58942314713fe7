"""Closed-form reference prices used as oracles for the PDE engine."""

from __future__ import annotations

import math


def ndtr(x: float) -> float:
    """Standard normal CDF; erfc keeps the lower tail accurate."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes_vanilla(S: float, K: float, T: float, r: float, q: float,
                          sigma: float, put_call: str = "call") -> float:
    """Standard Black-Scholes price with continuous dividend yield.

    The sigma -> 0 (or K -> 0) limits return discounted intrinsic value on
    the forward.
    """
    if S < 0.0 or K < 0.0 or T <= 0.0 or sigma < 0.0:
        raise ValueError("need S, K >= 0, T > 0 and sigma >= 0")
    if put_call not in ("call", "put"):
        raise ValueError(f"put_call must be 'call' or 'put', got {put_call!r}")
    df_r = math.exp(-r * T)
    df_q = math.exp(-q * T)
    fwd = S * df_q / df_r
    if sigma == 0.0 or K == 0.0 or S == 0.0:
        intrinsic = fwd - K if put_call == "call" else K - fwd
        return df_r * max(intrinsic, 0.0)
    vol = sigma * math.sqrt(T)
    d1 = (math.log(S / K) + (r - q + 0.5 * sigma * sigma) * T) / vol
    d2 = d1 - vol
    if put_call == "call":
        return S * df_q * ndtr(d1) - K * df_r * ndtr(d2)
    return K * df_r * ndtr(-d2) - S * df_q * ndtr(-d1)


def double_barrier_ko_analytic(S: float, K: float, T: float, r: float, q: float,
                               sigma: float, L: float, U: float,
                               put_call: str = "call", terms: int = 32) -> float:
    """Continuously monitored double knock-out price by the method of images.

    The absorbed log-price density on (ln L, ln U) is the reflection-group
    image sum of Gaussians; the drift enters through an endpoint-only measure
    change, so every image integrates against the payoff in closed form.
    With the default 32 image pairs the truncation error is far below 1e-10
    for any realistic barrier width.
    """
    if L <= 0.0 or U <= L:
        raise ValueError("need 0 < L < U")
    if put_call not in ("call", "put"):
        raise ValueError(f"put_call must be 'call' or 'put', got {put_call!r}")
    if not L < S < U:
        return 0.0
    if T <= 0.0 or sigma <= 0.0:
        payoff = max(S - K, 0.0) if put_call == "call" else max(K - S, 0.0)
        return payoff

    v = sigma * sigma * T
    sq = math.sqrt(v)
    lo = math.log(L / S)
    hi = math.log(U / S)
    k = math.log(K / S) if K > 0.0 else -math.inf
    width = hi - lo
    drift = (r - q - 0.5 * sigma * sigma) * T
    a = drift / v

    if put_call == "call":
        x_lo, x_hi = max(k, lo), hi
        sign = 1.0
    else:
        x_lo, x_hi = lo, min(k, hi)
        sign = -1.0
    if x_lo >= x_hi:
        return 0.0

    def gauss_moment(p: float, center: float) -> float:
        # integral over [x_lo, x_hi] of e^{p x} phi_v(x - center), kept in
        # log space so far-out image centers underflow to zero instead of
        # overflowing the exponential prefactor.
        upper = (x_hi - center - p * v) / sq
        lower = (x_lo - center - p * v) / sq
        diff = ndtr(upper) - ndtr(lower)
        if diff <= 0.0:
            return 0.0
        log_term = p * center + 0.5 * p * p * v + math.log(diff)
        if log_term < -745.0:
            return 0.0
        return math.exp(log_term)

    total = 0.0
    for n in range(-terms, terms + 1):
        for center, w in ((2.0 * n * width, 1.0), (2.0 * hi + 2.0 * n * width, -1.0)):
            term_s = gauss_moment(a + 1.0, center)
            term_k = gauss_moment(a, center)
            total += w * sign * (S * term_s - K * term_k)
    return math.exp(-r * T - 0.5 * a * a * v) * total

