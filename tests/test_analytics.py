import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stretchgrid
from stretchgrid.analytics import black_scholes_vanilla, double_barrier_ko_analytic


def lognormal_quadrature_price(S, K, T, r, q, sigma, put_call, nodes=200):
    """Gauss-Legendre integration of the payoff against the lognormal
    density, split at the payoff kink so the integrand is smooth."""
    drift = (r - q - 0.5 * sigma * sigma) * T
    vol = sigma * math.sqrt(T)
    z_kink = (math.log(K / S) - drift) / vol
    lo, hi = (z_kink, 14.0) if put_call == "call" else (-14.0, z_kink)
    z, w = np.polynomial.legendre.leggauss(nodes)
    zz = 0.5 * (hi - lo) * z + 0.5 * (hi + lo)
    ww = 0.5 * (hi - lo) * w
    st = S * np.exp(drift + vol * zz)
    pay = st - K if put_call == "call" else K - st
    dens = np.exp(-zz * zz / 2.0) / math.sqrt(2.0 * math.pi)
    return math.exp(-r * T) * float(np.sum(ww * dens * pay))


class TestVanilla:
    def test_zero_strike_call(self):
        v = black_scholes_vanilla(100.0, 0.0, 1.0, 0.07, 0.02, 0.20, "call")
        assert v == pytest.approx(100.0 * math.exp(-0.02), abs=1e-12)

    def test_put_call_parity(self):
        c = black_scholes_vanilla(100.0, 100.0, 1.0, 0.07, 0.02, 0.20, "call")
        p = black_scholes_vanilla(100.0, 100.0, 1.0, 0.07, 0.02, 0.20, "put")
        fwd_leg = 100.0 * math.exp(-0.02) - 100.0 * math.exp(-0.07)
        assert c - p == pytest.approx(fwd_leg, abs=1e-12)

    def test_matches_lognormal_quadrature(self):
        for put_call in ("call", "put"):
            closed = black_scholes_vanilla(100.0, 100.0, 1.0, 0.07, 0.02, 0.20, put_call)
            quad = lognormal_quadrature_price(100.0, 100.0, 1.0, 0.07, 0.02, 0.20, put_call)
            assert closed == pytest.approx(quad, abs=1e-10)

    def test_zero_vol_is_discounted_forward_intrinsic(self):
        v = black_scholes_vanilla(100.0, 90.0, 1.0, 0.05, 0.0, 0.0, "call")
        fwd = 100.0 * math.exp(0.05)
        assert v == pytest.approx(math.exp(-0.05) * (fwd - 90.0), abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            black_scholes_vanilla(-1.0, 100.0, 1.0, 0.0, 0.0, 0.2)
        with pytest.raises(ValueError):
            black_scholes_vanilla(100.0, 100.0, 1.0, 0.0, 0.0, 0.2, "straddle")


class TestDoubleBarrier:
    CASE = dict(S=95.0, K=100.0, T=1.0, r=0.10, q=0.0, sigma=0.25, L=90.0, U=160.0)

    def test_reference_price(self):
        v = double_barrier_ko_analytic(**self.CASE)
        assert v == pytest.approx(3.460714, abs=5e-4)

    def test_absorbing_at_lower_barrier(self):
        near = dict(self.CASE, S=90.0 + 1e-7)
        assert double_barrier_ko_analytic(**near) < 1e-4
        out = dict(self.CASE, S=89.0)
        assert double_barrier_ko_analytic(**out) == 0.0

    def test_single_barrier_limit_consistent(self):
        wide = dict(self.CASE, U=1e6)
        wider = dict(self.CASE, U=1e7)
        v1 = double_barrier_ko_analytic(**wide)
        v2 = double_barrier_ko_analytic(**wider)
        assert v1 == pytest.approx(v2, abs=1e-8)
        # also against the two-image closed form for a single lower barrier
        S, K, T, r, sigma, L = 95.0, 100.0, 1.0, 0.10, 0.25, 90.0
        k0 = 2.0 * r / sigma ** 2
        vanilla = black_scholes_vanilla(S, K, T, r, 0.0, sigma, "call")
        reflected = black_scholes_vanilla(L * L / S, K, T, r, 0.0, sigma, "call")
        down_out = vanilla - (S / L) ** (1.0 - k0) * reflected
        assert v1 == pytest.approx(down_out, abs=1e-8)

    def test_truncation_tail_negligible(self):
        # doubling the image pairs moves the price by less than 1e-10
        p32 = double_barrier_ko_analytic(**self.CASE, terms=32)
        p64 = double_barrier_ko_analytic(**self.CASE, terms=64)
        assert abs(p64 - p32) < 1e-10

    def test_put_branch_below_call(self):
        put = double_barrier_ko_analytic(put_call="put", **self.CASE)
        call = double_barrier_ko_analytic(put_call="call", **self.CASE)
        assert 0.0 < put < call

    def test_rejects_bad_barriers(self):
        with pytest.raises(ValueError):
            double_barrier_ko_analytic(95.0, 100.0, 1.0, 0.1, 0.0, 0.25, 160.0, 90.0)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats, scipy.special and scipy.linalg cost most of a cold import;
    # the scalar oracles need only the normal CDF, which math.erfc gives.
    # _lapack binds LAPACK from the OpenBLAS numpy bundles, so where numpy
    # bundles one, importing the package and marching a column loads no scipy
    # module at all; elsewhere it loads the compiled _flapack module alone.
    src = str(Path(stretchgrid.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import stretchgrid; "
             "from stretchgrid import _lapack, bench; "
             "column = bench.load_bundled(4).columns[0]; "
             "bench.TableConfig((column,)).run(); "
             "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules, "
             "'scipy.linalg' in sys.modules, 'numpy.ma' in sys.modules, "
             "_lapack.BUNDLED is not None, "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    *unloaded, bundled, scipy_modules = out.stdout.strip().split(" ", 5)
    # numpy.ma (≈2 MB of peak RSS) is loaded by some numpy set routines
    assert unloaded == ["False", "False", "False", "False"]
    if bundled == "True":
        assert scipy_modules == "[]"
