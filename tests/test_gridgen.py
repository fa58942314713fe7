import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from conftest import set_workers
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from stretchgrid import gridgen
from stretchgrid.bench import load_bundled, resolve_domain
from stretchgrid.gridgen import (ENDPOINT_RTOL, Grid, GridConstructionError,
                                 KnotRule, StretchKind, StretchSpec,
                                 build_cubic, build_map, build_piecewise_c1,
                                 build_piecewise_c2, build_sinh,
                                 build_tavella_randall, sample_grid,
                                 second_derivative_jump, solve_depressed_cubic)
from test_acceptance import transcendental_calls

FIG1 = dict(s_min=0.0, s_max=150.0, critical_points=(125.0,), alphas=(1.5,))
FIG2 = dict(s_min=54.0, s_max=183.0, critical_points=(90.0, 102.0, 110.0),
            alphas=(1.3,))


def bisect_root(chi, d, lo, hi, iters=200):
    """Independent bracketing oracle for the depressed cubic root."""
    f = lambda t: t ** 3 / chi + t + d
    assert f(lo) * f(hi) <= 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestDepressedCubic:
    def test_zero(self):
        assert solve_depressed_cubic(6.0, 0.0) == 0.0

    def test_unit_root(self):
        assert solve_depressed_cubic(6.0, -7.0 / 6.0) == pytest.approx(1.0, abs=1e-14)

    def test_large_negative_root_vs_bisection(self):
        d = 125.0 / 1.5
        t = solve_depressed_cubic(6.0, d)
        assert t < 0
        oracle = bisect_root(6.0, d, -abs(d) - 1.0, 0.0)
        assert t == pytest.approx(oracle, abs=1e-10)
        assert abs(t ** 3 / 6.0 + t + d) <= 1e-13 * max(1.0, abs(d))

    def test_residual_bound_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            chi = rng.uniform(0.5, 20.0)
            d = rng.uniform(-1e4, 1e4)
            t = solve_depressed_cubic(chi, d)
            assert abs(t ** 3 / chi + t + d) <= 1e-13 * max(1.0, abs(d))

    def test_rejects_nonfinite(self):
        with pytest.raises(GridConstructionError):
            solve_depressed_cubic(6.0, math.nan)
        with pytest.raises(GridConstructionError):
            solve_depressed_cubic(-1.0, 2.0)


class TestSinh:
    def test_endpoints(self):
        m = build_sinh(StretchSpec(StretchKind.SINH, **FIG1))
        assert m(0.0) == pytest.approx(0.0, abs=1e-10 * 150)
        assert m(1.0) == pytest.approx(150.0, abs=1e-10 * 150)

    def test_critical_preimage(self):
        m = build_sinh(StretchSpec(StretchKind.SINH, **FIG1))
        u_star = m.critical_preimages()[0]
        assert u_star == pytest.approx(m.c1 / (m.c1 - m.c2))
        assert m(u_star) == pytest.approx(125.0, abs=1e-9)

    def test_spacing_minimal_at_barrier_63_points(self):
        m = build_sinh(StretchSpec(StretchKind.SINH, **FIG1))
        grid = sample_grid(m, 62)
        assert grid.n == 63
        gaps = np.diff(grid.points)
        assert np.argmin(gaps) == grid.bracket(125.0)


class TestCubic:
    def test_endpoints_and_preimage(self):
        m = build_cubic(StretchSpec(StretchKind.CUBIC, **FIG1))
        assert m(0.0) == pytest.approx(0.0, abs=1e-10 * 150)
        assert m(1.0) == pytest.approx(150.0, abs=1e-10 * 150)
        assert m(m.critical_preimages()[0]) == pytest.approx(125.0, abs=1e-9)

    def test_slope_matches_sinh_with_reduced_alpha(self):
        sinh = build_sinh(StretchSpec(StretchKind.SINH, **FIG1))
        cubic = build_cubic(StretchSpec(
            StretchKind.CUBIC, 0.0, 150.0, (125.0,), (0.9,)))
        s_slope = float(sinh.derivative(sinh.critical_preimages()[0]))
        c_slope = float(cubic.derivative(cubic.critical_preimages()[0]))
        assert abs(c_slope - s_slope) / s_slope < 0.10

    def test_matches_definition(self):
        m = build_cubic(StretchSpec(StretchKind.CUBIC, **FIG1))
        u = np.linspace(0.0, 1.0, 257)
        t = m.c1 + (m.c2 - m.c1) * u
        direct = 125.0 + 1.5 * (t ** 3 / 6.0 + t)
        assert np.max(np.abs(m(u) - direct)) < 1e-10


CHUNK = gridgen._EVAL_CHUNK
THREADED = gridgen._THREADED_CHUNKS * CHUNK  # the smallest batch split across threads


def count_started(monkeypatch) -> list:
    """Record every thread started from now on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


class TestThreadedEval:
    # One map of every family; the multi-point families on FIG2, so that the
    # C2 map has quintic patches.
    MAPS = {kind: build_map(StretchSpec(kind, **FIG1)) for kind in
            (StretchKind.SINH, StretchKind.CUBIC, StretchKind.UNIFORM)}
    MAPS.update({kind: build_map(StretchSpec(kind, **FIG2)) for kind in
                 (StretchKind.PIECEWISE_CUBIC_C1, StretchKind.PIECEWISE_C2,
                  StretchKind.TAVELLA_RANDALL)})

    @pytest.mark.parametrize("kind, samples", [
        *((kind, samples) for kind in (StretchKind.SINH, StretchKind.CUBIC)
          for samples in (THREADED - 1, THREADED, THREADED + 7, 3_000_005, 0)),
        *((kind, THREADED + 7) for kind in MAPS
          if kind not in (StretchKind.SINH, StretchKind.CUBIC))])
    def test_every_width_gives_the_bits_of_the_serial_loop(self, monkeypatch, kind, samples):
        mapping = self.MAPS[kind]
        u = np.random.default_rng(samples).random(samples)
        # one call per chunk: each batch is below the threshold, so serial
        serial = np.concatenate([mapping(u[i:i + CHUNK]) for i in range(0, samples, CHUNK)]
                                or [mapping(u)])
        for width in (1, 2, 3):
            with monkeypatch.context() as patch:
                set_workers(patch, width)
                started = count_started(patch)
                out = mapping(u)
            assert len(started) == (width - 1 if samples >= THREADED else 0)
            assert out.shape == u.shape
            assert np.array_equal(out.view(np.int64), serial.view(np.int64)), width

    def test_many_threads_switching_often_keep_the_bits(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter
        # allows: a chunk evaluated twice, or never, breaks the values.
        mapping = self.MAPS[StretchKind.CUBIC]
        u = np.random.default_rng(8).random(THREADED + 7)
        serial = np.concatenate([mapping(u[i:i + CHUNK]) for i in range(0, u.size, CHUNK)])
        set_workers(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = mapping(u)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out.view(np.int64), serial.view(np.int64))

    def test_a_failing_part_raises_in_the_caller_after_every_join(self, monkeypatch):
        # Three parts of the chunks; chunk 60 of 80 lies in the last one.
        set_workers(monkeypatch, 3)
        u = np.arange(THREADED, dtype=float)

        def kernel(src, dst):
            if src[0] == 60 * CHUNK:
                raise ValueError("chunk 60")
            dst[:] = src

        before = threading.active_count()
        with pytest.raises(ValueError, match="chunk 60"):
            gridgen._chunked_eval(kernel, u)
        assert threading.active_count() == before

    def test_an_interrupt_stops_the_other_parts_before_their_next_chunk(self, monkeypatch):
        set_workers(monkeypatch, 2)
        monkeypatch.setattr(gridgen, "_EVAL_CHUNK", 1)
        u = np.arange(2 * 1000, dtype=float)   # 1,000 one-sample chunks a part
        other = []

        def kernel(src, dst):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            other.append(src[0])
            time.sleep(0.001)

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            gridgen._chunked_eval(kernel, u)
        assert threading.active_count() == before
        assert len(other) < 100

    def test_an_overflow_in_a_threads_part_raises_as_on_the_caller(self, monkeypatch):
        set_workers(monkeypatch, 2)
        u = np.zeros(THREADED)
        u[-1] = 1e3   # sinh(c1 + dc * 1e3) overflows, in the second part
        mapping = self.MAPS[StretchKind.SINH]
        with np.errstate(over="ignore"):
            assert np.isinf(mapping(u)[-1])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                mapping(u)

    def test_threaded_cubic_makes_no_transcendental_call(self, monkeypatch):
        # Criterion 7's probe, on a batch split across two threads.
        set_workers(monkeypatch, 2)
        started = count_started(monkeypatch)
        u = np.linspace(0.0, 1.0, THREADED + 7)
        assert not transcendental_calls(monkeypatch, self.MAPS[StretchKind.CUBIC], u)
        assert "sinh" in transcendental_calls(monkeypatch, self.MAPS[StretchKind.SINH], u)
        assert len(started) == 2


class TestOnePath:
    """Every family evaluates through ``StretchMap.__call__``: scalars,
    arrays of any shape and large batches all go through ``_chunked_eval``."""

    MAPS = TestThreadedEval.MAPS

    @pytest.mark.parametrize("kind", MAPS)
    def test_a_scalar_gets_the_bits_of_the_same_sample_in_an_array(self, kind):
        mapping = self.MAPS[kind]
        u = np.random.default_rng(0).random(2000)
        scalars = np.array([mapping(float(x)) for x in u])
        assert np.array_equal(scalars.view(np.int64), mapping(u).view(np.int64))

    @pytest.mark.parametrize("width", [1, 2])
    def test_a_2d_batch_is_chunked_and_threaded_as_its_flat_copy(self, monkeypatch, width):
        mapping = build_map(StretchSpec(StretchKind.CUBIC, **FIG1))
        u = np.random.default_rng(width).random((gridgen._THREADED_CHUNKS, CHUNK))
        flat = mapping(u.ravel().copy())
        calls = []
        kernel = mapping._eval

        def recording(src, dst):
            calls.append((threading.current_thread().name, src.size))
            kernel(src, dst)

        mapping._eval = recording
        set_workers(monkeypatch, width)
        out = mapping(u)
        assert out.shape == u.shape
        assert np.array_equal(out.ravel().view(np.int64), flat.view(np.int64))
        assert [size for _, size in calls] == [CHUNK] * gridgen._THREADED_CHUNKS
        assert len({name for name, _ in calls}) == width

    @pytest.mark.parametrize("kind", MAPS)
    def test_a_0d_input_gives_a_numpy_float(self, kind):
        mapping = self.MAPS[kind]
        for u in (0.3, np.float64(0.3), np.array(0.3), 1):
            value = mapping(u)
            assert type(value) is np.float64
            assert value == mapping(np.array([u], dtype=float))[0]

    @pytest.mark.parametrize("kind", MAPS)
    def test_an_empty_batch_keeps_its_shape(self, kind):
        for shape in ((0,), (3, 0), (0, 2, 5)):
            out = self.MAPS[kind](np.empty(shape))
            assert out.shape == shape and out.dtype == np.float64

    def test_sampling_at_the_ode_resolution_leaves_the_trajectory_alone(self):
        # At I = ode_steps every sample is a trajectory node; the grid must
        # still be a fresh array, since sample_grid snaps its endpoints.
        m = build_tavella_randall(StretchSpec(StretchKind.TAVELLA_RANDALL, **FIG2), 512)
        trajectory = m.trajectory_s.copy()
        grid = sample_grid(m, 512)
        assert np.array_equal(grid.points, trajectory)
        assert not np.shares_memory(grid.points, m.trajectory_s)
        grid.points[1:-1] += 1.0
        assert np.array_equal(m.trajectory_s.view(np.int64), trajectory.view(np.int64))


class TestPiecewiseC1:
    def test_single_point_reduces_to_cubic(self):
        spec1 = StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, 0.0, 150.0, (125.0,), (0.9,))
        spec2 = StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (125.0,), (0.9,))
        u = np.linspace(0.0, 1.0, 1025)
        diff = np.abs(build_piecewise_c1(spec1)(u) - build_cubic(spec2)(u))
        assert np.max(diff) < 1e-12 * 150

    def test_symmetric_pair_splits_at_half(self):
        spec = StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, 0.0, 200.0,
                           (80.0, 120.0), (2.0,))
        m = build_piecewise_c1(spec)
        assert m.knots[1] == pytest.approx(0.5, abs=1e-12)

    def test_fig2_configuration(self):
        m = build_piecewise_c1(StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, **FIG2))
        u = np.linspace(0.0, 1.0, 1025)
        s = m(u)
        assert np.all(np.diff(s) > 0)
        # one-sided derivatives agree at the interior knots
        for i in (1, 2):
            d = m.knots[i]
            left = float(m.piece_deriv(d, i - 1))
            right = float(m.piece_deriv(d, i))
            assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))
        # forward-difference derivative dips at each critical point
        grid = sample_grid(m, 49)
        gaps = np.diff(grid.points)
        for b in FIG2["critical_points"]:
            k = grid.bracket(b)
            lo, hi = max(0, k - 3), min(len(gaps), k + 4)
            assert gaps[k] <= gaps[lo:hi].min() + 1e-12

    def test_knot_interpolation_conditions(self):
        m = build_piecewise_c1(StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, **FIG2))
        assert m.knots[0] == 0.0 and m.knots[-1] == 1.0
        assert np.all(np.diff(m.knots) > 0)
        for i in range(3):
            assert float(m.piece_value(m.knots[i + 1], i)) == pytest.approx(
                m.mids[i + 1], abs=1e-9)


class TestSecondDerivativeJump:
    def test_antisymmetric_for_shared_alpha(self):
        m = build_piecewise_c1(StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, **FIG2))
        for i in (1, 2):
            left, right = second_derivative_jump(m, i)
            assert abs(left + right) <= 1e-10 * max(abs(left), abs(right))

    def test_single_piece_has_no_jumps(self):
        m = build_piecewise_c1(StretchSpec(
            StretchKind.PIECEWISE_CUBIC_C1, 0.0, 150.0, (125.0,), (0.9,)))
        assert second_derivative_jump(m, 1) == ()

    def test_out_of_range_index(self):
        m = build_piecewise_c1(StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, **FIG2))
        with pytest.raises(IndexError):
            second_derivative_jump(m, 3)

    def test_values_match_numerical_differentiation(self):
        m = build_piecewise_c1(StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, **FIG2))
        left, right = second_derivative_jump(m, 1)
        assert left > 0 > right
        d, h = m.knots[1], 1e-6
        fd_left = (m.piece_deriv(d, 0) - m.piece_deriv(d - h, 0)) / h
        fd_right = (m.piece_deriv(d + h, 1) - m.piece_deriv(d, 1)) / h
        assert left == pytest.approx(float(fd_left), rel=1e-4)
        assert right == pytest.approx(float(fd_right), rel=1e-4)


class TestPiecewiseC2:
    def test_patch_interpolation_conditions(self):
        m = build_piecewise_c2(StretchSpec(StretchKind.PIECEWISE_C2, **FIG2))
        assert m.patches, "both junctions should accept their quintic"
        for p in m.patches:
            for u0, piece in ((p.u_lo, p.junction - 1), (p.u_hi, p.junction)):
                scale = max(1.0, abs(float(m.piece_deriv2(u0, piece))))
                assert float(p.value(u0)) == pytest.approx(
                    float(m.piece_value(u0, piece)), abs=1e-10 * 150)
                assert float(p.deriv(u0)) == pytest.approx(
                    float(m.piece_deriv(u0, piece)), rel=1e-10, abs=1e-10)
                assert abs(float(p.deriv2(u0)) - float(m.piece_deriv2(u0, piece))) \
                    <= 1e-9 * scale

    def test_grid_virtually_identical_to_c1(self):
        c1 = build_piecewise_c1(StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, **FIG2))
        c2 = build_piecewise_c2(StretchSpec(StretchKind.PIECEWISE_C2, **FIG2))
        g1 = sample_grid(c1, 49)
        g2 = sample_grid(c2, 49)
        mean_gap = np.mean(np.diff(g1.points))
        assert np.max(np.abs(g1.points - g2.points)) < 0.01 * mean_gap

    def test_inverse_rule_half_lambda_starts_at_critical_points(self):
        spec = StretchSpec(StretchKind.PIECEWISE_C2, lam=0.5,
                           knot_rule=KnotRule.INVERSE, **FIG2)
        m = build_piecewise_c2(spec)
        pre = m.critical_preimages()
        for p in m.patches:
            assert p.u_lo == pytest.approx(pre[p.junction - 1], abs=1e-12)
            assert p.u_hi == pytest.approx(pre[p.junction], abs=1e-12)

    def test_direct_rule_also_monotone(self):
        spec = StretchSpec(StretchKind.PIECEWISE_C2, knot_rule=KnotRule.DIRECT, **FIG2)
        m = build_piecewise_c2(spec)
        u = np.linspace(0.0, 1.0, 2049)
        assert np.all(np.diff(m(u)) > 0)


class TestTavellaRandall:
    def test_huge_alpha_is_linear(self):
        spec = StretchSpec(StretchKind.TAVELLA_RANDALL, 0.0, 150.0, (125.0,),
                           (1e6 * 150.0,))
        m = build_tavella_randall(spec, 64)
        u = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(m(u) - 150.0 * u)) / 150.0 < 1e-6

    def test_terminal_residual(self):
        m = build_tavella_randall(StretchSpec(StretchKind.TAVELLA_RANDALL, **FIG2), 512)
        assert abs(m(1.0) - 183.0) <= 1e-10 * (183.0 - 54.0)

    def test_spacing_profile_single_point(self):
        spec = StretchSpec(StretchKind.TAVELLA_RANDALL, **FIG1)
        m = build_tavella_randall(spec, 1024)
        grid = sample_grid(m, 62)
        gaps = np.diff(grid.points)
        assert np.argmin(gaps) == grid.bracket(125.0)
        # far below the critical point the grid is roughly exponential:
        # successive spacing ratios settle to a stable factor > 1
        ratios = gaps[1:9] / gaps[0:8]
        assert np.all(ratios < 1.0) or np.all(ratios > 1.0)
        assert np.max(np.abs(np.diff(ratios))) < 0.05

    def test_rejects_tiny_ode_resolution(self):
        with pytest.raises(GridConstructionError):
            build_tavella_randall(StretchSpec(StretchKind.TAVELLA_RANDALL, **FIG1), 8)

    def test_sharp_peaks_survive_bracket_probing(self):
        # an oversized shooting constant runs away exponentially; the probe
        # integration must cap instead of overflowing
        spec = StretchSpec(StretchKind.TAVELLA_RANDALL, 0.0, 100.0,
                           (20.0, 50.0, 80.0), (0.05,))
        m = build_tavella_randall(spec, 2048)
        s = m(np.linspace(0.0, 1.0, 2049))
        assert np.all(np.diff(s) > 0)
        assert abs(float(s[-1]) - 100.0) <= 1e-8

    def test_derivative_matches_jacobian(self):
        # derivative() returns the exact Jacobian at S(u); the finite
        # difference rides the interpolated trajectory, so they agree only
        # to the trajectory interpolation error.
        m = build_tavella_randall(StretchSpec(StretchKind.TAVELLA_RANDALL, **FIG2), 512)
        u = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (m(u + h) - m(u - h)) / (2 * h)
        assert np.allclose(m.derivative(u), fd, rtol=2e-3)


def table4_tavella_randall_builds() -> set:
    """(spec, ode_steps) of every Tavella-Randall map table 4 builds."""
    builds = set()
    for _, cfg in load_bundled(4).columns:
        if cfg.stretch.kind is StretchKind.TAVELLA_RANDALL:
            for steps in (*cfg.space_steps, cfg.reference_steps):
                s_min, s_max, intervals = resolve_domain(cfg, steps)
                builds.add((dataclasses.replace(cfg.stretch, s_min=s_min,
                                                s_max=s_max), 8 * intervals))
    return builds


def reference_tavella_randall(spec, ode_steps):
    """Plain shooting bisection: every bracket probe and midpoint integrated.

    ``build_tavella_randall``'s predicted-bracket replay must return this
    constant and trajectory bit for bit.
    """
    points = [float(b) for b in spec.critical_points]
    alphas = [float(a) for a in spec.alpha_per_point()]
    s_min, s_max, rng = spec.s_min, spec.s_max, spec.range
    cap = s_max + 10.0 * rng

    def f(a_const):
        return gridgen._tr_integrate(a_const, s_min, points, alphas, ode_steps,
                                     cap=cap)[-1] - s_max

    a_hi = rng * math.sqrt(sum(1.0 / (a * a) for a in alphas))
    a_lo = rng / min(math.sqrt(a * a + max(abs(s_min - b), abs(s_max - b)) ** 2)
                     for a, b in zip(alphas, points))
    f_lo, f_hi = f(a_lo), f(a_hi)
    while f_lo > 0.0 or f_hi < 0.0:
        if f_lo > 0.0:
            a_lo *= 0.5
            f_lo = f(a_lo)
        if f_hi < 0.0:
            a_hi *= 2.0
            f_hi = f(a_hi)
    tol = ENDPOINT_RTOL * rng * 0.5
    while True:
        a_mid = 0.5 * (a_lo + a_hi)
        f_mid = f(a_mid)
        if abs(f_mid) <= tol:
            break
        if f_mid < 0.0:
            a_lo = a_mid
        else:
            a_hi = a_mid
        if a_hi - a_lo <= 1e-16 * a_hi:
            break
    path = gridgen._tr_integrate(a_mid, s_min, points, alphas, ode_steps)
    path[0], path[-1] = s_min, s_max
    return a_mid, path


def assert_same_map(m, spec, ode_steps):
    a_ref, path_ref = reference_tavella_randall(spec, ode_steps)
    assert m.normalizer == a_ref
    assert np.array_equal(m.trajectory_s, path_ref)


@st.composite
def tr_specs(draw):
    s_min = draw(st.floats(0.0, 100.0))
    width = draw(st.floats(20.0, 300.0))
    fractions = draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4,
                              unique=True))
    points = tuple(sorted(s_min + width * f for f in fractions))
    assume(all(b > a for a, b in zip(points, points[1:])))
    alphas = draw(st.lists(st.floats(0.2, 30.0), min_size=1, max_size=1)
                  | st.lists(st.floats(0.2, 30.0), min_size=len(points),
                             max_size=len(points)))
    spec = StretchSpec(StretchKind.TAVELLA_RANDALL, s_min, s_min + width,
                       points, tuple(alphas))
    return spec, draw(st.integers(16, 2048))


class TestTavellaRandallShooting:
    @settings(max_examples=40, deadline=None)
    @given(case=tr_specs())
    def test_replay_matches_plain_bisection_bit_for_bit(self, case):
        spec, ode_steps = case
        assert_same_map(build_tavella_randall(spec, ode_steps), spec, ode_steps)

    def test_sharp_peaks_match_plain_bisection(self):
        spec = StretchSpec(StretchKind.TAVELLA_RANDALL, 0.0, 100.0,
                           (20.0, 50.0, 80.0), (0.05,))
        for ode_steps in (16, 2048):
            assert_same_map(build_tavella_randall(spec, ode_steps), spec, ode_steps)

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_wrong_prediction_changes_nothing(self, monkeypatch, factor):
        spec = StretchSpec(StretchKind.TAVELLA_RANDALL, **FIG2)
        quadrature = gridgen._tr_quadrature
        monkeypatch.setattr(gridgen, "_tr_quadrature",
                            lambda *args: factor * quadrature(*args))
        assert_same_map(build_tavella_randall(spec, 512), spec, 512)

    def test_table4_builds_integrate_at_most_ten_times(self, monkeypatch):
        integrate = gridgen._tr_integrate
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(gridgen, "_tr_integrate", counting)
        builds = table4_tavella_randall_builds()
        assert len(builds) == 5
        for spec, ode_steps in builds:   # the parent bisection needs 38-43
            calls.clear()
            build_tavella_randall(spec, ode_steps)
            assert len(calls) <= 10, (ode_steps, len(calls))

    def test_table4_builds_integrate_on_plain_floats(self, monkeypatch):
        # The RK4 loop runs about three times slower on a numpy scalar
        # constant than on a float; the secant probes of the bracket come
        # from terminal values, so those must be floats too.
        integrate = gridgen._tr_integrate
        constants = []

        def recording(a_const, *args, **kwargs):
            constants.append(type(a_const))
            return integrate(a_const, *args, **kwargs)

        monkeypatch.setattr(gridgen, "_tr_integrate", recording)
        for spec, ode_steps in table4_tavella_randall_builds():
            build_tavella_randall(spec, ode_steps)
        assert len(constants) >= 25 and set(constants) == {float}

    def test_single_point_prediction_is_the_asinh_closed_form(self):
        for b, alpha in ((125.0, 1.5), (10.0, 0.05), (75.0, 400.0)):
            spec = StretchSpec(StretchKind.TAVELLA_RANDALL, 0.0, 150.0, (b,), (alpha,))
            exact = math.asinh((150.0 - b) / alpha) - math.asinh((0.0 - b) / alpha)
            got = gridgen._tr_quadrature([b], [alpha], spec.s_min, spec.s_max)
            assert got == pytest.approx(exact, rel=1e-12, abs=0)
            # the same constant as the sinh map's c2 - c1
            sinh = build_sinh(dataclasses.replace(spec, kind=StretchKind.SINH))
            assert got == pytest.approx(sinh.c2 - sinh.c1, rel=1e-12, abs=0)

    def test_multi_point_prediction_matches_adaptive_quadrature(self):
        for points, alphas in (((90.0, 102.0, 110.0), (1.3, 1.3, 1.3)),
                               ((20.0, 50.0, 80.0), (0.05, 2.0, 30.0))):
            got = gridgen._tr_quadrature(points, alphas, 10.0, 190.0)
            ref, _ = quad(lambda s: 1.0 / gridgen._tr_speed(s, points, alphas),
                          10.0, 190.0, points=points, limit=400,
                          epsabs=0.0, epsrel=1e-13)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_gauss_legendre_rule_matches_numpy(self):
        x, w = gridgen._gauss_legendre(24)
        order = np.argsort(x)
        x_ref, w_ref = np.polynomial.legendre.leggauss(24)
        assert np.allclose(x[order], x_ref, rtol=0, atol=1e-15)
        assert np.allclose(w[order], w_ref, rtol=0, atol=1e-14)


class TestSampleGrid:
    def test_uniform_five_points(self):
        grid = sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, 0.0, 1.0)), 4)
        assert np.allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)

    def test_two_intervals(self):
        m = build_sinh(StretchSpec(StretchKind.SINH, **FIG1))
        grid = sample_grid(m, 2)
        assert grid.points[0] == 0.0 and grid.points[-1] == 150.0
        assert grid.points[1] == pytest.approx(float(m(0.5)))

    def test_rejects_single_interval(self):
        with pytest.raises(GridConstructionError):
            sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, 0.0, 1.0)), 1)


class TestSpecValidation:
    def test_zero_points_coerces_to_uniform(self):
        spec = StretchSpec(StretchKind.SINH, 0.0, 150.0)
        m = build_map(spec)
        u = np.linspace(0.0, 1.0, 11)
        assert np.allclose(m(u), 150.0 * u)

    def test_sinh_requires_single_point(self):
        with pytest.raises(GridConstructionError):
            StretchSpec(StretchKind.SINH, 0.0, 150.0, (60.0, 90.0), (1.0,))

    def test_points_must_be_interior_and_sorted(self):
        with pytest.raises(GridConstructionError):
            StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (150.0,), (1.0,))
        with pytest.raises(GridConstructionError):
            StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, 0.0, 150.0, (90.0, 80.0))

    def test_alpha_count_and_sign(self):
        with pytest.raises(GridConstructionError):
            StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (100.0,), (-1.0,))
        with pytest.raises(GridConstructionError):
            StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, 0.0, 150.0,
                        (90.0, 100.0, 110.0), (1.0, 2.0))

    @pytest.mark.parametrize("field, value, message", [
        ("alphas", (math.nan,), "alphas must be positive"),
        ("chi", math.nan, "chi must be positive"),
        ("chi", math.inf, r"chi must be positive and finite, got inf"),
        ("lam", math.nan, "lam must be in"),
    ])
    def test_nan_shape_parameters_are_rejected(self, field, value, message):
        with pytest.raises(GridConstructionError, match=message):
            StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (100.0,), **{field: value})

    @pytest.mark.parametrize("kind", list(StretchKind))
    def test_infinite_alpha_is_rejected(self, kind):
        with pytest.raises(GridConstructionError,
                           match=r"alphas must be positive and finite, got \(inf,\)"):
            StretchSpec(kind, 0.0, 150.0, (100.0,), (math.inf,))

    def test_default_alpha_is_half_percent_of_range(self):
        spec = StretchSpec(StretchKind.PIECEWISE_CUBIC_C1, 54.57, 183.25,
                           (90.0, 102.0, 110.0))
        assert spec.alpha_per_point() == pytest.approx(
            np.full(3, 0.005 * (183.25 - 54.57)))

    def test_grid_type_rejects_nonmonotone(self):
        with pytest.raises(GridConstructionError):
            Grid(np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_type_rejects_non_finite_points(self, bad):
        with pytest.raises(GridConstructionError, match=rf"grid point 1 is {bad}, not finite"):
            Grid(np.array([0.0, bad, 2.0]))
