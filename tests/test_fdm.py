import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import types
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stretchgrid import fdm
from stretchgrid.analytics import black_scholes_vanilla
from stretchgrid.fdm import (BDF2_NEW, BDF2_OLD, OMEGA, AmericanProjection,
                             BarrierMode, BoundaryCondition, BoundaryKind,
                             DirichletRegion, DiscreteKnockout,
                             GhostBarrier, GhostSide, Hook,
                             MarketParams, NonFiniteValueError, PdeConfig,
                             SingularSystemError, Stack, TrBdf2Stepper,
                             attach_boundary_rows, discretize_operator,
                             first_derivative_weights,
                             second_derivative_weights)
from stretchgrid.gridgen import Grid, StretchKind, StretchSpec, build_map, sample_grid
from stretchgrid.instruments import (ContractSpec, ExerciseStyle, OptionType,
                                     constraint_hooks, payoff)
from stretchgrid.placement import (PlacementMode, PlacementSpec, Target,
                                   apply_placement)
from stretchgrid.spline import MonotoneCubic


def dense_matrix(lower, diag, upper) -> np.ndarray:
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def lagrange_row(points, nodes, x, n):
    """Dense ghost row: Lagrange weights at x of ``nodes``, zero elsewhere."""
    row = np.zeros(n)
    for j in nodes:
        others = [k for k in nodes if k != j]
        row[j] = np.prod([(x - points[k]) / (points[j] - points[k]) for k in others])
    return row


def ghost_override(ghost_rows, rebate):
    """Explicit-half override: each ghost value solves its row for the rebate."""
    def override(v):
        v = v.copy()
        for g, row in ghost_rows.items():
            v[g] = (rebate - (row @ v - row[g] * v[g])) / row[g]
        return v
    return override


def dense_trbdf2_step(v, dt, op, rows=None, override=None):
    """One TR-BDF2 step solved densely with numpy, as an engine-free reference.

    ``rows`` maps a row index to (coefficients, rhs value): that equation
    replaces the operator row in both substage systems.  ``override`` maps
    the old values to the vector the explicit half-steps use.
    """
    n = op.n
    lop = np.diag(op.diag) + np.diag(op.lower[1:], -1) + np.diag(op.upper[:-1], 1)
    w = OMEGA * dt
    a = np.eye(n) - w * lop
    rows = rows or {}
    for row, (coeffs, _) in rows.items():
        a[row] = coeffs
    v_eff = override(v) if override else v

    def solve(rhs):
        rhs = rhs.copy()
        for row, (_, value) in rows.items():
            rhs[row] = value
        return np.linalg.solve(a, rhs)

    stage = solve(v_eff + w * lop @ v_eff)
    return solve(BDF2_NEW * stage - BDF2_OLD * v_eff)


class TestStencils:
    def test_zero_market_zero_operator(self):
        grid = Grid(np.linspace(10.0, 20.0, 11))
        op = discretize_operator(grid, MarketParams(0.0, 0.0, 0.0))
        assert np.all(op.lower == 0) and np.all(op.diag == 0) and np.all(op.upper == 0)

    def test_second_derivative_exact_on_quadratics(self):
        grid = sample_grid(build_map(
            StretchSpec(StretchKind.CUBIC, 10.0, 200.0, (100.0,), (5.0,))), 60)
        s = grid.points
        hm, hp = s[1:-1] - s[:-2], s[2:] - s[1:-1]
        w = second_derivative_weights(hm, hp)
        v = s ** 2
        d2 = w[0] * v[:-2] + w[1] * v[1:-1] + w[2] * v[2:]
        assert np.max(np.abs(d2 - 2.0)) < 1e-9
        w1 = first_derivative_weights(hm, hp)
        d1 = w1[0] * v[:-2] + w1[1] * v[1:-1] + w1[2] * v[2:]
        assert np.max(np.abs(d1 - 2.0 * s[1:-1])) < 1e-9

    def test_quartic_converges_at_second_order(self):
        # Richardson check: V = S^4 has V_SS = 12 S^2; halving h divides the
        # stencil error by about four.
        errs = []
        for n in (40, 80):
            s = np.linspace(1.0, 3.0, n + 1)
            hm, hp = s[1:-1] - s[:-2], s[2:] - s[1:-1]
            w = second_derivative_weights(hm, hp)
            v = s ** 4
            d2 = w[0] * v[:-2] + w[1] * v[1:-1] + w[2] * v[2:]
            errs.append(np.max(np.abs(d2 - 12.0 * s[1:-1] ** 2)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_operator_row_values(self):
        grid = Grid(np.array([90.0, 100.0, 115.0, 140.0]))
        mkt = MarketParams(0.05, 0.01, 0.3)
        op = discretize_operator(grid, mkt)
        s, hm, hp = 100.0, 10.0, 15.0
        d1 = first_derivative_weights(hm, hp)
        d2 = second_derivative_weights(hm, hp)
        diff = 0.5 * 0.09 * s * s
        conv = 0.04 * s
        assert op.lower[1] == pytest.approx(diff * d2[0] + conv * d1[0])
        assert op.diag[1] == pytest.approx(diff * d2[1] + conv * d1[1] - 0.05)
        assert op.upper[1] == pytest.approx(diff * d2[2] + conv * d1[2])

    def test_rejects_nonmonotone_grid(self):
        bad = Grid.__new__(Grid)
        bad.points = np.array([0.0, 2.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            discretize_operator(bad, MarketParams())


class ZeroRow(Hook):
    """Zeroes row 3 of its block's matrix, which makes it singular."""

    def stamp_matrix(self, lower, diag, upper):
        lower[3] = diag[3] = upper[3] = 0.0

    def adjust_rhs(self, rhs, tau):
        raise AssertionError("no step may run on a singular matrix")


class TestTrBdf2:
    def march(self, v, horizon, mkt, cfg=PdeConfig(1)):
        grid = Grid(np.linspace(50.0, 150.0, v.size))
        return TrBdf2Stepper(grid, mkt, cfg, horizon).run(v)

    def test_zero_operator_keeps_values(self):
        v = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        out = self.march(v, 0.1, MarketParams(0.0, 0.0, 0.0))
        assert np.max(np.abs(out - v)) < 1e-14

    def test_pure_discounting_is_third_order_per_step(self):
        # sigma = 0 and r = q leave L V = -r V on every row.
        r = 0.05
        v = np.array([1.0, 2.0, 3.0, 4.0])
        errs = []
        for dt in (0.2, 0.1, 0.05):
            out = self.march(v, dt, MarketParams(r, r, 0.0))
            errs.append(np.max(np.abs(out - v * math.exp(-r * dt))))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.15)

    def test_stepper_equals_single_step_helper(self):
        grid = sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, 0.0, 200.0)), 40)
        mkt = MarketParams(0.05, 0.01, 0.25)
        cfg = PdeConfig(1, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                        BoundaryCondition(BoundaryKind.ZERO_GAMMA))
        v0 = np.maximum(grid.points - 90.0, 0.0)
        stepper = TrBdf2Stepper(grid, mkt, cfg, 0.5, ())
        via_stepper = stepper.run(v0)
        op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, cfg)
        via_helper = dense_trbdf2_step(v0, 0.5, op)
        assert np.max(np.abs(via_stepper - via_helper)) < 1e-12

    def test_step_matches_dense_with_dirichlet_and_ghost_hooks(self):
        # Dirichlet boundary row, a knocked-out Dirichlet region and an
        # off-grid up barrier with three-point ghost rows and the region
        # beyond it pinned; the dense reference keeps the ghost row
        # unreduced (three entries).
        grid = sample_grid(build_map(StretchSpec(StretchKind.CUBIC, 0.0, 200.0,
                                                 (100.0,), (5.0,))), 40)
        s = grid.points
        n = s.size
        mkt = MarketParams(0.05, 0.01, 0.25)
        cfg = PdeConfig(1, BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 1.5),
                        BoundaryCondition(BoundaryKind.ZERO_GAMMA),
                        barrier_mode=BarrierMode.GHOST_LAGRANGE3)
        barrier = 0.5 * (s[30] + s[31])
        hook = GhostBarrier(s, barrier, BarrierMode.GHOST_LAGRANGE3, rebate=0.3,
                            side=GhostSide.UP)
        assert hook.ghost == 31
        hooks = (DirichletRegion(1, 4, 0.0), hook, DirichletRegion(32, n, 0.3))
        v0 = np.maximum(s - 90.0, 0.0)
        via_stepper = TrBdf2Stepper(grid, mkt, cfg, 0.5, hooks).run(v0)

        rows = {0: (np.eye(n)[0], 1.5)}
        rows.update({i: (np.eye(n)[i], 0.0) for i in range(1, 4)})
        ghost_row = lagrange_row(s, (31, 30, 29), barrier, n)
        rows[31] = (ghost_row, 0.3)
        rows.update({i: (np.eye(n)[i], 0.3) for i in range(32, n)})
        op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, cfg)
        expect = dense_trbdf2_step(v0, 0.5, op, rows, ghost_override({31: ghost_row}, 0.3))
        assert np.max(np.abs(via_stepper - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_singular_matrix_raises_from_run(self):
        # Building a block factors nothing; the zero pivot rises where the
        # block is stacked and factored, before any step.
        grid = Grid(np.linspace(50.0, 150.0, 6))
        stepper = TrBdf2Stepper(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(4), 1.0,
                                (ZeroRow(),))
        with pytest.raises(SingularSystemError) as err:
            stepper.run(np.ones(6))
        # gttrf reports the zero U pivot after pivoting, not the zeroed row
        assert err.value.row == 5
        assert "n = 6" in str(err.value) and "dt = 0.25" in str(err.value)

    def test_factors_once_per_run(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return dgttrf(*args, **kwargs)

        dgttrf = fdm.dgttrf
        monkeypatch.setattr(fdm, "dgttrf", counting)
        grid = Grid(np.linspace(50.0, 150.0, 21))
        stepper = TrBdf2Stepper(grid, MarketParams(0.05, 0.01, 0.2), PdeConfig(7), 1.0)
        assert calls == []                       # a block is built unfactored
        stepper.run(np.maximum(grid.points - 100.0, 0.0))
        assert len(calls) == 1

    def test_nan_terminal_raises_with_step(self):
        v = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(NonFiniteValueError) as err:
            self.march(v, 0.1, MarketParams(0.05, 0.01, 0.2), PdeConfig(3))
        assert err.value.step == 1
        assert err.value.tau == pytest.approx(0.1 / 3)
        assert "step 1" in str(err.value)

    def test_vanilla_european_matches_closed_form(self):
        mkt = MarketParams(0.07, 0.02, 0.20)
        grid = sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, 0.0, 300.0)), 800)
        grid = apply_placement(grid, PlacementSpec(PlacementMode.DEFORM,
                                                   (Target(100.0),)))
        cfg = PdeConfig(200, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                        BoundaryCondition(BoundaryKind.ZERO_GAMMA))
        contract = ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, OptionType.CALL,
                                100.0, 1.0)
        stepper = TrBdf2Stepper(grid, mkt, cfg, 1.0, ())
        values = stepper.run(payoff(contract, grid))
        price = float(MonotoneCubic(grid.points, values)(100.0))
        closed = black_scholes_vanilla(100.0, 100.0, 1.0, 0.07, 0.02, 0.20, "call")
        assert price == pytest.approx(closed, rel=2e-5)

    def test_vanilla_spatial_order_two(self):
        # Spatial order on a smoothly deformed uniform grid, holding the
        # time resolution high enough that dt error is negligible.
        mkt = MarketParams(0.07, 0.02, 0.20)
        closed = black_scholes_vanilla(100.0, 100.0, 1.0, 0.07, 0.02, 0.20, "call")
        contract = ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, OptionType.CALL,
                                100.0, 1.0)
        cfg = PdeConfig(400, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                        BoundaryCondition(BoundaryKind.ZERO_GAMMA))
        errs = []
        for steps in (125, 250, 500):
            grid = sample_grid(build_map(
                StretchSpec(StretchKind.UNIFORM, 0.0, 300.0)), steps)
            grid = apply_placement(grid, PlacementSpec(PlacementMode.DEFORM,
                                                       (Target(100.0),)))
            values = TrBdf2Stepper(grid, mkt, cfg, 1.0, ()).run(payoff(contract, grid))
            errs.append(abs(float(MonotoneCubic(grid.points, values)(100.0)) - closed))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), (errs, orders)

    def test_discrete_maximum_principle(self):
        # Knocked-out call with zero rebate stays (numerically) nonnegative
        # at every step of the standard benchmark regime.
        mkt = MarketParams(0.07, 0.02, 0.20)
        grid = sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, 0.0, 150.0)), 250)
        cfg = PdeConfig(1500, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                        BoundaryCondition(BoundaryKind.ZERO_GAMMA))
        contract = ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL,
                                100.0, 1.0, barrier_upper=125.0,
                                observations_per_year=250)
        hooks = tuple(constraint_hooks(contract, grid, cfg))
        system = Stack([TrBdf2Stepper(grid, mkt, cfg, 1.0, hooks)])
        v = payoff(contract, grid)
        for j in range(cfg.time_steps):
            v = system.step(v, j + 1, j * system.dt)
            assert v.min() >= -1e-10


class TestGhostRows:
    def make_hook(self, barrier, side=GhostSide.UP, rebate=2.0,
                  order=BarrierMode.GHOST_LINEAR):
        return GhostBarrier(np.linspace(0.0, 10.0, 11), barrier, order, rebate, side)

    def test_linear_weights_on_node(self):
        hook = self.make_hook(5.0)
        assert hook.weights == (1.0, 0.0)
        v = np.arange(11.0)
        hook.override_previous(v, 0.0)
        assert v[5] == 2.0

    def test_linear_explicit_override(self):
        hook = self.make_hook(4.6, rebate=0.0)
        g, a = hook.ghost, hook.inner
        assert (g, a) == (5, 4)
        v = np.zeros(11)
        hook.override_previous(v, 0.0)
        assert v[g] == 0.0
        v[a] = 3.0
        hook.override_previous(v, 0.0)
        # linear interpolation through (S_inner, 3.0) and (S_ghost, G) is 0 at 4.6
        s = np.linspace(0.0, 10.0, 11)
        interp = (v[g] * (4.6 - s[a]) + 3.0 * (s[g] - 4.6)) / (s[g] - s[a])
        assert interp == pytest.approx(0.0, abs=1e-12)

    def test_linear_implicit_row(self):
        hook = self.make_hook(4.6, rebate=1.5)
        n = 11
        lower, diag, upper = np.full(n, -1.0), np.full(n, 3.0), np.full(n, -1.0)
        hook.stamp_matrix(lower, diag, upper)
        g = hook.ghost
        assert diag[g] == pytest.approx((4.6 - 4.0) / 1.0)
        assert lower[g] == pytest.approx((5.0 - 4.6) / 1.0)
        assert upper[g] == 0.0
        rest = np.arange(n) != g
        assert np.all(lower[rest] == -1.0) and np.all(diag[rest] == 3.0)
        assert np.all(upper[rest] == -1.0)
        rhs = np.arange(float(n))
        hook.adjust_rhs(rhs, 0.0)
        assert rhs[g] == 1.5

    @pytest.mark.parametrize("side, barrier, shown", [
        (GhostSide.UP, 0.0, "up barrier 0.0 is not inside the grid (0.0, 10.0]"),
        (GhostSide.UP, 10.5, "up barrier 10.5 is not inside the grid (0.0, 10.0]"),
        (GhostSide.DOWN, 10.0, "down barrier 10.0 is not inside the grid [0.0, 10.0)"),
        (GhostSide.DOWN, -1.0, "down barrier -1.0 is not inside the grid [0.0, 10.0)")],
        ids=["up-at-bottom", "up-above", "down-at-top", "down-below"])
    def test_barrier_outside_the_grid_names_barrier_and_range(self, side, barrier, shown):
        with pytest.raises(ValueError) as err:
            self.make_hook(barrier, side=side)
        assert shown in str(err.value)

    def test_ghost_is_the_first_node_at_or_beyond_the_barrier(self):
        assert (self.make_hook(5.0).ghost, self.make_hook(5.0).inner) == (5, 4)
        down = self.make_hook(5.0, side=GhostSide.DOWN)
        assert (down.ghost, down.inner) == (5, 6)
        assert (self.make_hook(0.5, side=GhostSide.DOWN).ghost) == 0
        assert (self.make_hook(9.5).ghost) == 10

    def test_lagrange_weights_on_node(self):
        hook = self.make_hook(5.0, order=BarrierMode.GHOST_LAGRANGE3)
        assert hook.weights == (1.0, -0.0, 0.0)
        v = np.arange(11.0)
        hook.override_previous(v, 0.0)
        assert v[5] == 2.0

    def test_lagrange_elimination_matches_dense(self):
        rng = np.random.default_rng(9)
        pts = np.array([0.0, 1.1, 2.3, 3.2, 4.4, 5.5])
        hook = GhostBarrier(pts, 5.0, BarrierMode.GHOST_LAGRANGE3, rebate=0.7,
                            side=GhostSide.UP)
        assert hook.nodes == (5, 4, 3)
        n = 6
        lower = rng.normal(size=n)
        diag = rng.normal(size=n) + 5.0
        upper = rng.normal(size=n)
        lower[0] = upper[-1] = 0.0
        rhs = rng.normal(size=n)
        # dense solve of the unreduced 3-entry ghost row
        dense = dense_matrix(lower, diag, upper)
        dense[5] = lagrange_row(pts, (5, 4, 3), 5.0, n)
        rhs_d = rhs.copy()
        rhs_d[5] = 0.7
        expect = np.linalg.solve(dense, rhs_d)
        hook.stamp_matrix(lower, diag, upper)
        hook.adjust_rhs(rhs, 0.0)
        mine = np.linalg.solve(dense_matrix(lower, diag, upper), rhs)
        assert np.max(np.abs(mine - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))

    def test_random_lagrange_elimination_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 8
        for trial in range(6):
            pts = np.cumsum(rng.uniform(0.5, 1.5, size=n))
            side = GhostSide.UP if trial % 2 == 0 else GhostSide.DOWN
            i0 = 5 if side is GhostSide.UP else 3
            barrier = pts[i0 - 1] + rng.uniform(0.05, 0.95) * (pts[i0] - pts[i0 - 1])
            hook = GhostBarrier(pts, barrier, BarrierMode.GHOST_LAGRANGE3, 0.8 + trial,
                                side)
            assert hook.ghost == (i0 if side is GhostSide.UP else i0 - 1)
            lower = rng.normal(size=n)
            upper = rng.normal(size=n)
            diag = rng.normal(size=n) + 6.0
            lower[0] = upper[-1] = 0.0
            rhs = rng.normal(size=n)
            dense = dense_matrix(lower, diag, upper)
            dense[hook.ghost] = lagrange_row(pts, hook.nodes, barrier, n)
            rhs_d = rhs.copy()
            rhs_d[hook.ghost] = 0.8 + trial
            expect = np.linalg.solve(dense, rhs_d)
            hook.stamp_matrix(lower, diag, upper)
            hook.adjust_rhs(rhs, 0.0)
            mine = np.linalg.solve(dense_matrix(lower, diag, upper), rhs)
            assert np.max(np.abs(mine - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))

    def test_unreducible_lagrange_row_names_ghost_and_barrier(self):
        # sigma = 0 and r = q leave the inner row 26 without a coupling to
        # node 25, so the entry at (27, 25) cannot be eliminated
        s = np.linspace(80.0, 170.0, 31)
        hooks = (GhostBarrier(s, 160.5, BarrierMode.GHOST_LAGRANGE3),)
        stepper = TrBdf2Stepper(Grid(s), MarketParams(0.05, 0.05, 0.0),
                                PdeConfig(4, barrier_mode=BarrierMode.GHOST_LAGRANGE3),
                                1.0, hooks)
        with pytest.raises(SingularSystemError) as err:
            stepper.run(np.ones(31))
        assert err.value.row == 26
        message = str(err.value)
        assert message.startswith("fdm:")
        assert "160.5" in message
        assert "ghost row 27" in message and "inner row 26" in message

    def test_down_side_symmetry(self):
        pts = np.linspace(0.0, 10.0, 11)
        hook = GhostBarrier(pts, 2.4, BarrierMode.GHOST_LINEAR, rebate=0.0,
                            side=GhostSide.DOWN)
        assert hook.ghost == 2 and hook.inner == 3
        v = np.zeros(11)
        v[3] = 1.0
        hook.override_previous(v, 0.0)
        s = pts
        interp = v[2] * (s[3] - 2.4) / (s[3] - s[2]) + 1.0 * (2.4 - s[2]) / (s[3] - s[2])
        assert interp == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", [BarrierMode.GHOST_LINEAR, BarrierMode.GHOST_LAGRANGE3])
    def test_interior_ghost_hooks_match_dense(self, mode):
        # Both ghost nodes are interior, so constraint_hooks pins a
        # non-empty region beyond each; the dense reference keeps the
        # ghost rows unreduced and puts identity rows over both regions.
        s = np.linspace(80.0, 170.0, 31)
        grid = Grid(s)
        n = s.size
        mkt = MarketParams(0.05, 0.01, 0.25)
        cfg = PdeConfig(1, BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 0.3),
                        BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 0.3),
                        barrier_mode=mode)
        contract = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                                100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0,
                                rebate=0.3)
        hooks = tuple(constraint_hooks(contract, grid, cfg))
        assert [type(h) for h in hooks] == [GhostBarrier, DirichletRegion] * 2
        v0 = payoff(contract, grid)
        via_stepper = TrBdf2Stepper(grid, mkt, cfg, 1.0, hooks).run(v0)

        # down ghost at 89 (node 3), up ghost at 161 (node 27)
        three = mode is BarrierMode.GHOST_LAGRANGE3
        ghost_rows = {3: lagrange_row(s, (3, 4, 5) if three else (3, 4), 90.0, n),
                      27: lagrange_row(s, (27, 26, 25) if three else (27, 26), 160.0, n)}
        rows = {i: (np.eye(n)[i], 0.3) for i in (*range(0, 3), *range(28, n))}
        rows.update({g: (row, 0.3) for g, row in ghost_rows.items()})
        op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, cfg)
        expect = dense_trbdf2_step(v0, 1.0, op, rows, ghost_override(ghost_rows, 0.3))
        assert np.max(np.abs(via_stepper - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_on_node_barrier_all_modes_agree(self):
        mkt = MarketParams(0.10, 0.0, 0.25)
        grid = sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, 90.0, 160.0)), 70)
        contract = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                                100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0)
        sols = {}
        for mode in BarrierMode:
            cfg = PdeConfig(70, BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 0.0),
                            BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 0.0),
                            barrier_mode=mode)
            hooks = tuple(constraint_hooks(contract, grid, cfg))
            sols[mode] = TrBdf2Stepper(grid, mkt, cfg, 1.0, hooks).run(
                payoff(contract, grid))
        base = sols[BarrierMode.ON_GRID_DIRICHLET]
        for mode in (BarrierMode.GHOST_LINEAR, BarrierMode.GHOST_LAGRANGE3):
            assert np.max(np.abs(sols[mode] - base)) <= 1e-12

    def test_step_leaves_the_callers_vector_alone(self):
        # The ghost rows override the explicit half-step values in one copy
        # made by the stepper; the vector passed to step is not written.
        s = np.linspace(80.0, 170.0, 31)
        grid = Grid(s)
        cfg = PdeConfig(4, barrier_mode=BarrierMode.GHOST_LAGRANGE3)
        contract = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                                100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0,
                                rebate=0.3)
        hooks = tuple(constraint_hooks(contract, grid, cfg))
        stepper = TrBdf2Stepper(grid, MarketParams(0.05, 0.01, 0.25), cfg, 1.0, hooks)
        v = payoff(contract, grid) + 0.5
        before = v.copy()
        overridden = v.copy()
        for hook in hooks:
            hook.override_previous(overridden, 0.0)
        assert not np.array_equal(overridden, before)  # the hooks do override
        Stack([stepper]).step(v, 1, 0.0)
        assert np.array_equal(v, before)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.floats(0.2, 3.0), min_size=4, max_size=30),
       start=st.floats(-50.0, 50.0), cell=st.integers(1, 27), frac=st.floats(0.001, 0.999),
       side=st.sampled_from(list(GhostSide)),
       order=st.sampled_from([BarrierMode.GHOST_LINEAR, BarrierMode.GHOST_LAGRANGE3]),
       coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_ghost_row_brackets_and_interpolates_an_off_node_barrier(
        steps, start, cell, frac, side, order, coeffs):
    # A barrier strictly inside cell k (k >= 1 and k + 2 <= n - 1, so both
    # sides have room for a 3-point row): the ghost node is on the knocked-out
    # side of it, the inner node next to it on the other, and the row's
    # weights reproduce polynomial data at the barrier.
    s = start + np.concatenate(([0.0], np.cumsum(steps)))
    n = s.size
    k = min(cell, n - 3)
    barrier = float(s[k] + frac * (s[k + 1] - s[k]))
    assume(s[k] < barrier < s[k + 1])
    hook = GhostBarrier(s, barrier, order, 0.4, side)
    if side is GhostSide.UP:
        assert hook.inner + 1 == hook.ghost and s[hook.inner] < barrier < s[hook.ghost]
    else:
        assert hook.ghost + 1 == hook.inner and s[hook.ghost] < barrier < s[hook.inner]
    assert hook.nodes[:2] == (hook.ghost, hook.inner)
    assert (hook.barrier, hook.rebate, hook.side) == (barrier, 0.4, side)
    assert math.fsum(hook.weights) == pytest.approx(1.0, abs=1e-12)
    a, b, c = coeffs
    degree = 2 if order is BarrierMode.GHOST_LAGRANGE3 else 1
    for f in ((lambda x: a + b * x), (lambda x: a + b * x + c * x * x))[:degree]:
        at_nodes = [w * f(s[j] - barrier) for w, j in zip(hook.weights, hook.nodes)]
        assert math.fsum(at_nodes) == pytest.approx(f(0.0), abs=1e-9)


# ---------------------------------------------------------------------------
# Stacked (lockstep) marches


N_STACK = 6


@st.composite
def stack_blocks(draw, n_steps=N_STACK):
    """A random pricing block: nonuniform grid, market, boundary rows and one
    kind of hook set, all sharing the stack's N (``n_steps``) and horizon."""
    n = draw(st.integers(8, 40))
    lower_kind = draw(st.sampled_from(list(BoundaryKind)))
    upper_kind = draw(st.sampled_from([BoundaryKind.DIRICHLET_VALUE,
                                       BoundaryKind.ZERO_GAMMA]))
    start = 0.0 if lower_kind is BoundaryKind.DEGENERATE_EXACT else draw(
        st.floats(1.0, 50.0))
    steps = draw(st.lists(st.floats(0.2, 3.0), min_size=n - 1, max_size=n - 1))
    s = start + np.concatenate(([0.0], np.cumsum(steps)))
    mkt = MarketParams(draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, 0.1)),
                       draw(st.floats(0.1, 0.6)))
    kind = draw(st.sampled_from(["none", "knockout", "dirichlet", "ghost", "american"]))
    mode = BarrierMode.ON_GRID_DIRICHLET
    strike = float(s[draw(st.integers(1, n - 2))])
    terminal = np.maximum(strike - s, 0.0) + draw(st.floats(0.0, 1.0))
    hooks: list[Hook] = []
    if kind == "knockout":
        level = float(s[draw(st.integers(1, n - 2))])
        dates = draw(st.sets(st.integers(1, n_steps), min_size=1))
        hooks.append(DiscreteKnockout(s >= level, dates, draw(st.floats(0.0, 1.0))))
    elif kind == "dirichlet":
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, n))
        hooks.append(DirichletRegion(a, b, draw(st.floats(0.0, 1.0))))
    elif kind == "ghost":
        mode = draw(st.sampled_from([BarrierMode.GHOST_LINEAR,
                                     BarrierMode.GHOST_LAGRANGE3]))
        side = draw(st.sampled_from(list(GhostSide)))
        rebate = draw(st.floats(0.0, 1.0))
        if side is GhostSide.UP:
            i0 = draw(st.integers(2, n - 1))
            frac = draw(st.floats(0.05, 1.0))
        else:
            i0 = draw(st.integers(1, n - 3))
            frac = draw(st.floats(0.0, 0.95))
        barrier = float(s[i0 - 1] + frac * (s[i0] - s[i0 - 1]))
        assume(s[i0 - 1] < barrier < s[i0] if side is GhostSide.UP
               else s[i0 - 1] <= barrier < s[i0])
        hook = GhostBarrier(s, barrier, mode, rebate, side)
        hooks.append(hook)
        start_, stop = (hook.ghost + 1, n) if side is GhostSide.UP else (0, hook.ghost)
        if start_ < stop:
            hooks.append(DirichletRegion(start_, stop, rebate))
    elif kind == "american":
        hooks.append(AmericanProjection(np.maximum(strike - s, 0.0)))
    cfg = PdeConfig(n_steps, BoundaryCondition(lower_kind, draw(st.floats(0.0, 1.0))),
                    BoundaryCondition(upper_kind, draw(st.floats(0.0, 1.0))),
                    barrier_mode=mode)
    return Grid(s), mkt, cfg, tuple(hooks), terminal


@settings(max_examples=150, deadline=None)
@given(blocks=st.lists(stack_blocks(), min_size=1, max_size=4),
       horizon=st.floats(0.05, 1.0))
def test_stacked_march_equals_solo_marches(blocks, horizon):
    steppers = [TrBdf2Stepper(grid, mkt, cfg, horizon, hooks)
                for grid, mkt, cfg, hooks, _ in blocks]
    solo = [stepper.run(terminal) for stepper, (*_, terminal) in zip(steppers, blocks)]
    assume(all(np.isfinite(v).all() for v in solo))
    stacked = Stack(steppers)
    out = stacked.split(stacked.march(np.concatenate([b[-1] for b in blocks])))
    assert len(out) == len(blocks)
    for mine, expect in zip(out, solo):
        assert np.array_equal(mine, expect)


@st.composite
def march_groups(draw):
    """A group of a march: one or more blocks with the group's own N and
    horizon, each paired with its terminal values."""
    n_steps = draw(st.sampled_from([2, 3, N_STACK]))
    horizon = draw(st.floats(0.05, 1.0))
    blocks = draw(st.lists(stack_blocks(n_steps), min_size=1, max_size=3))
    return [(TrBdf2Stepper(grid, mkt, cfg, horizon, hooks), terminal)
            for grid, mkt, cfg, hooks, terminal in blocks]


def set_workers(monkeypatch, width: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)),
                        raising=False)


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(march_groups(), min_size=1, max_size=5),
       width=st.sampled_from([1, 2, 3]))
def test_parallel_march_equals_each_parts_own_run(groups, width):
    solo = [[block.run(terminal) for block, terminal in group] for group in groups]
    assume(all(np.isfinite(v).all() for values in solo for v in values))
    with pytest.MonkeyPatch.context() as mp:
        set_workers(mp, width)
        out = fdm.march(groups)
    assert [len(values) for values in out] == [len(group) for group in groups]
    for mine, expect in zip(out, solo):
        for got, want in zip(mine, expect):
            assert np.array_equal(got, want)


class TestParallel:
    def groups(self, *shapes):
        """One single-block group per (nodes, N) shape, with terminal values."""
        mkt = MarketParams(0.05, 0.0, 0.2)
        return [[(TrBdf2Stepper(Grid(np.linspace(50.0, 150.0, n)), mkt, PdeConfig(steps), 1.0),
                  np.linspace(0.0, 1.0, n) + k)]
                for k, (n, steps) in enumerate(shapes)]

    def record_marches(self, monkeypatch) -> list:
        """Record the (nodes, N) of every stack as it marches."""
        marched = []
        march = Stack.march

        def recording(system, v):
            marched.append((system.op.n, system.n_steps))
            return march(system, v)

        monkeypatch.setattr(Stack, "march", recording)
        return marched

    def test_costliest_part_marches_first(self, monkeypatch):
        set_workers(monkeypatch, 1)
        marched = self.record_marches(monkeypatch)
        fdm.march(self.groups((11, 4), (21, 4), (11, 9), (31, 2)))
        assert marched == [(11, 9), (21, 4), (31, 2), (11, 4)]  # nodes x N: 99, 84, 62, 44

    @pytest.mark.parametrize("width, threads", [(1, 0), (2, 1), (3, 2), (8, 2)])
    def test_threads_started_count_the_calling_one(self, monkeypatch, width, threads):
        set_workers(monkeypatch, width)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        fdm.march(self.groups((11, 4), (11, 4), (11, 4)))
        assert len(started) == threads

    def test_threads_run_only_the_step_loop(self, monkeypatch):
        # A traced ``run`` records spans on the calling thread alone.
        set_workers(monkeypatch, 2)
        calls = []

        class Counted(TrBdf2Stepper):
            def run(self, terminal):
                calls.append(threading.current_thread() is threading.main_thread())
                return super().run(terminal)

        grid = Grid(np.linspace(50.0, 150.0, 11))
        groups = [[(Counted(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(4), 1.0),
                    np.ones(11))] for _ in range(3)]
        out = groups[0][0][0].run(groups)
        assert calls == [True]
        assert [[v.shape for v in values] for values in out] == [[(11,)]] * 3

    def test_many_threads_hand_out_every_part_once(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter
        # allows: a group handed out twice, or never, breaks the counts or
        # the values.
        set_workers(monkeypatch, 8)
        shapes = [(11 + k % 5, 2 + k % 3) for k in range(40)]
        groups = self.groups(*shapes)
        solo = [block.run(terminal) for (block, terminal), in groups]
        marched = self.record_marches(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = fdm.march(groups)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(marched) == sorted(shapes)
        for (got,), want in zip(out, solo):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [1, 2])
    def test_failed_part_raises_its_own_error(self, monkeypatch, width):
        set_workers(monkeypatch, width)
        good, bad = self.groups((11, 4), (21, 8))
        block, poisoned = bad[0]
        poisoned[7] = np.nan
        with pytest.raises(NonFiniteValueError) as solo:
            block.run(poisoned)
        with pytest.raises(NonFiniteValueError) as both:
            fdm.march([good, bad])
        assert str(both.value) == str(solo.value)

    def test_workers_fall_back_to_the_cpu_count(self, monkeypatch):
        set_workers(monkeypatch, 3)
        assert fdm.workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert fdm.workers() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert fdm.workers() == 1


class TestStack:
    def steppers(self, *time_steps, hooks=()):
        grid = Grid(np.linspace(50.0, 150.0, 11))
        return [TrBdf2Stepper(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(n), 1.0, hooks)
                for n in time_steps]

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="nothing to stack"):
            Stack([])

    def test_rejects_blocks_with_another_time_grid(self):
        with pytest.raises(ValueError, match="block 1: dt = 0.125, N = 8"):
            Stack(self.steppers(4, 8))

    def test_rejects_blocks_coupled_across_their_edge(self):
        class CoupleBelow(Hook):
            def stamp_matrix(self, lower, diag, upper):
                lower[0] = 0.5

        a, = self.steppers(4)
        b, = self.steppers(4, hooks=(CoupleBelow(),))
        b.run(np.ones(11))  # alone, the coupling is outside the matrix
        Stack([b, a])       # first, its lower[0] is outside the matrix too
        with pytest.raises(ValueError, match="block 1: .*lower\\[0\\] = 0.5"):
            Stack([a, b])

    def test_region_overlapping_a_dirichlet_boundary_row_wins(self, monkeypatch):
        # Rows 8-10 are a knocked-out region at 0.25; row 10 is also the
        # Dirichlet upper boundary at 2.5.  The region's value holds in the
        # factored matrix, in every rhs and after every solve, alone and
        # stacked behind another block; row 0 keeps its boundary value 1.5.
        # The probe comes before the region in the hook tuple and still sees
        # its values: the stepper pins rows before any hook runs.
        factored = []

        def recording(dl, d, du):
            factored.append((dl.copy(), d.copy(), du.copy()))
            return dgttrf(dl, d, du)

        dgttrf = fdm.dgttrf
        monkeypatch.setattr(fdm, "dgttrf", recording)
        seen = []

        class Probe(Hook):
            def adjust_rhs(self, rhs, tau):
                seen.append(("rhs", rhs[[0, 8, 9, 10]]))

            def post_substage(self, v, tau):
                seen.append(("solve", v[[0, 8, 9, 10]]))

        grid = Grid(np.linspace(50.0, 150.0, 11))
        cfg = PdeConfig(3, BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 1.5),
                        BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 2.5))
        mkt = MarketParams(0.05, 0.01, 0.2)
        terminal = np.maximum(grid.points - 100.0, 0.0)
        want = np.array([1.5, 0.25, 0.25, 0.25])
        solo = TrBdf2Stepper(grid, mkt, cfg, 1.0, (Probe(), DirichletRegion(8, 11, 0.25)))
        plain, = self.steppers(3)
        alone = solo.run(terminal)
        (_, out), = fdm.march([[(plain, terminal), (solo, terminal)]])
        assert np.array_equal(out, alone)
        assert [d.size for _, d, _ in factored] == [11, 22]  # solo, then the stack
        for (dl, d, du), offset in ((factored[0], 0), (factored[1], 11)):
            for row in offset + np.array([0, 8, 9, 10]):  # identity rows
                assert d[row] == 1.0
                assert row == 0 or dl[row - 1] == 0.0
                assert row == d.size - 1 or du[row] == 0.0
        # two substages per step, three steps, alone then stacked
        assert [phase for phase, _ in seen] == ["rhs", "solve"] * 2 * 3 * 2
        for phase, values in seen:
            assert np.array_equal(values, want), phase

    def test_nan_in_one_block_raises_the_step(self):
        steppers = self.steppers(4, 4)
        terminal = np.ones(22)
        terminal[15] = np.nan
        with pytest.raises(NonFiniteValueError, match="step 1"):
            Stack(steppers).march(terminal)

    def test_singular_block_fails_its_stack(self):
        a, b = self.steppers(4, 4)
        c, = self.steppers(4, hooks=(ZeroRow(),))
        with pytest.raises(SingularSystemError) as err:
            Stack([a, c, b])
        # the zero pivot lies in the singular block: rows 11-21 of the stack
        assert 11 <= err.value.row < 22 and "n = 33" in str(err.value)


class TestLapackLoader:
    """``fdm`` loads gttrf/gttrs from scipy's ``_flapack`` without ``scipy.linalg``."""

    @staticmethod
    def system(kind, n):
        rng = np.random.default_rng({"dominant": 1, "pivoting": 2, "singular": 3}[kind])
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        if kind == "pivoting":
            diag = 0.3 * rng.standard_normal(n)
        else:
            diag = 4.0 + np.abs(rng.standard_normal(n))
        if kind == "singular":
            lower[n // 2 - 1] = diag[n // 2] = upper[n // 2] = 0.0
        return lower, diag, upper, rng.standard_normal((n, 2))

    @pytest.mark.parametrize("kind, n", [("dominant", 200), ("pivoting", 500),
                                         ("singular", 40)])
    def test_bit_identical_to_the_public_routines(self, kind, n):
        lower, diag, upper, rhs = self.system(kind, n)
        *lu, info = fdm.dgttrf(lower, diag, upper)
        x, solve_info = fdm.dgttrs(*lu, rhs.copy(), overwrite_b=1)
        # scipy.linalg comes in after stretchgrid loaded its own copy of _flapack
        from scipy.linalg import lapack
        *lu_ref, info_ref = lapack.dgttrf(lower, diag, upper)
        x_ref, solve_info_ref = lapack.dgttrs(*lu_ref, rhs.copy(), overwrite_b=1)
        assert (info, solve_info) == (info_ref, solve_info_ref)
        for mine, ref in zip([*lu, x], [*lu_ref, x_ref]):
            assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()
        pivots = int(np.count_nonzero(lu[-1] != np.arange(1, n + 1)))
        if kind == "pivoting":
            assert pivots > n // 2
        if kind == "singular":
            assert info > 0
        else:
            matrix = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            assert info == 0 and np.allclose(matrix @ x, rhs, rtol=0.0, atol=1e-8)
        assert lapack._flapack is sys.modules["scipy.linalg._flapack"]

    def test_missing_module_names_path_module_and_version(self, tmp_path):
        registered = sys.modules.get("scipy.linalg._flapack")
        with pytest.raises(ImportError) as err:
            fdm._load_gttr(tmp_path)
        assert sys.modules.get("scipy.linalg._flapack") is registered
        message = str(err.value)
        expected = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        assert str(expected) in message
        assert "scipy.linalg._flapack" in message
        assert f"installed scipy: {metadata.version('scipy')}" in message

    def test_module_without_dgttrs_is_an_import_error(self, monkeypatch):
        stub = types.ModuleType("scipy.linalg._flapack")
        stub.dgttrf = fdm.dgttrf
        monkeypatch.setattr(importlib.util, "module_from_spec", lambda spec: stub)
        linalg_dir = Path(fdm._SCIPY.origin).parent / "linalg"
        with pytest.raises(ImportError, match="needs dgttrf and dgttrs") as err:
            fdm._load_gttr(linalg_dir)
        assert isinstance(err.value.__cause__, AttributeError)
