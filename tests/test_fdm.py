import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import types
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from conftest import set_workers
from hypothesis import assume, given, settings, strategies as st

from stretchgrid import _lapack, _threads, bench, fdm
from stretchgrid.analytics import black_scholes_vanilla
from stretchgrid.fdm import (BDF2_NEW, BDF2_OLD, OMEGA, AmericanProjection,
                             BarrierMode, BoundaryCondition, BoundaryKind,
                             DirichletRegion, DiscreteKnockout,
                             GhostBarrier, GhostSide,
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


@pytest.mark.parametrize("field", ["rate", "dividend", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_market_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        MarketParams(**{field: value})


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


def unreducible_block(points, horizon=1.0, n_steps=4) -> TrBdf2Stepper:
    """A block whose 3-point ghost row cannot be eliminated: sigma = 0 and
    r = q leave its inner row without a coupling to the second inner node."""
    barrier = 0.5 * (points[-3] + points[-2])
    return TrBdf2Stepper(Grid(points), MarketParams(0.05, 0.05, 0.0),
                         PdeConfig(n_steps, barrier_mode=BarrierMode.GHOST_LAGRANGE3), horizon,
                         (GhostBarrier(points, barrier, BarrierMode.GHOST_LAGRANGE3),))


def zeroed_row_bands(blocks, zeroed: int):
    """The stacked bands of I - wL of ``blocks`` (no pins, no ghost rows),
    with row ``zeroed`` all zero, which makes the matrix singular."""
    w = OMEGA * blocks[0].dt
    lower, diag, upper = (np.concatenate([getattr(b.op, band) for b in blocks])
                          for band in ("lower", "diag", "upper"))
    lower, diag, upper = -w * lower, 1.0 - w * diag, -w * upper
    lower[zeroed] = diag[zeroed] = upper[zeroed] = 0.0
    return lower, diag, upper


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

    def test_singular_matrix_raises_from_run(self, monkeypatch):
        # Building a block stamps and factors nothing; the singular system
        # rises where the block is stacked, before any step.
        stepper = unreducible_block(np.linspace(80.0, 170.0, 31))
        monkeypatch.setattr(Stack, "step", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(SingularSystemError, match="cannot eliminate the 3-point ghost row"):
            stepper.run(np.ones(31))

    def test_zero_pivot_names_its_row_n_and_dt(self):
        grid = Grid(np.linspace(50.0, 150.0, 6))
        block = TrBdf2Stepper(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(4), 1.0)
        with pytest.raises(SingularSystemError) as err:
            fdm._factor(*zeroed_row_bands([block], 3), block.dt, [slice(0, 6)],
                        np.zeros(6, dtype=bool))
        # gttrf reports the zero U pivot after pivoting, not the zeroed row
        assert err.value.row == 5
        assert "n = 6" in str(err.value) and "dt = 0.25" in str(err.value)

    def test_factors_once_per_run(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        factor = fdm._factor
        monkeypatch.setattr(fdm, "_factor", counting)
        grid = Grid(np.linspace(50.0, 150.0, 21))
        stepper = TrBdf2Stepper(grid, MarketParams(0.05, 0.01, 0.2), PdeConfig(7), 1.0)
        assert calls == []                       # a block is built unfactored
        stepper.run(np.maximum(grid.points - 100.0, 0.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_terminal_raises_with_step(self, bad):
        v = np.array([1.0, 2.0, bad, 4.0, 5.0])
        with pytest.raises(NonFiniteValueError) as err:
            self.march(v, 0.1, MarketParams(0.05, 0.01, 0.2), PdeConfig(3))
        assert err.value.step == 1
        assert err.value.tau == pytest.approx(0.1 / 3)
        assert "step 1" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_written_by_a_hook_raises_at_its_step(self, bad):
        # Every step is checked, not only the first: a knock-out whose rebate
        # is not finite, observed at step 3 of 5, fails that step.
        grid = Grid(np.linspace(50.0, 150.0, 5))
        poison = DiscreteKnockout(np.arange(5) == 2, {3}, bad)
        stepper = TrBdf2Stepper(grid, MarketParams(0.05, 0.01, 0.2), PdeConfig(5), 0.5,
                                (poison,))
        with pytest.raises(NonFiniteValueError) as err:
            stepper.run(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert err.value.step == 3 and "step 3" in str(err.value)
        assert err.value.tau == pytest.approx(0.3)

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


def explicit_half(hooks, v, points=np.linspace(0.0, 10.0, 11)) -> np.ndarray:
    """The values the explicit half of ``Stack.step`` reads (its product's
    input) from ``v``, for one block on ``points`` with ``hooks``."""
    block = TrBdf2Stepper(Grid(points), MarketParams(0.05, 0.01, 0.25), PdeConfig(1), 1.0,
                          hooks)
    system = Stack([block])
    seen = []
    product = system._product
    system._product = lambda x, b: seen.append(x.copy()) or product(x, b)
    system.step(v, 1, 0.0)
    return seen[0]


class TestGhostRows:
    def make_hook(self, barrier, side=GhostSide.UP, rebate=2.0,
                  order=BarrierMode.GHOST_LINEAR):
        return GhostBarrier(np.linspace(0.0, 10.0, 11), barrier, order, rebate, side)

    def test_linear_weights_on_node(self):
        hook = self.make_hook(5.0)
        assert hook.weights == (1.0, 0.0)
        assert explicit_half((hook,), np.arange(11.0))[5] == 2.0

    def test_linear_explicit_override(self):
        hook = self.make_hook(4.6, rebate=0.0)
        g, a = hook.ghost, hook.inner
        assert (g, a) == (5, 4)
        assert explicit_half((hook,), np.zeros(11))[g] == 0.0
        v = np.zeros(11)
        v[a] = 3.0
        v = explicit_half((hook,), v)
        # linear interpolation through (S_inner, 3.0) and (S_ghost, G) is 0 at 4.6
        s = np.linspace(0.0, 10.0, 11)
        interp = (v[g] * (4.6 - s[a]) + 3.0 * (s[g] - 4.6)) / (s[g] - s[a])
        assert interp == pytest.approx(0.0, abs=1e-12)

    def test_linear_implicit_row(self):
        hook = self.make_hook(4.6, rebate=1.5)
        n = 11
        lower, diag, upper = np.full(n, -1.0), np.full(n, 3.0), np.full(n, -1.0)
        factor = hook.stamp(lower, diag, upper)
        g = hook.ghost
        assert diag[g] == pytest.approx((4.6 - 4.0) / 1.0)
        assert lower[g] == pytest.approx((5.0 - 4.6) / 1.0)
        assert upper[g] == 0.0
        rest = np.arange(n) != g
        assert np.all(lower[rest] == -1.0) and np.all(diag[rest] == 3.0)
        assert np.all(upper[rest] == -1.0)
        # a linear row eliminates nothing: its rhs is the rebate alone
        assert factor == 0.0

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
        assert explicit_half((hook,), np.arange(11.0))[5] == 2.0

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
        factor = hook.stamp(lower, diag, upper)
        rhs[5] = 0.7 - factor * rhs[4]
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
            factor = hook.stamp(lower, diag, upper)
            rhs[hook.ghost] = hook.rebate - factor * rhs[hook.inner]
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
        v = explicit_half((hook,), v)
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
        # The ghost rows set the explicit half-step values in one copy made
        # by the stepper; the vector passed to step is not written.
        s = np.linspace(80.0, 170.0, 31)
        grid = Grid(s)
        cfg = PdeConfig(4, barrier_mode=BarrierMode.GHOST_LAGRANGE3)
        contract = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                                100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0,
                                rebate=0.3)
        hooks = tuple(constraint_hooks(contract, grid, cfg))
        v = payoff(contract, grid) + 0.5
        before = v.copy()
        assert not np.array_equal(explicit_half(hooks, v, s), before)  # the rows set values
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


HOOK_KINDS = ("none", "knockout", "knockouts", "dirichlet", "ghost", "ghosts", "american",
              "american+dirichlet")
GHOST_MODES = st.sampled_from([BarrierMode.GHOST_LINEAR, BarrierMode.GHOST_LAGRANGE3])


def ghost_with_region(s, barrier, mode, rebate, side) -> list:
    """A ghost barrier and the region beyond its ghost node, if any."""
    hook = GhostBarrier(s, barrier, mode, rebate, side)
    start, stop = (hook.ghost + 1, s.size) if side is GhostSide.UP else (0, hook.ghost)
    return [hook, DirichletRegion(start, stop, rebate)] if start < stop else [hook]


@st.composite
def stack_blocks(draw, n_steps=N_STACK, m_matrix=False, kinds=HOOK_KINDS):
    """A random pricing block: nonuniform grid, market, boundary rows and one
    kind of hook set, all sharing the stack's N (``n_steps``) and horizon.

    The hook sets (``kinds``): none; one discrete knock-out, or two or
    three, each observed on a new set of steps or on an earlier one's, the
    first two masks overlapping, the third above or below a level; a
    Dirichlet region;
    one ghost barrier with the region beyond it, or a down and an up one in
    either order, their cells zero to three apart, so that one ghost node
    may be an inner node of the other's row; an American projection, alone
    or beside a Dirichlet region.

    With ``m_matrix`` the grid and market keep sigma^2 S above |r - q| times
    each spacing beside S, so every interior row of L couples to both
    neighbours with positive entries (cell Peclet number below 1), and each
    rate is 0 or at least 1e-4, so no entry is near underflow."""
    n = draw(st.integers(8, 40))
    lower_kind = draw(st.sampled_from(list(BoundaryKind)))
    upper_kind = draw(st.sampled_from([BoundaryKind.DIRICHLET_VALUE,
                                       BoundaryKind.ZERO_GAMMA]))
    start = 0.0 if lower_kind is BoundaryKind.DEGENERATE_EXACT else draw(
        st.floats(5.0, 50.0) if m_matrix else st.floats(1.0, 50.0))
    steps = draw(st.lists(st.floats(0.5, 0.9) if m_matrix else st.floats(0.2, 3.0),
                          min_size=n - 1, max_size=n - 1))
    s = start + np.concatenate(([0.0], np.cumsum(steps)))
    rates = st.one_of(st.just(0.0), st.floats(1e-4, 0.1)) if m_matrix else st.floats(0.0, 0.1)
    mkt = MarketParams(draw(rates), draw(rates),
                       draw(st.floats(0.45, 0.6) if m_matrix else st.floats(0.1, 0.6)))
    kind = draw(st.sampled_from(kinds))
    mode = BarrierMode.ON_GRID_DIRICHLET
    strike = float(s[draw(st.integers(1, n - 2))])
    terminal = np.maximum(strike - s, 0.0) + draw(st.floats(0.0, 1.0))
    hooks = []
    if kind.startswith("knockout"):
        dates = st.sets(st.integers(1, n_steps), min_size=1)
        seen = []
        for k in range(1 if kind == "knockout" else draw(st.integers(2, 3))):
            seen.append(draw(st.one_of(dates, *map(st.just, seen))))
            level = float(s[draw(st.integers(1, n - 2))])
            mask = s <= level if k == 2 and draw(st.booleans()) else s >= level
            hooks.append(DiscreteKnockout(mask, seen[-1], draw(st.floats(0.0, 1.0))))
    elif kind.endswith("dirichlet"):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, n))
        hooks.append(DirichletRegion(a, b, draw(st.floats(0.0, 1.0))))
    elif kind == "ghost":
        mode = draw(GHOST_MODES)
        side = draw(st.sampled_from(list(GhostSide)))
        if side is GhostSide.UP:
            i0 = draw(st.integers(2, n - 1))
            frac = draw(st.floats(0.05, 1.0))
        else:
            i0 = draw(st.integers(1, n - 3))
            frac = draw(st.floats(0.0, 0.95))
        barrier = float(s[i0 - 1] + frac * (s[i0] - s[i0 - 1]))
        assume(s[i0 - 1] < barrier < s[i0] if side is GhostSide.UP
               else s[i0 - 1] <= barrier < s[i0])
        hooks += ghost_with_region(s, barrier, mode, draw(st.floats(0.0, 1.0)), side)
    elif kind == "ghosts":
        # the down barrier in cell a, the up one in cell b >= a; a 3-point
        # row's inner node may not be the other ghost node, so there b > a
        mode = draw(GHOST_MODES)
        a = draw(st.integers(1, n - 3))
        b = draw(st.integers(a + (mode is BarrierMode.GHOST_LAGRANGE3), min(a + 3, n - 1)))
        down = float(s[a - 1] + draw(st.floats(0.0, 0.95)) * (s[a] - s[a - 1]))
        up = float(s[b - 1] + draw(st.floats(0.05, 1.0)) * (s[b] - s[b - 1]))
        assume(s[a - 1] <= down < s[a] and s[b - 1] < up <= s[b] and down < up)
        pair = [ghost_with_region(s, down, mode, draw(st.floats(0.0, 1.0)), GhostSide.DOWN),
                ghost_with_region(s, up, mode, draw(st.floats(0.0, 1.0)), GhostSide.UP)]
        if draw(st.booleans()):
            pair.reverse()
        hooks += pair[0] + pair[1]
    if kind.startswith("american"):
        hooks.insert(draw(st.integers(0, len(hooks))),
                     AmericanProjection(np.maximum(strike - s, 0.0)))
    cfg = PdeConfig(n_steps, BoundaryCondition(lower_kind, draw(st.floats(0.0, 1.0))),
                    BoundaryCondition(upper_kind, draw(st.floats(0.0, 1.0))),
                    barrier_mode=mode)
    return Grid(s), mkt, cfg, tuple(hooks), terminal


@settings(max_examples=150, deadline=None)
@given(blocks=st.lists(stack_blocks(), min_size=1, max_size=4),
       repeated=st.none() | stack_blocks(kinds=("ghost", "ghosts")),
       horizon=st.floats(0.05, 1.0))
def test_stacked_march_equals_solo_marches(blocks, repeated, horizon):
    # ``repeated``, a ghost block, stacks twice, at both ends, with the same
    # hook objects.
    if repeated is not None:
        blocks = [repeated, *blocks, repeated]
    steppers = [TrBdf2Stepper(grid, mkt, cfg, horizon, hooks)
                for grid, mkt, cfg, hooks, _ in blocks]
    solo = [stepper.run(terminal) for stepper, (*_, terminal) in zip(steppers, blocks)]
    assume(all(np.isfinite(v).all() for v in solo))
    stacked = Stack(steppers)
    out = stacked.split(stacked.march(np.concatenate([b[-1] for b in blocks])))
    assert len(out) == len(blocks)
    for mine, expect in zip(out, solo):
        assert np.array_equal(mine, expect)


def dense_march(grid, mkt, cfg, horizon, hooks, terminal) -> np.ndarray:
    """TR-BDF2 on the unscaled dense I - wL, solved by ``np.linalg.solve``,
    with the hooks applied as documented: the Dirichlet boundary rows that
    are no ghost row, then each DirichletRegion's rows, are identity rows
    whose rhs is their value, re-stamped after every solve; a GhostBarrier
    row holds its unreduced Lagrange weights with the rebate on the right,
    and its ghost value is set from the same weights before the explicit
    half, hook by hook; the American projection follows every solve, and a
    discrete knock-out sets its region to the rebate after each observation
    step, hook by hook."""
    s, n = grid.points, grid.points.size
    op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, cfg)
    lop = dense_matrix(op.lower, op.diag, op.upper)
    dt = horizon / cfg.time_steps
    w = OMEGA * dt
    ghosts = [hook for hook in hooks if isinstance(hook, GhostBarrier)]
    pins = {row: bc.value for row, bc in ((0, cfg.boundary_lower), (n - 1, cfg.boundary_upper))
            if bc.kind is BoundaryKind.DIRICHLET_VALUE and row not in {g.ghost for g in ghosts}}
    for hook in hooks:
        if isinstance(hook, DirichletRegion):
            pins.update(dict.fromkeys(range(n)[hook.start:hook.stop], hook.value))
    a = np.eye(n) - w * lop
    for row in pins:
        a[row] = np.eye(n)[row]
    for hook in ghosts:
        a[hook.ghost] = lagrange_row(s, hook.nodes, hook.barrier, n)

    def solve(rhs):
        for row, value in pins.items():
            rhs[row] = value
        for hook in ghosts:
            rhs[hook.ghost] = hook.rebate
        x = np.linalg.solve(a, rhs)
        for row, value in pins.items():
            x[row] = value
        for hook in hooks:
            if isinstance(hook, AmericanProjection):
                x = np.maximum(x, hook.obstacle)
        return x

    v = np.array(terminal, dtype=float)
    for step in range(1, cfg.time_steps + 1):
        v_eff = v.copy()
        for hook in ghosts:
            row = a[hook.ghost]
            v_eff[hook.ghost] = (hook.rebate - (row @ v_eff - row[hook.ghost] * v_eff[hook.ghost])
                                 ) / row[hook.ghost]
        stage = solve(v_eff + w * lop @ v_eff)
        v = solve(BDF2_NEW * stage - BDF2_OLD * v_eff)
        for hook in hooks:
            if isinstance(hook, DiscreteKnockout) and step in hook.steps:
                v[hook.mask] = hook.rebate
    return v


@settings(max_examples=150, deadline=None)
@given(block=stack_blocks(), horizon=st.floats(0.05, 1.0))
def test_march_equals_a_dense_march(block, horizon):
    # Every boundary kind, pins at zero and nonzero values, up and down
    # ghost rows of both orders, alone or both in one block, one or two
    # discrete knock-outs and the American projection, on blocks of 8-40
    # rows solved by LDL^T or LU: the engine's march, in the row-scaled
    # system, is the dense march to round-off.
    grid, mkt, cfg, hooks, terminal = block
    want = dense_march(grid, mkt, cfg, horizon, hooks, terminal)
    assume(np.isfinite(want).all())
    got = TrBdf2Stepper(grid, mkt, cfg, horizon, hooks).run(terminal)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def march_pair(draw, poison: str = ""):
    """A (block, terminal payoff) pair of a march, with its own size, N and
    horizon; drawn from few N and horizons, so blocks often share dt and N.
    ``poison`` "nan" puts a NaN in the terminal; "singular" makes the block
    one whose 3-point ghost row cannot be eliminated, on the drawn grid."""
    n_steps = draw(st.sampled_from([2, 3, N_STACK]))
    horizon = draw(st.sampled_from([0.25, 0.5, 1.0]))
    grid, mkt, cfg, hooks, terminal = draw(stack_blocks(n_steps))
    if poison == "nan":
        terminal[draw(st.integers(0, terminal.size - 1))] = np.nan
    elif poison == "singular":
        return unreducible_block(grid.points, horizon, n_steps), terminal
    return TrBdf2Stepper(grid, mkt, cfg, horizon, hooks), terminal


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(march_pair(), min_size=1, max_size=8))
def test_march_equals_each_blocks_own_run(pairs):
    solo = [block.run(terminal) for block, terminal in pairs]
    assume(all(np.isfinite(v).all() for v in solo))
    out = fdm.march(pairs)
    assert len(out) == len(pairs)
    for got, want in zip(out, solo):
        assert np.array_equal(got, want)


@st.composite
def poisoned_march(draw):
    """1-8 march pairs, 0-3 of them poisoned, and the poisoned indices."""
    n = draw(st.integers(1, 8))
    poisoned = draw(st.sets(st.integers(0, n - 1), max_size=3))
    pairs = [draw(march_pair(draw(st.sampled_from(["nan", "singular"])) if k in poisoned
                             else "")) for k in range(n)]
    return pairs, poisoned


@settings(max_examples=100, deadline=None)
@given(drawn=poisoned_march())
def test_march_returns_each_blocks_own_values_or_error(drawn):
    # Every slot holds what the block's own ``run`` gives: its values, or an
    # exception of the same type, message and attributes.  A failed stack
    # splits in halves, so one failing block in a k-block stack costs at
    # most 2 ceil(log2 k) factors beyond the one of each stack.
    pairs, poisoned = drawn
    solo = []
    for block, terminal in pairs:
        try:
            solo.append(block.run(terminal))
        except Exception as exc:  # noqa: BLE001 - compared with the march's slot
            solo.append(exc)
    factored = []
    with pytest.MonkeyPatch.context() as mp:
        factor = fdm._factor
        mp.setattr(fdm, "_factor", lambda *args: factored.append(1) or factor(*args))
        out = fdm.march(pairs)
    assert len(out) == len(pairs)
    for got, want in zip(out, solo):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            assert vars(got) == vars(want)
        else:
            assert np.array_equal(got, want)
    failed = {k for k, want in enumerate(solo) if isinstance(want, Exception)}
    if len(poisoned) == 1 and failed == poisoned:
        stacks = fdm._stacks(pairs)
        k = len(next(stack for stack in stacks if poisoned <= set(stack)))
        assert len(factored) <= len(stacks) + 2 * math.ceil(math.log2(k))


# Where a started march runs: on a thread, and in a forked process where it may.
needs_fork = pytest.mark.skipif(not _threads.FORK, reason="a started march forks only on Linux")
MARCHES = ["march", "thread", pytest.param("process", marks=needs_fork)]
PLACE = {"thread": "a thread", "process": "a forked process"}   # as the record names it


def march_by(monkeypatch, how: str, pairs) -> list:
    """``fdm.march(pairs)``, or with ``how`` "thread" or "process" the same
    march started there (``fdm.start``) and joined."""
    if how == "march":
        return fdm.march(pairs)
    monkeypatch.setattr(_threads, "FORK", how == "process")
    return fdm.start(pairs).result()


class TestParallel:
    """``march`` marches in the calling thread; ``start`` runs the same
    march beside it."""

    def pairs(self, *shapes):
        """One (block, terminal values) pair per (nodes, N) shape."""
        mkt = MarketParams(0.05, 0.0, 0.2)
        return [(TrBdf2Stepper(Grid(np.linspace(50.0, 150.0, n)), mkt, PdeConfig(steps), 1.0),
                 np.linspace(0.0, 1.0, n) + k)
                for k, (n, steps) in enumerate(shapes)]

    def record_marches(self, monkeypatch) -> list:
        """Record the (nodes, N) of every stack as it marches."""
        marched = []
        march = Stack.march

        def recording(system, v):
            marched.append((v.size, system.n_steps))
            return march(system, v)

        monkeypatch.setattr(Stack, "march", recording)
        return marched

    def test_blocks_stack_per_dt_and_n_in_the_given_order(self, monkeypatch):
        # The two N = 4 blocks share one stack, which marches first, as its
        # first block was given first.
        marched = self.record_marches(monkeypatch)
        fdm.march(self.pairs((11, 4), (21, 9), (21, 4), (31, 2)))
        assert marched == [(32, 4), (21, 9), (31, 2)]

    def test_march_starts_no_thread_or_process(self, monkeypatch):
        # Blocks of two (dt, N) march as two stacks, and nothing starts.
        pairs = self.pairs((11, 4), (21, 9), (31, 4))
        solo = [block.run(terminal) for block, terminal in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("march started a thread or process")

        monkeypatch.setattr(_threads, "Part", refuse)
        monkeypatch.setattr(os, "fork", refuse, raising=False)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        marched = self.record_marches(monkeypatch)
        out = fdm.march(pairs)
        assert marched == [(42, 4), (21, 9)]
        for got, want in zip(out, solo):
            assert np.array_equal(got, want)

    def test_threads_run_only_the_step_loop(self):
        # A traced ``run`` records spans on the calling thread alone.
        calls = []

        class Counted(TrBdf2Stepper):
            def run(self, terminal):
                calls.append(threading.current_thread() is threading.main_thread())
                return super().run(terminal)

        grid = Grid(np.linspace(50.0, 150.0, 11))
        pairs = [(Counted(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(4), 1.0), np.ones(11))
                 for _ in range(3)]
        out = pairs[0][0].run(pairs)
        assert calls == [True]
        assert [v.shape for v in out] == [(11,)] * 3

    @pytest.mark.parametrize("how", MARCHES)
    def test_a_failed_block_returns_its_own_error(self, monkeypatch, how):
        # ``run`` of the poisoned block alone raises; ``march``, and a
        # started march, return that exception in its slot, beside the other
        # block's values, though the two blocks stack.
        good, bad = self.pairs((11, 4), (21, 4))
        block, poisoned = bad
        poisoned[7] = np.nan
        with pytest.raises(NonFiniteValueError) as solo:
            block.run(poisoned)
        values, error = march_by(monkeypatch, how, [good, bad])
        assert np.array_equal(values, good[0].run(good[1]))
        assert type(error) is NonFiniteValueError and str(error) == str(solo.value)

    @pytest.mark.parametrize("overflow_first", [True, False])
    @pytest.mark.parametrize("how", MARCHES)
    def test_every_march_keeps_the_callers_error_state(self, monkeypatch, overflow_first, how):
        # Under over="raise" a block whose knocked-out region's rebate
        # overflows the second substage's rhs fails alone with numpy's
        # FloatingPointError.  Marched beside a clean block, in the calling
        # thread or started on a thread or in a forked process, it must fail
        # the same way, not with the NonFiniteValueError of numpy's default
        # state.
        clean, (block, terminal) = self.pairs((41, 4), (21, 4))
        block = TrBdf2Stepper(block.grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(4), 1.0,
                              (DirichletRegion(18, 21, 1e308),))
        bad = (block, terminal)
        pairs = [bad, clean] if overflow_first else [clean, bad]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError) as solo:
                block.run(bad[1])
            want = clean[0].run(clean[1])
            out = march_by(monkeypatch, how, pairs)
        error, values = out if overflow_first else out[::-1]
        assert type(solo.value) is FloatingPointError
        assert type(error) is type(solo.value) and str(error) == str(solo.value)
        assert np.array_equal(values, want)

    def test_debug_record_lists_each_stack(self, caplog):
        pairs = self.pairs((11, 4), (21, 4), (11, 9), (31, 2))
        quiet = fdm.march(pairs)
        assert not [r for r in caplog.records if r.name == "stretchgrid.fdm"]
        caplog.set_level(logging.DEBUG, logger="stretchgrid.fdm")
        logged = fdm.march(pairs)
        record, = [r for r in caplog.records if r.name == "stretchgrid.fdm"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert re.fullmatch(
            r"march of 4 blocks in the calling thread, [0-9.]+ s wall, [0-9.]+ s CPU, "
            r"LAPACK from " + re.escape(str(_lapack.PATH)) +
            r": stack\(blocks=2, nodes=32, N=4, solve=ldl\), "
            r"stack\(blocks=1, nodes=11, N=9, solve=ldl\), "
            r"stack\(blocks=1, nodes=31, N=2, solve=ldl\)", message), message
        for got, want in zip(logged, quiet):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("fork, where", [(False, "thread"),
                                             pytest.param(True, "process", marks=needs_fork)])
    def test_a_started_march_returns_the_march_and_its_record(self, monkeypatch, caplog,
                                                              fork, where):
        # ``start`` stacks the blocks as ``march`` does, and its result logs
        # the record here.
        monkeypatch.setattr(_threads, "FORK", fork)
        pairs = self.pairs((11, 4), (21, 4), (11, 9))
        want = fdm.march(pairs)
        caplog.set_level(logging.DEBUG, logger="stretchgrid.fdm")
        got = fdm.start(pairs).result()
        for values, expected in zip(got, want):
            assert values.tobytes() == expected.tobytes()
        record, = [r for r in caplog.records if r.name == "stretchgrid.fdm"]
        message = record.getMessage()
        assert re.fullmatch(
            r"march of 3 blocks started in " + PLACE[where] + r", joined after [0-9.]+ s wall, "
            r"[0-9.]+ s CPU, LAPACK from " + re.escape(str(_lapack.PATH)) +
            r": stack\(blocks=2, nodes=32, N=4, solve=ldl\), "
            r"stack\(blocks=1, nodes=11, N=9, solve=ldl\)", message), message

    def test_workers_fall_back_to_the_cpu_count(self, monkeypatch):
        set_workers(monkeypatch, 3)
        assert _threads.workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _threads.workers() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _threads.workers() == 1


@needs_fork
class TestForkedParts:
    """On Linux a started march runs in a forked process, and none outlives
    its ``result()`` or ``cancel()`` (the ``no_child_left`` fixture checks
    after every test)."""

    pairs = TestParallel.pairs

    def test_no_process_outlives_a_started_march_that_returns(self):
        pairs = self.pairs((41, 4), (21, 4), (11, 9))
        solo = [block.run(terminal) for block, terminal in pairs]
        out = fdm.start(pairs).result()
        for got, want in zip(out, solo):
            assert np.array_equal(got, want)

    def test_a_childs_failed_block_returns_its_error_in_its_slot(self):
        # A clean block, and two blocks that fail in the child: a NaN and an
        # unreducible ghost row.
        clean, nan = self.pairs((401, 8), (21, 4))
        nan[1][10] = np.nan
        pairs = [clean, nan, (unreducible_block(np.linspace(50.0, 150.0, 11)), np.ones(11))]
        solo = []
        for block, terminal in pairs:
            try:
                solo.append(block.run(terminal))
            except Exception as exc:  # noqa: BLE001 - compared with the march's slot
                solo.append(exc)
        out = fdm.start(pairs).result()
        assert np.array_equal(out[0], solo[0])
        assert [type(exc) for exc in out[1:]] == [NonFiniteValueError, SingularSystemError]
        for got, want in zip(out[1:], solo[1:]):
            assert type(got) is type(want) and str(got) == str(want)
            assert vars(got) == vars(want)

    def test_an_interrupt_while_waiting_leaves_the_march_to_cancel(self, monkeypatch):
        # The started march would sleep a minute.  An interrupt that arrives
        # (by a timer) while the caller waits for its result leaves it to
        # the caller, whose ``cancel`` kills it and reaps it at once.
        parent, march = os.getpid(), Stack.march

        def sleeping(system, v):
            if os.getpid() != parent:
                time.sleep(60.0)
            return march(system, v)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(Stack, "march", sleeping)
        handler = signal.signal(signal.SIGALRM, interrupt)
        began = time.perf_counter()
        started = fdm.start(self.pairs((41, 4), (21, 4)))
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                started.result()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, handler)
            started.cancel()
        assert time.perf_counter() - began < 30.0

    @pytest.mark.parametrize("end, exitcode", [("exit", 3), ("kill", -9)])
    def test_a_part_that_dies_without_a_result_is_named(self, monkeypatch, end, exitcode):
        parent, march = os.getpid(), Stack.march

        def dying(system, v):
            if os.getpid() != parent:
                if end == "exit":
                    os._exit(3)
                os.kill(os.getpid(), 9)
            return march(system, v)

        monkeypatch.setattr(Stack, "march", dying)
        started = fdm.start(self.pairs((41, 4), (21, 4)))
        with pytest.raises(fdm.LostPartError) as err:
            started.result()
        assert (err.value.part, err.value.exitcode) == (0, exitcode)
        assert str(err.value).startswith("fdm-start: part 0 ended without a result")

    def test_a_result_that_does_not_pickle_raises_why(self, monkeypatch):
        # The child's slot would hold an exception of a local class, which
        # pickle cannot name: the march fails with pickle's error.
        parent, march = os.getpid(), Stack.march

        class Local(Exception):
            pass

        def failing(system, v):
            if os.getpid() != parent:
                raise Local
            return march(system, v)

        monkeypatch.setattr(Stack, "march", failing)
        started = fdm.start(self.pairs((41, 4), (21, 4)))
        with pytest.raises(AttributeError, match="Can't pickle local object"):
            started.result()

    def test_processes_and_threads_give_the_same_bits(self, monkeypatch, caplog):
        # One stack of a plain block, an LU block, a ghost block and a plain
        # one, marched here, started on a thread and started in a child.
        points = np.linspace(0.0, 100.0, 41)
        lu = lu_block("peclet")
        mkt, cfg = MarketParams(0.05, 0.0, 0.3), PdeConfig(4)
        plain = TrBdf2Stepper(Grid(points), mkt, cfg, 1.0)
        barrier = GhostBarrier(points, 71.3, BarrierMode.GHOST_LAGRANGE3, 0.5)
        ghost = TrBdf2Stepper(Grid(points), mkt, PdeConfig(
            4, barrier_mode=BarrierMode.GHOST_LAGRANGE3), 1.0,
            (barrier, DirichletRegion(barrier.ghost + 1, points.size, 0.5)))
        terminal = np.maximum(points - 50.0, 0.0)
        pairs = [(block, terminal) for block in (plain, lu, ghost, plain)]
        caplog.set_level(logging.DEBUG, logger="stretchgrid.fdm")
        out = {how: march_by(monkeypatch, how, pairs) for how in ("march", "thread", "process")}
        for (block, _), *got in zip(pairs, out["march"], out["thread"], out["process"]):
            assert {values.tobytes() for values in got} == {block.run(terminal).tobytes()}
        solves = [re.findall(r"solve=([a-z+]+)\)", r.getMessage()) for r in caplog.records
                  if r.name == "stretchgrid.fdm"]
        assert solves[:3] == [["ldl+lu+ldl"]] * 3

    def test_a_child_never_cancels_the_parts_it_inherited(self):
        # Part 2's child raises at once.  It leaves by ``os._exit``, so it
        # never unwinds into the caller's frames, where it could cancel
        # (kill) part 1, whose handle it inherited: part 1 ends with its
        # value, and the error raised is part 2's own.
        def work(part, stop):
            if part == 2:
                raise KeyboardInterrupt
            time.sleep(0.5 * part)
            return part

        first = _threads.Part(work, 1, "test", fork=True)
        second = _threads.Part(work, 2, "test", fork=True)
        with pytest.raises(KeyboardInterrupt):
            second.result()
        assert first.result() == 1

    @pytest.mark.parametrize("placed, here, width, want", [
        ({}, 1, 2, 0),                 # off the calling thread's CPU
        ({10: 0}, 1, 2, 1),            # a tie goes to the calling thread's CPU
        ({10: 0, 11: 1}, 1, 2, 0),
        ({10: 2}, 0, 3, 1),            # the least used, then the lowest
        ({}, 0, 1, None),              # one CPU: nowhere else to go
    ])
    def test_a_child_starts_on_the_least_used_cpu(self, monkeypatch, placed, here,
                                                  width, want):
        set_workers(monkeypatch, width)
        monkeypatch.setattr(_threads, "_cpu", lambda: here)
        monkeypatch.setattr(_threads, "_placed", dict(placed))
        assert _threads._cpu_for_child() == want

    def test_the_calling_threads_cpu_is_read(self):
        assert _threads._cpu() in os.sched_getaffinity(0)

    def test_a_childs_place_is_kept_until_it_is_reaped(self, monkeypatch):
        set_workers(monkeypatch, 2)
        monkeypatch.setattr(_threads, "_cpu", lambda: 1)
        first = fdm.start(self.pairs((41, 4)))
        second = fdm.start(self.pairs((41, 4)))
        assert sorted(_threads._placed.values()) == [0, 1]
        first.result()
        second.cancel()
        assert _threads._placed == {}

    def test_a_cancelled_started_march_is_reaped(self, monkeypatch):
        parent, march = os.getpid(), Stack.march

        def sleeping(system, v):
            if os.getpid() != parent:
                time.sleep(60.0)
            return march(system, v)

        monkeypatch.setattr(Stack, "march", sleeping)
        began = time.perf_counter()
        started = fdm.start(self.pairs((41, 4)))
        started.cancel()
        assert time.perf_counter() - began < 30.0


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

    def test_region_overlapping_a_dirichlet_boundary_row_wins(self, monkeypatch):
        # Rows 8-10 are a knocked-out region at 0.25; row 10 is also the
        # Dirichlet upper boundary at 2.5.  The region's value holds in the
        # factored matrix, in every rhs the solve is given and after every
        # solve, alone and stacked behind another block; row 0 keeps its
        # boundary value 1.5.
        factored = []
        seen = []

        def recording(lower, diag, upper, *args):
            factored.append((lower[1:].copy(), diag.copy(), upper[:-1].copy()))
            system = factor(lower, diag, upper, *args)
            rows = diag.size - 11 + np.array([0, 8, 9, 10])   # the probed block's

            def solve(rhs):
                seen.append(("rhs", rhs[rows]))
                x = system.solve(rhs)
                seen.append(("solve", x[rows]))
                return x
            return system._replace(solve=solve)

        factor = fdm._factor
        monkeypatch.setattr(fdm, "_factor", recording)
        grid = Grid(np.linspace(50.0, 150.0, 11))
        cfg = PdeConfig(3, BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 1.5),
                        BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 2.5))
        mkt = MarketParams(0.05, 0.01, 0.2)
        terminal = np.maximum(grid.points - 100.0, 0.0)
        want = np.array([1.5, 0.25, 0.25, 0.25])
        solo = TrBdf2Stepper(grid, mkt, cfg, 1.0, (DirichletRegion(8, 11, 0.25),))
        plain, = self.steppers(3)
        alone = solo.run(terminal)
        _, out = fdm.march([(plain, terminal), (solo, terminal)])
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

    def test_one_block_stack_marches_its_own_terminal(self, monkeypatch):
        block, twin = self.steppers(4, 4)
        marched = []
        march = Stack.march
        monkeypatch.setattr(Stack, "march", lambda system, v: marched.append(v) or march(system, v))
        terminal = np.linspace(0.0, 1.0, 11)
        out, = fdm.march([(block, terminal)])
        assert np.shares_memory(marched[0], terminal)
        both = fdm.march([(block, terminal), (twin, terminal)])
        assert not np.shares_memory(marched[1], terminal)  # two blocks stack a copy
        assert np.array_equal(both[0], out) and np.array_equal(both[1], out)

    def test_read_only_or_strided_terminal_marches_as_a_copy(self):
        # The product and the solves hand LAPACK writable C-contiguous
        # buffers, so ``march`` copies a terminal that is neither, and leaves
        # it as it was.
        block, = self.steppers(4)
        terminal = np.linspace(0.0, 1.0, 11)
        want = block.run(terminal)
        read_only = terminal.copy()
        read_only.flags.writeable = False
        strided = np.repeat(terminal, 2)[::2]
        for v in (read_only, strided):
            assert np.array_equal(block.run(v), want)
            assert np.array_equal(v, terminal)

    def test_stack_march_takes_a_read_only_or_strided_terminal(self):
        steppers = self.steppers(4, 4)
        terminal = np.linspace(0.0, 1.0, 22)
        want = Stack(steppers).march(terminal)
        read_only = terminal.copy()
        read_only.flags.writeable = False
        for v in (read_only, np.repeat(terminal, 2)[::2], list(terminal)):
            assert np.array_equal(Stack(steppers).march(v), want)
        assert np.array_equal(read_only, terminal)

    def test_rejects_a_hook_of_another_kind(self):
        class Custom:
            pass

        with pytest.raises(TypeError, match="^fdm: a hook is a Custom; TrBdf2Stepper takes "
                                            "DirichletRegion, GhostBarrier, AmericanProjection, "
                                            "DiscreteKnockout$"):
            self.steppers(4, hooks=(DirichletRegion(0, 2, 0.0), Custom()))

    def test_rejects_a_knockout_mask_of_another_size(self):
        with pytest.raises(ValueError, match="mask has shape \\(12,\\); the grid has 11 nodes"):
            self.steppers(4, hooks=(DiscreteKnockout(np.ones(12, dtype=bool), {1}, 0.0),))

    def test_nan_in_one_block_raises_the_step(self):
        steppers = self.steppers(4, 4)
        terminal = np.ones(22)
        terminal[15] = np.nan
        with pytest.raises(NonFiniteValueError, match="step 1"):
            Stack(steppers).march(terminal)

    def test_singular_block_fails_its_stack(self):
        a, b = self.steppers(4, 4)
        c = unreducible_block(np.linspace(50.0, 150.0, 11))
        with pytest.raises(SingularSystemError, match="cannot eliminate"):
            Stack([a, c, b])

    def test_unreducible_ghost_row_names_the_stacks_rows(self):
        # The middle block's ghost row 9, inner row 8 and second inner node
        # 7 are rows 20, 19 and 18 of the stack, as a zero pivot's row is.
        a, = self.steppers(4)
        c = unreducible_block(np.linspace(50.0, 150.0, 11))
        with pytest.raises(SingularSystemError) as alone:
            Stack([c])
        assert alone.value.row == 8
        with pytest.raises(SingularSystemError) as err:
            Stack([a, c, a])
        assert err.value.row == 19
        assert re.search(r"ghost row 20 of barrier .*: inner row 19 has no coupling to "
                         r"node 18$", str(err.value)), str(err.value)

    def test_zero_pivot_lies_in_the_singular_block(self):
        # rows 11-21 of the stack, row 3 of the middle block zeroed
        blocks = self.steppers(4, 4, 4)
        with pytest.raises(SingularSystemError) as err:
            fdm._factor(*zeroed_row_bands(blocks, 14), blocks[0].dt,
                        [slice(0, 11), slice(11, 22), slice(22, 33)], np.zeros(33, dtype=bool))
        assert 11 <= err.value.row < 22 and "n = 33" in str(err.value)


def factored_bands(monkeypatch) -> list:
    """Record the stamped (lower, diag, upper) of every stack as it is factored."""
    stamped = []
    factor = fdm._factor
    monkeypatch.setattr(fdm, "_factor", lambda *args: stamped.append(
        [band.copy() for band in args[:3]]) or factor(*args))
    return stamped


@settings(max_examples=150, deadline=None)
@given(block=stack_blocks(m_matrix=True), seed=st.integers(0, 2 ** 32 - 1))
def test_m_matrix_blocks_solve_by_ldl(block, seed):
    # Every boundary kind (Dirichlet, zero-gamma, the degenerate S = 0 row),
    # Dirichlet regions at zero and nonzero values, and up and down ghost
    # rows, linear and 3-point: the block qualifies, and its first substage,
    # built and solved in the row-scaled system, agrees with a dense solve
    # on the stamped matrix of the rhs (I + wL) v, its pinned and ghost rows
    # set by the documented rules.
    grid, mkt, cfg, hooks, _ = block
    block = TrBdf2Stepper(grid, mkt, cfg, 0.5, hooks)
    with pytest.MonkeyPatch.context() as mp:
        stamped = factored_bands(mp)
        system = Stack([block])
    assert system.solve_kind == "ldl"
    v = np.random.default_rng(seed).standard_normal(grid.points.size)
    rhs = v + OMEGA * block.dt * (dense_matrix(block.op.lower, block.op.diag, block.op.upper) @ v)
    for row, value in block.pins.items():
        rhs[row] = value
    for hook in hooks:
        if isinstance(hook, GhostBarrier):
            # stamped again on a copy of the stamped bands: the inner row is
            # as it was, so the factor is too
            factor = hook.stamp(*(band.copy() for band in stamped[0]))
            rhs[hook.ghost] = hook.rebate - factor * rhs[hook.inner]
    want = np.linalg.solve(dense_matrix(*stamped[0]), rhs)
    for hook in hooks:
        if isinstance(hook, AmericanProjection):
            want = np.maximum(want, hook.obstacle)
    got = system._substage(system._product(v, np.empty_like(v)))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# Blocks the engine builds that LDL^T does not serve: (grid, market, N).
LU_BLOCKS = {
    # sigma = 0.05 and r = 0.1 near S = 0: the cell Peclet number
    # (r - q) h / (sigma^2 S) is far above 1 and L's lower entries turn
    # negative, so the matrix is no symmetrisable M-matrix
    "peclet": (np.linspace(0.0, 100.0, 41), MarketParams(0.1, 0.0, 0.05), 4),
    # sigma = 0: every coupled row pairs a negative lower entry with a
    # positive upper one
    "pure_convection": (np.linspace(0.0, 150.0, 41), MarketParams(0.05, 0.0, 0.0), 4),
    # tables 5 and 6's market: only the zero-gamma top row disqualifies the
    # block, its diagonal 1 - w(|r - q| S / h - r) = -1.93 (at N = 100 the
    # same block takes ldl)
    "zero_gamma_large_dt": (np.linspace(0.0, 200.0, 1001), MarketParams(0.1, 0.0, 0.25), 10),
}


def lu_block(name: str, n_steps: int | None = None) -> TrBdf2Stepper:
    """The block ``name`` of ``LU_BLOCKS`` over one year, from the degenerate
    S = 0 row to a zero-gamma top row, at its own N unless given one."""
    points, mkt, own_steps = LU_BLOCKS[name]
    cfg = PdeConfig(n_steps or own_steps, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                    BoundaryCondition(BoundaryKind.ZERO_GAMMA))
    return TrBdf2Stepper(Grid(points), mkt, cfg, 1.0)


@pytest.mark.parametrize("name", list(LU_BLOCKS))
def test_convection_dominated_block_takes_lu_with_its_bits(monkeypatch, name):
    # The block is solved by gttrf/gttrs on its stamped rows, with the bits
    # of scipy.linalg.lapack's; stacked between two blocks that qualify, each
    # block still marches as it does alone.
    from scipy.linalg import lapack
    block = lu_block(name)
    points, _, n_steps = LU_BLOCKS[name]
    plain = TrBdf2Stepper(Grid(points), MarketParams(0.05, 0.0, 0.3), PdeConfig(
        n_steps, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
        BoundaryCondition(BoundaryKind.DIRICHLET_VALUE)), 1.0)
    stamped = factored_bands(monkeypatch)
    system = Stack([block])
    assert system.solve_kind == "lu"
    lower, diag, upper = stamped[0]
    rhs = np.random.default_rng(5).standard_normal(points.size)
    *lu, info = lapack.dgttrf(lower[1:], diag, upper[:-1])
    assert info == 0
    assert system._solve(rhs.copy()).tobytes() == lapack.dgttrs(*lu, rhs)[0].tobytes()
    mixed = Stack([plain, block, plain])
    assert mixed.solve_kind == "ldl+lu+ldl"
    terminal = np.maximum(points - 50.0, 0.0)
    out = mixed.split(mixed.march(np.concatenate([terminal] * 3)))
    for got, each in zip(out, (plain, block, plain)):
        assert np.array_equal(got, each.run(terminal))


@pytest.mark.parametrize("name", list(LU_BLOCKS))
def test_lu_block_march_equals_a_dense_march(name):
    block = lu_block(name)
    terminal = np.maximum(block.grid.points - 50.0, 0.0)
    points, mkt, n_steps = LU_BLOCKS[name]
    cfg = PdeConfig(n_steps, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                    BoundaryCondition(BoundaryKind.ZERO_GAMMA))
    want = dense_march(block.grid, mkt, cfg, 1.0, (), terminal)
    got = block.run(terminal)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_merged_steps_apply_as_the_steps_in_order():
    # A step joins the run before it unless it reads or writes a row that
    # run writes; it may write a row the run reads.
    def step(t, s, c):
        return np.array(t), np.array(s), np.array(c, dtype=float)

    steps = [step([4], [5], [0.5]),
             step([1, 7], [0, 8], [0.25, -2.0]),     # joins: run 1 writes 4, 1, 7
             step([5], [4], [3.0]),                  # reads 4: run 2
             step([0], [2], [1.5]),                  # joins run 2
             step([2], [3], [-0.75]),                # writes 2, which run 2 reads: joins
             step([5], [6], [2.0])]                  # writes 5 again: run 3
    runs = fdm._merged(steps)
    assert [list(t) for t, _, _ in runs] == [[4, 1, 7], [5, 0, 2], [5]]
    v = np.random.default_rng(2).standard_normal(9)
    want, got = v.copy(), v.copy()
    for t, s, c in steps:
        for ti, si, ci in zip(t, s, c):
            want[ti] -= ci * want[si]
    for t, s, c in runs:
        got[t] -= c * got[s]
    assert got.tobytes() == want.tobytes()


def test_knockouts_join_per_observation_set_and_apply_in_order():
    # A knock-out joins the last assignment of its observation set and
    # rebate, unless a later assignment writes one of its rows.
    def knockout(start, stop, steps, rebate):
        return DiscreteKnockout(np.isin(np.arange(10), range(start, stop)), steps, rebate)

    a, b = {1, 2}, {2, 3}
    hooks = [knockout(0, 4, a, 0.5),
             knockout(6, 8, b, 1.5),
             knockout(2, 5, a, 0.5),     # joins the first, past b's rows 6-7
             knockout(3, 4, a, 2.5),     # another rebate: its own assignment
             knockout(7, 10, a, 0.5),    # writes row 7 after b: a new assignment
             knockout(0, 1, b, 1.5),     # joins b's, which no later one overlaps
             knockout(9, 10, a, -0.0),   # a signed zero is its own rebate
             knockout(8, 9, a, 0.0)]     # and 0.0 is not -0.0: a new assignment
    joined = fdm._knockouts([(slice(0, 10), hook) for hook in hooks], 10)
    assert [(steps, np.flatnonzero(mask).tolist(), str(rebate))
            for steps, mask, rebate in joined] == [
        (a, [0, 1, 2, 3, 4], "0.5"), (b, [0, 6, 7], "1.5"), (a, [3], "2.5"),
        (a, [7, 8, 9], "0.5"), (a, [9], "-0.0"), (a, [8], "0.0")]
    v = np.random.default_rng(3).standard_normal(10)
    for step in (1, 2, 3):
        want, got = v.copy(), v.copy()
        for hook in hooks:
            if step in hook.steps:
                want[hook.mask] = hook.rebate
        for steps, mask, rebate in joined:
            if step in steps:
                got[mask] = rebate
        assert got.tobytes() == want.tobytes()


def test_zero_gamma_block_takes_ldl_at_a_small_dt():
    assert Stack([lu_block("zero_gamma_large_dt", 100)]).solve_kind == "ldl"


@pytest.mark.parametrize("config", [1, 2, 3, 4, 5, 6, "american_put_stretch", "smoke_zero_vol"])
def test_every_stack_of_the_bundled_tables_solves_by_ldl(caplog, config):
    # Logging is configured after the import: each march's own record names
    # the LAPACK library bound and the solve of every stack.
    caplog.set_level(logging.DEBUG, logger="stretchgrid.fdm")
    # The records name every block the table marches, once: its references
    # (started beside the caller from two workers) and its rows.
    table = bench.load_bundled(config)
    results = table.run()
    assert not any(row.failed for _, report in results for row in report.rows)
    records = [r.getMessage() for r in caplog.records if r.name == "stretchgrid.fdm"]
    assert records and all(f"LAPACK from {_lapack.PATH}: " in r for r in records)
    solves = [solve for r in records for solve in re.findall(r"solve=([a-z+]+)\)", r)]
    assert solves and set(solves) == {"ldl"}
    references = 1 if table.reference_mode == "shared" else len(table.columns)
    rows = sum(len(cfg.space_steps) for _, cfg in table.columns)
    named = [int(n) for r in records for n in re.findall(r"stack\(blocks=(\d+),", r)]
    assert sum(named) == references + rows
    started = [r for r in records if " started in " in r]
    assert len(started) == (references if _threads.workers() > 1 else 0)


LINALG_DIR = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
FLAPACK_PATH = LINALG_DIR / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
BUNDLED = _lapack.BUNDLED is not None
needs_bundled = pytest.mark.skipif(
    not BUNDLED, reason="numpy bundles no OpenBLAS exporting scipy_dgttrf_64_")


@functools.cache
def flapack() -> _lapack.Backend:
    return _lapack._flapack(LINALG_DIR)


def backend(path: str) -> _lapack.Backend:
    """numpy's bundled OpenBLAS, or scipy's ``_flapack`` loaded alone."""
    if path == "flapack":
        return flapack()
    if not BUNDLED:
        pytest.skip(needs_bundled.kwargs["reason"])
    return _lapack.BUNDLED


class TestLapackLoader:
    """``_lapack`` binds one backend, numpy's bundled OpenBLAS or else scipy's
    ``_flapack`` without ``scipy.linalg``, behind the four calls ``lu``,
    ``pttrf``, ``ldl_solver`` and ``product``; both backends give the bits of
    ``scipy.linalg.lapack``, and their products agree."""

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

    @staticmethod
    def call(name: str, other: np.ndarray):
        """One bundled call of a 5-row system that takes one vector: the
        ``lu`` or ``ldl`` solve, or the product with the vector as x or b
        and ``other`` as its other operand."""
        bundled = _lapack.BUNDLED
        if name == "lu":
            return bundled.lu(np.ones(4), 4.0 * np.ones(5), np.ones(4))[1]
        if name == "ldl":
            d, e = 4.0 * np.ones(5), np.ones(4)
            assert bundled.pttrf(d, e) == 0
            return bundled.ldl_solver(d, e)
        product = bundled.product(np.ones(4), 4.0 * np.ones(5), np.ones(4))
        return ((lambda v: product(v, other)) if name == "product x"
                else (lambda v: product(other, v)))

    @pytest.mark.parametrize("path", ["numpy", "flapack"])
    @pytest.mark.parametrize("kind, n", [("dominant", 200), ("pivoting", 500),
                                         ("singular", 40)])
    def test_bit_identical_to_the_public_routines(self, kind, n, path):
        # lu factors without writing the bands, and its solve writes the
        # solution into the rhs it is given, with dgttrf/dgttrs's bits.
        lower, diag, upper, rhs = self.system(kind, n)
        bands = [a.copy() for a in (lower, diag, upper)]
        info, solve = backend(path).lu(lower, diag, upper)
        xs = []
        for column in rhs.T:
            b = column.copy()
            xs.append(solve(b))
            assert np.shares_memory(xs[-1], b)
        for band, kept in zip((lower, diag, upper), bands):
            assert band.tobytes() == kept.tobytes()
        # scipy.linalg comes in after stretchgrid loaded its own copy of _flapack
        from scipy.linalg import lapack
        *lu_ref, info_ref = lapack.dgttrf(lower, diag, upper)
        assert info == info_ref
        for x, column in zip(xs, rhs.T):
            assert x.tobytes() == lapack.dgttrs(*lu_ref, column)[0].tobytes()
        pivots = int(np.count_nonzero(lu_ref[-1] != np.arange(1, n + 1)))
        if kind == "pivoting":
            assert pivots > n // 2
        if kind == "singular":
            assert info > 0
        else:
            matrix = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            assert info == 0 and np.allclose(matrix @ np.stack(xs, 1), rhs, rtol=0.0, atol=1e-8)
        assert lapack._flapack is sys.modules["scipy.linalg._flapack"]

    @pytest.mark.parametrize("path", ["numpy", "flapack"])
    @pytest.mark.parametrize("n", [5, 200, 4001])
    def test_ldl_routines_are_bit_identical_to_the_public_ones(self, path, n):
        # pttrf writes dpttrf's factors into its bands, a strided band
        # included, and the solve of those factors gives dpttrs's bits in
        # place; a matrix that is not positive definite reports its first
        # failing pivot alike.
        chosen = backend(path)
        from scipy.linalg import lapack
        rng = np.random.default_rng(n)
        diag, sub, rhs = 2.5 + rng.uniform(0.0, 1.0, n), -rng.uniform(0.1, 1.0, n - 1), \
            rng.standard_normal(n)
        *ref, info_ref = lapack.dpttrf(diag, sub)
        d, e = diag.copy(), np.repeat(sub, 2)[::2]
        assert chosen.pttrf(d, e) == info_ref == 0
        assert d.tobytes() == ref[0].tobytes() and e.tobytes() == ref[1].tobytes()
        b = rhs.copy()
        x = chosen.ldl_solver(d, e)(b)
        assert np.shares_memory(x, b)
        assert x.tobytes() == lapack.dpttrs(*ref, rhs)[0].tobytes()
        diag[n // 2] = -1.0
        assert chosen.pttrf(diag.copy(), sub.copy()) == lapack.dpttrf(diag, sub)[-1] > 0

    @needs_bundled
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 4001])
    def test_both_backends_products_have_the_same_bits(self, n):
        # The fallback's numpy product sums each row in dlagtm's order, so
        # the two agree bit for bit, signed zeros included; x is not written.
        rng = np.random.default_rng(n)
        dl, d, du, x = (rng.standard_normal(size) for size in (n - 1, n, n - 1, n))
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.2] = -0.0
        d[rng.random(n) < 0.1] = -0.0
        kept = x.tobytes()
        got = _lapack.BUNDLED.product(dl, d, du)(x, np.empty(n))
        assert x.tobytes() == kept
        assert got.tobytes() == flapack().product(dl, d, du)(x, np.empty(n)).tobytes()
        matrix = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
        assert np.allclose(got, matrix @ x, rtol=1e-14, atol=1e-14)

    def test_a_numpy_built_on_ilp64_scipy_openblas_is_bound(self):
        # numpy's PyPI wheel is built on scipy-openblas with 64-bit integers
        # and bundles it; a discovery that missed it would quietly run the
        # fallback and skip every test of the bundled path.
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        except (TypeError, KeyError):
            pytest.skip("numpy reports no LAPACK build configuration")
        if lapack.get("name") != "scipy-openblas" or \
                "USE64BITINT" not in lapack.get("openblas configuration", ""):
            pytest.skip(f"numpy is built on {lapack.get('name')}, not ILP64 scipy-openblas")
        assert BUNDLED

    @needs_bundled
    def test_binds_numpys_bundled_openblas(self):
        bound = (_lapack.PATH, _lapack.lu, _lapack.pttrf, _lapack.ldl_solver, _lapack.product)
        assert bound == tuple(_lapack.BUNDLED)
        assert not any(hasattr(fdm, name) for name in ("dgttrf", "dgttrs", "dpttrf", "dpttrs"))
        path = _lapack.PATH
        assert "openblas" in path.name and path.parent.name in ("numpy.libs", ".dylibs")

    @needs_bundled
    @pytest.mark.parametrize("call", ["lu", "ldl", "product x", "product b"])
    def test_lapack_calls_reject_a_short_read_only_or_strided_vector(self, call):
        # Each call hands LAPACK the vectors' buffers themselves, the rhs and
        # the product written in place: a vector it cannot use so is an
        # error, and it and the product's other operand are left as they were.
        read_only = np.ones(5)
        read_only.flags.writeable = False
        good = np.ones(5)
        for vector, error, message in ((np.ones(4), ValueError, "Buffer size too small"),
                                       (read_only, TypeError, "not writable"),
                                       (np.ones(10)[::2], TypeError, "not C contiguous")):
            with pytest.raises(error, match=message):
                self.call(call, good)(vector)
            assert (vector == 1.0).all() and (good == 1.0).all()

    @needs_bundled
    def test_import_logs_the_routines_and_the_products_source(self):
        # The bundled library is bound without looking for scipy at all.
        src = str(Path(fdm.__file__).resolve().parents[1])
        probe = ("import importlib.util, logging, sys; logging.basicConfig(level=logging.DEBUG, "
                 f"format='%(name)s %(message)s'); sys.path.insert(0, {src!r}); "
                 "asked = []; find_spec = importlib.util.find_spec; importlib.util.find_spec = "
                 "lambda name, *args: asked.append(name) or find_spec(name, *args); "
                 "import stretchgrid.fdm; print('scipy' in asked)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True)
        err = out.stderr.splitlines()
        assert f"stretchgrid.fdm LAPACK dgttrf/dgttrs/dpttrf/dpttrs from {_lapack.PATH}" in err
        assert "stretchgrid.fdm band product by LAPACK dlagtm" in err
        assert out.stdout == "False\n"

    @needs_bundled
    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    @pytest.mark.parametrize("call", ["lu", "ldl", "product x", "product b"])
    def test_lapack_calls_reject_a_vector_that_is_not_float64(self, call, dtype):
        # Each buffer's bytes would be read as doubles: 40 bytes pass the
        # size check of a 5-row system, whatever their dtype.
        bad = np.ones(40 // np.dtype(dtype).itemsize, dtype=dtype)
        good = np.ones(5)
        with pytest.raises(TypeError, match=f"has dtype {np.dtype(dtype)}; LAPACK takes float64"):
            self.call(call, good)(bad)
        assert (bad == 1).all() and (good == 1.0).all()

    @pytest.mark.parametrize("path", ["numpy", "flapack"])
    @pytest.mark.parametrize("call, message", [
        (lambda b: b.lu(np.ones(3), np.ones(3), np.ones(2)), r"dl has shape \(3,\)"),
        (lambda b: b.lu(np.ones(2), np.ones((3, 1)), np.ones(2)), r"d has shape \(3, 1\)"),
        (lambda b: b.product(np.ones(2), np.ones(3), np.ones(3)), r"du has shape \(3,\)"),
        (lambda b: b.pttrf(np.ones(5), np.ones(3)), r"e has shape \(3,\)"),
        (lambda b: b.ldl_solver(np.ones(5), np.ones(5)), r"e has shape \(5,\)"),
    ])
    def test_mismatched_shapes_are_value_errors(self, call, message, path):
        # ctypes would pass the pointers whatever their lengths; each is
        # checked against the row count first.
        with pytest.raises(ValueError, match=message):
            call(backend(path))

    @needs_bundled
    def test_fallback_marches_table_5_with_the_same_bits(self):
        # Hide numpy's bundled library from the discovery, as on a numpy not
        # installed from the PyPI wheel: _lapack falls back to scipy's
        # _flapack, logs that file, and table 5 (its 4,001-node reference and
        # ghost rows) prices as with the bundled library, bit for bit.  No
        # bundled table reaches the LU solve, so one LU block marches too.
        src = str(Path(fdm.__file__).resolve().parents[1])
        points, mkt, n_steps = LU_BLOCKS["zero_gamma_large_dt"]
        hide = ("import pathlib; glob = pathlib.Path.glob; pathlib.Path.glob = "
                "lambda self, pattern: iter(()) if 'openblas' in pattern else glob(self, pattern)")
        table_5 = "\n".join([
            "import logging, sys",
            "logging.basicConfig(level=logging.DEBUG, format='%(name)s %(message)s')",
            f"sys.path.insert(0, {src!r})",
            "import numpy as np",
            "from stretchgrid import _lapack, bench",
            "from stretchgrid.fdm import *",
            "from stretchgrid.gridgen import Grid",
            "print(_lapack.BUNDLED is None)",
            "for _, report in bench.load_bundled(5).run():",
            "    for prices in [report.reference, *(row.prices for row in report.rows)]:",
            "        print(*(price.hex() for price in prices.values()))",
            f"block = TrBdf2Stepper(Grid(np.linspace({points[0]!r}, {points[-1]!r}, "
            f"{points.size})), {mkt!r}, PdeConfig({n_steps}, BoundaryCondition("
            "BoundaryKind.DEGENERATE_EXACT), BoundaryCondition(BoundaryKind.ZERO_GAMMA)), 1.0)",
            "print(Stack([block]).solve_kind)",
            "print(*(v.hex() for v in block.run(np.maximum(block.grid.points - 100.0, 0.0))))"])
        hidden, bundled = (subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                          text=True, check=True)
                           for probe in (hide + "\n" + table_5, table_5))
        assert hidden.stdout.startswith("True\n") and bundled.stdout.startswith("False\n")
        assert hidden.stdout.split("\n", 1)[1] == bundled.stdout.split("\n", 1)[1]
        assert bundled.stdout.splitlines()[-2] == "lu"
        for out, path in ((hidden, FLAPACK_PATH), (bundled, _lapack.PATH)):
            assert (f"stretchgrid.fdm LAPACK dgttrf/dgttrs/dpttrf/dpttrs from {path}"
                    in out.stderr.splitlines())

    def test_missing_module_names_path_module_and_version(self, tmp_path):
        registered = sys.modules.get("scipy.linalg._flapack")
        with pytest.raises(ImportError) as err:
            _lapack._flapack(tmp_path)
        assert sys.modules.get("scipy.linalg._flapack") is registered
        message = str(err.value)
        expected = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        assert str(expected) in message
        assert "scipy.linalg._flapack" in message
        assert f"installed scipy: {metadata.version('scipy')}" in message

    def test_module_without_dgttrs_is_an_import_error(self, monkeypatch):
        stub = types.ModuleType("scipy.linalg._flapack")
        stub.dgttrf = flapack().lu
        monkeypatch.setattr(importlib.util, "module_from_spec", lambda spec: stub)
        with pytest.raises(ImportError, match="needs dgttrf, dgttrs, dpttrf and dpttrs") as err:
            _lapack._flapack(LINALG_DIR)
        assert isinstance(err.value.__cause__, AttributeError)
