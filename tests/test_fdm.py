import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stretchgrid import fdm
from stretchgrid.analytics import black_scholes_vanilla
from stretchgrid.fdm import (BDF2_NEW, BDF2_OLD, OMEGA, AmericanProjection,
                             BarrierMode, BoundaryCondition, BoundaryKind,
                             DirichletRegion, DiscreteKnockout,
                             GhostBarrier, GhostContext, GhostSide, Hook,
                             MarketParams, NonFiniteValueError, PdeConfig,
                             SingularSystemError, TrBdf2Stepper,
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
        bad.placed = {}
        with pytest.raises(ValueError):
            discretize_operator(bad, MarketParams())


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
        ctx = GhostContext(s, 31, barrier, rebate=0.3, side=GhostSide.UP)
        hooks = (DirichletRegion(1, 4, 0.0), GhostBarrier(ctx, BarrierMode.GHOST_LAGRANGE3),
                 DirichletRegion(32, n, 0.3))
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

    def test_singular_matrix_raises_at_construction(self):
        class ZeroRow(Hook):
            def stamp_matrix(self, lower, diag, upper):
                lower[3] = diag[3] = upper[3] = 0.0

            def adjust_rhs(self, rhs, tau):
                raise AssertionError("no step may run on a singular matrix")

        grid = Grid(np.linspace(50.0, 150.0, 6))
        with pytest.raises(SingularSystemError) as err:
            TrBdf2Stepper(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(4), 1.0,
                          (ZeroRow(),))
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
        stepper = TrBdf2Stepper(grid, mkt, cfg, 1.0, hooks)
        v = payoff(contract, grid)
        for j in range(cfg.time_steps):
            v = stepper.step(v, j + 1, j * stepper.dt)
            assert v.min() >= -1e-10


class TestGhostRows:
    def make_hook(self, barrier, side=GhostSide.UP, rebate=2.0,
                  order=BarrierMode.GHOST_LINEAR):
        pts = np.linspace(0.0, 10.0, 11)
        if side is GhostSide.UP:
            i0 = int(np.searchsorted(pts, barrier, side="left"))
        else:
            i0 = int(np.searchsorted(pts, barrier, side="right"))
        return GhostBarrier(GhostContext(pts, i0, barrier, rebate, side), order)

    def test_linear_weights_on_node(self):
        hook = self.make_hook(5.0)
        assert hook.weights == (1.0, 0.0)
        v = np.arange(11.0)
        hook.override_previous(v, 0.0)
        assert v[5] == 2.0

    def test_linear_explicit_override(self):
        hook = self.make_hook(4.6, rebate=0.0)
        ctx = hook.ctx
        v = np.zeros(11)
        hook.override_previous(v, 0.0)
        assert v[ctx.ghost] == 0.0
        v[ctx.inner] = 3.0
        hook.override_previous(v, 0.0)
        # linear interpolation through (S_inner, 3.0) and (S_ghost, G) is 0 at 4.6
        s = ctx.points
        interp = (v[ctx.ghost] * (4.6 - s[ctx.inner])
                  + 3.0 * (s[ctx.ghost] - 4.6)) / (s[ctx.ghost] - s[ctx.inner])
        assert interp == pytest.approx(0.0, abs=1e-12)

    def test_linear_implicit_row(self):
        hook = self.make_hook(4.6, rebate=1.5)
        n = 11
        lower, diag, upper = np.full(n, -1.0), np.full(n, 3.0), np.full(n, -1.0)
        hook.stamp_matrix(lower, diag, upper)
        g = hook.ctx.ghost
        assert diag[g] == pytest.approx((4.6 - 4.0) / 1.0)
        assert lower[g] == pytest.approx((5.0 - 4.6) / 1.0)
        assert upper[g] == 0.0
        rest = np.arange(n) != g
        assert np.all(lower[rest] == -1.0) and np.all(diag[rest] == 3.0)
        assert np.all(upper[rest] == -1.0)
        rhs = np.arange(float(n))
        hook.adjust_rhs(rhs, 0.0)
        assert rhs[g] == 1.5

    @pytest.mark.parametrize("side, i0, node", [(GhostSide.UP, 5, 4),
                                                (GhostSide.DOWN, 3, 3)],
                             ids=["up", "down"])
    def test_barrier_on_inner_node_rejected_at_construction(self, side, i0, node):
        pts = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError, match="barrier"):
            GhostContext(pts, i0, pts[node], side=side)

    def test_lagrange_weights_on_node(self):
        hook = self.make_hook(5.0, order=BarrierMode.GHOST_LAGRANGE3)
        assert hook.weights == (1.0, -0.0, 0.0)
        v = np.arange(11.0)
        hook.override_previous(v, 0.0)
        assert v[5] == 2.0

    def test_lagrange_elimination_matches_dense(self):
        rng = np.random.default_rng(9)
        pts = np.array([0.0, 1.1, 2.3, 3.2, 4.4, 5.5])
        ctx = GhostContext(pts, 5, 5.0, rebate=0.7, side=GhostSide.UP)
        hook = GhostBarrier(ctx, BarrierMode.GHOST_LAGRANGE3)
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
            hook = GhostBarrier(GhostContext(pts, i0, barrier, 0.8 + trial, side),
                                BarrierMode.GHOST_LAGRANGE3)
            lower = rng.normal(size=n)
            upper = rng.normal(size=n)
            diag = rng.normal(size=n) + 6.0
            lower[0] = upper[-1] = 0.0
            rhs = rng.normal(size=n)
            dense = dense_matrix(lower, diag, upper)
            dense[hook.ctx.ghost] = lagrange_row(pts, hook.nodes, barrier, n)
            rhs_d = rhs.copy()
            rhs_d[hook.ctx.ghost] = 0.8 + trial
            expect = np.linalg.solve(dense, rhs_d)
            hook.stamp_matrix(lower, diag, upper)
            hook.adjust_rhs(rhs, 0.0)
            mine = np.linalg.solve(dense_matrix(lower, diag, upper), rhs)
            assert np.max(np.abs(mine - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))

    def test_unreducible_lagrange_row_names_ghost_and_barrier(self):
        # sigma = 0 and r = q leave the inner row 26 without a coupling to
        # node 25, so the entry at (27, 25) cannot be eliminated
        s = np.linspace(80.0, 170.0, 31)
        ctx = GhostContext(s, 27, 160.5)
        hooks = (GhostBarrier(ctx, BarrierMode.GHOST_LAGRANGE3),)
        with pytest.raises(SingularSystemError) as err:
            TrBdf2Stepper(Grid(s), MarketParams(0.05, 0.05, 0.0),
                          PdeConfig(4, barrier_mode=BarrierMode.GHOST_LAGRANGE3),
                          1.0, hooks)
        assert err.value.row == 26
        message = str(err.value)
        assert message.startswith("fdm:")
        assert "160.5" in message
        assert "ghost row 27" in message and "inner row 26" in message

    def test_down_side_symmetry(self):
        pts = np.linspace(0.0, 10.0, 11)
        ctx = GhostContext(pts, 3, 2.4, rebate=0.0, side=GhostSide.DOWN)
        assert ctx.ghost == 2 and ctx.inner == 3
        v = np.zeros(11)
        v[3] = 1.0
        GhostBarrier(ctx, BarrierMode.GHOST_LINEAR).override_previous(v, 0.0)
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
        stepper.step(v, 1, 0.0)
        assert np.array_equal(v, before)


# ---------------------------------------------------------------------------
# Stacked (lockstep) marches


N_STACK = 6


@st.composite
def stack_blocks(draw):
    """A random pricing block: nonuniform grid, market, boundary rows and one
    kind of hook set, all sharing the stack's N = ``N_STACK`` and horizon."""
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
        dates = draw(st.sets(st.integers(1, N_STACK), min_size=1))
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
        ctx = GhostContext(s, i0, barrier, rebate, side)
        hooks.append(GhostBarrier(ctx, mode))
        start_, stop = (ctx.ghost + 1, n) if side is GhostSide.UP else (0, ctx.ghost)
        if start_ < stop:
            hooks.append(DirichletRegion(start_, stop, rebate))
    elif kind == "american":
        hooks.append(AmericanProjection(np.maximum(strike - s, 0.0)))
    cfg = PdeConfig(N_STACK, BoundaryCondition(lower_kind, draw(st.floats(0.0, 1.0))),
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
    stacked = TrBdf2Stepper.stack(steppers)
    out = stacked.split(stacked.run(np.concatenate([b[-1] for b in blocks])))
    assert len(out) == len(blocks)
    for mine, expect in zip(out, solo):
        assert np.array_equal(mine, expect)


class TestStack:
    def steppers(self, *time_steps, hooks=()):
        grid = Grid(np.linspace(50.0, 150.0, 11))
        return [TrBdf2Stepper(grid, MarketParams(0.05, 0.0, 0.2), PdeConfig(n), 1.0, hooks)
                for n in time_steps]

    def test_rejects_blocks_with_another_time_grid(self):
        with pytest.raises(ValueError, match="block 1: dt = 0.125, N = 8"):
            TrBdf2Stepper.stack(self.steppers(4, 8))

    def test_rejects_blocks_coupled_across_their_edge(self):
        class CoupleBelow(Hook):
            def stamp_matrix(self, lower, diag, upper):
                lower[0] = 0.5

        a, = self.steppers(4)
        b, = self.steppers(4, hooks=(CoupleBelow(),))
        b.run(np.ones(11))  # alone, the coupling is outside the matrix
        with pytest.raises(ValueError, match="block 1: .*lower\\[0\\] = 0.5"):
            TrBdf2Stepper.stack([a, b])

    def test_nan_in_one_block_raises_the_step(self):
        steppers = self.steppers(4, 4)
        terminal = np.ones(22)
        terminal[15] = np.nan
        with pytest.raises(NonFiniteValueError, match="step 1"):
            TrBdf2Stepper.stack(steppers).run(terminal)
