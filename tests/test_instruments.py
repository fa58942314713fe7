import numpy as np
import pytest

from stretchgrid.fdm import (AmericanProjection, BarrierMode, BoundaryCondition,
                             BoundaryKind, DirichletRegion, DiscreteKnockout,
                             GhostBarrier, GhostSide, MarketParams, PdeConfig,
                             Stack, TrBdf2Stepper)
from stretchgrid.gridgen import Grid, StretchKind, StretchSpec, build_map, sample_grid
from stretchgrid.instruments import (ContractError, ContractSpec, ExerciseStyle,
                                     OptionType, constraint_hooks,
                                     observation_steps, payoff)

MKT = MarketParams(0.07, 0.02, 0.20)


def uniform_grid(s_min, s_max, steps):
    return sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, s_min, s_max)), steps)


class TestPayoff:
    def test_zero_strike_call_is_spot(self):
        grid = uniform_grid(1.0, 150.0, 20)
        spec = ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, OptionType.CALL, 1e-12, 1.0)
        assert np.allclose(payoff(spec, grid), grid.points, atol=1e-10)

    def test_atm_put_node_is_zero(self):
        grid = Grid(np.array([50.0, 100.0, 150.0]))
        spec = ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, OptionType.PUT, 100.0, 1.0)
        assert payoff(spec, grid)[1] == 0.0

    def test_up_and_out_masks_beyond_barrier(self):
        grid = uniform_grid(0.0, 150.0, 150)
        spec = ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL, 100.0, 1.0,
                            barrier_upper=125.0, observations_per_year=250)
        v = payoff(spec, grid)
        assert np.all(v[grid.points >= 125.0] == 0.0)
        inside = (grid.points > 100.0) & (grid.points < 125.0)
        assert np.all(v[inside] > 0.0)

    def test_rebate_fills_knockout_region(self):
        grid = uniform_grid(0.0, 150.0, 150)
        spec = ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL, 100.0, 1.0,
                            barrier_upper=125.0, rebate=3.5,
                            observations_per_year=250)
        assert np.all(payoff(spec, grid)[grid.points >= 125.0] == 3.5)


class TestHooks:
    def test_european_has_no_hooks(self):
        grid = uniform_grid(0.0, 150.0, 50)
        spec = ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, OptionType.CALL, 100.0, 1.0)
        assert constraint_hooks(spec, grid, PdeConfig(10)) == []

    def test_american_projection_obstacle(self):
        grid = uniform_grid(0.0, 150.0, 50)
        spec = ContractSpec(ExerciseStyle.AMERICAN_VANILLA, OptionType.PUT, 100.0, 1.0)
        hooks = constraint_hooks(spec, grid, PdeConfig(10))
        assert len(hooks) == 1 and isinstance(hooks[0], AmericanProjection)
        assert np.allclose(hooks[0].obstacle, np.maximum(100.0 - grid.points, 0.0))

    def test_discrete_ko_steps(self):
        grid = uniform_grid(0.0, 150.0, 50)
        spec = ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL, 100.0, 1.0,
                            barrier_upper=125.0, observations_per_year=250)
        hooks = constraint_hooks(spec, grid, PdeConfig(1500))
        assert len(hooks) == 1 and isinstance(hooks[0], DiscreteKnockout)
        assert hooks[0].steps == {6 * k for k in range(250)}

    def test_observation_misalignment_is_an_error(self):
        spec = ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL, 100.0, 1.0,
                            barrier_upper=125.0, observations_per_year=250)
        with pytest.raises(ContractError, match="divisible"):
            observation_steps(spec, PdeConfig(1100))

    def test_continuous_ghost_hooks_both_sides(self):
        grid = uniform_grid(89.5, 160.5, 71)
        spec = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                            100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0)
        cfg = PdeConfig(71, barrier_mode=BarrierMode.GHOST_LINEAR)
        hooks = constraint_hooks(spec, grid, cfg)
        assert len(hooks) == 2
        assert all(isinstance(h, GhostBarrier) for h in hooks)
        assert hooks[0].side is GhostSide.DOWN
        assert hooks[1].side is GhostSide.UP

    def test_continuous_offgrid_barrier_requires_ghost(self):
        grid = uniform_grid(89.5, 160.5, 71)
        spec = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                            100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0)
        cfg = PdeConfig(71, barrier_mode=BarrierMode.ON_GRID_DIRICHLET)
        with pytest.raises(ContractError, match="ghost"):
            constraint_hooks(spec, grid, cfg)

    def test_continuous_on_interior_nodes_pins_regions(self):
        grid = uniform_grid(85.0, 165.0, 80)  # nodes hit 90 and 160 exactly
        spec = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                            100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0)
        cfg = PdeConfig(80, barrier_mode=BarrierMode.ON_GRID_DIRICHLET)
        hooks = constraint_hooks(spec, grid, cfg)
        assert len(hooks) == 2 and all(isinstance(h, DirichletRegion) for h in hooks)
        down, up = hooks
        assert down.start == 0 and grid.points[down.stop - 1] == 90.0
        assert grid.points[up.start] == 160.0 and up.stop == grid.n


class TestValueOrderings:
    def test_american_above_european_above_zero(self):
        # The domain must be wide enough that the linearity boundary row does
        # not push the deep-OTM put tail below zero (truncation artifact).
        stretch = StretchSpec(StretchKind.CUBIC, 0.0, 400.0, (100.0,), (15.0,))
        grid = sample_grid(build_map(stretch), 400)
        cfg = PdeConfig(400, BoundaryCondition(BoundaryKind.DEGENERATE_EXACT),
                        BoundaryCondition(BoundaryKind.ZERO_GAMMA))
        am = ContractSpec(ExerciseStyle.AMERICAN_VANILLA, OptionType.PUT, 100.0, 1.0)
        eu = ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, OptionType.PUT, 100.0, 1.0)
        v_am = TrBdf2Stepper(grid, MKT, cfg, 1.0,
                             tuple(constraint_hooks(am, grid, cfg))).run(payoff(am, grid))
        v_eu = TrBdf2Stepper(grid, MKT, cfg, 1.0, ()).run(payoff(eu, grid))
        assert np.min(v_eu) >= -1e-10
        assert np.min(v_am - v_eu) >= -1e-10
        assert np.min(v_am - payoff(eu, grid)) >= -1e-10

    def test_continuous_ko_barrier_nodes_stay_at_rebate(self):
        grid = uniform_grid(90.0, 160.0, 70)
        spec = ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                            100.0, 1.0, barrier_lower=90.0, barrier_upper=160.0)
        cfg = PdeConfig(70, BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 0.0),
                        BoundaryCondition(BoundaryKind.DIRICHLET_VALUE, 0.0))
        hooks = tuple(constraint_hooks(spec, grid, cfg))
        system = Stack([TrBdf2Stepper(grid, MarketParams(0.10, 0.0, 0.25), cfg, 1.0, hooks)])
        v = payoff(spec, grid)
        for j in range(cfg.time_steps):
            v = system.step(v, j + 1, j * system.dt)
            assert v[0] == 0.0 and v[-1] == 0.0


class TestValidation:
    def test_double_ko_needs_both_barriers(self):
        with pytest.raises(ContractError):
            ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                         100.0, 1.0, barrier_lower=90.0)

    def test_barriers_must_be_ordered(self):
        with pytest.raises(ContractError):
            ContractSpec(ExerciseStyle.CONTINUOUS_DOUBLE_KO, OptionType.CALL,
                         100.0, 1.0, barrier_lower=160.0, barrier_upper=90.0)

    def test_observation_dates_inside_tenor(self):
        with pytest.raises(ContractError):
            ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL, 100.0, 1.0,
                         barrier_upper=125.0, observation_dates=(0.5, 1.5))

    def test_schedule_from_count(self):
        spec = ContractSpec(ExerciseStyle.DISCRETE_KO, OptionType.CALL, 100.0, 0.5,
                            barrier_upper=125.0, observations_per_year=44)
        dates = spec.schedule()
        assert len(dates) == 22
        assert dates[0] == pytest.approx(1.0 / 44.0)
        assert dates[-1] == pytest.approx(0.5)
