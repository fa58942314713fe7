import numpy as np
import pytest

from stretchgrid.gridgen import Grid, StretchKind, StretchSpec, build_map, sample_grid
from stretchgrid.placement import (PlacementError, PlacementGoal, PlacementMode,
                                   PlacementSpec, Target, apply_placement,
                                   deform_smooth, insert_points)


def uniform_grid(s_min, s_max, steps):
    return sample_grid(build_map(StretchSpec(StretchKind.UNIFORM, s_min, s_max)), steps)


def midcell_offset(grid, value):
    k = grid.bracket(value)
    half = 0.5 * (grid.points[k + 1] - grid.points[k])
    return abs(value - (grid.points[k] + half)) / half


class TestInsert:
    def test_already_midcell_unchanged(self):
        g = Grid(np.array([0.0, 1.0, 2.0]))
        out = insert_points(g, PlacementSpec(PlacementMode.INSERT, (Target(0.5),)))
        assert np.array_equal(out.points, g.points)

    def test_mirror_branch(self):
        g = Grid(np.array([0.0, 1.0, 2.0]))
        out = insert_points(g, PlacementSpec(PlacementMode.INSERT, (Target(0.75),)))
        # 2*0.75 - 0 = 1.5 falls outside [0, 1], so the upper node mirrors
        assert np.allclose(out.points, [0.0, 0.5, 1.0, 2.0], atol=0)
        assert midcell_offset(out, 0.75) < 1e-12

    def test_table_regime_targets(self):
        g = uniform_grid(0.0, 150.0, 250)
        spec = PlacementSpec(PlacementMode.INSERT, (Target(100.0), Target(125.0)))
        out = insert_points(g, spec)
        assert out.n <= g.n + 2
        for b in (100.0, 125.0):
            assert midcell_offset(out, b) < 1e-12
        assert np.all(np.diff(out.points) > 0)
        # every original point survives
        assert np.all(np.isin(g.points, out.points))

    def test_idempotent(self):
        g = uniform_grid(0.0, 150.0, 97)
        spec = PlacementSpec(PlacementMode.INSERT, (Target(60.0), Target(110.0)))
        once = insert_points(g, spec)
        twice = insert_points(once, spec)
        assert np.array_equal(once.points, twice.points)

    def test_target_on_node_is_an_error(self):
        g = uniform_grid(0.0, 10.0, 10)
        with pytest.raises(PlacementError):
            insert_points(g, PlacementSpec(PlacementMode.INSERT, (Target(4.0),)))

    def test_colliding_targets_error_names_both(self):
        g = uniform_grid(0.0, 150.0, 10)  # cells of width 15
        spec = PlacementSpec(PlacementMode.INSERT, (Target(100.0), Target(100.3125)))
        # placing 100 inserts the node 2*100 - 105 = 95;
        # then 100.3125 sits mid of [95, 105]... construct a true collision:
        spec = PlacementSpec(PlacementMode.INSERT, (Target(100.0), Target(110.0)))
        out = insert_points(g, spec)  # distinct cells: fine
        assert out.n == g.n + 2
        # force a collision: second target right on the node inserted for the first
        g2 = Grid(np.array([0.0, 1.0, 2.0, 3.0]))
        bad = PlacementSpec(PlacementMode.INSERT, (Target(1.25), Target(1.5)))
        with pytest.raises(PlacementError, match="1.25"):
            insert_points(g2, bad)

    def test_rejects_ongrid_goal(self):
        # The spec refuses to insert an on-grid target; ``insert_points``,
        # which takes a spec of any mode, refuses it too.
        ongrid = (Target(4.5, PlacementGoal.ON_GRID),)
        with pytest.raises(PlacementError, match="insertion only supports mid-cell targets"):
            PlacementSpec(PlacementMode.INSERT, ongrid)
        g = uniform_grid(0.0, 10.0, 10)
        with pytest.raises(PlacementError, match="insertion only supports mid-cell targets"):
            insert_points(g, PlacementSpec(PlacementMode.DEFORM, ongrid))


class TestDeform:
    def test_zero_targets_identity(self):
        g = uniform_grid(0.0, 150.0, 50)
        assert apply_placement(g, PlacementSpec(PlacementMode.DEFORM, ())) is g

    def test_midcell_quality_and_size(self):
        g = uniform_grid(0.0, 150.0, 250)
        spec = PlacementSpec(PlacementMode.DEFORM, (Target(100.0), Target(125.0)))
        out = deform_smooth(g, spec)
        assert out.n == g.n
        assert out.points[0] == g.points[0] and out.points[-1] == g.points[-1]
        assert np.all(np.diff(out.points) > 0)
        for b in (100.0, 125.0):
            assert midcell_offset(out, b) < 0.25

    def test_displacement_within_one_cell(self):
        g = uniform_grid(0.0, 150.0, 250)
        spec = PlacementSpec(PlacementMode.DEFORM, (Target(100.0), Target(125.0)))
        out = deform_smooth(g, spec)
        max_cell = np.max(np.diff(g.points))
        assert np.max(np.abs(out.points - g.points)) <= max_cell

    def test_idempotent_exactly(self):
        g = uniform_grid(0.0, 150.0, 250)
        spec = PlacementSpec(PlacementMode.DEFORM, (Target(100.0), Target(125.0)))
        once = deform_smooth(g, spec)
        twice = deform_smooth(once, spec)
        assert np.array_equal(once.points, twice.points)

    def test_ongrid_targets_exact(self):
        g = uniform_grid(88.6, 161.4, 160)
        spec = PlacementSpec(PlacementMode.DEFORM, (
            Target(90.0, PlacementGoal.ON_GRID),
            Target(100.0),
            Target(160.0, PlacementGoal.ON_GRID)))
        out = deform_smooth(g, spec)
        rng = 161.4 - 88.6
        assert np.min(np.abs(out.points - 90.0)) <= 1e-9 * rng
        assert np.min(np.abs(out.points - 160.0)) <= 1e-9 * rng
        assert midcell_offset(out, 100.0) < 0.25
        again = deform_smooth(out, spec)
        assert np.array_equal(out.points, again.points)

    def test_target_exactly_on_node_shifts_to_wider_cell(self):
        pts = np.concatenate((np.linspace(0.0, 10.0, 11),
                              np.linspace(10.0, 40.0, 11)[1:]))
        g = Grid(pts)
        out = deform_smooth(g, PlacementSpec(PlacementMode.DEFORM, (Target(10.0),)))
        k = out.bracket(10.0)
        # the wider neighboring cell was on the right (width 3 vs 1)
        assert out.points[k] < 10.0 < out.points[k + 1]
        assert midcell_offset(out, 10.0) < 0.25
        assert out.points[k] >= 9.0

    def test_on_stretched_grids(self):
        rng = np.random.default_rng(3)
        spec = PlacementSpec(PlacementMode.DEFORM, (Target(100.0), Target(125.0)))
        for kind, alphas in ((StretchKind.CUBIC, (1.5,)), (StretchKind.SINH, (1.5,)),
                             (StretchKind.CUBIC, (15.0,))):
            base = sample_grid(build_map(
                StretchSpec(kind, 0.0, 150.0, (125.0,), alphas)), 400)
            out = deform_smooth(base, spec)
            assert np.all(np.diff(out.points) > 0)
            for b in (100.0, 125.0):
                assert midcell_offset(out, b) < 0.25
            assert np.array_equal(out.points, deform_smooth(out, spec).points)

    def test_targets_in_outermost_cells(self):
        g = uniform_grid(0.0, 10.0, 10)
        for tval in (0.3, 0.7, 9.3, 9.7):
            spec = PlacementSpec(PlacementMode.DEFORM, (Target(tval),))
            out = deform_smooth(g, spec)
            assert np.all(np.diff(out.points) > 0)
            assert midcell_offset(out, tval) < 0.25
            assert np.array_equal(out.points, deform_smooth(out, spec).points)

    def test_random_sweep_meets_contract(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            steps = int(rng.integers(24, 400))
            g = uniform_grid(0.0, 150.0, steps)
            values = np.sort(rng.uniform(10.0, 140.0, rng.integers(1, 4)))
            if np.any(np.diff(values) < 450.0 / steps):
                continue
            spec = PlacementSpec(PlacementMode.DEFORM,
                                 tuple(Target(float(v)) for v in values))
            out = deform_smooth(g, spec)
            assert np.all(np.diff(out.points) > 0)
            for v in values:
                assert midcell_offset(out, float(v)) < 0.25
            assert np.array_equal(out.points, deform_smooth(out, spec).points)

    def test_unconverged_deformation_names_targets_residuals_and_passes(self):
        # Two targets 1e-7 apart inside one cell cannot both be mid-cell.
        g = uniform_grid(0.0, 150.0, 64)
        spec = PlacementSpec(PlacementMode.DEFORM,
                             (Target(75.0000001), Target(75.0000002)))
        with pytest.raises(PlacementError) as err:
            deform_smooth(g, spec)
        message = str(err.value)
        assert "in 40 passes" in message
        assert "target midcell:75.0000001 index residual " in message
        assert "target midcell:75.0000002 index residual " in message
        residuals = [float(part.split("index residual ")[1])
                     for part in message.split(": ", 1)[1].split(", ")]
        assert len(residuals) == 2 and all(r > 1e-9 for r in residuals)


class TestSpecValidation:
    def test_targets_must_be_sorted(self):
        with pytest.raises(PlacementError):
            PlacementSpec(PlacementMode.DEFORM, (Target(5.0), Target(3.0)))

    def test_target_outside_grid(self):
        g = uniform_grid(0.0, 10.0, 10)
        with pytest.raises(PlacementError):
            deform_smooth(g, PlacementSpec(PlacementMode.DEFORM, (Target(11.0),)))
