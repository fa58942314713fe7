import io

import numpy as np
import pytest

from stretchgrid import bench
from stretchgrid.bench import (ConfigError, ConvergenceReport, ConvergenceRow,
                               bench_transforms, emit_csv, emit_table_csv,
                               load_bundled, parse_config_text,
                               parse_table_config, run_convergence)
from stretchgrid.fdm import BarrierMode, BoundaryKind
from stretchgrid.gridgen import StretchKind, StretchSpec
from stretchgrid.instruments import ExerciseStyle, OptionType
from stretchgrid.placement import PlacementGoal, PlacementMode


SMOKE = """
contract.style = european_vanilla
contract.put_call = put
contract.strike = 100
contract.maturity = 1
market.sigma = 0
domain.s_min = 0
domain.s_max = 150
pde.time_steps = 8
sweep.space_steps = 16, 32
sweep.reference_steps = 64
sweep.report_spots = 75
"""


class TestConfigParsing:
    def test_key_values_and_comments(self):
        kv = parse_config_text("a.b = 1  # comment\n\n# full line\nc = x,y\n")
        assert kv == {"a.b": "1", "c": "x,y"}

    def test_rejects_bare_lines(self):
        with pytest.raises(ConfigError):
            parse_config_text("not a key value\n")

    def test_single_run(self):
        table = parse_table_config(parse_config_text(SMOKE))
        assert len(table.columns) == 1
        cfg = table.columns[0][1]
        assert cfg.contract.style is ExerciseStyle.EUROPEAN_VANILLA
        assert cfg.contract.put_call is OptionType.PUT
        assert cfg.space_steps == (16, 32)
        assert cfg.report_spots == (75.0,)
        assert cfg.pde.time_steps == 8

    def test_columns_override_base(self):
        text = SMOKE + """
columns = plain, stretched
column.stretched.stretch.kind = cubic
column.stretched.stretch.points = 75
column.stretched.stretch.alpha = 2.5
column.stretched.placement.mode = deform
column.stretched.placement.targets = midcell:75
"""
        table = parse_table_config(parse_config_text(text))
        cols = dict(table.columns)
        assert cols["plain"].stretch.kind is StretchKind.UNIFORM
        assert cols["stretched"].stretch.kind is StretchKind.CUBIC
        assert cols["stretched"].placement.mode is PlacementMode.DEFORM
        assert cols["stretched"].placement.targets[0].goal is PlacementGoal.MID_CELL

    def test_boundary_and_barrier_parsing(self):
        text = SMOKE.replace("pde.time_steps = 8", """
pde.time_steps = match_space
pde.boundary_lower = dirichlet:1.5
pde.barrier_mode = ghost_lagrange3
""")
        cfg = parse_table_config(parse_config_text(text)).columns[0][1]
        assert cfg.match_time_steps
        assert cfg.pde.boundary_lower.kind is BoundaryKind.DIRICHLET_VALUE
        assert cfg.pde.boundary_lower.value == 1.5
        assert cfg.pde.barrier_mode is BarrierMode.GHOST_LAGRANGE3

    def test_reference_must_exceed_sweep(self):
        bad = SMOKE.replace("sweep.reference_steps = 64",
                            "sweep.reference_steps = 32")
        with pytest.raises(ConfigError):
            parse_table_config(parse_config_text(bad))

    def test_bundled_tables_load(self):
        for number in range(1, 7):
            table = load_bundled(number)
            assert table.columns
        with pytest.raises(ConfigError):
            load_bundled(9)


class TestRunConvergence:
    def test_zero_vol_errors_vanish(self):
        table = parse_table_config(parse_config_text(SMOKE))
        report = run_convergence(table.columns[0][1])
        assert [r.steps for r in report.rows] == [16, 32]
        for row in report.rows:
            assert row.errors_1e5[75.0] == pytest.approx(0.0, abs=1e-8)
        assert report.reference[75.0] == pytest.approx(25.0, abs=1e-12)

    def test_failed_cell_marked_not_raised(self):
        table = parse_table_config(parse_config_text(
            SMOKE.replace("sweep.space_steps = 16, 32",
                          "sweep.space_steps = 1, 16")))
        report = run_convergence(table.columns[0][1])
        assert report.rows[0].failed
        assert not report.rows[1].failed

    def test_non_finite_values_fail_the_row(self, monkeypatch):
        real_payoff = bench.payoff

        def nan_at_32(contract, grid):
            values = real_payoff(contract, grid)
            if grid.points.size == 33:
                values[5] = np.nan
            return values

        monkeypatch.setattr(bench, "payoff", nan_at_32)
        table = parse_table_config(parse_config_text(SMOKE))
        report = run_convergence(table.columns[0][1])
        assert not report.rows[0].failed
        assert report.rows[1].steps == 32
        assert "non-finite" in report.rows[1].failed
        assert "step 1" in report.rows[1].failed

    def test_orders_from_error_ratios(self):
        report = ConvergenceReport("x", (100.0,))
        for steps, err in ((100, 16.0), (200, 4.0), (400, 1.0)):
            report.rows.append(ConvergenceRow(steps, {100.0: 1.0}, {100.0: err}))
        assert report.orders(100.0) == pytest.approx([2.0, 2.0])


class TestCsv:
    def test_empty_report_is_header_only(self):
        report = ConvergenceReport("x", (100.0,))
        buf = io.BytesIO()
        n = emit_csv(report, buf)
        text = buf.getvalue().decode()
        assert n == len(buf.getvalue())
        assert text == "I,price_S100,err1e5_S100,order\r\n"

    def test_single_row_is_two_lines(self):
        report = ConvergenceReport("x", (100.0,))
        report.rows.append(ConvergenceRow(250, {100.0: 2.31736}, {100.0: 633.1}))
        buf = io.BytesIO()
        emit_csv(report, buf)
        lines = buf.getvalue().decode().splitlines()
        assert len(lines) == 2
        assert lines[1] == "250,2.31736,633.1,"

    def test_ten_significant_digits(self):
        report = ConvergenceReport("x", (100.0,))
        report.rows.append(ConvergenceRow(
            250, {100.0: 2.317361234567}, {100.0: 1.0 / 3.0}, order=2.0))
        buf = io.BytesIO()
        emit_csv(report, buf)
        assert b"2.317361235" in buf.getvalue()
        assert b"0.3333333333" in buf.getvalue()

    def test_quoting(self):
        report = ConvergenceReport("x", (100.0,))
        row = ConvergenceRow(16, {}, {}, failed='bad "cell", details')
        report.rows.append(row)
        buf = io.BytesIO()
        emit_csv(report, buf)
        assert b"failed" in buf.getvalue()

    def test_byte_stable_rerun(self):
        table = parse_table_config(parse_config_text(SMOKE))
        outputs = []
        for _ in range(2):
            buf = io.BytesIO()
            emit_table_csv(table.run(), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


class TestBenchTransforms:
    def test_rejects_small_sample_counts(self):
        with pytest.raises(ConfigError):
            bench_transforms(1000)

    def test_self_ratio_near_one(self):
        spec = StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (125.0,), (1.5,))
        report = bench_transforms(1_000_000, baseline=spec, candidate=spec,
                                  repetitions=3)
        assert 0.5 < report.ratio < 2.0

    def test_timing_grows_with_samples(self):
        fast = bench_transforms(1_000_000, repetitions=3)
        slow = bench_transforms(4_000_000, repetitions=3)
        assert slow.seconds_baseline > fast.seconds_baseline
        assert slow.seconds_candidate > fast.seconds_candidate
