import dataclasses
import io
from importlib import resources
import math
import os
from pathlib import Path
import signal
import threading
import time
import weakref

import numpy as np
import pytest
from conftest import on_threads, poison_row, record_stacks, set_workers
from hypothesis import given, settings, strategies as st

from stretchgrid import _threads, bench, fdm, gridgen
from stretchgrid.bench import (ConfigError, ConvergenceReport, ConvergenceRow,
                               DomainFit, DomainSpec, bench_transforms, emit_csv,
                               emit_table_csv, load_bundled, parse_config_text,
                               parse_table_config, resolve_domain, run_convergence)
from stretchgrid.fdm import (BarrierMode, BoundaryKind, GhostBarrier, MarketParams,
                             NonFiniteValueError)
from stretchgrid.gridgen import StretchKind, StretchSpec
from stretchgrid.instruments import ExerciseStyle, OptionType
from stretchgrid.placement import PlacementError, PlacementGoal, PlacementMode


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

    @pytest.mark.parametrize("key, value", [
        ("contract.strike", "abc"),
        ("contract.style", "foo"),
        ("sweep.space_steps", "1.5"),
        ("stretch.kind", "nope"),
        ("market.sigma", "-1"),
        ("placement.targets", "midcell:90, midcell:60"),
        ("domain.fit", "barrier_exactt"),
        ("stretch.alhpa", "1.5"),
        ("domain.pad_fraction", "0.1"),
        ("column.x.stretch.kind", "cubic"),
        ("market.sigma", "nan"),
        ("market.rate", "inf"),
        ("market.dividend", "-inf"),
        ("contract.strike", "nan"),
        ("contract.maturity", "nan"),
        ("contract.barrier_lower", "-inf"),
        ("contract.barrier_upper", "nan"),
        ("contract.rebate", "inf"),
        ("contract.observation_dates", "0.5, nan"),
        ("stretch.alpha", "nan"),
        ("stretch.alpha", "inf"),
        ("stretch.points", "75, nan"),
        ("stretch.chi", "nan"),
        ("stretch.lambda", "nan"),
        ("domain.s_min", "nan"),
        ("domain.s_max", "inf"),
        ("sweep.report_spots", "nan"),
        ("placement.targets", "midcell:nan"),
        ("placement.targets", "ongrid:inf"),
        ("pde.boundary_upper", "dirichlet:nan"),
        ("pde.boundary_upper", "zero_gamma:5"),
        ("pde.boundary_lower", "degenerate_exact:0"),
    ])
    def test_bad_value_raises_config_error_naming_the_key(self, key, value):
        kv = parse_config_text(SMOKE)
        kv["placement.mode"] = "deform"
        kv[key] = value
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_table_config(kv)

    def test_an_on_grid_target_to_insert_is_rejected_naming_the_placement_keys(self):
        # Insertion places targets mid-cell only; an on-grid one fails at
        # parsing, before any grid is built.
        kv = parse_config_text(SMOKE)
        kv.update({"placement.mode": "insert", "placement.targets": "midcell:60, ongrid:75"})
        with pytest.raises(ConfigError, match=r"^placement\.mode, placement\.targets: "
                                              r"insertion only supports mid-cell targets$"):
            parse_table_config(kv)
        kv["placement.targets"] = "midcell:60, midcell:75"
        parse_table_config(kv)

    def test_unknown_column_key_is_named_as_written(self):
        text = SMOKE + "columns = a, b\ncolumn.b.stretch.alhpa = 2\n"
        with pytest.raises(ConfigError, match=r"column\.b\.stretch\.alhpa"):
            parse_table_config(parse_config_text(text))
        text = SMOKE + "columns = a, b\ncolumn.b.sweep.reference_mode = shared\n"
        with pytest.raises(ConfigError, match=r"column\.b\.sweep\.reference_mode"):
            parse_table_config(parse_config_text(text))

    def test_degenerate_exact_away_from_zero_names_boundary_and_domain_keys(self):
        kv = parse_config_text(load_bundled_text("smoke_zero_vol.cfg"))
        kv.update({"domain.s_min": "10", "pde.boundary_lower": "degenerate_exact"})
        with pytest.raises(ConfigError, match=r"pde\.boundary_lower = degenerate_exact"
                                              r".*domain\.s_min puts it at 10"):
            parse_table_config(kv)
        kv.update({"domain.s_min": "0", "pde.boundary_upper": "degenerate_exact"})
        with pytest.raises(ConfigError, match=r"pde\.boundary_upper.*domain\.s_max"):
            parse_table_config(kv)
        # barrier-fitted domains: the fit sets the edge
        kv = parse_config_text(load_bundled_text("double_ko_continuous_ghost.cfg"))
        kv["pde.boundary_lower"] = "degenerate_exact"
        with pytest.raises(ConfigError, match=r"pde\.boundary_lower.*domain\.fit"):
            parse_table_config(kv)
        # the bundled tables that use it have s_min = 0
        users = [name for name in BUNDLED
                 if "degenerate_exact" in load_bundled_text(name)]
        assert len(users) == 4
        for name in users:
            load_bundled(name)

    def test_load_config_reads_a_file_path(self, tmp_path):
        path = tmp_path / "table.cfg"
        path.write_text(load_bundled_text("double_ko_discrete_stretch.cfg"))
        assert bench.load_config(path) == load_bundled(4)
        assert bench.load_config(str(path)) == load_bundled(4)

    @pytest.mark.parametrize("column", ["a", "b"])
    def test_column_spots_must_match_the_first_column(self, column):
        text = SMOKE + f"columns = a, b\ncolumn.{column}.sweep.report_spots = 60, 80\n"
        with pytest.raises(ConfigError,
                           match=rf"^column\.{column}\.sweep\.report_spots = '60, 80'"):
            parse_table_config(parse_config_text(text))
        same = SMOKE + f"columns = a, b\ncolumn.{column}.sweep.report_spots = 75\n"
        parse_table_config(parse_config_text(same))

    def test_unknown_reference_mode_is_rejected(self):
        text = SMOKE + "columns = a, b\nsweep.reference_mode = sharde\n"
        with pytest.raises(ConfigError, match=r"sweep\.reference_mode"):
            parse_table_config(parse_config_text(text))


BUNDLED = sorted(p.name for p in resources.files("stretchgrid").joinpath("configs").iterdir()
                 if p.name.endswith(".cfg"))


def load_bundled_text(name: str) -> str:
    return resources.files("stretchgrid").joinpath("configs").joinpath(name).read_text()


FUZZ_KEYS = tuple(parse_config_text(SMOKE)) + (
    "contract.barrier_lower", "contract.barrier_upper", "contract.rebate",
    "contract.observations_per_year", "contract.observation_dates",
    "market.rate", "market.dividend", "domain.fit",
    "stretch.kind", "stretch.points", "stretch.alpha", "stretch.chi",
    "stretch.lambda", "stretch.knot_rule", "placement.mode", "placement.targets",
    "pde.boundary_lower", "pde.boundary_upper", "pde.barrier_mode",
    "sweep.reference_mode", "sweep.reference_column", "columns",
    "column.b.stretch.kind", "column.b.stretch.points", "column.b.placement.targets")
FUZZ_TOKENS = ("", "abc", "-1", "0", "1.5", "2", "75", "100", "nan", "inf", "-inf",
               "1e400", "9" * 5000, ",", "1,,2", "75, 60", "a, b", "b", "shared",
               "per_column", "match_space", "european_vanilla", "discrete_ko",
               "continuous_double_ko", "call", "cubic", "sinh", "tavella_randall",
               "piecewise_c2", "deform", "insert", "midcell:75", "ongrid:75",
               "midcell:", "midcell:80, midcell:70", "top:1", "dirichlet:x",
               "zero_gamma", "ghost_linear", "barrier_exact")


@settings(max_examples=300, deadline=None)
@given(edits=st.dictionaries(st.sampled_from(FUZZ_KEYS),
                             st.one_of(st.sampled_from(FUZZ_TOKENS), st.text(max_size=16)),
                             max_size=6),
       dropped=st.sets(st.sampled_from(tuple(parse_config_text(SMOKE))), max_size=2))
def test_malformed_config_raises_only_config_error(edits, dropped):
    kv = {k: v for k, v in parse_config_text(SMOKE).items() if k not in dropped}
    kv.update(edits)
    text = "".join(f"{k} = {v}\n" for k, v in kv.items())
    try:
        parse_table_config(parse_config_text(text))
    except ConfigError:
        pass


TWO_COLUMNS = SMOKE.replace("market.sigma = 0", "market.sigma = 0.2") + """
columns = plain, stretched
column.stretched.stretch.kind = cubic
column.stretched.stretch.points = 75
column.stretched.stretch.alpha = 2.5
"""


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
        poison_row(monkeypatch, 33)
        table = parse_table_config(parse_config_text(SMOKE))
        report = run_convergence(table.columns[0][1])
        assert not report.rows[0].failed
        assert report.rows[1].steps == 32
        assert "non-finite" in report.rows[1].failed
        assert "step 1" in report.rows[1].failed

    def test_non_finite_block_fails_only_its_row(self, monkeypatch):
        # Both columns' rows share (dt, N) and march as one stack; a NaN in
        # one block reaches its neighbours, so the march splits the stack in
        # halves until the poisoned block stands alone, and only its row
        # fails.
        table = parse_table_config(parse_config_text(TWO_COLUMNS))
        poisoned = poison_row(monkeypatch, 33)
        results = table.run()
        assert len(poisoned) == 1
        failed = [(name, row.steps) for name, report in results
                  for row in report.rows if row.failed]
        assert failed == [("plain", 32)]
        row = dict(results)["plain"].rows[1]
        assert "non-finite" in row.failed and "step 1" in row.failed
        for name, cfg in table.columns:
            report = dict(results)[name]
            assert report.reference == bench.price_run(cfg, cfg.reference_steps)
            for row in report.rows:
                if not row.failed:
                    assert row.prices == bench.price_run(cfg, row.steps)

    def test_singular_block_fails_only_its_row(self, monkeypatch):
        # One block of the rows' stack is singular: sigma = 0 and r = q
        # leave its 3-point ghost row's inner row without the coupling the
        # elimination needs.  The stack fails, the march splits it in halves
        # until that block stands alone, and only its row is marked failed.
        table = parse_table_config(parse_config_text(TWO_COLUMNS))
        real_stepper = bench.TrBdf2Stepper
        armed = []

        def singular_at_32(grid, mkt, pde, horizon, hooks):
            if grid.points.size == 33 and not armed:
                armed.append(1)
                s = grid.points
                mkt = MarketParams(mkt.rate, mkt.rate, 0.0)
                hooks = (*hooks, GhostBarrier(s, 0.5 * (s[20] + s[21]),
                                              BarrierMode.GHOST_LAGRANGE3))
            return real_stepper(grid, mkt, pde, horizon, hooks)

        monkeypatch.setattr(bench, "TrBdf2Stepper", singular_at_32)
        results = table.run()
        monkeypatch.setattr(bench, "TrBdf2Stepper", real_stepper)
        failed = [(name, row.steps) for name, report in results
                  for row in report.rows if row.failed]
        assert failed == [("plain", 32)]
        assert dict(results)["plain"].rows[1].failed.startswith(
            "plain, I = 32: fdm: cannot eliminate the 3-point ghost row 21")
        for name, cfg in table.columns:
            report = dict(results)[name]
            assert report.reference == bench.price_run(cfg, cfg.reference_steps)
            for row in report.rows:
                if not row.failed:
                    assert row.prices == bench.price_run(cfg, row.steps)

    def test_failed_reference_names_its_column_and_chains_the_error(self):
        text = load_bundled_text("smoke_zero_vol.cfg") + (
            "placement.mode = deform\n"
            "placement.targets = midcell:75.0000001, midcell:75.0000002\n")
        table = parse_table_config(parse_config_text(text))
        with pytest.raises(bench.PricingError) as err:
            table.run()
        message = str(err.value)
        assert message.startswith("run, I = 64: deformation did not converge in 40 passes")
        assert isinstance(err.value.__cause__, PlacementError)
        assert message == "run, I = 64: " + str(err.value.__cause__)

    def test_failed_reference_march_names_its_column(self, monkeypatch):
        # The references (64 intervals) are built in column order: poison
        # the second one's payoff, so the stretched column's reference fails
        # in its march.
        real_payoff = bench.payoff
        references = []

        def nan_in_second_reference(contract, grid):
            values = real_payoff(contract, grid)
            if grid.points.size == 65:
                references.append(1)
                if len(references) == 2:
                    values[5] = np.nan
            return values

        monkeypatch.setattr(bench, "payoff", nan_in_second_reference)
        with pytest.raises(bench.PricingError, match=r"^stretched, I = 64: fdm: non-finite") as err:
            parse_table_config(parse_config_text(TWO_COLUMNS)).run()
        assert isinstance(err.value.__cause__, NonFiniteValueError)

    def test_spot_outside_grid_fails_before_marching(self, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("a bad report spot must fail before the stepper is built")

        monkeypatch.setattr(bench, "TrBdf2Stepper", no_march)
        table = parse_table_config(parse_config_text(
            SMOKE.replace("sweep.report_spots = 75", "sweep.report_spots = 75, 200")))
        with pytest.raises(ConfigError, match=r"report spot 200\.0 outside the grid"):
            bench.price_run(table.columns[0][1], 16)

    def test_order_skips_a_failed_row(self, monkeypatch):
        # I = 32 fails: neither it nor I = 48 gets an order, I = 64 gets the
        # order from I = 48, and orders() skips both pairs touching I = 32.
        text = SMOKE.replace("market.sigma = 0", "market.sigma = 0.2").replace(
            "sweep.space_steps = 16, 32", "sweep.space_steps = 16, 32, 48, 64").replace(
            "sweep.reference_steps = 64", "sweep.reference_steps = 128")
        poison_row(monkeypatch, 33)
        report = run_convergence(parse_table_config(parse_config_text(text)).columns[0][1])
        assert [bool(row.failed) for row in report.rows] == [False, True, False, False]
        r48, r64 = report.rows[2:]
        order = math.log(r48.errors_1e5[75.0] / r64.errors_1e5[75.0]) / math.log(64 / 48)
        assert report.orders(75.0) == [order]
        buf = io.BytesIO()
        emit_csv(report, buf)
        orders = [line.split(",")[-1] for line in buf.getvalue().decode().splitlines()[1:]]
        assert orders == ["", "", "", f"{order:.10g}"]

    def test_orders_from_error_ratios(self):
        report = ConvergenceReport("x", (100.0,))
        for steps, err in ((100, 16.0), (200, 4.0), (400, 1.0)):
            report.rows.append(ConvergenceRow(steps, {100.0: 1.0}, {100.0: err}))
        assert report.orders(100.0) == pytest.approx([2.0, 2.0])


class TestMapCache:
    def test_table_builds_each_tavella_randall_map_once(self, monkeypatch):
        builds: list[int] = []
        integrations: list[int] = []
        build_tr, integrate = gridgen.build_tavella_randall, gridgen._tr_integrate

        def counting_build(spec, ode_steps=1024):
            builds.append(ode_steps)
            return build_tr(spec, ode_steps)

        def counting_integrate(*args, **kwargs):
            integrations.append(1)
            return integrate(*args, **kwargs)

        def grid_only(config, steps, cache=None):
            bench.build_run_grid(config, steps, cache)
            return {s: 0.0 for s in config.report_spots}

        monkeypatch.setattr(gridgen, "build_tavella_randall", counting_build)
        monkeypatch.setattr(gridgen, "_tr_integrate", counting_integrate)
        monkeypatch.setattr(bench, "price_run", grid_only)
        table = load_bundled(4)
        tr_columns = [name for name, cfg in table.columns
                      if cfg.stretch.kind is StretchKind.TAVELLA_RANDALL]
        assert len(tr_columns) == 2

        table.run()
        shared = sorted(builds)
        assert shared == sorted(set(shared))           # once per ode_steps
        assert len(shared) == len(table.columns[0][1].space_steps)
        shared_integrations = len(integrations)

        # One cache per column, as each column's sweep keeps by itself.
        builds.clear()
        integrations.clear()
        for _, cfg in table.columns:
            run_convergence(cfg, {s: 0.0 for s in cfg.report_spots})
        assert sorted(builds) == sorted(shared * 2)
        assert len(integrations) == 2 * shared_integrations


def track_starts(monkeypatch) -> dict:
    """Record the marches ``bench`` starts (``fdm.start``): ``nodes``, each
    one's blocks' node counts; ``running``, how many are started and not
    yet joined or cancelled; ``most``, the most running at once."""
    seen = {"nodes": [], "running": 0, "most": 0}
    real = bench.start

    class Tracked:
        def __init__(self, pairs):
            self.started, self.ended = real(pairs), False

        def end(self):
            if not self.ended:
                self.ended = True
                seen["running"] -= 1

        def result(self):
            try:
                return self.started.result()
            finally:
                self.end()

        def cancel(self):
            self.started.cancel()
            self.end()

    def start(pairs):
        pairs = list(pairs)
        seen["nodes"].append([block.op.n for block, _ in pairs])
        seen["running"] += 1
        seen["most"] = max(seen["most"], seen["running"])
        return Tracked(pairs)

    monkeypatch.setattr(bench, "start", start)
    return seen


# Where a started march runs: on a thread, and in a forked process where it may.
PLACES = [False, True] if _threads.FORK else [False]
needs_fork = pytest.mark.skipif(not _threads.FORK, reason="a started march forks only on Linux")


class TestLockstepMarch:
    """The calls the benchmark's row timer, grid-only stub and traced stepper
    rely on: one ``price_run`` per row, and every march but a started
    reference's (``fdm.start``) through one ``run`` of
    ``bench.TrBdf2Stepper``."""

    def count_calls(self, monkeypatch, price_run=None):
        runs: list[list[int]] = []
        calls: list[int] = []

        class CountingStepper(bench.TrBdf2Stepper):
            def run(self, terminal):
                runs.append(len(terminal))  # blocks per march
                return super().run(terminal)

        inner = price_run or bench.price_run

        def counting_price_run(config, steps, cache=None):
            calls.append(steps)
            return inner(config, steps, cache)

        monkeypatch.setattr(bench, "TrBdf2Stepper", CountingStepper)
        monkeypatch.setattr(bench, "price_run", counting_price_run)
        return runs, calls

    def test_table_marches_reference_then_one_stack(self, monkeypatch):
        # One worker: the shared reference marches alone, at once, then the
        # 32 rows as one stack, each march one ``run`` in the calling thread.
        # From two workers the reference's march starts on its own
        # (``fdm.start``, here on the thread fdm-start-0) once its block is
        # built, and one ``run`` marches the 32 rows as one stack in the
        # calling thread.
        runs, calls = self.count_calls(monkeypatch)
        stacks = record_stacks(monkeypatch)
        starts = track_starts(monkeypatch)
        table = load_bundled(4)
        rows = sum(len(cfg.space_steps) for _, cfg in table.columns)
        assert rows == 32
        reference = dict(table.columns)[table.reference_column]
        nodes = bench.build_run_grid(reference, reference.reference_steps).points.size
        for width in (1, 2, 3):
            set_workers(monkeypatch, width)
            runs.clear()
            calls.clear()
            stacks.clear()
            starts["nodes"].clear()
            results = table.run()
            assert len(calls) == rows + 1        # the shared reference, then each row
            assert not any(row.failed for _, report in results for row in report.rows)
            sizes = sorted(len(blocks) for _, blocks in stacks)
            if width == 1:
                assert runs == [1, rows] and starts["nodes"] == []
                assert sizes == [1, rows]
                assert {thread for thread, _ in stacks} == {threading.current_thread().name}
                continue
            assert runs == [rows], width
            assert starts["nodes"] == [[nodes]]
            started = [blocks for thread, blocks in stacks if thread == "fdm-start-0"]
            assert [[block.op.n for block in blocks] for blocks in started] == [[nodes]]
            here = [len(blocks) for thread, blocks in stacks
                    if thread == threading.current_thread().name]
            assert here == [rows]

    def test_each_marched_part_is_factored_once(self, monkeypatch):
        # Building factors nothing; each stack a part marches is factored
        # once.  At width 2 table 3 starts its four references' marches, one
        # stack each, and marches its 16 rows as one stack beside the two
        # still running; table 4 starts its reference's and marches its 32
        # rows as one stack; tables 5 and 6 start their reference's and
        # stack their rows per N.  Every started march runs on a thread,
        # where the count sees it.
        set_workers(monkeypatch, 2)
        on_threads(monkeypatch)
        calls = []
        factor = fdm._factor
        monkeypatch.setattr(fdm, "_factor", lambda *a, **k: calls.append(1) or factor(*a, **k))
        for number, stacks in ((3, 5), (4, 2), (5, 5), (6, 5)):
            calls.clear()
            results = load_bundled(number).run()
            assert not any(row.failed for _, report in results for row in report.rows)
            assert len(calls) == stacks, number
        calls.clear()
        cfg = load_bundled(4).columns[0][1]
        bench.price_run(cfg, cfg.space_steps[0], bench._TableCache())
        assert calls == []

    def test_grid_only_stub_marches_nothing(self, monkeypatch):
        def grid_only(config, steps, cache=None):
            bench.build_run_grid(config, steps, cache)
            return {s: 0.0 for s in config.report_spots}

        runs, calls = self.count_calls(monkeypatch, grid_only)
        starts = track_starts(monkeypatch)
        load_bundled(4).run()
        assert len(calls) == 33
        assert runs == [] and starts["nodes"] == []


class TestParallelMarch:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_non_finite_part_fails_only_its_row(self, monkeypatch, width):
        # From two workers both per-column references' marches start on
        # their own and the rows march in one run; the NaN fails the poisoned
        # block's stack, which splits until that block stands alone, and
        # every other block's values stand.
        set_workers(monkeypatch, width)
        table = parse_table_config(parse_config_text(TWO_COLUMNS))
        poisoned = poison_row(monkeypatch, 33)
        plain = dict(table.columns)["plain"]
        with pytest.raises(NonFiniteValueError) as solo:
            bench.price_run(plain, 32)
        poisoned.clear()
        results = table.run()
        assert len(poisoned) == 1
        failed = [(name, row.steps, row.failed) for name, report in results
                  for row in report.rows if row.failed]
        assert failed == [("plain", 32, "plain, I = 32: " + str(solo.value))]
        for name, cfg in table.columns:
            report = dict(results)[name]
            assert report.reference == bench.price_run(cfg, cfg.reference_steps)
            for row in report.rows:
                if not row.failed:
                    assert row.prices == bench.price_run(cfg, row.steps)

    def test_poisoned_row_splits_only_its_stack(self, monkeypatch):
        # Table 4 at two workers: the reference's march starts on its own,
        # and the 32 rows march as one stack in the calling thread.  A NaN
        # in one row's payoff fails that stack, which splits in halves down
        # to the row: 1 + 2 x 5 factors, beside the reference's one (the
        # started march on a thread, where the count sees it).
        set_workers(monkeypatch, 2)
        stacks = record_stacks(monkeypatch)
        table = load_bundled(4)
        clean = dict(table.run())
        assert sorted(len(blocks) for _, blocks in stacks) == [1, 32]
        name, cfg = table.columns[0]
        reference = dict(table.columns)[table.reference_column]
        nodes = bench.build_run_grid(reference, reference.reference_steps).points.size
        poisoned = poison_row(monkeypatch, cfg.space_steps[0] + 1)
        with pytest.raises(NonFiniteValueError) as solo:
            bench.price_run(cfg, cfg.space_steps[0])
        poisoned.clear()
        factored = []
        factor = fdm._factor
        monkeypatch.setattr(fdm, "_factor",
                            lambda *args: factored.append(args[1].size) or factor(*args))
        results = table.run()
        assert len(poisoned) == 1
        failed = [(column, row.steps, row.failed) for column, report in results
                  for row in report.rows if row.failed]
        assert failed == [(name, cfg.space_steps[0],
                           f"{name}, I = {cfg.space_steps[0]}: {solo.value}")]
        assert factored.count(nodes) == 1
        assert len(factored) <= 1 + 1 + 2 * 5
        for column, report in results:
            assert report.reference == clean[column].reference
            for row, want in zip(report.rows, clean[column].rows):
                assert row.failed or row.prices == want.prices

    def test_one_worker_starts_no_thread_and_keeps_the_csv(self, monkeypatch):
        # One worker starts nothing.  Two start the reference's march, a
        # forked process on Linux and a thread elsewhere or with ``FORK``
        # off, and march the rows in the calling thread.  The CSV bytes are
        # the same at either width, forked or not.
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        if _threads.FORK:
            fork = os.fork
            monkeypatch.setattr(os, "fork", lambda: started.append("fork") or fork())
        table = load_bundled(4)
        csv, parts = {}, {}
        for place in PLACES:
            monkeypatch.setattr(_threads, "FORK", place)
            for width in (1, 2):
                set_workers(monkeypatch, width)
                started.clear()
                buf = io.BytesIO()
                emit_table_csv(table.run(), buf)
                csv[place, width], parts[place, width] = buf.getvalue(), len(started)
        assert parts == {(place, width): width - 1 for place, width in parts}
        assert len(set(csv.values())) == 1

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_no_march_holds_more_than_w_references(self, monkeypatch, width):
        # Three columns, each with its own reference (64 intervals).  One
        # worker marches each reference at once, through ``run``.  More start
        # each reference's march as soon as its block is built, and join the
        # oldest first while ``width`` are running.  Either way each
        # reference marches once, and no more than ``width`` at once.
        set_workers(monkeypatch, width)
        starts = track_starts(monkeypatch)
        runs: list[int] = []

        class Tracking(bench.TrBdf2Stepper):
            def run(self, terminal):
                runs.append(sum(block.op.n == 65 for block, _ in terminal))
                return super().run(terminal)

        monkeypatch.setattr(bench, "TrBdf2Stepper", Tracking)
        text = TWO_COLUMNS.replace("columns = plain, stretched",
                                   "columns = plain, stretched, again")
        results = parse_table_config(parse_config_text(text)).run()
        assert not any(row.failed for _, report in results for row in report.rows)
        if width == 1:
            assert runs == [1, 1, 1, 0] and starts["nodes"] == []
        else:
            assert sum(runs) == 0 and starts["nodes"] == [[65]] * 3
            assert starts["most"] == min(width, 3)
        assert starts["running"] == 0


@needs_fork
class TestStartedReferences:
    """From two workers on Linux each reference marches in a forked process
    started as soon as its block is built; none outlives the table run."""

    def sleeping_children(self, monkeypatch) -> float:
        """Make every stack a child marches sleep a minute; returns the time
        now, against which a test checks that it did not wait for them."""
        parent, march = os.getpid(), fdm.Stack.march

        def sleeping(system, v):
            if os.getpid() != parent:
                time.sleep(60.0)
            return march(system, v)

        monkeypatch.setattr(fdm.Stack, "march", sleeping)
        return time.perf_counter()

    def test_a_reference_starts_before_the_first_row_grid_is_built(self, monkeypatch):
        set_workers(monkeypatch, 2)
        events = []
        fork, build = os.fork, bench.build_run_grid

        def forking():
            pid = fork()
            if pid:
                events.append("fork")
            return pid

        def building(config, steps, cache=None):
            events.append(steps)
            return build(config, steps, cache)

        monkeypatch.setattr(os, "fork", forking)
        monkeypatch.setattr(bench, "build_run_grid", building)
        table = load_bundled(6)
        table.run()
        reference = table.columns[0][1].reference_steps
        assert events[:2] == [reference, "fork"]
        assert reference not in events[2:]
        assert events.count("fork") == 1    # the rows march here

    def test_a_reference_that_fails_to_build_cancels_the_started_ones(self, monkeypatch):
        # The first column's reference marches (a minute) while the second
        # one's grid fails: the PricingError names it, and the started
        # march is killed and reaped before it leaves.
        set_workers(monkeypatch, 2)
        build = bench.build_run_grid

        def failing(config, steps, cache=None):
            if config.label == "stretched" and steps == config.reference_steps:
                raise ValueError("no grid")
            return build(config, steps, cache)

        monkeypatch.setattr(bench, "build_run_grid", failing)
        began = self.sleeping_children(monkeypatch)
        with pytest.raises(bench.PricingError, match=r"^stretched, I = 64: no grid$"):
            parse_table_config(parse_config_text(TWO_COLUMNS)).run()
        assert time.perf_counter() - began < 30.0

    def test_an_interrupt_during_a_row_build_cancels_the_started_ones(self, monkeypatch):
        set_workers(monkeypatch, 2)
        build = bench.build_run_grid

        def interrupted(config, steps, cache=None):
            if steps == config.space_steps[0]:
                raise KeyboardInterrupt
            return build(config, steps, cache)

        monkeypatch.setattr(bench, "build_run_grid", interrupted)
        began = self.sleeping_children(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            parse_table_config(parse_config_text(TWO_COLUMNS)).run()
        assert time.perf_counter() - began < 30.0

    def test_a_killed_reference_march_is_a_pricing_error(self, monkeypatch):
        # Each reference's process kills itself; the rows (17 and 33 nodes,
        # stacked in pairs) march on.  The first column's reference fails
        # the table, named, with the lost part as its cause.
        set_workers(monkeypatch, 2)
        parent, march = os.getpid(), fdm.Stack.march

        def dying(system, v):
            if os.getpid() != parent and v.size == 65:
                os.kill(os.getpid(), signal.SIGKILL)
            return march(system, v)

        monkeypatch.setattr(fdm.Stack, "march", dying)
        with pytest.raises(bench.PricingError) as err:
            parse_table_config(parse_config_text(TWO_COLUMNS)).run()
        assert isinstance(err.value.__cause__, fdm.LostPartError)
        assert str(err.value) == ("plain, I = 64: fdm-start: part 0 ended without a result "
                                  "(killed by signal 9)")

    def test_a_started_reference_keeps_only_its_points_here(self, monkeypatch):
        # Once a reference's march is started in its own process, this one
        # drops the reference's block and terminal: when the rows are built,
        # none of the three is alive here.
        set_workers(monkeypatch, 2)
        alive, seen = [], []
        payoff, price_run = bench.payoff, bench.price_run

        class Tracking(bench.TrBdf2Stepper):
            def __init__(self, grid, *args, **kwargs):
                super().__init__(grid, *args, **kwargs)
                if grid.points.size == 65:
                    alive.append(weakref.ref(self))

        def tracking_payoff(contract, grid):
            values = payoff(contract, grid)
            if grid.points.size == 65:
                alive.append(weakref.ref(values))
            return values

        def counting_price_run(config, steps, cache=None):
            if steps != config.reference_steps:
                seen.append(sum(ref() is not None for ref in alive))
            return price_run(config, steps, cache)

        monkeypatch.setattr(bench, "TrBdf2Stepper", Tracking)
        monkeypatch.setattr(bench, "payoff", tracking_payoff)
        monkeypatch.setattr(bench, "price_run", counting_price_run)
        text = TWO_COLUMNS.replace("columns = plain, stretched",
                                   "columns = plain, stretched, again")
        results = parse_table_config(parse_config_text(text)).run()
        assert not any(row.failed for _, report in results for row in report.rows)
        assert len(alive) == 6 and seen == [0] * 6


# Table 3's shape at a tenth of its grid sizes: four columns, each with its
# own reference, and 16 rows that share dt and N.
SMALL_TABLE_3 = load_bundled_text("discrete_ko_stretch_placed.cfg").replace(
    "sweep.space_steps = 250, 500, 1000, 2000", "sweep.space_steps = 25, 50, 100, 200").replace(
    "sweep.reference_steps = 16000", "sweep.reference_steps = 1600").replace(
    "pde.time_steps = 1500", "pde.time_steps = 250")


def node_steps(config: bench.RunConfig, steps: int) -> int:
    """Nodes x N of ``config``'s pricing at ``steps`` intervals, from its
    grid alone."""
    time_steps = steps if config.match_time_steps else config.pde.time_steps
    return bench.build_run_grid(config, steps).points.size * time_steps


@pytest.mark.parametrize("name", BUNDLED)
def test_rows_cost_less_than_the_costliest_reference(name):
    # A table's rows march in one ``fdm.march`` in the calling thread while
    # its references march beside it, so that the rows are not the longest
    # march only while their node-steps stay below the costliest
    # reference's; a table that breaks this fails here.
    table = parse_table_config(parse_config_text(load_bundled_text(name)))
    configs = [cfg for _, cfg in table.columns]
    references = ([dict(table.columns)[table.reference_column]]
                  if table.reference_mode == "shared" else configs)
    rows = sum(node_steps(cfg, steps) for cfg in configs for steps in cfg.space_steps)
    assert rows < max(node_steps(cfg, cfg.reference_steps) for cfg in references)


class TestWidth:
    @pytest.mark.parametrize("text", [SMALL_TABLE_3, load_bundled_text(
        "double_ko_discrete_stretch.cfg")], ids=["small_table_3", "table_4"])
    def test_csv_bytes_do_not_depend_on_the_width(self, monkeypatch, text):
        table = parse_table_config(parse_config_text(text))
        csv, prices = {}, {}
        for width in (1, 2, 3):
            set_workers(monkeypatch, width)
            results = table.run()
            buf = io.BytesIO()
            emit_table_csv(results, buf)
            csv[width] = buf.getvalue()
            prices[width] = [(report.reference, [row.prices for row in report.rows])
                             for _, report in results]
        assert csv[1] == csv[2] == csv[3]
        assert prices[1] == prices[2] == prices[3]


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

    def test_table_csv_rejects_columns_with_other_spots(self):
        reports = [("a", ConvergenceReport("a", (75.0,))),
                   ("b", ConvergenceReport("b", (60.0, 80.0)))]
        with pytest.raises(ConfigError, match=r"column 'b' reports spots \(60\.0, 80\.0\)"):
            emit_table_csv(reports, io.BytesIO())

    def test_byte_stable_rerun(self):
        table = parse_table_config(parse_config_text(SMOKE))
        outputs = []
        for _ in range(2):
            buf = io.BytesIO()
            emit_table_csv(table.run(), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


class TestResolveDomain:
    # Intervals each fit makes of I: explicit and barrier_exact I, the
    # half-cell offset I + 1, the node pad I + 2.
    FITS = {DomainFit.EXPLICIT: 0, DomainFit.BARRIER_EXACT: 0,
            DomainFit.BARRIER_OFFSET_HALF_CELL: 1, DomainFit.BARRIER_NODE_PAD: 2}

    def config(self, fit):
        # table 5's first column has both barriers, at 90 and 110
        config = load_bundled(5).columns[0][1]
        return dataclasses.replace(config, domain=DomainSpec(0.0, 150.0, fit))

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("steps", [0, -1])
    def test_no_intervals_names_i(self, fit, steps):
        with pytest.raises(ConfigError, match=f"^I = {steps}: need at least two intervals"):
            resolve_domain(self.config(fit), steps)

    @pytest.mark.parametrize("fit", FITS)
    def test_one_interval_is_refused_only_where_the_fit_adds_none(self, fit):
        config = self.config(fit)
        if self.FITS[fit]:
            assert resolve_domain(config, 1)[2] == 1 + self.FITS[fit]
        else:
            with pytest.raises(ConfigError, match=f"^I = 1: need at least two intervals "
                                                  f"\\(domain.fit = {fit} gives 1\\)"):
                resolve_domain(config, 1)
        assert resolve_domain(config, 2)[2] == 2 + self.FITS[fit]


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


GOLDEN_NODES = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "grid_nodes.npz"
NODE_TOL = 1e-3 * 1e-5   # perfbench's node tolerance, NODE_TOL_1E5 x 1e-5


def test_every_bundled_grid_matches_its_golden_nodes():
    # The 127 grids (sweep rows and references, keyed config:column:I) that
    # the benchmark's grid_build replay checks, so that a node which moves
    # fails here and not only when the benchmark runs.
    with np.load(GOLDEN_NODES) as golden:
        nodes = dict(golden)
    assert len(nodes) == 127
    tables = {}
    for row, expected in nodes.items():
        key, column, steps = row.split(":")
        if key not in tables:
            tables[key] = dict(load_bundled(key).columns), bench._TableCache()
        columns, cache = tables[key]
        points = bench.build_run_grid(columns[column], int(steps), cache).points
        assert points.shape == expected.shape, row
        assert np.max(np.abs(points - expected)) <= NODE_TOL, row
