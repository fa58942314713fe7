"""Benchmark workloads: what one pass runs and how its outputs are checked.

Every pass goes through the real ``stretchgrid.bench`` entry points with the
bundled configs unchanged, one table after another in one thread (a closed
loop: a row is priced only after the previous one finished).  The seed picks
the order of a workload's tables and the samples of the map-evaluation
timing; it never changes what is priced, so outputs can be compared with the
golden files recorded from the unchanged package.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stretchgrid import bench, gridgen
from stretchgrid.analytics import double_barrier_ko_analytic
from stretchgrid.gridgen import StretchKind, StretchSpec

from .tracing import Recorder, layer_spans, patched, row_timer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# A row fails when any price (or grid node) moves by more than this, in the
# x 1e5 units of the tables.  Round-off from a different solver ordering is
# ~1e-7 here; a change to the scheme or the interpolation is >= 1e-2.
PRICE_TOL_1E5 = 1e-3
NODE_TOL_1E5 = 1e-3
# |shared reference - image-series price| x 1e5 at the lead spot; ~0.011 at
# the recorded commit.
ORACLE_BOUND_1E5 = 0.05

EVAL_SAMPLES = 10_000_000
EVAL_REPS = 5
EVAL_MAPS = {
    "sinh": StretchSpec(StretchKind.SINH, 0.0, 150.0, (125.0,), (1.5,)),
    "cubic": StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (125.0,), (1.5,)),
}

# Every bundled config file, in a fixed order (the seed permutes it).
BUNDLED_CONFIGS = ("discrete_ko_stretch", "discrete_ko_uniform_placed",
                   "discrete_ko_stretch_placed", "double_ko_discrete_stretch",
                   "double_ko_continuous_ghost", "double_ko_continuous_stretch",
                   "american_put_stretch", "smoke_zero_vol")


@dataclass
class PassResult:
    """Outputs, timings and checks of one pass over a workload."""

    rec: Recorder
    attempted: int = 0
    failed: int = 0
    max_diff_1e5: float = 0.0
    messages: list[str] = field(default_factory=list)
    csv_identical: bool = True
    accurate_rows: set[str] = field(default_factory=set)
    oracle_err_1e5: float = 0.0
    eval_best: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.rec.spans[0].seconds

    def compare(self, where: str, value: float, golden: float | None, tol: float) -> bool:
        """Check one output against its golden value; True when it holds."""
        if golden is None:
            self.messages.append(f"{where}: no golden value")
            return False
        diff = abs(value - golden) * 1e5
        if math.isnan(diff):
            diff = math.inf
        self.max_diff_1e5 = max(self.max_diff_1e5, diff)
        if diff <= tol:
            return True
        self.messages.append(f"{where}: {value!r} vs golden {golden!r} "
                             f"(|diff| x 1e5 = {diff:.3g})")
        return False


def _order(keys: tuple[str, ...], seed: int) -> list[str]:
    return random.Random(seed).sample(list(keys), len(keys))


def _size(points: np.ndarray | None) -> int | None:
    return None if points is None else points.size


def _spot_key(spot: float) -> str:
    return repr(float(spot))


class PricingWorkload:
    """Price bundled tables with ``TableConfig.run`` and emit their CSV."""

    def __init__(self, name: str, tables: tuple[str, ...], target_1e5: float,
                 oracle: bool = False):
        self.name = name
        self.tables = tables
        self.target_1e5 = target_1e5   # accuracy target at the lead spot
        self.oracle = oracle
        self.golden = {}
        self.oracle_prices: dict[str, float] = {}
        self.oracle_seconds = 0.0
        self.node_steps = 0

    @property
    def config_keys(self) -> tuple[str, ...]:
        return self.tables

    def prepare(self, seed: int, golden: dict) -> list[str]:
        self.golden = golden["pricing"]
        self.node_steps = sum(self.golden[key]["node_steps"] for key in self.tables)
        if self.oracle:
            t0 = time.perf_counter()
            for key in self.tables:
                self.oracle_prices[key] = oracle_price(bench.load_bundled(key))
            self.oracle_seconds = time.perf_counter() - t0
        return _order(self.tables, seed)

    def run_pass(self, order: list[str], traced: bool) -> PassResult:
        rec = Recorder()
        with ExitStack() as stack:
            if traced:
                stack.enter_context(layer_spans(rec))
            with rec.span("bench.pass"):
                outputs = self.price_tables(order, rec)
        out = PassResult(rec)
        for key, table, results, csv in outputs:
            self._check_table(out, key, table, results, csv)
        return out

    @staticmethod
    def price_tables(order: list[str], rec: Recorder) -> list[tuple]:
        """What ``stretchgrid converge --table N`` does, for each table."""
        outputs = []
        for key in order:
            with rec.span("bench.table", key), row_timer(rec, key):
                with rec.span("bench.parse"):
                    table = bench.load_bundled(key)
                results = table.run()
                buf = io.BytesIO()
                with rec.span("bench.emit"):
                    rec.counts["bench.csv_bytes"] += bench.emit_table_csv(results, buf)
            outputs.append((key, table, results, buf.getvalue()))
        return outputs

    def _check_table(self, out: PassResult, key: str, table, results, csv: bytes):
        golden = self.golden.get(key, {})
        if hashlib.sha256(csv).hexdigest() != golden.get("csv_sha256"):
            out.csv_identical = False
        lead = table.columns[0][1].report_spots[0]
        where = f"{self.name}: table {key}"
        shared = table.reference_mode == "shared"
        for column, report in results:
            if not shared or column == table.reference_column:
                out.attempted += 1
                ok = True
                ref_golden = golden.get("references", {}).get(column, {})
                for spot, price in report.reference.items():
                    ok &= out.compare(f"{where}, column {column}, reference, S={spot:g}",
                                      price, ref_golden.get(_spot_key(spot)), PRICE_TOL_1E5)
                if key in self.oracle_prices:
                    err = abs(report.reference[lead] - self.oracle_prices[key]) * 1e5
                    out.oracle_err_1e5 = max(out.oracle_err_1e5, err)
                    if not err <= ORACLE_BOUND_1E5:
                        out.messages.append(f"{where}: reference S={lead:g} is "
                                            f"{err:.3g} x 1e-5 from the image-series "
                                            f"oracle (bound {ORACLE_BOUND_1E5})")
                        ok = False
                out.failed += not ok
            rows_golden = golden.get("rows", {}).get(column, {})
            for row in report.rows:
                out.attempted += 1
                label = f"{where}, column {column}, I={row.steps}"
                if row.failed:
                    out.messages.append(f"{label}: failed: {row.failed}")
                    out.failed += 1
                    continue
                g = rows_golden.get(str(row.steps), {})
                ok = True
                for spot, price in row.prices.items():
                    ok &= out.compare(f"{label}, S={spot:g}", price,
                                      g.get(_spot_key(spot)), PRICE_TOL_1E5)
                out.failed += not ok
                if key in self.oracle_prices:
                    error = abs(row.prices[lead] - self.oracle_prices[key]) * 1e5
                else:
                    error = row.errors_1e5[lead]
                if error <= self.target_1e5:
                    out.accurate_rows.add(f"{key}:{column}:{row.steps}")


def oracle_price(table) -> float:
    """Image-series price of a continuous double knock-out at the lead spot."""
    cfg = dict(table.columns)[table.reference_column]
    c, m = cfg.contract, cfg.market
    return double_barrier_ko_analytic(cfg.report_spots[0], c.strike, c.maturity,
                                      m.rate, m.dividend, m.sigma, c.barrier_lower,
                                      c.barrier_upper, c.put_call.value)


class GridWorkload:
    """Replay the grid requests of every bundled table, without pricing, and
    time sinh vs cubic map evaluation over seeded samples."""

    name = "grid_build"
    config_keys = BUNDLED_CONFIGS
    target_1e5 = 0.0
    oracle_seconds = 0.0
    node_steps = 0

    def __init__(self):
        self.nodes: dict[str, np.ndarray] = {}
        self.samples = np.empty(0)

    def prepare(self, seed: int, golden: dict) -> list[str]:
        self.nodes = golden["nodes"]
        self.samples = np.random.default_rng(seed).random(EVAL_SAMPLES)
        return _order(BUNDLED_CONFIGS, seed)

    def run_pass(self, order: list[str], traced: bool) -> PassResult:
        rec = Recorder()
        seconds = {name: [] for name in EVAL_MAPS}
        with ExitStack() as stack:
            if traced:
                stack.enter_context(layer_spans(rec))
            with rec.span("bench.pass"):
                grids = self.build_grids(order, rec)
                with rec.span("gridgen.eval"):
                    finite = self._time_maps(seconds)
        # Best of EVAL_REPS, the statistic of bench_transforms.
        out = PassResult(rec, eval_best={name: min(t) for name, t in seconds.items()})
        if not finite:
            out.messages.append(f"{self.name}: map evaluation gave non-finite values")
        # Every recorded grid must be rebuilt, and nothing else.
        for row in {**self.nodes, **grids}:
            out.attempted += 1
            golden, points = self.nodes.get(row), grids.get(row)
            config, column, steps = row.split(":")
            where = f"{self.name}: config {config}, column {column}, I={steps}"
            if golden is None or points is None or golden.size != points.size:
                out.messages.append(f"{where}: {_size(points)} nodes, golden "
                                    f"{_size(golden)}")
                out.failed += 1
                continue
            k = int(np.argmax(np.abs(points - golden)))
            out.failed += not out.compare(f"{where}, node {k}", points[k], golden[k],
                                          NODE_TOL_1E5)
        return out

    @staticmethod
    def build_grids(order: list[str], rec: Recorder) -> dict[str, np.ndarray]:
        """Run each table with ``price_run`` swapped for a stub that builds
        the row's grid and prices nothing, so the grids requested (and the
        map caches used) are exactly those of ``TableConfig.run``."""
        grids = {}
        for key in order:
            def grid_only(config, steps, cache=None, key=key):
                row = f"{key}:{config.label}:{steps}"
                with rec.span("bench.row", row):
                    grids[row] = bench.build_run_grid(config, steps, cache).points
                return {s: 0.0 for s in config.report_spots}

            with rec.span("bench.table", key), patched(bench, price_run=grid_only):
                with rec.span("bench.parse"):
                    table = bench.load_bundled(key)
                table.run()
        return grids

    def _time_maps(self, seconds: dict[str, list[float]]) -> bool:
        u = self.samples
        maps = {name: gridgen.build_map(spec) for name, spec in EVAL_MAPS.items()}
        finite = True
        for mapping in maps.values():
            mapping(u[:1_000_000])
        for _ in range(EVAL_REPS):
            for name, mapping in maps.items():
                t0 = time.perf_counter()
                values = mapping(u)
                seconds[name].append(time.perf_counter() - t0)
                finite &= bool(np.isfinite(values[:: 997]).all())
        return finite


# Accuracy targets (x 1e-5 at the lead spot) sit where no row's error at the
# recorded commit lies within +-30%: table 3 against its per-column
# references, table 4 against the shared reference, tables 5 and 6 against
# the image-series oracle.
WORKLOADS = {
    "discrete_ko_placed": PricingWorkload("discrete_ko_placed", ("3",), target_1e5=0.8),
    "double_ko_tr": PricingWorkload("double_ko_tr", ("4",), target_1e5=60.0),
    "continuous_dko": PricingWorkload("continuous_dko", ("5", "6"), target_1e5=15.0,
                                      oracle=True),
    "grid_build": GridWorkload(),
    # Not a benchmark workload: the fast config the smoke test runs.
    "smoke": PricingWorkload("smoke", ("smoke_zero_vol",), target_1e5=1.0),
}


# ---------------------------------------------------------------------------
# Golden files


def load_golden() -> dict:
    pricing = json.loads((GOLDEN_DIR / "pricing.json").read_text())
    with np.load(GOLDEN_DIR / "grid_nodes.npz") as nodes:
        return {"pricing": pricing, "nodes": dict(nodes)}


def write_golden(pricing: dict, nodes: dict[str, np.ndarray]):
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / "pricing.json").write_text(json.dumps(pricing, indent=1) + "\n")
    np.savez_compressed(GOLDEN_DIR / "grid_nodes.npz", **nodes)
