"""Command-line runner: grid dumps, single valuations, convergence sweeps
and the transform micro-benchmark."""

from __future__ import annotations

import argparse
import sys

from . import bench
from .bench import (ConfigError, RunConfig, TableConfig, bench_transforms,
                    build_run_grid, emit_table_csv, load_bundled, load_config,
                    price_run, write_csv)


def _load(args) -> TableConfig:
    if getattr(args, "table", None) is not None:
        return load_bundled(args.table)
    if getattr(args, "config", None):
        return load_config(args.config)
    raise ConfigError("pass --config PATH or --table N")


def _column(table: TableConfig, name: str | None) -> RunConfig:
    """The named column's run config (the first column when no name)."""
    columns = dict(table.columns)
    name = name or table.columns[0][0]
    if name not in columns:
        raise ConfigError(f"column {name!r} not in config")
    return columns[name]


def cmd_grid(args) -> int:
    cfg = _column(_load(args), args.column)
    points = build_run_grid(cfg, args.steps).points
    n = points.size - 1
    write_csv(["index", "u", "S"], [(j, j / n, s) for j, s in enumerate(points)],
              args.out or sys.stdout.buffer)
    return 0


def cmd_price(args) -> int:
    cfg = _column(_load(args), args.column)
    steps = cfg.space_steps[-1] if args.steps is None else args.steps
    prices = price_run(cfg, steps)
    write_csv(["spot", "price"], [(s, prices[s]) for s in cfg.report_spots],
              args.out or sys.stdout.buffer)
    return 0


def cmd_converge(args) -> int:
    emit_table_csv(_load(args).run(), args.out or sys.stdout.buffer)
    return 0


def cmd_bench(args) -> int:
    report = bench_transforms(args.samples)
    print(f"samples: {report.samples}")
    print(f"sinh map:  {report.seconds_baseline * 1e3:9.2f} ms")
    print(f"cubic map: {report.seconds_candidate * 1e3:9.2f} ms")
    print(f"speedup (sinh / cubic): {report.ratio:.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchgrid",
        description="Nonuniform-grid option pricing benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a run configuration file")
        p.add_argument("--table", type=int, choices=sorted(bench.BUNDLED_TABLES),
                       help="bundled benchmark table number")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("grid", help="emit the grid points of a stretch recipe")
    common(p)
    p.add_argument("--steps", type=int, default=62, help="number of grid intervals")
    p.add_argument("--column", help="config column to use (default: first)")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("price", help="single valuation at the report spots")
    common(p)
    p.add_argument("--steps", type=int, help="grid intervals (default: largest sweep entry)")
    p.add_argument("--column", help="config column to use (default: first)")
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("converge", help="run a convergence sweep, emit CSV")
    common(p)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("bench", help="time cubic vs sinh map evaluation")
    p.add_argument("--samples", type=int, default=10_000_000)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single-line diagnostic contract
        print(f"stretchgrid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
