"""Record the golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Prices every table of the pricing workloads once and replays the grid
traffic of every bundled config, with the package as it stands, and writes
``perfbench/golden/``.  Run it only when a change is meant to move prices or
grid nodes, and say so in the change.  It also prints each row's error at the
lead spot, which the per-workload accuracy targets are chosen against.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402
from perfbench.tracing import Recorder, layer_spans  # noqa: E402


def _prices(by_spot: dict[float, float]) -> dict[str, float]:
    return {repr(float(spot)): price for spot, price in by_spot.items()}


def main() -> int:
    pricing = {}
    for workload in wl.WORKLOADS.values():
        if not isinstance(workload, wl.PricingWorkload):
            continue
        for key in workload.tables:
            rec = Recorder()
            with layer_spans(rec):
                ((_, table, results, csv),) = workload.price_tables([key], rec)
            shared = table.reference_mode == "shared"
            pricing[key] = {
                "csv_sha256": hashlib.sha256(csv).hexdigest(),
                "node_steps": rec.counts["fdm.node_steps"],
                "references": {column: _prices(report.reference)
                               for column, report in results
                               if not shared or column == table.reference_column},
                "rows": {column: {str(row.steps): _prices(row.prices) for row in report.rows}
                         for column, report in results},
            }
            lead = table.columns[0][1].report_spots[0]
            oracle = wl.oracle_price(table) if workload.oracle else None
            for column, report in results:
                for row in report.rows:
                    error = (row.errors_1e5[lead] if oracle is None
                             else abs(row.prices[lead] - oracle) * 1e5)
                    print(f"{workload.name}: table {key}, {column}, I={row.steps}: "
                          f"error {error:.4g} x 1e-5{'' if oracle is None else ' (oracle)'}")
    grids = wl.GridWorkload.build_grids(list(wl.BUNDLED_CONFIGS), Recorder())
    wl.write_golden(pricing, grids)
    print(f"wrote {len(pricing)} tables and {len(grids)} grids to {wl.GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
