"""The bundled tables' prices, pinned.

``price_golden.json`` holds, for each of the 8 bundled configs, its
``stretchgrid converge`` CSV (lines and sha256) and every full-precision
reference and row price at every spot, and under ``host`` the numpy version
and CPU features that computed them.  ``test_acceptance`` compares the
acceptance suite's runs against it and prints the move report below.  After
a change that moves prices by design, rewrite the file, which prints the
same report against the file it replaces:

    PYTHONPATH=src python tests/price_golden.py
"""

import difflib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from stretchgrid.bench import emit_table_csv, load_bundled

GOLDEN = Path(__file__).with_name("price_golden.json")
CONFIGS = (1, 2, 3, 4, 5, 6, "american_put_stretch", "smoke_zero_vol")
# The largest absolute price move that counts as none (1e-7 in the tables'
# x 1e5 units), far below the smallest deliberate move seen so far, 2.3e-11.
# Both LAPACK backends give the golden's bits.  It is no bound on round-off
# in the grids: one ulp in the sinh map's c2 - c1 moves prices by up to
# 1.7e-10, so a numpy whose SIMD sinh rounds differently may fail it;
# ``host_note`` says whether this host's numpy and CPU differ.
TOLERANCE = 1e-12


def host() -> dict:
    """The numpy version and the CPU features its SIMD loops may dispatch
    to here, which pick the ``sinh`` that samples the stretch maps."""
    return {"numpy": np.__version__,
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def host_note(golden: dict) -> str:
    """Whether this host computes as the golden's did: where numpy or the
    CPU features differ, a move near round-off may be numpy's SIMD ``sinh``
    rounding a node differently, not a change in the code."""
    was, now = golden.get("host", {}), host()
    if was == now:
        return f"host: numpy {now['numpy']} and CPU features as in the golden"
    features = set(was.get("cpu_features", ()))
    return (f"host differs from the golden's: numpy {was.get('numpy')} -> {now['numpy']}; "
            f"CPU features only there {sorted(features - set(now['cpu_features']))}, "
            f"only here {sorted(set(now['cpu_features']) - features)}; a move near "
            f"round-off may be numpy's SIMD sinh, not a regression")


def snapshot(results) -> dict:
    """One table's entry from its ``TableConfig.run()`` results."""
    buf = io.BytesIO()
    emit_table_csv(results, buf)
    csv = buf.getvalue()
    return {"sha256": hashlib.sha256(csv).hexdigest(),
            "csv": csv.decode().splitlines(),
            "columns": {name: {"spots": list(report.spots),
                               "reference": [report.reference.get(s) for s in report.spots],
                               "rows": [[row.steps, [row.prices.get(s) for s in report.spots]]
                                        for row in report.rows]}
                        for name, report in results}}


def _prices(entry: dict) -> dict:
    """(column, row, spot) -> price of one table's entry."""
    out = {}
    for name, column in entry["columns"].items():
        rows = [("reference", column["reference"]),
                *((f"I = {steps}", prices) for steps, prices in column["rows"])]
        for row, prices in rows:
            out.update(((name, row, spot), price) for spot, price in zip(column["spots"], prices))
    return out


def report(golden: dict, current: dict) -> tuple[list[str], float]:
    """The move report of ``current`` against ``golden`` (each table key ->
    ``snapshot``) and the largest absolute price move; a price missing on
    either side, or failed, moves by inf."""
    lines, worst = [], 0.0
    for key, entry in current.items():
        old = golden.get(key, {"sha256": "", "csv": [], "columns": {}})
        before, after = _prices(old), _prices(entry)
        moved = max((abs(after[k] - before[k]) if after.get(k) is not None
                     and before.get(k) is not None else math.inf
                     for k in before.keys() | after.keys()), default=0.0)
        worst = max(worst, moved)
        same = entry["sha256"] == old["sha256"]
        lines.append(f"table {key}: max |dprice| x 1e5 = {moved * 1e5:.3g}; CSV sha256 "
                     f"{entry['sha256'][:12]} {'matches' if same else 'differs from'} the "
                     f"golden's {old['sha256'][:12] or '(none)'}")
        if not same:
            lines += [f"    {line}" for line in difflib.unified_diff(
                old["csv"], entry["csv"], "golden", "now", n=0, lineterm="")
                if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    return lines, worst


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main():
    current = {str(key): snapshot(load_bundled(key).run()) for key in CONFIGS}
    golden = load() if GOLDEN.exists() else {}
    lines, _ = report(golden, current)
    print("\n".join([*lines, host_note(golden)]))
    GOLDEN.write_text(json.dumps({**current, "host": host()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
