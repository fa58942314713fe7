"""The bundled tables' prices, pinned.

``price_golden.json`` holds, for each of the 8 bundled configs, its
``stretchgrid converge`` CSV (lines and sha256) and every full-precision
reference and row price at every spot, and under ``host`` the numpy version
and CPU features that computed them.  ``test_acceptance`` compares the
acceptance suite's runs against it and prints the move report below.

The sinh-stretched tables' prices depend on numpy's SIMD ``sinh``.  Its
AVX-512 loop, which computed the entries above, differs from ``math.sinh``
on 4,025 of 16,001 samples of [-3, 3]; its AVX2 and baseline loops, which a
CPU without AVX-512 runs, equal it bit for bit.  So the file also holds,
under ``libm_sinh``, the entries of the configs whose prices differ where
``np.sinh`` equals ``math.sinh``, and ``expected`` picks the variant by what
``np.sinh`` returns on the host.

After a change that moves prices by design, rewrite the file, which prints
the same report against the file it replaces:

    PYTHONPATH=src python tests/price_golden.py

It runs the configs here, and again in a subprocess with
``NPY_DISABLE_CPU_FEATURES`` set so that numpy runs its AVX2 loops.  Only a
host with AVX-512 computes both variants and rewrites both.  A host without
it computes the ``libm_sinh`` variant alone: there the script rewrites only
that variant, against the AVX-512 entries as the file holds them.
"""

import difflib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from stretchgrid.bench import emit_table_csv, load_bundled

GOLDEN = Path(__file__).with_name("price_golden.json")
CONFIGS = (1, 2, 3, 4, 5, 6, "american_put_stretch", "smoke_zero_vol")
# The configs whose grids sample a sinh map.
SINH_STRETCHED = (1, 3, "american_put_stretch")
# numpy's loops for an x86-64 CPU without AVX-512.
WITHOUT_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
VARIANT = "libm_sinh"
# The largest absolute price move that counts as none (1e-7 in the tables'
# x 1e5 units), far below the smallest deliberate move seen so far, 2.3e-11.
# Both LAPACK backends give the golden's bits.  It is no bound on round-off
# in the grids: one ulp in the sinh map's c2 - c1 moves prices by up to
# 1.7e-10, which is why each ``sinh`` has its own variant.
TOLERANCE = 1e-12


def sinh_is_libm() -> bool:
    """Whether numpy's ``sinh`` equals ``math.sinh`` bit for bit on 16,001
    samples of [-3, 3], as its AVX2 and baseline loops do."""
    x = np.linspace(-3.0, 3.0, 16_001)
    return np.array_equal(np.sinh(x), [math.sinh(v) for v in x])


def host() -> dict:
    """The numpy version, the CPU features its SIMD loops may dispatch to
    here, and whether the ``sinh`` they pick equals ``math.sinh``."""
    return {"numpy": np.__version__,
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
            "sinh_is_libm": sinh_is_libm()}


def expected(golden: dict, libm: bool | None = None) -> dict:
    """The golden for a host whose ``np.sinh`` equals ``math.sinh`` (``libm``;
    by default, whether this host's does): the AVX-512 entries, with the
    ``libm_sinh`` variant's in place of theirs where it does."""
    if libm is None:
        libm = sinh_is_libm()
    return {**golden, **golden.get(VARIANT, {})} if libm else golden


def host_note(golden: dict) -> str:
    """Which ``sinh`` variant of the golden this host is compared with, and
    whether numpy or the CPU features differ from those that wrote it, where
    a move near round-off may be numpy's SIMD ``sinh``, not the code."""
    was, now = golden.get("host", {}), host()
    sinh = ("numpy's sinh equals math.sinh" if now["sinh_is_libm"]
            else "numpy's sinh differs from math.sinh")
    if was == now:
        return f"host: {sinh}; numpy {now['numpy']} and CPU features as in the golden"
    features = set(was.get("cpu_features", ()))
    return (f"host: {sinh}; it differs from the golden's: numpy {was.get('numpy')} -> "
            f"{now['numpy']}; CPU features only there "
            f"{sorted(features - set(now['cpu_features']))}, only here "
            f"{sorted(set(now['cpu_features']) - features)}; a move near round-off may "
            f"be numpy's SIMD sinh, not a regression")


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


def snapshots(keys) -> dict:
    """Each config's ``snapshot``, run here, keyed by its name."""
    return {str(key): snapshot(load_bundled(key).run()) for key in keys}


def without_avx512(keys) -> tuple[dict, dict]:
    """``snapshots(keys)`` and ``host()`` of a subprocess that runs numpy's
    loops for a CPU without AVX-512."""
    done = subprocess.run([sys.executable, __file__, "--snapshots", *map(str, keys)],
                          env={**os.environ, **WITHOUT_AVX512}, capture_output=True,
                          text=True)
    if done.returncode:
        raise RuntimeError(f"{__file__} --snapshots failed:\n{done.stderr}")
    there = json.loads(done.stdout)
    return there["snapshots"], there["host"]


def main():
    if sys.argv[1:2] == ["--snapshots"]:
        print(json.dumps({"snapshots": snapshots(sys.argv[2:]), "host": host()}))
        return
    golden = load() if GOLDEN.exists() else {}
    here, here_host = snapshots(CONFIGS), host()
    if here_host["sinh_is_libm"]:
        # No AVX-512 here: the AVX-512 entries stay as the file holds them.
        libm, libm_host = here, here_host
        main_entries = {str(key): golden[str(key)] for key in CONFIGS if str(key) in golden}
        main_host = golden.get("host", {})
        print("numpy's sinh equals math.sinh here: rewriting the libm_sinh variant only")
    else:
        main_entries, main_host = here, here_host
        libm, libm_host = without_avx512(CONFIGS)
        lines, _ = report(golden, here)
        print("\n".join([*lines, host_note(golden)]))
    if libm_host["sinh_is_libm"]:
        variant = {key: entry for key, entry in libm.items() if entry != main_entries.get(key)}
        print("where numpy's sinh equals math.sinh:")
        print("\n".join(report(expected(golden, libm=True), {**main_entries, **variant})[0]))
        variant["host"] = libm_host
    else:
        variant = golden.get(VARIANT, {})
        print("numpy's sinh differs from math.sinh without AVX-512 too: the libm_sinh "
              "variant stays as it is")
    GOLDEN.write_text(json.dumps({**main_entries, "host": main_host, VARIANT: variant},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
