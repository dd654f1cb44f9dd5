"""Gate CI on the search-kernel tier contract in ``BENCH_pr10.json``.

Reads a kernel-sweep report written by ``smoke.py`` and enforces, per
(workload, method):

* **numpy never loses** — the numpy tier's batch throughput must be at
  least ``1 - tolerance`` of the pure-Python tier's (the numpy kernels
  fall back to the scalar loop below ``VECTOR_MIN_DEGREE``, so they
  should cost nothing where vectorization can't help);
* **C must pay for itself** — when ``c`` cells exist (everywhere the
  library builds; the no-compiler CI job has none, and absent cells are
  fine), the compiled tier's survivor search must be ``--c-speedup``
  (default 10x) faster per survivor than the pure-Python tier's on the
  *search-heavy* workload, the one the kernels were built for.  The
  cells' ``search_us_per_survivor`` time the engine's search stage
  alone; batch throughput, which also pays per-batch validation,
  classification and dedup, is printed beside it (and gated on when a
  report predates the per-survivor field).

Comparisons are within one report — same machine, same run — so no
calibration normalization is needed.  Against a second (baseline)
report, cells are compared like-for-like per backend after calibration
normalization, exactly as ``check_regression.py`` does.

    PYTHONPATH=src python benchmarks/check_kernels.py FRESH [BASELINE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_pr10.json"

SEARCH_HEAVY = "search-heavy"


def _cells(report: dict) -> dict[tuple[str, str, str], dict]:
    """(workload, method, kernel) -> result cell."""
    cells: dict[tuple[str, str, str], dict] = {}
    for workload in report["workloads"]:
        for r in workload["results"]:
            cells[(workload["workload"], r["method"], r["kernel"])] = dict(
                r, queries=workload["queries"]
            )
    return cells


def _throughput(cell: dict) -> float:
    return cell["queries"] / cell["query_ms"] if cell["query_ms"] else 0.0


def _search_speedup(cell: dict, python: dict) -> float | None:
    """Python's search time per survivor over the cell's, if recorded."""
    ours = cell.get("search_us_per_survivor")
    theirs = python.get("search_us_per_survivor")
    return theirs / ours if ours and theirs else None


def check_tiers(report: dict, tolerance: float, c_speedup: float) -> int:
    """The within-report tier gates; returns a process exit code."""
    cells = _cells(report)
    keys = sorted({(w, m) for (w, m, _k) in cells})
    failures = []
    print(
        f"kernel tiers in report: "
        f"{sorted({k for (_w, _m, k) in cells})}; numpy tolerance "
        f"{tolerance:.0%}, C speedup gate {c_speedup:.2f}x "
        f"(search-heavy only)"
    )
    for workload, method in keys:
        python = cells.get((workload, method, "python"))
        if python is None:
            print(f"  {workload:>14} {method:<10} SKIP (no python cell)")
            continue
        base = _throughput(python)
        numpy_cell = cells.get((workload, method, "numpy"))
        if numpy_cell is not None and base:
            ratio = _throughput(numpy_cell) / base
            verdict = "ok"
            if ratio < 1 - tolerance:
                verdict = "FAIL (numpy slower than python)"
                failures.append((workload, method, "numpy", ratio))
            print(
                f"  {workload:>14} {method:<10} numpy  "
                f"{ratio:6.2f}x of python  {verdict}"
            )
        c_cell = cells.get((workload, method, "c"))
        if c_cell is not None and base:
            throughput = _throughput(c_cell) / base
            ratio = _search_speedup(c_cell, python) or throughput
            gated = workload == SEARCH_HEAVY
            verdict = "ok" if not gated else (
                "ok" if ratio >= c_speedup
                else f"FAIL (< {c_speedup:.2f}x)"
            )
            if gated and ratio < c_speedup:
                failures.append((workload, method, "c", ratio))
            print(
                f"  {workload:>14} {method:<10} c      "
                f"{ratio:6.2f}x of python per survivor "
                f"({throughput:.2f}x batch throughput)  {verdict}"
            )
        # The sweep asserts answer equality at measurement time; the
        # stats columns double-check the bit-identity contract here.
        for kernel in ("numpy", "c"):
            cell = cells.get((workload, method, kernel))
            if cell is None:
                continue
            for field in ("positives", "searches", "expanded", "pruned"):
                if cell.get(field) != python.get(field):
                    failures.append(
                        (workload, method, kernel, f"{field} mismatch")
                    )
                    print(
                        f"  {workload:>14} {method:<10} {kernel}  "
                        f"FAIL ({field}: {cell.get(field)} != "
                        f"{python.get(field)})"
                    )
    if failures:
        print(f"\nFAIL: {len(failures)} kernel gate(s) failed")
        return 1
    print("\nOK: kernel tier contract holds")
    return 0


def check_baseline(fresh: dict, baseline: dict, tolerance: float) -> int:
    """Like-for-like per-backend comparison against a committed report."""
    fresh_cells = _cells(fresh)
    base_cells = _cells(baseline)
    fresh_cal = fresh["calibration_ms"]
    base_cal = baseline["calibration_ms"]
    regressions = []
    for key in sorted(base_cells):
        workload, method, kernel = key
        label = f"{workload:>14} {method:<10} kernel={kernel}"
        if key not in fresh_cells:
            print(f"  {label}  SKIP (not in fresh run)")
            continue
        base = _throughput(base_cells[key]) * base_cal
        new = _throughput(fresh_cells[key]) * fresh_cal
        if not base:
            continue
        ratio = new / base
        verdict = "ok"
        if ratio < 1 - tolerance:
            verdict = "REGRESSION"
            regressions.append((key, ratio))
        print(f"  {label}  {ratio:6.2f}x of baseline  {verdict}")
    if regressions:
        print(f"\nFAIL: {len(regressions)} kernel cell(s) regressed")
        return 1
    print("\nOK: no per-backend regression against the baseline")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", type=Path, help="BENCH_pr10.json of this run"
    )
    parser.add_argument(
        "baseline",
        nargs="?",
        type=Path,
        default=None,
        help="committed BENCH_pr10.json for the cross-run comparison "
        "(omit to run only the within-report tier gates)",
    )
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument(
        "--baseline-tolerance",
        type=float,
        default=0.25,
        help="allowed normalized-throughput drop vs the baseline file",
    )
    parser.add_argument("--c-speedup", type=float, default=10.0)
    args = parser.parse_args(argv[1:])
    fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
    code = check_tiers(fresh, args.tolerance, args.c_speedup)
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        code = max(
            code,
            check_baseline(fresh, baseline, args.baseline_tolerance),
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
