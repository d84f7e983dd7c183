#!/usr/bin/env python
"""Benchmark regression gate (run by the CI ``bench-regression`` job).

Compares a fresh ``--json`` benchmark report (``BENCH_<sha>.json``) against
the committed ``benchmarks/baselines.json``:

* ``*_parity`` keys are **hard gates** — any False (in the current report)
  fails regardless of flags.
* ``*_s`` keys are timings (lower is better): fail when
  ``current > factor * baseline`` (default factor 2.0 — the deliberately
  generous "soft" timing gate for shared runners).
* ``*_x`` keys are speedup ratios (higher is better, machine-independent):
  fail when ``current < baseline / factor``.
* ``--soft-absolute`` demotes just the absolute ``*_s`` comparisons to
  warnings — what CI uses: wall-clock baselines recorded on one machine
  do not transfer to shared runners, but the speedup ratios and parity
  verdicts do, and those still gate hard.
* ``--soft-timing`` demotes all timing comparisons (``*_s`` and ``*_x``)
  to warnings; parity stays hard.

Keys present in only one of the two files are reported but never fail the
run, so adding a benchmark does not require a lock-step baseline update.

Usage::

    python tools/check_bench_regression.py CURRENT.json \
        [benchmarks/baselines.json] [--factor 2.0] [--soft-timing]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines.json"


def load_measurements(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "measurements" not in payload:
        raise SystemExit(f"{path}: not a benchmark report (no 'measurements')")
    return payload["measurements"]


def compare(
    current: dict, baseline: dict, factor: float
) -> tuple[list[str], list[str], list[str], list[str]]:
    """Returns (parity_failures, absolute_failures, ratio_failures, notes)."""
    parity_failures: list[str] = []
    absolute_failures: list[str] = []
    ratio_failures: list[str] = []
    notes: list[str] = []

    for key in sorted(current):
        value = current[key]
        if key.endswith("_parity"):
            if value is not True:
                parity_failures.append(f"{key}: parity violated (got {value!r})")
            continue
        if key not in baseline:
            notes.append(f"{key}: no committed baseline (current {value})")
            continue
        base = baseline[key]
        if key.endswith("_s"):
            if value > factor * base:
                absolute_failures.append(
                    f"{key}: {value:.6g}s vs baseline {base:.6g}s "
                    f"(> {factor:g}x slowdown)"
                )
        elif key.endswith("_x"):
            if value < base / factor:
                ratio_failures.append(
                    f"{key}: speedup {value:.3g}x vs baseline {base:.3g}x "
                    f"(> {factor:g}x degradation)"
                )
    for key in sorted(set(baseline) - set(current)):
        notes.append(f"{key}: in baseline but missing from current run")
    return parity_failures, absolute_failures, ratio_failures, notes


def ratio_context(
    current: dict, baseline: dict, ratio_failures: "list[str]"
) -> list[str]:
    """The ``*_s`` measurements of each key group with a flagged ratio.

    A ratio key divides one measured time by another, so it fails both
    when the program slows and when its reference speeds up; the group's
    times beside their baselines tell the two apart.  The group is the
    key's prefix before the first dot.
    """
    groups = sorted({
        failure.split(":", 1)[0].split(".", 1)[0] for failure in ratio_failures
    })
    lines = []
    for group in groups:
        for key in sorted(current):
            if not (key.startswith(group + ".") and key.endswith("_s")):
                continue
            base = baseline.get(key)
            base_text = "no baseline" if base is None else f"baseline {base:.4g} s"
            lines.append(f"{key} {current[key]:.4g} s ({base_text})")
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh --json report")
    parser.add_argument(
        "baseline", type=Path, nargs="?", default=DEFAULT_BASELINE,
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--factor", type=float, default=2.0,
        help="allowed slowdown factor for timing keys (default 2.0)",
    )
    parser.add_argument(
        "--soft-absolute", action="store_true",
        help="report absolute *_s regressions without failing (speedup "
        "ratios and parity still gate) — recommended on shared runners",
    )
    parser.add_argument(
        "--soft-timing", action="store_true",
        help="report all timing regressions without failing (parity stays "
        "hard)",
    )
    args = parser.parse_args(argv)

    current = load_measurements(args.current)
    baseline = load_measurements(args.baseline)
    parity_failures, absolute_failures, ratio_failures, notes = compare(
        current, baseline, args.factor
    )

    soft_absolute = args.soft_timing or args.soft_absolute
    for note in notes:
        print(f"note: {note}")
    for failure in absolute_failures:
        print(f"{'warning' if soft_absolute else 'FAIL'}: {failure}")
    for failure in ratio_failures:
        print(f"{'warning' if args.soft_timing else 'FAIL'}: {failure}")
    for line in ratio_context(current, baseline, ratio_failures):
        print(f"  {line}")
    for failure in parity_failures:
        print(f"FAIL: {failure}")

    failed = bool(parity_failures) or (
        bool(absolute_failures) and not soft_absolute
    ) or (bool(ratio_failures) and not args.soft_timing)
    if failed:
        print("benchmark regression check failed", file=sys.stderr)
        return 1
    print(
        f"benchmark regression check passed "
        f"({len(current)} measurements, factor {args.factor:g})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
