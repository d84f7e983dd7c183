#!/usr/bin/env python
"""Regenerate ``benchmarks/baselines.json`` from a local benchmark run.

Runs the gated benchmark suites (``BENCH_FILES`` below) with ``--json``,
then rewrites the committed
baseline file from the fresh measurements (documented in DESIGN.md §7.1).
Run it on a quiet machine after a deliberate performance change, review
the diff, and commit the result::

    python tools/update_bench_baseline.py            # full run
    python tools/update_bench_baseline.py --merge    # keep stale keys too

By default the baseline is replaced wholesale so deleted benchmarks do not
leave ghost keys behind; ``--merge`` updates in place instead.  Timing
assertions inside the benches are demoted (``--no-timing-gate``) because a
baseline refresh must not depend on the previous baseline's claims —
parity assertions still fail the run, and a failed run never touches the
baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "baselines.json"
BENCH_FILES = [
    "benchmarks/bench_micro_kernels.py",
    "benchmarks/bench_dynamic_updates.py",
    "benchmarks/bench_serving.py",
    "benchmarks/bench_http_serving.py",
    "benchmarks/bench_oocore_build.py",
    "benchmarks/bench_observability.py",
]


def run_benches(report_path: Path) -> None:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    command = [
        sys.executable, "-m", "pytest", *BENCH_FILES,
        "-q", "--no-timing-gate", "--json", str(report_path),
    ]
    print("running:", " ".join(command))
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(
            f"benchmark run failed (exit {result.returncode}); "
            "baseline left untouched"
        )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--merge", action="store_true",
        help="merge into the existing baseline instead of replacing it",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "benchmarks") as tmp:
        report_path = Path(tmp) / "bench_report.json"
        run_benches(report_path)
        report = json.loads(report_path.read_text(encoding="utf-8"))

    measurements = report["measurements"]
    if args.merge and BASELINE.is_file():
        merged = json.loads(BASELINE.read_text(encoding="utf-8"))
        merged["measurements"].update(measurements)
        merged["platform"] = report["platform"]
        merged["python"] = report["python"]
        payload = merged
    else:
        payload = {
            "schema": 1,
            "platform": report["platform"],
            "python": report["python"],
            "measurements": measurements,
        }
    BASELINE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(measurements)} measurements to {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
