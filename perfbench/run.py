"""End-to-end benchmark of the random-walk domination library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-select --seed 1 --seconds 28 --trace 0

Workloads (defined in ``perfbench/workloads.json``):

* ``cold-select`` -- ``approx_greedy_fast`` building its index inside the
  call (n=20,000, m=100,000, L=10, R=100, k=100, f1);
* ``warm-select`` -- ``load_index`` of a saved archive, then f1 and f2
  solves on the same instance;
* ``served-mix`` -- an open loop of mixed HTTP queries against a server
  process (n=2,000, m=12,000, L=6, R=100).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times half the
window untraced and half with the benchmark's layer wrappers installed,
and prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Traces, layer tables and full
run records are written under ``.bench_out/``.  Exit status: 0 when every
output check passed, 1 when one failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import require_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("cold-select", "warm-select", "served-mix"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_program()

    import workloads

    run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    workloads.save(run)
    for line in workloads.report(run):
        print(line)
    print(json.dumps(run.result()), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
