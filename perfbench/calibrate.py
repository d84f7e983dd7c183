"""Measure the closed-loop capacity of the ``served-mix`` server.

Run from the root of a checkout::

    python3 perfbench/calibrate.py --seeds 1 2 3 --requests 280

For each seed, starts the workload's server process and sends the
workload's request stream back to back over its connections (each
connection sends its next request as soon as the previous one is
answered), then prints the answered requests per second.  The fixed
``rate_qps`` in ``workloads.json`` is set well below the median capacity
measured this way (``rate_calibration`` there gives the share and why);
the benchmark itself never recalibrates.
"""

from __future__ import annotations

import argparse
import statistics
import time

from common import SPEC, derive_seeds, require_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--requests", type=int, default=280)
    args = parser.parse_args(argv)
    require_program()

    from loadgen import HttpSender, make_stream, run_open_loop
    from workloads import ServerProcess

    spec = SPEC["served-mix"]
    capacities = []
    for seed in args.seeds:
        _, _, stream_seed = derive_seeds(seed)
        # The workload's stream with its due times ignored (all zero),
        # which turns the open loop into a closed one.
        _, requests = make_stream(
            stream_seed, spec["rate_qps"], args.requests / spec["rate_qps"],
            spec["instance"]["nodes"],
        )
        with ServerProcess(seed, traced=False) as server:
            started = time.perf_counter()
            outcomes = run_open_loop(
                [0.0] * len(requests), requests,
                HttpSender("127.0.0.1", server.port), spec["connections"],
                lead=0.0,
            )
            elapsed = time.perf_counter() - started
            server.stop()
        answered = sum(1 for o in outcomes if o.status == 200)
        capacities.append(answered / elapsed)
        print(f"seed {seed}: {answered} answered in {elapsed:.2f} s "
              f"-> {answered / elapsed:.1f} q/s")
    print(f"median capacity {statistics.median(capacities):.1f} q/s over "
          f"{spec['connections']} connections")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
