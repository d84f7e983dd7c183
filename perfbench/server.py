"""Server process of the ``served-mix`` workload.

Started by ``run.py`` for the ``served-mix`` workload::

    python3 perfbench/server.py --seed N [--trace 1]

Builds the workload's graph and index from the seed, serves them with
``start_http_server(DominationService(...))`` at the library defaults, and
prints one JSON line with the bound port.  It then reads commands from
standard input, answering each with one JSON line:

* ``phase`` -- the spans folded since the last ``phase`` (traced runs);
* ``stop [TRACE_PATH]`` -- stop the server, write the kept spans as a
  Chrome trace to ``TRACE_PATH`` (traced runs), report the peak RSS of the
  serving phase, and exit.  End of input means ``stop``.

With ``--trace 1`` the benchmark's layer wrappers are installed before the
set-up, inside this process, so the set-up and every request are traced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SPEC,
    derive_seeds,
    peak_rss_mb,
    require_program,
    reset_peak_rss,
    telemetry_off,
)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    from layers import LayerTrace

    from repro.graphs import generators
    from repro.serve import DominationService, IndexSnapshot, start_http_server
    from repro.walks.index import FlatWalkIndex

    telemetry_off()
    trace = LayerTrace() if args.trace else None
    if trace is not None:
        trace.install()
    inst = SPEC["served-mix"]["instance"]
    graph_seed, walk_seed, _ = derive_seeds(args.seed)
    graph = generators.power_law_graph(
        inst["nodes"], inst["edges"], seed=graph_seed
    )
    index = FlatWalkIndex.build(
        graph, inst["length"], inst["replicates"], seed=walk_seed
    )
    service = DominationService(IndexSnapshot.capture(graph, index))
    handle = start_http_server(service)
    reset_peak_rss()
    _emit({"port": handle.server.port, "index_bytes": index.storage_nbytes()})
    command = ["stop"]
    for line in sys.stdin:
        command = line.split() or ["stop"]
        if command[0] == "phase":
            _emit(trace.phase() if trace is not None else {})
            continue
        break
    else:
        command = ["stop"]
    handle.stop()
    service.close()
    telemetry_off()
    if trace is not None and len(command) > 1:
        trace.write_chrome_trace(command[1])
    _emit({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
