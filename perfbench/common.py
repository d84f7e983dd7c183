"""Helpers shared by ``run.py`` and the server process it starts."""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload names and reasons, metric names, units and directions.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Workload definitions: instances, rates and the layer map.
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def require_program() -> None:
    """Exit 2 (no result printed) when the program's sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's sources are missing ({SRC / 'repro'}); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """``(graph, walks, stream)`` seeds of a workload seed.

    Every workload draws its graph and walks from the same two seeds, so
    ``cold-select`` and ``warm-select`` solve the same instance.
    """
    import numpy as np

    state = np.random.SeedSequence(int(seed)).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter; False when unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak RSS in MiB since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            match = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    """nproc, CPU model, Python and numpy versions of this machine."""
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def telemetry_off() -> None:
    """Fail loudly if the program's own telemetry switch is on."""
    from repro import obs

    if obs.enabled():
        raise RuntimeError("repro.obs telemetry must stay off in benchmark runs")
