"""Fig. 9: scalability of the approximate greedy on G1..G10.

Paper shape: runtime grows linearly with both the number of nodes and the
number of edges (the family scales both together).
"""

import numpy as np

from repro.experiments.figures import fig9


def test_fig9(benchmark, config, report):
    table = benchmark.pedantic(lambda: fig9(config), rounds=1, iterations=1)
    report(table, "fig9.txt")
    seconds = table.columns.index("seconds")
    nodes = table.columns.index("nodes")
    for algorithm in ("ApproxF1", "ApproxF2"):
        rows = sorted(
            table.filtered(algorithm=algorithm), key=lambda row: row[nodes]
        )
        sizes = np.array([row[nodes] for row in rows], dtype=float)
        times = np.array([row[seconds] for row in rows], dtype=float)
        # Strong positive correlation between size and time = linear-ish
        # scaling (the paper's take-away).
        corr = np.corrcoef(sizes, times)[0, 1]
        assert corr > 0.9, f"{algorithm}: size/time correlation {corr:.3f}"
        # And an order of magnitude more graph should not cost two orders
        # of magnitude more time (rules out super-linear blowups).
        assert times[-1] <= 30 * max(times[0], 1e-3)
