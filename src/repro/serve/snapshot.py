"""Immutable index snapshots — the unit the serving layer publishes.

An :class:`IndexSnapshot` binds together everything a reader needs to
answer a query consistently: the graph, the walk index built on it, the
epoch (journal position for indexes maintained by
:class:`~repro.dynamic.index.DynamicWalkIndex`), and the graph's CSR
fingerprint.  Snapshots are frozen and their members are never mutated
after publication — the incremental maintenance path allocates fresh
entry arrays for every patch — so a reader holding one can keep
computing on it while newer epochs are published, and the
``(fingerprint, epoch)`` pair is a sound cache key for any answer
derived from it (DESIGN.md §10.1).  A snapshot loaded from an archive
(:meth:`IndexSnapshot.load`) serves straight off the archive's read-only
memory maps; nothing is copied into RAM up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.walks.index import FlatWalkIndex
from repro.walks.persistence import graph_fingerprint, load_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.dynamic.index import DynamicWalkIndex

__all__ = ["IndexSnapshot"]


@dataclass(frozen=True)
class IndexSnapshot:
    """One immutable ``(graph, index, epoch, fingerprint)`` quadruple."""

    graph: Graph
    index: FlatWalkIndex
    epoch: int
    fingerprint: int

    @classmethod
    def capture(
        cls, graph: Graph, index: FlatWalkIndex, epoch: int = 0
    ) -> "IndexSnapshot":
        """Snapshot a graph/index pair, fingerprinting the graph."""
        if index.num_nodes != graph.num_nodes:
            raise ParameterError(
                f"index was built for {index.num_nodes} nodes but the "
                f"graph has {graph.num_nodes}"
            )
        return cls(
            graph=graph,
            index=index,
            epoch=int(epoch),
            fingerprint=graph_fingerprint(graph),
        )

    @classmethod
    def of_dynamic(cls, dynamic_index: "DynamicWalkIndex") -> "IndexSnapshot":
        """Snapshot a maintained index at its current epoch.

        The returned snapshot references the index's *current* flat
        arrays; later :meth:`~repro.dynamic.index.DynamicWalkIndex.sync`
        calls replace those arrays rather than mutating them, so the
        snapshot stays valid (and stale, by epoch) after further churn.
        """
        return cls.capture(
            dynamic_index.graph, dynamic_index.flat, dynamic_index.epoch
        )

    @classmethod
    def load(cls, path: "str | Path", graph: Graph) -> "IndexSnapshot":
        """Load a persisted index as epoch-0 snapshot for ``graph``.

        Goes through :func:`repro.walks.persistence.load_index` with the
        graph attached, so a stale archive — node count, edge count, or
        CSR fingerprint mismatch — raises
        :class:`~repro.errors.ParameterError` instead of serving answers
        for a topology that no longer exists.
        """
        return cls.capture(graph, load_index(path, graph=graph))

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def length(self) -> int:
        return self.index.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexSnapshot(n={self.num_nodes}, L={self.length}, "
            f"R={self.index.num_replicates}, epoch={self.epoch}, "
            f"fingerprint={self.fingerprint:#x})"
        )
