"""Immutable sparse hypergraph with the structural queries used by
propagation and the diffusion objective.

Node and hyperedge ids are dense integers in ``[0, n)`` and ``[0, m)``.
Incidence is binary: duplicate node ids inside one hyperedge are collapsed
at build time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError

__all__ = ["Hypergraph", "build"]


class Hypergraph:
    """Sparse incidence structure with degree tables and neighbor indices.

    Instances are immutable after construction; all query methods are
    read-only and safe to call concurrently.
    """

    def __init__(self, incidence: sp.csr_matrix):
        # incidence: n x m binary CSR, rows = nodes, cols = hyperedges
        self._h = incidence
        self.num_nodes = incidence.shape[0]
        self.num_edges = incidence.shape[1]
        self.node_degree = np.diff(self._h.indptr).astype(np.int64)
        self.edge_degree = np.bincount(incidence.indices,
                                       minlength=self.num_edges)
        self._adj = None

    # -- incidence access ------------------------------------------------

    @property
    def incidence(self) -> sp.csr_matrix:
        """Binary n x m incidence matrix (CSR)."""
        return self._h

    # -- structural queries ----------------------------------------------

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairwise co-membership structure as CSR ``(indptr, indices, counts)``.

        ``counts[p]`` is the number of hyperedges shared by node ``i`` and
        its neighbor ``indices[p]``, as float64 (exact: they are small
        integers); the diagonal is removed and each row is sorted. The
        arrays of one CSR, built once and cached.
        """
        if self._adj is None:
            a = (self._h @ self._h.T).tocsr()
            a.setdiag(0)
            a.eliminate_zeros()
            a.sort_indices()
            self._adj = (a.indptr, a.indices, a.data)
        return self._adj


def build(edge_node_lists: Sequence[Sequence[int]],
          num_nodes: int | None = None) -> Hypergraph:
    """Build a hypergraph from per-hyperedge node-id lists.

    Duplicate ids within one hyperedge are deduplicated. An edge that is
    empty (after dedup) is rejected, as is any out-of-range node id.
    ``num_nodes`` defaults to ``max id + 1``.
    """
    m = len(edge_node_lists)
    dedup = []
    max_id = -1
    for e, members in enumerate(edge_node_lists):
        uniq = sorted(set(int(v) for v in members))
        if not uniq:
            raise DataError(f"hyperedge {e} is empty")
        if uniq[0] < 0:
            raise DataError(f"hyperedge {e} contains negative node id {uniq[0]}")
        max_id = max(max_id, uniq[-1])
        dedup.append(uniq)
    n = (max_id + 1) if num_nodes is None else int(num_nodes)
    if max_id >= n:
        raise DataError(f"node id {max_id} out of range for declared count {n}")

    rows = np.fromiter((v for uniq in dedup for v in uniq), dtype=np.int64,
                       count=sum(len(u) for u in dedup))
    cols = np.repeat(np.arange(m, dtype=np.int64),
                     [len(u) for u in dedup]) if m else np.empty(0, np.int64)
    data = np.ones(rows.size, dtype=np.float64)
    h = sp.csr_matrix((data, (rows, cols)), shape=(n, m))
    h.sort_indices()
    return Hypergraph(h)
