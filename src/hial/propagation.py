"""Feature propagation over the hypergraph.

Two transition-matrix constructions are provided:

* ``hoi`` weights node pairs by the total size of their shared interaction
  groups (the sum over shared hyperedges of the edge size minus one),
  symmetrically degree-normalized, zero diagonal.
* ``hgnn`` is the classical two-stage node/edge degree-normalized product,
  kept as an alternative backend.

Propagation mixes the smoothed signal with the initial features:
``X <- alpha * T X + (1 - alpha) * X0``. Because the recurrence is linear
and channel-wise, the influence of node u's initial feature on node j's
k-step feature is a scalar ``M_k[j, u]`` obeying the same recurrence with
the identity as input. Its columns are built once, in sparse batches,
normalized by the row sums ``s_j = sum_l M_k[j, l]`` and kept as one sparse
n x n matrix ``M_k[j, u] / s_j`` next to the row-sum vector; no dense n x n
matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .hypergraph import Hypergraph

__all__ = [
    "TransitionMatrix",
    "PropagationState",
    "InfluenceColumns",
    "build_hoi_transition",
    "build_hgnn_transition",
    "build_transition",
    "propagate",
    "influence_columns",
    "row_sum_vector",
]

HOI = "hoi"
HGNN = "hgnn"


@dataclass(frozen=True)
class TransitionMatrix:
    """Symmetric non-negative n x n transition matrix plus its provenance."""

    matrix: sp.csr_matrix
    backend: str

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PropagationState:
    """Initial and k-step propagated features."""

    initial_features: np.ndarray
    propagated_features: np.ndarray
    k: int
    alpha: float


@dataclass(frozen=True)
class InfluenceColumns:
    """The row-normalized influence matrix, stored by column.

    ``columns[j, u]`` is ``M_k[j, u] / row_sums[j]``, the normalized
    influence of node ``u`` on node ``j``, and ``row_sums[j]`` is the row
    normalizer ``sum_l M_k[j, l]``; ``columns * row_sums[:, None]`` gives
    back ``M_k``.
    """

    columns: sp.csc_matrix          # n x n, entries in (0, 1]
    row_sums: np.ndarray            # float64, length n


def _check_alpha_k(alpha: float, k: int) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    if k < 0:
        raise ConfigError(f"step count must be non-negative, got {k}")


def build_hoi_transition(g: Hypergraph) -> TransitionMatrix:
    """Interaction-aware transition: pair weight = sum over shared
    hyperedges of (edge size - 1), zero diagonal, then D^-1/2 L D^-1/2
    with D the diagonal of row sums."""
    h = g.incidence
    scale = sp.diags((g.edge_degree - 1).astype(np.float64))
    raw = (h @ scale @ h.T).tocsr()
    raw.setdiag(0)
    raw.eliminate_zeros()
    return TransitionMatrix(_symmetric_normalize(raw), HOI)


def build_hgnn_transition(g: Hypergraph,
                          edge_weights: np.ndarray | None = None) -> TransitionMatrix:
    """Degree-normalized two-stage transition
    ``Dv^-1/2 H W De^-1 H^T Dv^-1/2`` (zero rows for isolated nodes)."""
    w = g.edge_weights if edge_weights is None else np.asarray(edge_weights, float)
    if w.shape != (g.num_edges,):
        raise DataError(f"expected {g.num_edges} edge weights, got {w.shape}")
    if np.any(w < 0):
        raise DataError("edge weights must be non-negative")
    h = g.incidence
    dv = _inv_sqrt(g.node_degree.astype(np.float64))
    de = g.edge_degree.astype(np.float64)
    de_inv = np.divide(1.0, de, out=np.zeros_like(de), where=de > 0)
    t = (sp.diags(dv) @ h @ sp.diags(w * de_inv) @ h.T @ sp.diags(dv)).tocsr()
    t.eliminate_zeros()
    return TransitionMatrix(t, HGNN)


def build_transition(g: Hypergraph, backend: str = HOI) -> TransitionMatrix:
    if backend == HOI:
        return build_hoi_transition(g)
    if backend == HGNN:
        return build_hgnn_transition(g)
    raise ConfigError(f"unknown propagation backend {backend!r}")


def _inv_sqrt(d: np.ndarray) -> np.ndarray:
    out = np.zeros_like(d)
    np.divide(1.0, np.sqrt(d, out=np.zeros_like(d), where=d > 0),
              out=out, where=d > 0)
    return out


def _symmetric_normalize(l: sp.csr_matrix) -> sp.csr_matrix:
    rowsum = np.asarray(l.sum(axis=1)).ravel()
    s = _inv_sqrt(rowsum)
    out = (sp.diags(s) @ l @ sp.diags(s)).tocsr()
    out.eliminate_zeros()
    return out


def propagate(t: TransitionMatrix, x0: np.ndarray, k: int,
              alpha: float) -> PropagationState:
    """Apply ``X <- alpha T X + (1 - alpha) X0`` for ``k`` steps."""
    _check_alpha_k(alpha, k)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.shape[0] != t.num_nodes:
        raise DataError(
            f"feature matrix has {x0.shape[0]} rows, expected {t.num_nodes}")
    x = x0
    for _ in range(k):
        x = alpha * (t.matrix @ x) + (1.0 - alpha) * x0
    return PropagationState(x0, np.ascontiguousarray(x), k, alpha)


def row_sum_vector(t: TransitionMatrix, k: int, alpha: float) -> np.ndarray:
    """Row sums of M_k via the same recurrence applied to the ones vector."""
    _check_alpha_k(alpha, k)
    ones = np.ones(t.num_nodes, dtype=np.float64)
    s = ones.copy()
    for _ in range(k):
        s = alpha * (t.matrix @ s) + (1.0 - alpha) * ones
    return s


def _basis_block(n: int, ids: np.ndarray) -> sp.csc_matrix:
    data = np.ones(ids.size, dtype=np.float64)
    indptr = np.arange(ids.size + 1)
    return sp.csc_matrix((data, ids.astype(np.int32), indptr), shape=(n, ids.size))


def _column_block(t: TransitionMatrix, ids: np.ndarray, k: int, alpha: float,
                  row_sums: np.ndarray) -> sp.csc_matrix:
    e = _basis_block(t.num_nodes, ids)
    v = e
    for _ in range(k):
        v = alpha * (t.matrix @ v) + (1.0 - alpha) * e
    v = v.tocsc()
    v.eliminate_zeros()
    v.sort_indices()
    # a row sum is strictly positive wherever the row has a nonzero entry
    v.data /= row_sums[v.indices]
    return v


def influence_columns(t: TransitionMatrix, k: int, alpha: float,
                      batch_size: int = 4096) -> InfluenceColumns:
    """Every column of the row-normalized influence matrix, plus its row
    sums.

    Columns are computed in sparse batches (k sparse products per batch)
    and each batch is divided by the row sums before the batches are
    stacked; no dense n x n matrix is formed.
    """
    _check_alpha_k(alpha, k)
    if t.num_nodes == 0:
        raise DataError("hypergraph has no nodes")
    row_sums = row_sum_vector(t, k, alpha)
    ids = np.arange(t.num_nodes, dtype=np.int64)
    blocks = [_column_block(t, ids[i:i + batch_size], k, alpha, row_sums)
              for i in range(0, ids.size, batch_size)]
    cols = blocks[0] if len(blocks) == 1 else sp.hstack(blocks, format="csc")
    return InfluenceColumns(cols, row_sums)
