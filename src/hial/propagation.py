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
the identity as input, and the row sums ``s_j = sum_l M_k[j, l]`` obey it
with the ones vector as input. One helper runs that recurrence for all
three: the features, the ones vector and the sparse identity. ``M_k`` is
divided by its row sums in place and kept as one sparse n x n CSR matrix
``M_k[j, u] / s_j`` next to the row-sum vector; no dense n x n matrix is
ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, check_integer
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
    """Symmetric non-negative n x n transition matrix."""

    matrix: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PropagationState:
    """Initial and k-step propagated features."""

    initial_features: np.ndarray
    propagated_features: np.ndarray


@dataclass(frozen=True)
class InfluenceColumns:
    """The row-normalized influence matrix, stored by row.

    ``columns[j, u]`` is ``M_k[j, u] / row_sums[j]``, the normalized
    influence of node ``u`` on node ``j`` (column ``u`` holds node ``u``'s
    influence on every node), and ``row_sums[j]`` is the row normalizer
    ``sum_l M_k[j, l]``; ``columns * row_sums[:, None]`` gives back
    ``M_k``.
    """

    columns: sp.csr_matrix          # n x n, entries in (0, 1]
    row_sums: np.ndarray            # float64, length n


def _check_alpha_k(alpha: float, k: int) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    check_integer("k", k)
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
    return TransitionMatrix(_symmetric_normalize(raw))


def build_hgnn_transition(g: Hypergraph) -> TransitionMatrix:
    """Degree-normalized two-stage transition
    ``Dv^-1/2 H De^-1 H^T Dv^-1/2`` (zero rows for isolated nodes)."""
    h = g.incidence
    dv = _inv_sqrt(g.node_degree.astype(np.float64))
    de = g.edge_degree.astype(np.float64)
    de_inv = np.divide(1.0, de, out=np.zeros_like(de), where=de > 0)
    t = (sp.diags(dv) @ h @ sp.diags(de_inv) @ h.T @ sp.diags(dv)).tocsr()
    t.eliminate_zeros()
    return TransitionMatrix(t)


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


def _recurrence(t: TransitionMatrix, x0, k: int, alpha: float):
    """``x`` after ``k`` steps of ``x <- alpha T x + (1 - alpha) x0``, for a
    dense array or a sparse matrix ``x0``. Scaling the product in place
    gives the same bits as ``alpha * (T @ x)`` and holds one copy less."""
    x = x0
    for _ in range(k):
        x = t.matrix @ x
        x *= alpha
        x = x + (1.0 - alpha) * x0
    return x


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
    x = _recurrence(t, x0, k, alpha)
    return PropagationState(x0, np.ascontiguousarray(x))


def row_sum_vector(t: TransitionMatrix, k: int, alpha: float) -> np.ndarray:
    """Row sums of M_k via the same recurrence applied to the ones vector."""
    _check_alpha_k(alpha, k)
    return _recurrence(t, np.ones(t.num_nodes, dtype=np.float64), k, alpha)


def influence_columns(t: TransitionMatrix, k: int,
                      alpha: float) -> InfluenceColumns:
    """The row-normalized influence matrix, plus its row sums.

    ``M_k`` is the recurrence run once on the sparse identity (k sparse
    products), kept in the CSR the products return and divided by the row
    sums in place, each row's run of entries by its own sum; no dense
    n x n matrix and no copy of the matrix is formed.
    """
    _check_alpha_k(alpha, k)
    if t.num_nodes == 0:
        raise DataError("hypergraph has no nodes")
    row_sums = row_sum_vector(t, k, alpha)
    mat = _recurrence(t, sp.identity(t.num_nodes, format="csr"), k, alpha)
    mat.eliminate_zeros()
    # a row sum is strictly positive wherever the row has a nonzero entry
    mat.data /= np.repeat(row_sums, np.diff(mat.indptr))
    return InfluenceColumns(mat, row_sums)
