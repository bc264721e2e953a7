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
with the ones vector as input. The features and the ones vector run that
recurrence as dense arrays. ``M_k`` is kept as one sparse CSR matrix
``M_k[j, u] / s_j`` over every row ``j`` and the columns ``u`` asked for
(all n, or a candidate pool's), next to the row-sum vector, and no dense
matrix is ever formed. Its first step is the sparse sum ``alpha T +
(1 - alpha) I``, and each later step is one sparse product whose own
entries are scaled and shifted on the diagonal in place; the last step is
then divided by the row sums in place. So beside ``T``, at most three
matrices are alive at once: ``T′`` (``T`` copied only to give its empty
rows a diagonal entry), the previous step and the product being built.
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
]

HOI = "hoi"
HGNN = "hgnn"
# a pass over a matrix's entries takes rows of about this many at a time
BLOCK_ENTRIES = 1 << 16


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
    """The row-normalized influence matrix, or some of its columns, stored
    by row.

    ``columns[j, i]`` is ``M_k[j, u] / row_sums[j]`` for the ``i``-th node
    ``u`` of the columns asked for (``u = i`` when all n are), the
    normalized influence of node ``u`` on node ``j``, and ``row_sums[j]``
    is the row normalizer ``sum_l M_k[j, l]`` over every column; ``columns
    * row_sums[:, None]`` gives back those columns of ``M_k``.
    """

    columns: sp.csr_matrix          # n x (columns asked for), in (0, 1]
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


def _recurrence(t: TransitionMatrix, x0: np.ndarray, k: int, alpha: float):
    """``x`` after ``k`` steps of ``x <- alpha T x + (1 - alpha) x0`` for a
    dense ``x0``. Scaling the product in place gives the same bits as
    ``alpha * (T @ x)`` and holds one copy less."""
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


def influence_columns(t: TransitionMatrix, k: int, alpha: float,
                      columns: np.ndarray | None = None) -> InfluenceColumns:
    """The row-normalized influence matrix, plus its row sums; with
    ``columns`` (node ids, ascending), only those columns of it.

    ``M_k`` is the recurrence ``M <- alpha T M + (1 - alpha) I`` run from
    the identity, or from ``I[:, columns]`` with the diagonal term at
    ``(columns[i], i)``. Its first step is that formula as one sparse sum,
    and each later step one product with ``T′``, which is ``T`` with a
    stored 1.0 on the diagonal of each empty row. A product's ``alpha``,
    its ``(1 - alpha)`` diagonal term and, at the end, the division by the
    row sums are applied to the step's own entries in place, so the last
    product is the only allocation of its size: the peak holds ``T′``,
    ``M_{k-1}`` and ``M_k``. Each entry has the bits of the summed
    recurrence, whatever columns are kept, though a row may list its
    entries in another order: a product sums each entry over ``T′``'s row
    in its stored order, and nothing else.
    """
    _check_alpha_k(alpha, k)
    n = t.num_nodes
    if n == 0:
        raise DataError("hypergraph has no nodes")
    row_sums = _recurrence(t, np.ones(n), k, alpha)
    at = np.arange(n) if columns is None else np.asarray(columns)
    mat = sp.csr_matrix((np.ones(at.size), np.arange(at.size),
                         np.searchsorted(at, np.arange(n + 1))),
                        shape=(n, at.size))  # I[:, at]
    if k > 0:  # a sum, not setdiag, which would insert all of hoi's diagonal
        mat = alpha * (t.matrix if columns is None else t.matrix[:, at]) \
            + (1.0 - alpha) * mat
    if k > 1:
        tp, empty = _with_empty_diagonal(t.matrix)
        for _ in range(k - 1):
            mat = _shift_diagonal(tp @ mat, alpha, empty, at)
    mat.eliminate_zeros()
    # a row sum is strictly positive wherever the row has a nonzero entry
    for r0, r1 in _row_blocks(mat.indptr, BLOCK_ENTRIES):
        lo, hi = mat.indptr[r0], mat.indptr[r1]
        mat.data[lo:hi] /= np.repeat(row_sums[r0:r1],
                                     np.diff(mat.indptr[r0:r1 + 1]))
    return InfluenceColumns(mat, row_sums)


def _self_influence(t: TransitionMatrix, k: int, alpha: float) -> np.ndarray:
    """The diagonal of ``M_k`` for ``k <= 2``, bit for bit the entries of
    :func:`influence_columns` before the division: ``M_1``'s own, and at
    ``k = 2`` one fold of ``T′``'s entries in stored order against
    ``M_1``'s transposed ones, each row's terms summed as the product sums
    them, then shifted as :func:`_shift_diagonal` shifts."""
    n = t.num_nodes
    m1 = alpha * t.matrix + (1.0 - alpha) * sp.identity(n, format="csr")
    if k < 2:
        return m1.diagonal() if k else np.ones(n)
    m1.sort_indices()  # each lookup a binary search
    tp, empty = _with_empty_diagonal(t.matrix)
    rows = np.repeat(np.arange(n), np.diff(tp.indptr))
    terms = tp.data * np.asarray(m1[tp.indices, rows]).ravel()
    diag = np.bincount(rows, terms, minlength=n) * alpha + (1.0 - alpha)
    diag[empty] = 1.0 - alpha
    return diag


def _row_blocks(indptr: np.ndarray, budget: int):
    """Row ranges ``[r0, r1)`` of about ``budget`` entries each; a longer
    row is a block alone."""
    n, r0 = indptr.size - 1, 0
    while r0 < n:
        r1 = int(np.searchsorted(indptr, int(indptr[r0]) + budget,
                                 side="right")) - 1
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


def _insert(m: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray,
            vals) -> sp.csr_matrix:
    """``m`` with an entry ``vals`` at each ``(rows[i], cols[i])``, first in
    its row (``rows`` ascending, each once, none stored there yet); every
    other entry keeps its place in its row."""
    if rows.size == 0:
        return m
    at = m.indptr[rows]
    indptr = m.indptr + np.searchsorted(rows, np.arange(m.shape[0] + 1))
    return sp.csr_matrix((np.insert(m.data, at, vals),
                          np.insert(m.indices, at, cols.astype(m.indices.dtype)),
                          indptr.astype(m.indptr.dtype)), shape=m.shape)


def _with_empty_diagonal(m: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """``T′``: ``m`` with a stored 1.0 on the diagonal of each empty row,
    so that a product's row there copies the right factor's row, and a
    mask of those rows. Every other row keeps its entries in their order,
    which fixes the order of each product sum and so its bits."""
    empty = np.diff(m.indptr) == 0
    rows = np.flatnonzero(empty)
    return _insert(m, rows, rows, 1.0), empty


def _shift_diagonal(p: sp.csr_matrix, alpha: float, empty: np.ndarray,
                    at: np.ndarray) -> sp.csr_matrix:
    """``alpha p + (1 - alpha) I[:, at]`` for a step ``p = T′ M``, whose
    rows that are empty in ``T`` (``empty``) copy ``M``'s and get exactly
    ``1 - alpha`` at their diagonal, the recurrence's value there. Scaled
    and shifted in ``p``'s own data; an entry ``(at[i], i)`` that ``p``
    does not store (a sum that underflowed to zero, or each of hoi's at
    ``alpha = 0``) is inserted, which copies ``p``. Over every column,
    scipy's own diagonal does that with the fewest temporaries. At ``alpha
    = 1`` there is no diagonal term, so nothing is written: the rows of
    ``M_1`` on ``T``'s empty rows are empty, and a write would store zeros
    there."""
    if alpha == 1.0:
        return p
    if at.size == p.shape[0]:
        p.data *= alpha
        diag = p.diagonal()
        diag += 1.0 - alpha
        diag[empty] = 1.0 - alpha
        p.setdiag(diag)
        return p
    i = np.arange(at.size)
    diag = np.asarray(p[at, i]).ravel()
    held = diag != 0.0  # a product stores no zero; alpha p might
    p.data *= alpha
    diag = diag * alpha + (1.0 - alpha)
    diag[empty[at]] = 1.0 - alpha
    p[at[held], i[held]] = diag[held]
    return _insert(p, at[~held], i[~held], diag[~held])
