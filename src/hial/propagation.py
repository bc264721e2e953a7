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
``M_k[j, u] / s_j`` over every row ``j`` and the columns ``u`` asked for,
next to the row sums; no dense matrix is ever formed.
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
    """Columns of the row-normalized influence matrix, stored by row:
    ``columns[j, i]`` is ``M_k[j, u] / row_sums[j]`` for the ``i``-th node
    ``u`` asked for (``u = i`` when all n are), and ``row_sums[j]`` is
    ``sum_l M_k[j, l]`` over every column."""

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
    """The row-normalized influence matrix and its row sums; with
    ``columns`` (node ids, ascending), only those columns: :func:`_steps`'
    columns, divided by the row sums in place, so the peak holds ``T′``,
    ``M_{k-1}`` and ``M_k`` over them. Each entry has the bits of the
    summed recurrence, though a row may list its entries in another
    order."""
    _check_alpha_k(alpha, k)
    n = t.num_nodes
    if n == 0:
        raise DataError("hypergraph has no nodes")
    row_sums = _recurrence(t, np.ones(n), k, alpha)
    mat = _steps(t, k, alpha,
                 np.arange(n) if columns is None else np.asarray(columns))
    mat.eliminate_zeros()
    # a row sum is strictly positive wherever the row has a nonzero entry
    for r0, r1 in _row_blocks(mat.indptr, BLOCK_ENTRIES):
        lo, hi = mat.indptr[r0], mat.indptr[r1]
        mat.data[lo:hi] /= np.repeat(row_sums[r0:r1],
                                     np.diff(mat.indptr[r0:r1 + 1]))
    return InfluenceColumns(mat, row_sums)


def _steps(t: TransitionMatrix, k: int, alpha: float,
           at: np.ndarray) -> sp.csr_matrix:
    """``M_k[:, at]`` before the division: ``M <- alpha T M + (1 - alpha)
    I`` from ``I[:, at]``, first as one sparse sum (over ``T`` itself when
    ``at`` holds every node), then as products with ``T′`` (``T`` with a
    stored 1.0 on the diagonal of each empty row, every other row in its
    order) shifted by :func:`_shift_diagonal`. A product sums each entry
    over ``T′``'s row in its stored order, so its bits do not depend on
    ``at``."""
    n = t.num_nodes
    mat = sp.csr_matrix((np.ones(at.size), np.arange(at.size),
                         np.searchsorted(at, np.arange(n + 1))),
                        shape=(n, at.size))  # I[:, at]
    if k > 0:  # a sum, not setdiag, which would insert all of hoi's diagonal
        mat = alpha * (t.matrix if at.size == n else t.matrix[:, at]) \
            + (1.0 - alpha) * mat
    if k > 1:  # T′, whose row copies the right factor's where T's is empty
        empty = np.diff(t.matrix.indptr) == 0
        rows = np.flatnonzero(empty)
        tp = _insert(t.matrix, rows, rows, 1.0)
        for _ in range(k - 1):
            mat = _shift_diagonal(tp @ mat, alpha, empty, at)
    return mat


def _self_influence(t: TransitionMatrix, k: int, alpha: float) -> np.ndarray:
    """The diagonal of ``M_k``, bit for bit :func:`_steps`'s, with no
    other entry of ``M_k`` formed: ``T``'s entries ``(j, l)`` times
    ``M_{k-1}[l, j]``, summed in stored order as the product with ``T′``
    sums them, then shifted as :func:`_shift_diagonal` shifts. Each block
    of ``M_{k-1}``'s rows is searched, by key ``l * n + j``, among the
    pairs ``(l, j)`` of ``T``'s columns ``l`` in that block."""
    n = t.num_nodes
    if k == 0:
        return np.ones(n)
    m = _steps(t, k - 1, alpha, np.arange(n))
    tm = t.matrix  # an empty row sums no term: 1 - alpha, as ``T′ M`` gets
    by_col = sp.csr_matrix((np.arange(tm.nnz), tm.indices, tm.indptr),
                           shape=tm.shape).tocsc()  # positions, rows sorted
    keys = np.repeat(np.arange(n, dtype=np.int64) * n,
                     np.diff(by_col.indptr)) + by_col.indices
    found = np.zeros(tm.nnz)
    for r0, r1 in _row_blocks(m.indptr, BLOCK_ENTRIES):
        (lo, hi), (a, b) = m.indptr[[r0, r1]], by_col.indptr[[r0, r1]]
        if a == b:
            continue
        got = np.repeat(np.arange(r0, r1, dtype=np.int64) * n,
                        np.diff(m.indptr[r0:r1 + 1])) + m.indices[lo:hi]
        at = np.searchsorted(keys[a:b], got)
        hit = keys[a:b].take(at, mode="clip") == got
        found[by_col.data[a + at[hit]]] = m.data[lo:hi][hit]
    rows = np.repeat(np.arange(n), np.diff(tm.indptr))
    return np.bincount(rows, tm.data * found, minlength=n) * alpha \
        + (1.0 - alpha)


def _activated_rows(t: TransitionMatrix, k: int, alpha: float, theta: float,
                    row_sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which of ``rows`` (ascending) hold an entry of the row-normalized
    ``M_k`` above ``theta`` off the diagonal, with the bits of
    :func:`influence_columns`: the rows of ``alpha T M_{k-1}``, multiplied
    out in blocks of about ``BLOCK_ENTRIES`` products, so that beside
    ``M_{k-1}`` only one block of ``M_k`` is held."""
    hit = np.zeros(rows.size, dtype=bool)
    if k == 0 or rows.size == 0:
        return hit
    m = _steps(t, k - 1, alpha, np.arange(t.num_nodes))
    tm = t.matrix[rows]  # an empty row of ``T`` has only its diagonal
    work = np.concatenate(([0], np.cumsum(np.diff(m.indptr)[tm.indices])))
    for r0, r1 in _row_blocks(work[tm.indptr], BLOCK_ENTRIES):
        p = tm[r0:r1] @ m
        at = np.repeat(np.arange(r0, r1), np.diff(p.indptr))
        over = p.data * alpha / row_sums[rows[at]] > theta
        hit[at[over & (p.indices != rows[at])]] = True
    return hit


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


def _shift_diagonal(p: sp.csr_matrix, alpha: float, empty: np.ndarray,
                    at: np.ndarray) -> sp.csr_matrix:
    """``alpha p + (1 - alpha) I[:, at]`` for a step ``p = T′ M``, whose
    rows that are empty in ``T`` (``empty``) get exactly ``1 - alpha`` at
    their diagonal, the recurrence's value there. Written in ``p``'s own
    data, each ``(at[i], i)`` found by one comparison per entry; one that
    ``p`` does not store (an underflow, or each of hoi's at ``alpha = 0``)
    is inserted, which copies ``p``. At ``alpha = 1`` nothing is written:
    a write would store zeros on ``T``'s empty rows."""
    if alpha == 1.0:
        return p
    i = np.arange(at.size)
    want = np.full(p.shape[0], -1, dtype=p.indices.dtype)
    want[at] = i  # each row's diagonal column, if any
    pos = np.full(at.size, -1, dtype=np.int64)
    for r0, r1 in _row_blocks(p.indptr, BLOCK_ENTRIES):
        lo, hi = p.indptr[r0], p.indptr[r1]
        hit = lo + np.flatnonzero(p.indices[lo:hi] == np.repeat(
            want[r0:r1], np.diff(p.indptr[r0:r1 + 1])))
        pos[p.indices[hit]] = hit
    held = pos >= 0  # a product stores no zero
    p.data *= alpha
    diag = np.full(at.size, 1.0 - alpha)
    diag[held] += p.data[pos[held]]
    diag[empty[at]] = 1.0 - alpha
    p.data[pos[held]] = diag[held]
    return _insert(p, at[~held], i[~held], diag[~held])
