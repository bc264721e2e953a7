"""Dual influence objective: feature-space coverage and one-hop diffusion.

The coverage side activates every node whose normalized influence from the
seed set strictly exceeds a threshold (the activation sets, one boolean
CSR), then counts the union of feature-space balls (:class:`FeatureBalls`,
from blocked distance products or, when sparse, a KD-tree) around the
activated nodes. The diffusion side scores the expected number of one-hop
neighbors activated through shared hyperedges. Both are monotone and
submodular, so the greedy selector keeps an incrementally updated
:class:`CoverageState` and scores whole batches of candidates without
mutation: a MoI gain reads one union row, which the state composes once,
and a diffusion gain reads one entry of a sparse mat-vec, recomputed once
per seed in one pass over the adjacency entries (O(nnz)). Seeding a node
adds those scored gains and marks its one row covered.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .hypergraph import Hypergraph
from .propagation import InfluenceColumns, PropagationState, _row_blocks

__all__ = [
    "FeatureBalls",
    "CoverageState",
    "build_activation_sets",
    "build_feature_balls",
    "edv",
    "marginal_gain",
    "unified_objective",
]


def build_activation_sets(ic: InfluenceColumns, theta: float) -> sp.csr_matrix:
    """Boolean CSR whose row ``u`` is ``A_u``, the sorted ids ``j`` whose
    normalized influence from ``u`` strictly exceeds ``theta``: the row ids
    of column ``u``'s entries of ``ic.columns`` above ``theta``. One mask
    over the entries keeps them in a boolean CSR, with no division and no
    per-entry row ids, whose transpose, turned into CSR, lists each row's
    ids sorted."""
    if not theta >= 0:  # rejects nan
        raise ConfigError(f"activation threshold must be >= 0, got {theta}")
    cols = ic.columns
    pos = np.flatnonzero(cols.data > theta)
    indptr = np.searchsorted(pos, cols.indptr)
    kept = sp.csr_matrix((np.ones(pos.size, dtype=bool), cols.indices[pos],
                          indptr), shape=cols.shape)
    return kept.T.tocsr()


class FeatureBalls:
    """Radius-``r`` Euclidean neighborhoods in propagated feature space.

    Row ``u`` of the coverage form is the ball of node ``u``, the ids ``v``
    within ``r`` by :func:`pair_distances`, built straight into one of three
    forms. Only that form is kept, and it is never written: :meth:`unions`
    composes groups of its rows into a new instance of the same form,
    :meth:`cover` marks one row's ids in the caller's own covered set (from
    :meth:`empty`) and :meth:`uncovered` counts rows' ids outside it:

    * **live mask** for an infinite radius (or ``r²`` past float64): a live
      row holds every id, so only the mask of live rows is kept (every
      ball; the non-empty unions), a covered set is one boolean array, all
      set once a live row is covered, an uncovered count is ``n`` less the
      covered ids for a live row and 0 otherwise, and a union's mask is one
      boolean product of the groups with the mask;
    * **bitset** when its ``n·⌈n/64⌉·8`` bytes are no more than the CSR
      build's peak, about 15 bytes per id from a pair, with the ids
      estimated from the share of pairs within ``radius`` (all, or
      ``SAMPLE_PAIRS`` drawn): rows of ``⌈n/64⌉`` uint64 words from blocked
      distance products rechecked near ``r``, a covered set one word array,
      an uncovered count the popcount of a row and ``~covered``, a union
      the OR of its rows (:func:`_group_or`);
    * **CSR** otherwise: a boolean CSR of rechecked KD-tree pairs, a covered
      set one boolean array, an uncovered count a row times ``~covered``,
      and a union a row of one boolean product (its sum lists each id once).

    The bitset is filled and gathered in blocks of about ``BLOCK_BYTES``.
    """

    BLOCK_BYTES = 1 << 20
    SAMPLE_PAIRS = 4096

    def __init__(self, points: np.ndarray, radius: float):
        if not radius >= 0:
            raise ConfigError(f"ball radius must be >= 0, got {radius}")
        points = np.ascontiguousarray(points, dtype=np.float64)
        self.radius = float(radius)
        n = self.num_nodes = points.shape[0]
        words = -(-n // 64)
        self._bits = self._csr = self._live = None
        self._r2 = self.radius * self.radius  # ** would raise on overflow
        sq = squared_norms(points) if math.isfinite(self.radius) else None
        if not math.isfinite(self._r2):  # every id, whatever the distance
            self._live = np.ones(n, dtype=bool)
        # the KD-tree build's peak: 15.1-15.5 bytes of ru_maxrss growth per
        # id from a pair (query_pairs' int64 pairs, the distances and the
        # summed CSRs), measured at n=20k and 40k, 0.5-2.8% density, four
        # Gaussian clusters in d=8, scipy 1.17; the fill's is its bitset
        elif n * words * 8 <= 15 * self._estimate_pair_ids(points):
            self._bits = self._fill(points, sq, words)
        else:
            self._csr = self._build_index(points)

    def _within(self, x: np.ndarray, u: np.ndarray, v: np.ndarray):
        """Whether each pair ``(u[i], v[i])`` is within the radius."""
        return pair_distances(x, u, v) <= self.radius

    def _estimate_pair_ids(self, points: np.ndarray) -> int:
        """The balls' ids other than their centers, from the share of pairs
        within the radius."""
        n, k = self.num_nodes, self.SAMPLE_PAIRS
        if n * (n - 1) // 2 <= k:
            u, v = np.triu_indices(n, 1)
        else:
            u, v = np.random.default_rng(0).integers([[0], [1]], n, (2, k))
            v = (u + v) % n  # never u itself
        hits = np.count_nonzero(self._within(points, u, v))
        return hits * n * (n - 1) // max(1, u.size)

    def _fill(self, x: np.ndarray, sq: np.ndarray, words: int) -> np.ndarray:
        """Bitsets from the tiles on or above the diagonal only, each 64
        rows by the columns of about ``BLOCK_BYTES`` of squared distances,
        one product of ``[x, |x|², 1]`` and ``[−2x, 1, |x|²]ᵀ`` computed
        in products of ≤ 2^18 multiply-adds, which OpenBLAS keeps on this
        thread (waking its workers per tile stalls a busy host). A tile's
        three buffers hold its distances, its bits and its band within
        ``tol`` of r², from two comparisons and an XOR. Its rows are packed
        in place, and its part right of the diagonal block lands mirrored in
        its columns' rows: 64 rows are 8 whole bytes, one ``einsum`` by the
        bit weights (a 64 x 2048 tile took 21 µs on a 2-vCPU x86 host;
        ``packbits`` along the rows or over a transposed view or copy,
        140-290 µs).

        A pair within ``tol`` of r² is decided by :meth:`_within`, and the
        norm rule agrees with the tile on every other pair, so the bitset is
        symmetric and its bits do not depend on the BLAS kernel. With ``ε``
        the float64 epsilon and ``M = max|x|²``, a tile entry errs by at
        most ``(d+2)ε`` times its terms' magnitudes, ``2|x_a||x_b| + |x_a|²
        + |x_b|² ≤ 4M``, plus ``dε·M`` for each of its two stored norms:
        ``(6d+8)ε·M``. The norm rule's Σ and square root err by at most
        ``(d+3)ε·r²`` near r². Their sum stays below ``tol``. No entry is
        NaN: every term and partial sum lies within about 4M, which
        :func:`squared_norms` keeps finite."""
        n, d = x.shape
        tol = 4 * np.finfo(np.float64).eps * (
            (4 * d + 6) * float(sq.max(initial=0.0)) + (d + 1) * self._r2)
        lhs = np.empty((n, d + 2))
        lhs[:, :d], lhs[:, d], lhs[:, d + 1] = x, sq, 1.0
        rhs = np.empty((d + 2, n))
        np.multiply(x.T, -2.0, out=rhs[:d])
        rhs[d], rhs[d + 1] = 1.0, sq
        out = np.zeros((n, 8 * words), dtype=np.uint8)
        m = 64  # rows per block
        w = max(8, self.BLOCK_BYTES // (64 * m) * 8)  # columns per tile
        c = max(1, (1 << 18) // (m * (d + 2)))  # columns per product
        lo, hi = self._r2 - tol, self._r2 + tol
        # one tile's buffers, reused: fresh ones would fault in their pages
        bufs = (np.empty(m * w), np.empty(m * w, dtype=bool),
                np.empty(m * w, dtype=bool))
        weights = 1 << np.arange(8, dtype=np.uint8)
        for a in range(0, n, m):
            for b in range(a, n, w):
                rows, cols = min(m, n - a), min(w, n - b)
                dist, hit, band = (
                    buf[:rows * cols].reshape(rows, cols) for buf in bufs)
                for s in range(0, cols, c):
                    np.matmul(lhs[a:a + m], rhs[:, b + s:b + min(s + c, cols)],
                              out=dist[:, s:s + c])
                np.less_equal(dist, hi, out=hit)
                np.less_equal(dist, lo, out=band)
                band ^= hit  # within tol of r²
                k = np.flatnonzero(band)
                hit.flat[k] = self._within(x, k // cols + a, k % cols + b)
                out[a:a + m, b // 8:(b + cols + 7) // 8] = np.packbits(
                    hit, 1, bitorder="little")
                s = max(0, a + m - b)  # first column right of the diagonal
                if s < cols:  # block, which then holds 64 rows: 8 bytes
                    out[b + s:b + cols, a // 8:a // 8 + 8] = np.einsum(
                        "ijk,j->ki", hit[:, s:].view(np.uint8).reshape(
                            8, 8, cols - s), weights)
        return out.view(np.uint64)

    def _build_index(self, points: np.ndarray) -> sp.csr_matrix:
        """Boolean CSR of every ball: both orders of each KD-tree pair that
        :meth:`_within` admits and each node's own id. A sum of canonical
        CSRs is canonical, so every row lists its ids sorted and once."""
        from scipy.spatial import cKDTree  # ~0.2 s to import; sparse only
        n, d = points.shape
        # a pair within r has Σ ≤ r²(1+2ε), which cKDTree sums to within
        # about dε·r²: the square of r(1+4(d+1)ε) lies past both
        reach = self.radius * (1 + 4 * (d + 1) * np.finfo(np.float64).eps)
        pairs = cKDTree(points).query_pairs(reach, output_type="ndarray")
        # the mask as data: pairs[mask] would copy the int64 pairs
        upper = sp.csr_matrix((self._within(points, *pairs.T), pairs.T),
                              shape=(n, n))
        del pairs  # the sums need only the CSR
        upper.eliminate_zeros()
        return upper + upper.T + sp.identity(n, dtype=bool, format="csr")

    # -- coverage ---------------------------------------------------------

    def empty(self) -> np.ndarray:
        """A covered set holding no id."""
        if self._bits is None:
            return np.zeros(self.num_nodes, dtype=bool)
        return np.zeros(self._bits.shape[1], dtype=np.uint64)

    def cover(self, covered: np.ndarray, row: int) -> None:
        """Mark the ids of row ``row`` in ``covered``."""
        if self._csr is not None:
            ptr = self._csr.indptr
            covered[self._csr.indices[ptr[row]:ptr[row + 1]]] = True
        elif self._bits is not None:
            covered |= self._bits[row]
        elif self._live[row]:
            covered[:] = True

    def uncovered(self, covered: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """int64 count of the ids of each row of ``rows`` not in
        ``covered``."""
        # scipy's row selection costs ~0.1 ms more per call than a numpy
        # gather, but is several times faster on a whole-pool batch
        if self._csr is not None:
            free = (~covered).astype(np.int32)
            return (self._csr[rows] @ free).astype(np.int64)
        if self._bits is None:  # a live row holds every id
            free = self.num_nodes - np.count_nonzero(covered)
            return self._live[rows] * np.int64(free)
        free = ~covered
        step = max(1, self.BLOCK_BYTES // self._bits[0].nbytes)  # rows
        out = np.empty(rows.size, dtype=np.int64)
        for s in range(0, rows.size, step):
            out[s:s + step] = np.bitwise_count(
                self._bits[rows[s:s + step]] & free).sum(axis=1)
        return out

    def unions(self, groups: sp.csr_matrix) -> "FeatureBalls":
        """The same coverage form, whose row ``i`` is the union of the rows
        at the ids of row ``i`` of the boolean CSR ``groups``: the boolean
        product ``groups @ balls``, whose sum lists each id once,
        :func:`_group_or` of the bitset or, for an infinite radius, the
        boolean mat-vec ``groups @ live``."""
        out = copy.copy(self)
        if self._csr is not None:
            out._csr = groups @ self._csr
        elif self._bits is not None:
            out._bits = _group_or(self._bits, groups, self.BLOCK_BYTES)
        else:
            out._live = groups @ self._live
        return out


def _group_or(table: np.ndarray, groups: sp.csr_matrix,
              block_bytes: int) -> np.ndarray:
    """Row ``i`` is the OR of the rows of ``table`` at the ids of row ``i``
    of ``groups`` (0 for none), gathered in blocks of about ``block_bytes``
    (with each int32 id's intp copy) that end at group boundaries
    (:func:`~hial.propagation._row_blocks`), one ``reduceat`` each; a group
    over the bound goes alone, in blocks."""
    indptr, ids = groups.indptr, groups.indices
    step = max(1, block_bytes // (table[0].nbytes + 8))
    out = np.zeros((indptr.size - 1, table.shape[1]), dtype=table.dtype)
    for lo, hi in _row_blocks(indptr, step):
        p, q = indptr[lo], indptr[hi]
        if hi == lo + 1:
            for s in range(p, q, step):
                out[lo] |= np.bitwise_or.reduce(
                    table.take(ids[s:min(s + step, q)], axis=0), axis=0)
        else:
            starts = indptr[lo:hi]
            some = starts < indptr[lo + 1:hi + 1]  # an empty group stays 0
            out[lo:hi][some] = np.bitwise_or.reduceat(
                table.take(ids[p:q], axis=0), starts[some] - p, axis=0)
    return out


def pair_distances(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distance of each row pair ``(x[u[i]], x[v[i]])``: the bits of
    ``np.linalg.norm(x[u] - x[v], axis=1)`` (not of a 1-D norm or an
    ``einsum``), from blocks of about ``FeatureBalls.BLOCK_BYTES``."""
    out = np.empty(u.size)
    step = max(1, FeatureBalls.BLOCK_BYTES // (16 * max(1, x.shape[1])))
    for s in range(0, u.size, step):
        diff = x[u[s:s + step]]
        diff -= x[v[s:s + step]]
        out[s:s + step] = np.linalg.norm(diff, axis=1)
    return out


def squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms; ``DataError`` unless every squared distance fits."""
    sq = np.einsum("ij,ij->i", points, points)
    if math.isfinite(4 * float(sq.max(initial=0.0))):
        return sq
    if np.isnan(sq).any():  # a sum of squares is NaN only from a NaN
        raise DataError("features hold non-finite values (nan)")
    if np.isinf(points).any():
        raise DataError("features hold non-finite values (inf), whose "
                        "squared distances overflow float64")
    raise DataError("squared feature distances overflow float64")


def build_feature_balls(ps: PropagationState, radius: float) -> FeatureBalls:
    """Ball index and coverage form over the k-step propagated features."""
    return FeatureBalls(ps.propagated_features, radius)


def _node_ids(ids, n: int) -> np.ndarray:
    """``ids`` as int64; ``DataError`` unless each is an integer in [0, n)."""
    ids = np.asarray(ids)  # object past int64; float64 for an empty list
    if ids.size and ids.dtype.kind not in "iu":
        raise DataError(f"node ids must be integers, got {ids.flat[0]}")
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise DataError(f"node id {ids[bad][0]} out of range")
    return ids.astype(np.int64, copy=False)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"diffusion probability beta must lie in (0, 1), got {beta}")


class CoverageState:
    """Incremental state of the seed set's coverage and diffusion values.

    MoI is plain set coverage: seeding ``c`` covers ``U_c``, the union of
    the balls of the nodes in ``A_c``. Neither ``A`` nor the balls change
    during a selection, so a state composes each ``U_c`` once, as row ``c``
    of its own ``sets`` (:meth:`FeatureBalls.unions`), beside its own
    covered set ``covered``. A MoI gain counts one row's uncovered ids;
    ``sets`` is never written. The EDV gain of ``c`` is ``evasion[c] + β /
    max(d_c, 1) · reach[c]``, where ``reach`` is the adjacency-count CSR
    times the evasion probabilities (0 at the seeds), each row summed in
    stored order: a batch's gains are a gather, and a gain's bits do not
    depend on its batch. :meth:`add` sums its node's :meth:`gains` into
    ``moi_value`` and ``edv_value``, marks its row covered and recomputes
    ``reach``, one pass over the adjacency entries (O(nnz)) per seed.

    Single-writer; :meth:`gains` is a pure read and may be evaluated for
    any number of candidates against a frozen state.
    """

    def __init__(self, g: Hypergraph, acts: sp.csr_matrix,
                 balls: FeatureBalls, beta: float):
        _check_beta(beta)
        self.graph = g
        self.beta = beta
        self.sets = balls.unions(acts)
        self.covered = self.sets.empty()
        # marks the seeds, as evasion cannot: a non-seed's can underflow to 0
        self.in_seed = np.zeros(g.num_nodes, dtype=bool)
        self.evasion = np.ones(g.num_nodes, dtype=np.float64)
        indptr, indices, counts = g.adjacency()  # wrapped with no copy
        self._counts = sp.csr_matrix((counts, indices, indptr),
                                     shape=(g.num_nodes, g.num_nodes))
        self._reach = self._counts @ self.evasion
        self.moi_value = 0
        self.edv_value = 0.0

    # -- pure reads -------------------------------------------------------

    def gains(self, cands) -> tuple[np.ndarray, np.ndarray]:
        """MoI (int64) and EDV (float64) gains of seeding each node of
        ``cands`` alone, without mutating."""
        cands = _node_ids(cands, self.graph.num_nodes)
        seeded = self.in_seed[cands]
        if seeded.any():
            raise DataError(f"node {cands[seeded][0]} is already a seed")
        moi = self.sets.uncovered(self.covered, cands)
        # a candidate's own term moves into the seed count; a node in no
        # hyperedge has no neighbors, so its sum is 0 whatever d is
        d = np.maximum(self.graph.node_degree[cands], 1)
        return moi, self.evasion[cands] + self.beta / d * self._reach[cands]

    # -- mutation ---------------------------------------------------------

    def add(self, v: int) -> "CoverageState":
        """Seed ``v``: add its :meth:`gains` (which check ``v``) to the
        values, mark row ``v`` of ``sets`` covered, scale the evasion of
        v's neighbors (a seed's 0 stays 0), set v's own to 0 and recompute
        the adjacency mat-vec with the new evasion."""
        moi, diffusion = self.gains([v])
        self.sets.cover(self.covered, v)
        self.moi_value += int(moi[0])
        self.edv_value += float(diffusion[0])

        c = self._counts
        row = slice(c.indptr[v], c.indptr[v + 1])
        self.evasion[c.indices[row]] *= (
            1.0 - self.beta * c.data[row] / self.graph.node_degree[v])
        self.evasion[v] = 0.0
        self.in_seed[v] = True
        self._reach = c @ self.evasion
        return self


def edv(g: Hypergraph, seeds, beta: float) -> float:
    """Expected diffusion value of a seed set, evaluated from scratch."""
    _check_beta(beta)
    seed_arr = np.unique(_node_ids(list(seeds), g.num_nodes))
    in_seed = np.zeros(g.num_nodes, dtype=bool)
    in_seed[seed_arr] = True
    evasion = np.ones(g.num_nodes, dtype=np.float64)
    touched = np.zeros(g.num_nodes, dtype=bool)
    indptr, indices, counts = g.adjacency()
    for u in seed_arr:
        d_u = g.node_degree[u]
        if d_u == 0:
            continue
        nb = indices[indptr[u]:indptr[u + 1]]
        ct = counts[indptr[u]:indptr[u + 1]]
        free = ~in_seed[nb]
        evasion[nb[free]] *= 1.0 - beta * ct[free] / d_u
        touched[nb[free]] = True
    return float(seed_arr.size + np.sum(1.0 - evasion[touched]))


def marginal_gain(state: CoverageState, cands, gamma: float,
                  moi_hat: float, edv_hat: float) -> np.ndarray:
    """Gains of the unified objective from seeding each node of ``cands``
    alone (pure read)."""
    moi, diffusion = state.gains(cands)
    return unified_objective(moi, diffusion, moi_hat, edv_hat, gamma)


def unified_objective(moi_val: float, edv_val: float, moi_hat: float,
                      edv_hat: float, gamma: float) -> float:
    """Convex combination of coverage and diffusion, each normalized by
    its whole-graph value."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
    if moi_hat <= 0 or edv_hat <= 0:
        raise ConfigError(
            "degenerate objective normalizer (theta too high or empty "
            f"hypergraph): moi_hat={moi_hat}, edv_hat={edv_hat}")
    return gamma * moi_val / moi_hat + (1.0 - gamma) * edv_val / edv_hat
