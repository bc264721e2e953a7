"""Dual influence objective: feature-space coverage and one-hop diffusion.

The coverage side activates every node whose normalized influence from the
seed set strictly exceeds a threshold, then counts the union of
feature-space balls (:class:`FeatureBalls`, from blocked distance products
or, when sparse, a KD-tree) around the activated nodes. The diffusion side
scores the expected number of one-hop neighbors activated through shared
hyperedges. Both are monotone and submodular, so the greedy selector keeps
an incrementally updated :class:`CoverageState` and scores whole batches
of candidates without mutation: a MoI gain reads one precomputed union
row, and the diffusion gains are one sparse mat-vec.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .hypergraph import Hypergraph
from .propagation import InfluenceColumns, PropagationState

__all__ = [
    "ActivationSets",
    "FeatureBalls",
    "CoverageState",
    "build_activation_sets",
    "build_feature_balls",
    "edv",
    "marginal_gain",
    "unified_objective",
]


@dataclass(frozen=True)
class ActivationSets:
    """Per-node activated node sets ``A_u = {j : influence > theta}``.

    Stored CSR style: row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``,
    the sorted ids ``u`` activates alone, for every node ``u``.
    """

    indptr: np.ndarray   # int64, length n + 1
    indices: np.ndarray  # int64


def build_activation_sets(ic: InfluenceColumns, theta: float) -> ActivationSets:
    """Threshold the normalized influence columns (strict inequality).

    ``ic.columns`` holds the normalized influence, so ``A_u`` is the row ids
    of column ``u``'s entries above ``theta``: one mask over the entries,
    no division and no per-entry column ids.
    """
    if theta < 0:
        raise ConfigError(f"activation threshold must be >= 0, got {theta}")
    cols = ic.columns
    pos = np.flatnonzero(cols.data > theta)
    indptr = np.searchsorted(pos, cols.indptr)
    return ActivationSets(indptr, cols.indices[pos].astype(np.int64))


class FeatureBalls:
    """Radius-``r`` Euclidean neighborhoods in propagated feature space.

    Row ``u`` of the coverage form is the ball of node ``u``, the ids ``v``
    with ``Σ_k (x_u,k − x_v,k)² ≤ r²``, built straight into the form that
    the share of pairs within ``radius`` (all, or ``SAMPLE_PAIRS`` drawn)
    picks: bitsets from blocked distance products rechecked near ``r``, or
    the CSR of a KD-tree pair query. An infinite radius (or ``r²`` past
    float64) keeps one all-ids bitset row, read as every row (stride 0),
    and a mask of the live rows (every ball; non-empty unions), n/64 words.

    Only the chosen coverage form is kept, and it is never written:
    :meth:`unions` composes groups of its rows into a new instance of the
    same form, and :meth:`empty`, :meth:`cover` and :meth:`uncovered` read
    either with the caller's own covered set:

    * **bitset** when its ``n·⌈n/64⌉·8`` bytes are no more than the
      ``nnz·5`` bytes (int32 ids, bool data) of the CSR: each row packed
      into ``⌈n/64⌉`` uint64 words, a covered set one word array, an
      uncovered count the popcount of a row and ``~covered``, a union the
      OR of its rows;
    * **CSR** otherwise: a boolean CSR of the rows, a covered set one
      boolean array, an uncovered count a row times ``~covered``, and a
      union a row of one boolean product (its sum lists each id once).

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
            row = np.packbits(np.arange(64 * words) < n, bitorder="little")
            self._bits = np.broadcast_to(row.view(np.uint64), (n, words))
            self._live = np.ones(n, dtype=bool)
        elif n * words * 8 <= 5 * self._estimate_nnz(points):
            self._bits = self._fill(points, sq, words)
        else:
            self._csr = self._build_index(points)

    def _within(self, x: np.ndarray, u: np.ndarray, v: np.ndarray):
        """Whether each pair ``(u[i], v[i])`` is within the radius."""
        out = np.empty(u.size, dtype=bool)
        step = max(1, self.BLOCK_BYTES // (8 * max(1, x.shape[1])))
        for s in range(0, u.size, step):
            diff = x[u[s:s + step]] - x[v[s:s + step]]
            out[s:s + step] = np.einsum("ij,ij->i", diff, diff) <= self._r2
        return out

    def _estimate_nnz(self, points: np.ndarray) -> int:
        """The balls' id count from the share of pairs within the radius."""
        n, k = self.num_nodes, self.SAMPLE_PAIRS
        if n * (n - 1) // 2 <= k:
            u, v = np.triu_indices(n, 1)
        else:
            u, v = np.random.default_rng(0).integers([[0], [1]], n, (2, k))
            v = (u + v) % n  # never u itself
        hits = np.count_nonzero(self._within(points, u, v))
        return n + hits * n * (n - 1) // max(1, u.size)

    def _fill(self, x: np.ndarray, sq: np.ndarray, words: int) -> np.ndarray:
        """Bitsets from ``BLOCK_BYTES`` blocks of |a|²+|b|²-2a·b in products
        of ≤ 2^18 multiply-adds, which OpenBLAS keeps on this thread (waking
        its workers per block stalls a busy host); a pair within ``tol`` of
        r² (both forms' rounding bound) is decided by :meth:`_within`."""
        (n, d), xt = x.shape, -2.0 * x.T
        tol = 4 * np.finfo(np.float64).eps * (
            (4 * d + 6) * float(sq.max(initial=0.0)) + (d + 1) * self._r2)
        out = np.zeros((n, 8 * words), dtype=np.uint8)
        m = max(1, self.BLOCK_BYTES // (8 * max(1, n)))  # rows per block
        c = max(1, (1 << 18) // (m * max(1, d)))  # columns per product
        for a in range(0, n, m):
            dist = np.empty((min(m, n - a), n))
            for b in range(0, n, c):  # exactly -2 times the products
                np.matmul(x[a:a + m], xt[:, b:b + c], out=dist[:, b:b + c])
            dist += sq[a:a + m, None]
            dist += sq
            hit = dist <= self._r2 - tol
            k = np.flatnonzero(~(hit | (dist > self._r2 + tol)))  # or NaN
            hit.flat[k] = self._within(x, k // n + a, k % n)
            out[a:a + m, :-(-n // 8)] = np.packbits(hit, 1, bitorder="little")
        return out.view(np.uint64)

    def _build_index(self, points: np.ndarray) -> sp.csr_matrix:
        """Boolean CSR of every ball: both orders of each KD-tree pair and
        each node's own id. A sum of canonical CSRs is canonical, so every
        row lists its ids sorted and once."""
        from scipy.spatial import cKDTree  # ~0.2 s to import; sparse only
        n = self.num_nodes
        pairs = cKDTree(points).query_pairs(self.radius, output_type="ndarray")
        upper = sp.csr_matrix(
            (np.ones(pairs.shape[0], dtype=bool), pairs.T), shape=(n, n))
        del pairs  # the sums need only the CSR
        return upper + upper.T + sp.identity(n, dtype=bool, format="csr")

    # -- coverage ---------------------------------------------------------

    def empty(self) -> np.ndarray:
        """A covered set holding no id."""
        if self._bits is None:
            return np.zeros(self.num_nodes, dtype=bool)
        return np.zeros(self._bits.shape[1], dtype=np.uint64)

    def cover(self, covered: np.ndarray, rows: np.ndarray) -> int:
        """Mark the ids of the rows ``rows`` in ``covered``; return the
        number of covered ids."""
        if self._bits is None:
            _, pos = _gather(self._csr.indptr, rows)
            covered[self._csr.indices[pos]] = True
            return int(np.count_nonzero(covered))
        covered |= self._union(rows)
        return int(np.bitwise_count(covered).sum())

    def uncovered(self, covered: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """int64 count of the ids of each row of ``rows`` not in
        ``covered``."""
        # scipy's row selection costs ~0.1 ms more per call than a numpy
        # gather, but is several times faster on a whole-pool batch
        if self._bits is None:
            free = (~covered).astype(np.int32)
            return (self._csr[rows] @ free).astype(np.int64)
        free, step = ~covered, self._block_rows()
        out = np.empty(rows.size, dtype=np.int64)
        for s in range(0, rows.size, step):
            out[s:s + step] = np.bitwise_count(
                self._bits[rows[s:s + step]] & free).sum(axis=1)
        return out if self._live is None else out * self._live[rows]

    def unions(self, indptr: np.ndarray, rows: np.ndarray) -> "FeatureBalls":
        """The same coverage form, whose row ``i`` is the union of the rows
        ``rows[indptr[i]:indptr[i + 1]]``: the bitset OR of blocks of about
        ``BLOCK_BYTES`` of gathered rows, or one boolean product of the
        groups' indicator CSR and the balls, whose sum lists each id once."""
        out = copy.copy(self)
        if self._bits is None:
            groups = sp.csr_matrix(
                (np.ones(rows.size, dtype=bool), rows, indptr),
                shape=(indptr.size - 1, self.num_nodes))
            out._csr = groups @ self._csr
            return out
        starts, words = indptr[:-1], self._bits.shape[1]
        some = starts < indptr[1:]  # an empty group stays 0
        if self._live is not None:  # a live row is the one shared row
            out._live = np.zeros(starts.size, dtype=bool)
            out._live[some] = np.logical_or.reduceat(
                self._live[rows], starts[some])
            out._bits = np.broadcast_to(self._bits[0], (starts.size, words))
            return out
        out._bits = np.zeros((starts.size, words), dtype=np.uint64)
        step = self._block_rows()
        lo = 0
        while lo < indptr.size - 1:  # a group over the bound goes alone
            hi = max(lo + 1, int(np.searchsorted(
                indptr, indptr[lo] + step, side="right")) - 1)
            p, q = indptr[lo], indptr[hi]
            if hi == lo + 1:
                out._bits[lo] = self._union(rows[p:q])
            else:
                b = some[lo:hi]
                out._bits[lo:hi][b] = np.bitwise_or.reduceat(
                    self._bits[rows[p:q]], starts[lo:hi][b] - p, axis=0)
            lo = hi
        return out

    def _block_rows(self) -> int:
        """Bitset rows per gathered block."""
        return max(1, self.BLOCK_BYTES // self._bits[0].nbytes)

    def _union(self, rows: np.ndarray) -> np.ndarray:
        """OR of the bitset rows ``rows``, gathered in blocks."""
        if self._live is not None:
            rows = rows[self._live[rows]]
        step = self._block_rows()
        union = np.zeros(self._bits.shape[1], dtype=np.uint64)
        for s in range(0, rows.size, step):
            union |= np.bitwise_or.reduce(self._bits[rows[s:s + step]], axis=0)
        return union


def squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms; ``DataError`` unless every squared distance fits."""
    sq = np.einsum("ij,ij->i", points, points)
    if not math.isfinite(4 * float(sq.max(initial=0.0))):
        raise DataError("squared feature distances overflow float64")
    return sq


def build_feature_balls(ps: PropagationState, radius: float) -> FeatureBalls:
    """Ball index and coverage form over the k-step propagated features."""
    return FeatureBalls(ps.propagated_features, radius)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"diffusion probability beta must lie in (0, 1), got {beta}")


class CoverageState:
    """Incremental state of the seed set's coverage and diffusion values.

    MoI is plain set coverage: seeding ``c`` covers ``U_c``, the union of
    the balls of the nodes in ``A_c``. Neither ``A`` nor the balls change
    during a selection, so the state composes every ``U_c`` once into
    ``sets`` (:meth:`FeatureBalls.unions`; row ``c`` is ``U_c``) and keeps
    ``covered``, its own covered set. A MoI gain counts one row's
    uncovered ids, and :meth:`add` marks one row covered; ``sets`` is never
    written. The EDV gains are one mat-vec of the adjacency-count CSR
    against the evasion probabilities of the non-seed nodes.

    Single-writer; :meth:`gains` is a pure read and may be evaluated for
    any number of candidates against a frozen state.
    """

    def __init__(self, g: Hypergraph, acts: ActivationSets,
                 balls: FeatureBalls, beta: float):
        _check_beta(beta)
        self.graph = g
        self.beta = beta
        self.sets = balls.unions(acts.indptr, acts.indices)
        self.covered = self.sets.empty()
        self._adj = g.adjacency()
        self.in_seed = np.zeros(g.num_nodes, dtype=bool)
        self.evasion = np.ones(g.num_nodes, dtype=np.float64)
        self.moi_value = 0
        self.edv_value = 0.0

    # -- pure reads -------------------------------------------------------

    def gains(self, cands) -> tuple[np.ndarray, np.ndarray]:
        """MoI (int64) and EDV (float64) gains of seeding each node of
        ``cands`` alone, without mutating."""
        cands = np.asarray(cands, dtype=np.int64)
        bad = (cands < 0) | (cands >= self.graph.num_nodes)
        if bad.any():
            raise DataError(f"node id {cands[bad][0]} out of range")
        seeded = self.in_seed[cands]
        if seeded.any():
            raise DataError(f"node {cands[seeded][0]} is already a seed")
        moi = self.sets.uncovered(self.covered, cands)
        return moi, self._diffusion_gains(cands)

    def _diffusion_gains(self, cands: np.ndarray) -> np.ndarray:
        # a candidate's own term moves into the seed count; a node in no
        # hyperedge has no neighbors, so its sum is 0 whatever d is
        d = np.maximum(self.graph.node_degree[cands], 1)
        adj_ptr, adj_ids, adj_counts = self._adj
        indptr, pos = _gather(adj_ptr, cands)
        nb = adj_ids[pos]
        free = self.evasion[nb] * ~self.in_seed[nb]
        # the sparse mat-vec of the adjacency rows of cands with free: each
        # row sums its entries in order, so a gain does not depend on its
        # batch
        row = np.repeat(np.arange(cands.size), np.diff(indptr))
        sums = np.bincount(row, weights=adj_counts[pos] * free,
                           minlength=cands.size)
        return self.evasion[cands] + self.beta / d * sums

    # -- mutation ---------------------------------------------------------

    def add(self, v: int) -> "CoverageState":
        """Seed ``v``: mark the ids of row ``v`` of ``sets`` covered and
        update evasion products for v's non-seed neighbors."""
        v = int(v)
        if not 0 <= v < self.graph.num_nodes:
            raise DataError(f"node id {v} out of range")
        if self.in_seed[v]:
            raise DataError(f"node {v} is already a seed")
        self.moi_value = self.sets.cover(self.covered, np.array([v]))

        adj_ptr, adj_ids, adj_counts = self._adj
        nb = adj_ids[adj_ptr[v]:adj_ptr[v + 1]]
        ct = adj_counts[adj_ptr[v]:adj_ptr[v + 1]]
        free = ~self.in_seed[nb]
        # v's _diffusion_gains term, summed in the same entry order
        s = np.bincount(np.zeros(nb.size, dtype=np.intp),
                        weights=ct * (self.evasion[nb] * free), minlength=1)
        d_v = self.graph.node_degree[v]
        self.edv_value += float(
            self.evasion[v] + self.beta / max(d_v, 1) * s[0])
        self.evasion[nb[free]] *= 1.0 - self.beta * ct[free] / d_v
        self.in_seed[v] = True
        return self


def _gather(indptr: np.ndarray,
            rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pointer and entry positions of the rows ``rows`` of a CSR
    structure with row pointer ``indptr``, in order. A few numpy calls:
    scipy's fancy row indexing costs several times more per call on the
    small batches of a greedy round."""
    start = indptr[rows]
    lens = indptr[rows + 1] - start
    out = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    pos = np.repeat(start - out[:-1], lens)
    pos += np.arange(out[-1])
    return out, pos


def edv(g: Hypergraph, seeds, beta: float) -> float:
    """Expected diffusion value of a seed set, evaluated from scratch."""
    _check_beta(beta)
    seed_arr = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if seed_arr.size == 0:
        return 0.0
    if seed_arr[0] < 0 or seed_arr[-1] >= g.num_nodes:
        raise DataError("seed id out of range")
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
