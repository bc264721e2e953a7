"""Dual influence objective: feature-space coverage and one-hop diffusion.

The coverage side activates every node whose normalized influence from the
seed set strictly exceeds a threshold, then counts the union of
feature-space balls around the activated nodes; all balls are computed
once into the sparse index of :class:`FeatureBalls`. The diffusion side scores
the expected number of one-hop neighbors activated through shared
hyperedges. Both are monotone and submodular, so the greedy selector keeps
an incrementally updated :class:`CoverageState` and scores whole batches of
candidates without mutation: the coverage gains are the row lengths of one
boolean sparse product, the diffusion gains one sparse mat-vec.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

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


class ActivationSets:
    """Per-node activated node sets ``A_u = {j : influence > theta}``.

    Stored CSR style: row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``,
    the sorted ids ``u`` activates alone, for every node ``u``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, theta: float):
        self.indptr = indptr
        self.indices = indices
        self.theta = theta
        self.num_nodes = indptr.size - 1

    def members(self, u: int) -> np.ndarray:
        """Sorted node ids activated by node ``u`` alone."""
        if not 0 <= u < self.num_nodes:
            raise DataError(f"node id {u} out of range")
        return self.indices[self.indptr[u]:self.indptr[u + 1]]


def build_activation_sets(ic: InfluenceColumns, theta: float) -> ActivationSets:
    """Threshold the normalized influence columns (strict inequality)."""
    if theta < 0:
        raise ConfigError(f"activation threshold must be >= 0, got {theta}")
    cols = ic.columns
    n = cols.shape[1]
    col_ids = np.repeat(np.arange(n), np.diff(cols.indptr))
    rows = cols.indices.astype(np.int64)
    # row sums are strictly positive wherever a column entry is nonzero
    norm = cols.data / ic.row_sums[rows]
    keep = norm > theta
    counts = np.bincount(col_ids[keep], minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return ActivationSets(indptr, rows[keep], float(theta))


class FeatureBalls:
    """Radius-``r`` Euclidean neighborhoods in propagated feature space.

    Every ball is computed once, at construction, into one sparse index of
    distinct rows, CSR style: the ball of node ``u`` is row
    ``row_of[u]``, i.e. ``indices[indptr[r]:indptr[r + 1]]``, the sorted
    int32 ids within ``radius`` of ``u`` (always including ``u``). A
    finite radius stores one row per node and builds them in row blocks of
    about ``BLOCK_BYTES`` of distance work: KD-tree queries for at most
    ``BRUTE_DIM`` dimensions, direct pairwise differences above. An
    infinite radius stores the single row ``0..n-1`` that every node maps
    to, so it stays O(n).
    """

    BRUTE_DIM = 16
    BLOCK_BYTES = 32 << 20

    def __init__(self, points: np.ndarray, radius: float):
        if not radius >= 0:
            raise ConfigError(f"ball radius must be >= 0, got {radius}")
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.radius = float(radius)
        n = self.num_nodes = self.points.shape[0]
        if math.isfinite(self.radius):
            self.indptr, self.indices = self._build_index()
            self.row_of = np.arange(n, dtype=np.int64)
        else:
            self.indptr = np.array([0, n], dtype=np.int64)
            self.indices = np.arange(n, dtype=np.int32)
            self.row_of = np.zeros(n, dtype=np.int64)

    def _build_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR row pointer and concatenated sorted rows of every ball."""
        pts, r = self.points, self.radius
        n, d = pts.shape
        block = max(1, self.BLOCK_BYTES // max(1, 8 * n * d))
        tree = cKDTree(pts) if d <= self.BRUTE_DIM else None
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows = [np.zeros(0, dtype=np.int32)]
        for lo in range(0, n, block):
            blk = pts[lo:lo + block]
            sizes = indptr[lo + 1:lo + 1 + blk.shape[0]]
            if tree is not None:
                hits = tree.query_ball_point(blk, r, return_sorted=True)
                sizes[:] = [len(h) for h in hits]
                rows.append(np.fromiter(itertools.chain.from_iterable(hits),
                                        np.int32, int(sizes.sum())))
            else:
                diff = blk[:, None, :] - pts[None, :, :]
                ok = np.einsum("ijk,ijk->ij", diff, diff) <= r * r
                del diff  # else two block tensors live while the next forms
                sizes[:] = np.count_nonzero(ok, axis=1)
                rows.append(np.nonzero(ok)[1].astype(np.int32))
        np.cumsum(indptr, out=indptr)
        return indptr, np.concatenate(rows)

    def members(self, u: int) -> np.ndarray:
        """Sorted node ids within ``radius`` of node ``u`` (always incl. u)."""
        if not 0 <= u < self.num_nodes:
            raise DataError(f"node id {u} out of range")
        r = self.row_of[u]
        return self.indices[self.indptr[r]:self.indptr[r + 1]]

    def union_size(self, nodes: np.ndarray) -> int:
        """Number of distinct nodes in the balls of the nodes marked in the
        boolean mask ``nodes``."""
        rows = np.zeros(self.indptr.size - 1, dtype=bool)
        rows[self.row_of[nodes]] = True
        covered = np.zeros(self.num_nodes, dtype=bool)
        covered[self.indices[np.repeat(rows, np.diff(self.indptr))]] = True
        return int(np.count_nonzero(covered))


def build_feature_balls(ps: PropagationState, radius: float) -> FeatureBalls:
    """Ball index over the k-step propagated features."""
    return FeatureBalls(ps.propagated_features, radius)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"diffusion probability beta must lie in (0, 1), got {beta}")


class CoverageState:
    """Incremental state of the seed set's coverage and diffusion values.

    MoI is plain set coverage: seeding ``c`` covers the union of the balls
    of the nodes in ``A_c``. The state keeps ``A``, the activation sets
    with every activated node mapped to its ball row, and ``U``, a boolean
    CSR whose row ``r`` is ball row ``r`` minus the ids covered so far
    (empty for every activated node, whose ball is covered). The MoI gains
    of a batch of candidates are the row lengths of the boolean product
    ``A[cands] @ U``: the boolean sum counts an uncovered id once and a
    covered id never. The product is built in row blocks of at most
    ``BLOCK_FLOPS`` multiply-adds, which also bounds each block's output.
    The EDV gains are one mat-vec of the adjacency-count CSR against the
    evasion probabilities of the non-seed nodes.

    Single-writer; :meth:`gains` is a pure read and may be evaluated for
    any number of candidates against a frozen state.
    """

    BLOCK_FLOPS = 1 << 20

    def __init__(self, g: Hypergraph, acts: ActivationSets,
                 balls: FeatureBalls, beta: float):
        _check_beta(beta)
        self.graph = g
        self.acts = acts
        self.beta = beta
        n = g.num_nodes
        n_rows = balls.indptr.size - 1
        self._acts = sp.csr_matrix(
            (np.ones(acts.indices.size, dtype=bool), balls.row_of[acts.indices],
             acts.indptr.copy()), shape=(n, n_rows))
        self._acts.sum_duplicates()  # an infinite radius has one shared row
        self._balls = sp.csr_matrix(
            (np.ones(balls.indices.size, dtype=bool), balls.indices,
             balls.indptr), shape=(n_rows, n))
        self._adj = g.adjacency()
        self.in_seed = np.zeros(n, dtype=bool)
        self.activated = np.zeros(n, dtype=bool)
        self.covered = np.zeros(n, dtype=bool)
        self.evasion = np.ones(n, dtype=np.float64)
        self.moi_value = 0
        self.edv_value = 0.0

    # -- pure reads -------------------------------------------------------

    def gains(self, cands) -> tuple[np.ndarray, np.ndarray]:
        """MoI (int64) and EDV (float64) gains of seeding each node of
        ``cands`` alone, without mutating."""
        cands = np.asarray(cands, dtype=np.int64)
        self._check_candidates(cands)
        return self._coverage_gains(cands), self._diffusion_gains(cands)

    def _coverage_gains(self, cands: np.ndarray) -> np.ndarray:
        a, u = self._acts, self._balls
        indptr, pos = _gather(a.indptr, cands)
        rows = a.indices[pos]
        # flops[i]: multiply-adds of the product rows of cands[:i]
        flops = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(np.diff(u.indptr)[rows], out=flops[1:])
        flops = flops[indptr]
        moi = np.empty(cands.size, dtype=np.int64)
        lo = 0
        while lo < cands.size:  # a candidate over budget gets its own block
            hi = max(lo + 1, int(np.searchsorted(
                flops, flops[lo] + self.BLOCK_FLOPS, side="right")) - 1)
            p, q = indptr[lo], indptr[hi]
            block = sp.csr_matrix(
                (np.ones(q - p, dtype=bool), rows[p:q], indptr[lo:hi + 1] - p),
                shape=(hi - lo, u.shape[0]))
            moi[lo:hi] = np.diff((block @ u).indptr)
            lo = hi
        return moi

    def _diffusion_gains(self, cands: np.ndarray) -> np.ndarray:
        # a candidate's own term moves into the seed count; a node in no
        # hyperedge has no neighbors, so its sum is 0 whatever d is
        free = self.evasion * ~self.in_seed
        d = np.maximum(self.graph.node_degree[cands], 1)
        adj_ptr, adj_ids, adj_counts = self._adj
        indptr, pos = _gather(adj_ptr, cands)
        # the sparse mat-vec of the adjacency rows of cands with free: each
        # row sums its entries in order, so a gain does not depend on its
        # batch
        row = np.repeat(np.arange(cands.size), np.diff(indptr))
        sums = np.bincount(row, weights=adj_counts[pos] * free[adj_ids[pos]],
                           minlength=cands.size)
        return self.evasion[cands] + self.beta / d * sums

    # -- mutation ---------------------------------------------------------

    def add(self, v: int) -> "CoverageState":
        """Seed ``v``: extend activation/coverage, prune the covered ids
        from ``U`` and update evasion products for v's non-seed
        neighbors."""
        v = int(v)
        one = np.array([v])
        self._check_candidates(one)
        a, u = self._acts, self._balls
        # U holds uncovered ids only, so MoI is the count of covered ids
        _, pos = _gather(u.indptr, a.indices[a.indptr[v]:a.indptr[v + 1]])
        self.covered[u.indices[pos]] = True
        moi = int(np.count_nonzero(self.covered))
        if moi > self.moi_value:
            self.moi_value = moi
            keep = (~self.covered)[u.indices]
            kept = np.zeros(keep.size + 1, dtype=u.indptr.dtype)
            np.cumsum(keep, out=kept[1:])
            self._balls = sp.csr_matrix(
                (u.data[keep], u.indices[keep], kept[u.indptr]), shape=u.shape)
        self.activated[self.acts.members(v)] = True

        self.edv_value += float(self._diffusion_gains(one)[0])
        adj_ptr, adj_ids, adj_counts = self._adj
        d_v = self.graph.node_degree[v]
        nb = adj_ids[adj_ptr[v]:adj_ptr[v + 1]]
        ct = adj_counts[adj_ptr[v]:adj_ptr[v + 1]]
        free = ~self.in_seed[nb]
        self.evasion[nb[free]] *= 1.0 - self.beta * ct[free] / d_v
        self.in_seed[v] = True
        return self

    def _check_candidates(self, cands: np.ndarray) -> None:
        bad = (cands < 0) | (cands >= self.graph.num_nodes)
        if bad.any():
            raise DataError(f"node id {cands[bad][0]} out of range")
        seeded = self.in_seed[cands]
        if seeded.any():
            raise DataError(f"node {cands[seeded][0]} is already a seed")


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
    return out, np.arange(out[-1]) + np.repeat(start - out[:-1], lens)


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
