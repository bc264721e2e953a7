"""Dual influence objective: feature-space coverage and one-hop diffusion.

The coverage side activates every node whose normalized influence from the
seed set strictly exceeds a threshold, then counts the union of
feature-space balls around the activated nodes; all balls are computed
once into the sparse index of :class:`FeatureBalls`. The diffusion side scores
the expected number of one-hop neighbors activated through shared
hyperedges. Both are monotone and submodular, so the greedy selector keeps
an incrementally updated :class:`CoverageState` and answers marginal-gain
queries without mutation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from . import kernels
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

    Every ball is computed once, at construction, into one sparse index:
    the ball of node ``u`` is ``indices[start[u]:stop[u]]``, the sorted
    int32 ids within ``radius`` of ``u`` (always including ``u``). A
    finite radius stores the rows back to back, CSR style, and builds them
    in row blocks of about ``BLOCK_BYTES`` of distance work: KD-tree
    queries for at most ``BRUTE_DIM`` dimensions, direct pairwise
    differences above. An infinite radius stores the single row ``0..n-1``
    that every node's ``start``/``stop`` point at, so it stays O(n).
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
            indptr, self.indices = self._build_index()
            self.start, self.stop = indptr[:-1], indptr[1:]
        else:
            self.indices = np.arange(n, dtype=np.int32)
            self.start = np.zeros(n, dtype=np.int64)
            self.stop = np.full(n, n, dtype=np.int64)

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
                sizes[:] = np.count_nonzero(ok, axis=1)
                rows.append(np.nonzero(ok)[1].astype(np.int32))
        np.cumsum(indptr, out=indptr)
        return indptr, np.concatenate(rows)

    def members(self, u: int) -> np.ndarray:
        """Sorted node ids within ``radius`` of node ``u`` (always incl. u)."""
        if not 0 <= u < self.num_nodes:
            raise DataError(f"node id {u} out of range")
        return self.indices[self.start[u]:self.stop[u]]

    def union_size(self, rows: np.ndarray) -> int:
        """Number of distinct nodes in the balls of the nodes marked in the
        boolean mask ``rows``."""
        if not math.isfinite(self.radius):
            return self.num_nodes if rows.any() else 0
        covered = np.zeros(self.num_nodes, dtype=bool)
        covered[self.indices[np.repeat(rows, self.stop - self.start)]] = True
        return int(np.count_nonzero(covered))


def build_feature_balls(ps: PropagationState, radius: float) -> FeatureBalls:
    """Ball index over the k-step propagated features."""
    return FeatureBalls(ps.propagated_features, radius)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"diffusion probability beta must lie in (0, 1), got {beta}")


class CoverageState:
    """Incremental state of the seed set's coverage and diffusion values.

    Single-writer; :meth:`moi_gain` / :meth:`edv_gain` are pure reads and
    may be evaluated for any number of candidates against a frozen state.
    """

    def __init__(self, g: Hypergraph, acts: ActivationSets,
                 balls: FeatureBalls, beta: float):
        _check_beta(beta)
        self.graph = g
        self.acts = acts
        self.balls = balls
        self.beta = beta
        n = g.num_nodes
        self.in_seed = np.zeros(n, dtype=bool)
        self.activated = np.zeros(n, dtype=bool)
        self.covered = np.zeros(n, dtype=np.uint8)
        self.evasion = np.ones(n, dtype=np.float64)
        self.moi_value = 0
        self.edv_value = 0.0

    # -- pure reads -------------------------------------------------------

    def _new_coverage(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``v`` would newly activate, and their balls concatenated."""
        a_v = self.acts.members(v)
        new_act = a_v[~self.activated[a_v]]
        if new_act.size == 0:
            return new_act, np.zeros(0, dtype=np.int32)
        return new_act, np.concatenate([self.balls.members(j) for j in new_act])

    def moi_gain(self, v: int) -> int:
        """Coverage nodes added by seeding ``v``, without mutating."""
        self._check_candidate(v)
        return kernels.count_uncovered_unique(self.covered,
                                              self._new_coverage(v)[1])

    def edv_gain(self, v: int) -> float:
        """Expected-diffusion gain of seeding ``v``, without mutating."""
        self._check_candidate(v)
        g = self.graph
        gain = self.evasion[v]  # v's own term moves into the seed count
        d_v = g.node_degree[v]
        if d_v > 0:
            indptr, indices, counts = g.adjacency()
            nb = indices[indptr[v]:indptr[v + 1]]
            ct = counts[indptr[v]:indptr[v + 1]]
            free = ~self.in_seed[nb]
            gain += self.beta / d_v * float(self.evasion[nb[free]] @ ct[free])
        return float(gain)

    # -- mutation ---------------------------------------------------------

    def add(self, v: int) -> "CoverageState":
        """Seed ``v``: extend activation/coverage and update evasion
        products for v's non-seed neighbors."""
        self._check_candidate(v)
        new_act, ball_ids = self._new_coverage(v)
        self.moi_value += kernels.mark_covered(self.covered, ball_ids)
        self.activated[new_act] = True

        self.edv_value += self.edv_gain(v)
        g = self.graph
        d_v = g.node_degree[v]
        if d_v > 0:
            indptr, indices, counts = g.adjacency()
            nb = indices[indptr[v]:indptr[v + 1]]
            ct = counts[indptr[v]:indptr[v + 1]]
            free = ~self.in_seed[nb]
            nb, ct = nb[free], ct[free]
            self.evasion[nb] *= 1.0 - self.beta * ct / d_v
        self.in_seed[v] = True
        return self

    def _check_candidate(self, v: int) -> None:
        if not 0 <= v < self.graph.num_nodes:
            raise DataError(f"node id {v} out of range")
        if self.in_seed[v]:
            raise DataError(f"node {v} is already a seed")


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


def marginal_gain(state: CoverageState, v: int, gamma: float,
                  moi_hat: float, edv_hat: float) -> float:
    """Gain of the unified objective from seeding ``v`` (pure read)."""
    return unified_objective(state.moi_gain(v), state.edv_gain(v),
                             moi_hat, edv_hat, gamma)


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
