"""Greedy budgeted seed selection maximizing the unified objective.

Two equivalent paths: a naive reference that re-scores every remaining
candidate each round, and a lazy path that keeps stale gains in one sorted
array and re-scores only its front until the best is fresh (valid because
the objective is submodular, so stale gains are upper bounds). Both score
candidates in batches, one :func:`objective.marginal_gain` call each: the
naive path all remaining candidates per round, the lazy path the whole pool
once and then the stale front in batches of doubling size. Ties always go
to the smallest node id, which makes the two paths produce identical seed
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import objective, propagation
from .errors import ConfigError, check_integer
from .hypergraph import Hypergraph

__all__ = [
    "SelectionConfig",
    "SelectionResult",
    "SelectionContext",
    "prepare",
    "select_naive",
    "select_lazy",
]

AUTO = "auto"
# radius=auto is this quantile of sampled pairwise feature distances
RADIUS_QUANTILE = 0.05


@dataclass(frozen=True)
class SelectionConfig:
    """All scalar knobs of the selection pipeline.

    ``theta`` and ``radius`` accept the literal ``"auto"``, resolved to
    dataset-adaptive quantiles during :func:`prepare`.
    """

    budget: int
    k: int = 2
    alpha: float = 0.9
    theta: float | str = AUTO
    radius: float | str = AUTO
    beta: float = 0.1
    gamma: float = 0.5
    backend: str = propagation.HOI
    candidate_pool: tuple[int, ...] | None = None
    theta_quantile: float = 0.95
    rng_seed: int = 0

    def validate(self, num_nodes: int) -> np.ndarray:
        for name in ("budget", "k", "rng_seed"):
            check_integer(name, getattr(self, name))
        pool = self.resolve_pool(num_nodes)
        if not 1 <= self.budget <= pool.size:
            raise ConfigError(
                f"budget must lie in [1, {pool.size}], got {self.budget}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.backend not in (propagation.HOI, propagation.HGNN):
            raise ConfigError(f"unknown backend {self.backend!r}")
        for name, val in (("theta", self.theta), ("radius", self.radius)):
            if isinstance(val, str) and val != AUTO:
                raise ConfigError(f"{name} must be a number or 'auto', got {val!r}")
            if not isinstance(val, str) and not val >= 0:  # rejects nan
                raise ConfigError(f"{name} must be >= 0, got {val}")
        if not 0.0 < self.theta_quantile < 1.0:
            raise ConfigError(
                f"theta_quantile must lie in (0, 1), got {self.theta_quantile}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng seed must be >= 0, got {self.rng_seed}")
        return pool

    def resolve_pool(self, num_nodes: int) -> np.ndarray:
        if self.candidate_pool is None:
            return np.arange(num_nodes, dtype=np.int64)
        for v in self.candidate_pool:
            check_integer("candidate pool id", v)
        ids = sorted(set(self.candidate_pool))  # in range before int64
        if not ids:
            raise ConfigError("candidate pool is empty")
        if ids[0] < 0 or ids[-1] >= num_nodes:
            raise ConfigError("candidate pool contains out-of-range node ids")
        return np.asarray(ids, dtype=np.int64)


@dataclass(frozen=True)
class SelectionResult:
    """Ordered seeds with per-step gains and objective trace."""

    seeds: list[int]
    gains: list[float]
    trace: list[tuple[int, float, float]]  # (moi, edv, F) after each step
    resolved_params: dict
    n_evaluations: int = 0


@dataclass
class SelectionContext:
    """Frozen selection inputs shared by the naive and lazy paths: the
    pool's activation sets and the balls, from which each fresh state
    composes its own ``U_c`` rows, and the normalizers."""

    graph: Hypergraph
    config: SelectionConfig  # with theta/radius resolved to numbers
    pool: np.ndarray
    acts: sp.csr_matrix  # row i: the activation set of node pool[i]
    balls: objective.FeatureBalls
    moi_hat: float
    edv_hat: float
    resolved_params: dict = field(default_factory=dict)

    def fresh_state(self) -> objective.CoverageState:
        pool = self.pool if self.pool.size < self.graph.num_nodes else None
        return objective.CoverageState(self.graph, self.acts, self.balls,
                                       self.config.beta, pool)


def _resolve_theta(cfg: SelectionConfig,
                   ic: propagation.InfluenceColumns) -> float:
    """``theta`` as given, or the ``linear`` quantile of every normalized
    influence entry in ``ic.columns`` (the pool's columns), bit for bit
    ``np.quantile``'s.

    The entries must be positive and finite, so that their float64 bits,
    read as int64, sort like their values. Pass 1 counts the entries by
    their top 16 bits, ``BLOCK_ENTRIES`` at a time; pass 2 gathers the
    bucket of the order statistics ``⌊v⌋`` and ``⌊v⌋ + 1``, ``v = (N - 1)
    q``, and partitions it. A bucket of more entries than a block is
    counted again by its next 16 bits, down to all 64: one block, its
    bucket and 2^16 counts are held at most, whatever nnz or the ties."""
    if cfg.theta != AUTO:
        return float(cfg.theta)
    cols, step = ic.columns, propagation.BLOCK_ENTRIES
    buf = np.empty(min(step, cols.nnz), dtype=np.int64)

    def keys(base, shift):
        # per block: bits and 1 + (bits >> shift) - base in buf
        for s in range(0, cols.nnz, step):
            b = cols.data[s:s + step].view(np.int64)
            key = np.right_shift(b, shift, out=buf[:b.size])
            key -= base - 1
            yield b, key

    def bucket(base, shift):  # per block, the bits in bucket ``base``
        return (b[key == 1] for b, key in keys(base, shift))

    prefix = 0
    for shift in (48, 32, 16, 0):
        # bins 0 and 2^16 + 1 take the entries off the prefix
        counts = np.zeros(1, dtype=np.int64)
        for _, key in keys(prefix << 16, shift):
            if shift < 48:  # at 48 every key is in range already
                np.clip(key, 0, (1 << 16) + 1, out=key)
            bins = np.bincount(key, minlength=counts.size)
            bins[:counts.size] += counts
            counts = bins
        counts = counts[1:(1 << 16) + 1]
        if shift == 48:
            n = int(counts.sum())
            if n == 0:
                raise ConfigError("no nonzero influence entries; cannot "
                                  "auto-resolve theta")
            v = (n - 1) * cfg.theta_quantile
            ranks = np.minimum(math.floor(v) + np.arange(2), n - 1)
        ends = np.cumsum(counts)
        lo, hi = np.searchsorted(ends, ranks, side="right").tolist()
        ranks -= ends[lo] - counts[lo]
        size, lo, hi = counts[lo], prefix << 16 | lo, prefix << 16 | hi
        if shift == 0:  # all 64 bits fixed: the buckets are the entries
            a, c = lo, hi
        elif lo != hi:  # the largest entry of lo, the least of hi
            a = max(b.max(initial=0) for b in bucket(lo, shift))
            c = min(b.min(initial=(1 << 63) - 1) for b in bucket(hi, shift))
        elif size <= step:
            got = np.concatenate(list(bucket(lo, shift)))
            a, c = np.partition(got, ranks)[ranks]
        else:
            prefix = lo
            continue
        break
    pair = np.array([a, c], dtype=np.int64).view(np.float64)
    return float(np.quantile(pair, v - math.floor(v)))  # numpy's own lerp


def _resolve_radius(cfg: SelectionConfig, feats: np.ndarray) -> float:
    if cfg.radius != AUTO:
        return float(cfg.radius)
    n = feats.shape[0]
    if n < 2:
        return 0.0
    rng = np.random.default_rng(cfg.rng_seed)
    n_pairs = min(20000, n * (n - 1) // 2)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n - 1, size=n_pairs)
    j = np.where(j >= i, j + 1, j)  # distinct pair without rejection
    dist = objective.pair_distances(feats, i, j)  # the balls' own rule
    return float(np.quantile(dist, RADIUS_QUANTILE, overwrite_input=True))


def prepare(g: Hypergraph, features: np.ndarray,
            cfg: SelectionConfig) -> SelectionContext:
    """Build the propagation, influence, and coverage structures for a
    selection run, resolving any 'auto' parameters. θ and the activation
    sets come from the pool's influence columns, the only ones multiplied
    out. MoI(V) is the size of one union, over σ_all, the nodes that some
    node activates whatever the pool; a strict pool adds each node whose
    own entry, the diagonal, exceeds θ, and checks only the rest's rows of
    ``M_k``. The states compose the pool's ``U_c``."""
    pool = cfg.validate(g.num_nodes)
    n = g.num_nodes
    t = propagation.build_transition(g, cfg.backend)
    ps = propagation.propagate(t, features, cfg.k, cfg.alpha)
    if cfg.radius != np.inf or not np.isfinite(ps.propagated_features).all():
        objective.squared_norms(ps.propagated_features)  # or DataError
    ic = propagation.influence_columns(t, cfg.k, cfg.alpha, pool)
    theta = _resolve_theta(cfg, ic)
    radius = _resolve_radius(cfg, ps.propagated_features)
    resolved = replace(cfg, theta=theta, radius=radius)
    acts = objective.build_activation_sets(ic, theta)
    # the error below can fire only when the pool's sets are empty
    ties = 0 if acts.nnz else np.count_nonzero(ic.columns.data == theta)
    row_sums = ic.row_sums
    del ic  # the later transients need not sit on top of the matrix
    sigma_all = np.bincount(acts.indices, minlength=n) > 0
    if pool.size < n:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0: no
            sigma_all |= propagation._self_influence(t, cfg.k, cfg.alpha) \
                / row_sums > theta
        rest = np.flatnonzero(~sigma_all)
        sigma_all[rest] = propagation._activated_rows(
            t, cfg.k, cfg.alpha, theta, row_sums, rest)
    if not sigma_all.any():  # an auto θ is then the pool's top entry
        raise ConfigError(
            "whole-graph coverage is empty: theta excludes every node; " + (
                "lower theta" if cfg.theta != AUTO else
                f"auto theta {theta!r} is the largest influence entry in the "
                f"pool's columns, held by {ties} entries, and a node "
                "activates only strictly above it: a numeric --theta below "
                "it activates nodes"))
    balls = objective.build_feature_balls(ps, radius)
    moi_hat = n
    if not sigma_all.all():
        union = balls.unions(sp.csr_matrix(sigma_all))
        moi_hat = int(union.uncovered(union.empty(), np.array([0]))[0])
    edv_hat = float(n)  # all seeded: no neighbor left to reach
    params = {
        "budget": cfg.budget, "k": cfg.k, "alpha": cfg.alpha,
        "theta": theta, "radius": radius, "beta": cfg.beta,
        "gamma": cfg.gamma, "backend": cfg.backend,
        "moi_hat": moi_hat, "edv_hat": edv_hat,
    }
    return SelectionContext(g, resolved, pool, acts, balls, moi_hat, edv_hat,
                            params)


def _gains(ctx: SelectionContext, state: objective.CoverageState,
           cands: np.ndarray) -> np.ndarray:
    return objective.marginal_gain(state, cands, ctx.config.gamma,
                                   ctx.moi_hat, ctx.edv_hat)


def _objective_value(ctx: SelectionContext,
                     state: objective.CoverageState) -> float:
    return objective.unified_objective(state.moi_value, state.edv_value,
                                       ctx.moi_hat, ctx.edv_hat,
                                       ctx.config.gamma)


def select_naive(ctx: SelectionContext) -> SelectionResult:
    """Reference greedy: every round scores all remaining candidates in one
    batch and picks the argmax (lowest id on ties)."""
    state = ctx.fresh_state()
    seeds: list[int] = []
    gains: list[float] = []
    trace: list[tuple[int, float, float]] = []
    remaining = ctx.pool
    evals = 0
    for _ in range(ctx.config.budget):
        g = _gains(ctx, state, remaining)
        evals += remaining.size
        best = int(np.argmax(g))  # ids ascend: the first max is the lowest id
        best_v = int(remaining[best])
        state.add(best_v)
        remaining = np.delete(remaining, best)
        seeds.append(best_v)
        gains.append(float(g[best]))
        trace.append((state.moi_value, state.edv_value,
                      _objective_value(ctx, state)))
    return SelectionResult(seeds, gains, trace, dict(ctx.resolved_params),
                           evals)


def select_lazy(ctx: SelectionContext) -> SelectionResult:
    """CELF-style greedy: stale gains are upper bounds under
    submodularity, so only the queue's front is ever re-scored. The queue
    is one ``complex128`` array sorted ascending, real part the negated
    gain (assigned: a sum with ``1j * ids`` turns -0.0 into +0.0) and
    imaginary part the node id (exact in float64); numpy orders complex
    numbers by real part, then imaginary part, so the front is the largest
    gain, lowest id on ties. A round re-scores the stale front in batches
    of 1, 2, 4, ... entries, each cut at the best re-scored key so far,
    until the next stale key lies above that best, the seed. One stable
    sort (timsort) then merges the re-scored prefix into the sorted rest.
    Produces the same seed sequence as :func:`select_naive`."""
    state = ctx.fresh_state()
    seeds: list[int] = []
    gains: list[float] = []
    trace: list[tuple[int, float, float]] = []
    queue = np.empty(ctx.pool.size, dtype=np.complex128)
    queue.real = -_gains(ctx, state, ctx.pool)
    queue.imag = ctx.pool
    queue.sort()
    evals = 0
    for round_no in range(ctx.config.budget):
        # entries before p are fresh: in round 0, the whole pool, just scored
        p, batch, top = (queue.size if round_no == 0 else 0), 1, np.inf
        while p < queue.size and queue[p] < top:
            seg = queue[p:p + batch]
            seg = seg[:np.searchsorted(seg, top)]
            seg.real = -_gains(ctx, state, seg.imag.astype(np.int64))
            top = min(top, seg.min())
            p += seg.size
            batch *= 2
        evals += p
        best = int(np.argmin(queue[:p]))
        v = int(queue.imag[best])
        state.add(v)
        seeds.append(v)
        gains.append(-float(queue.real[best]))
        trace.append((state.moi_value, state.edv_value,
                      _objective_value(ctx, state)))
        queue = np.delete(queue, best)
        queue.sort(kind="stable")
    return SelectionResult(seeds, gains, trace, dict(ctx.resolved_params),
                           evals)
