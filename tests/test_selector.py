import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hial import (ConfigError, SelectionConfig, build, build_hoi_transition,
                  build_transition, edv, influence_columns, prepare,
                  propagate, select_lazy, select_naive)
from hial.selector import _resolve_theta
import oracles


def make_context(seed, n_max=14, budget=3, **overrides):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, n_max + 1))
    edges = oracles.random_hypergraph(rng, n, int(rng.integers(3, 16)))
    g = build(edges, num_nodes=n)
    x = rng.normal(size=(n, 4))
    kwargs = dict(budget=budget, k=2, alpha=0.8, theta=0.05, radius=0.8,
                  beta=0.3, gamma=0.5, rng_seed=seed)
    kwargs.update(overrides)
    cfg = SelectionConfig(**kwargs)
    return g, x, edges, n, prepare(g, x, cfg)


def oracle_inputs(g, x, ctx):
    """Dense influence matrix and oracle balls of a prepared context,
    rebuilt with the public propagation API from its resolved config."""
    cfg = ctx.config
    t = build_transition(g, cfg.backend)
    m_k = oracles.dense_influence_matrix(t.matrix.toarray(), cfg.k, cfg.alpha)
    ps = propagate(t, x, cfg.k, cfg.alpha)
    return m_k, oracles.feature_balls(ps.propagated_features, cfg.radius)


def test_config_validation():
    g = build([[0, 1], [1, 2]], num_nodes=3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=0).validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=4).validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, alpha=2.0).validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, beta=1.0).validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, gamma=-0.1).validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, backend="nope").validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, theta="later").validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, candidate_pool=(9,)).validate(3)
    for bad in ({"budget": 2.5}, {"budget": 2.0}, {"budget": "2"},
                {"budget": 1, "k": 1.5}, {"budget": 1, "rng_seed": 0.5}):
        with pytest.raises(ConfigError, match="must be an integer"):
            SelectionConfig(**bad).validate(3)
    SelectionConfig(budget=2, candidate_pool=(0, 2)).validate(3)
    SelectionConfig(budget=np.int64(2), k=np.int64(1),
                    rng_seed=np.int64(3)).validate(3)


def test_normalizers_edv_is_node_count():
    g, x, edges, n, ctx = make_context(0)
    assert ctx.edv_hat == edv(g, range(n), ctx.config.beta) == float(n)


def test_normalizer_moi_matches_scratch():
    for seed, radius in itertools.product(range(8), (0.8, math.inf)):
        g, x, edges, n, ctx = make_context(seed, radius=radius)
        m_k, oballs = oracle_inputs(g, x, ctx)
        expect = oracles.moi_value(m_k, ctx.config.theta, set(range(n)), oballs)
        assert ctx.moi_hat == expect


@pytest.mark.parametrize("seed", range(8))
def test_restricted_pool_normalizer_covers_all_nodes(seed):
    """A candidate pool narrows the seeds, not MoI(V): the normalizer is the
    ball union over what every node activates, and auto theta is the
    quantile over the pool's influence columns only."""
    pool = (0, 2, 5)
    g, x, edges, n, ctx = make_context(seed, candidate_pool=pool)
    m_k, oballs = oracle_inputs(g, x, ctx)
    expect = oracles.moi_value(m_k, ctx.config.theta, set(range(n)), oballs)
    assert ctx.moi_hat == expect
    assert list(ctx.pool) == list(pool)

    g, x, edges, n, ctx = make_context(seed, candidate_pool=pool,
                                       theta="auto")
    cols = m_k[:, pool]
    norm = (cols / m_k.sum(axis=1)[:, None])[cols > 0]
    assert ctx.config.theta == pytest.approx(
        np.quantile(norm, ctx.config.theta_quantile), rel=1e-9)


def test_auto_theta_full_pool_memory_bounded():
    """θ=auto over every node copies the matrix's entries once and holds
    no position array beside them."""
    rng = np.random.default_rng(11)
    n = 1000
    g = build(oracles.random_hypergraph(rng, n, 500), num_nodes=n)
    ic = influence_columns(build_hoi_transition(g), 2, 0.8)
    cfg = SelectionConfig(budget=1)
    pool = cfg.resolve_pool(n)
    tracemalloc.start()
    try:
        theta = _resolve_theta(cfg, ic, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert theta == np.quantile(ic.columns.data, cfg.theta_quantile)
    assert peak < 1.5 * ic.columns.data.nbytes


def test_degenerate_theta_rejected():
    rng = np.random.default_rng(5)
    g = build([[0, 1], [1, 2]], num_nodes=3)
    x = rng.normal(size=(3, 2))
    cfg = SelectionConfig(budget=1, theta=5.0, radius=0.1)
    with pytest.raises(ConfigError, match="coverage is empty"):
        prepare(g, x, cfg)


def test_budget_one_picks_best_singleton():
    g, x, edges, n, ctx = make_context(1, budget=1)
    res = select_naive(ctx)
    m_k, oballs = oracle_inputs(g, x, ctx)

    def value(subset):
        return oracles.scratch_objective(
            edges, n, m_k, ctx.config.theta, oballs, subset, ctx.config.beta,
            ctx.config.gamma, ctx.moi_hat, ctx.edv_hat)[2]

    best, best_val = oracles.exhaustive_best_subset(value, range(n), 1)
    assert value(set(res.seeds)) == pytest.approx(best_val, abs=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_lazy_equals_naive(seed):
    g, x, edges, n, ctx = make_context(seed, budget=4)
    naive = select_naive(ctx)
    lazy = select_lazy(ctx)
    assert lazy.seeds == naive.seeds
    assert lazy.gains == pytest.approx(naive.gains, abs=1e-12)
    assert lazy.trace == naive.trace
    assert lazy.n_evaluations <= naive.n_evaluations


def test_lazy_full_budget_is_pool_permutation():
    g, x, edges, n, ctx = make_context(3, budget=1)
    cfg = ctx.config
    from dataclasses import replace
    ctx.config = replace(cfg, budget=ctx.pool.size)
    res = select_lazy(ctx)
    assert sorted(res.seeds) == list(ctx.pool)


def test_tie_break_lowest_id():
    # two structurally identical components with identical features:
    # node 0 and node 2 have equal gain, 0 must win
    g = build([[0, 1], [2, 3]], num_nodes=4)
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    cfg = SelectionConfig(budget=1, k=1, alpha=0.5, theta=0.01, radius=0.1,
                          beta=0.2, gamma=0.5)
    ctx = prepare(g, x, cfg)
    assert select_naive(ctx).seeds == [0]
    assert select_lazy(ctx).seeds == [0]


def test_trace_non_decreasing_and_gains_non_negative():
    for seed in range(10):
        g, x, edges, n, ctx = make_context(seed, budget=5)
        res = select_lazy(ctx)
        assert len(res.seeds) == 5
        assert len(set(res.seeds)) == 5
        assert all(gain >= -1e-12 for gain in res.gains)
        f_vals = [f for _, _, f in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(f_vals, f_vals[1:]))


def test_determinism():
    g, x, edges, n, ctx = make_context(7, budget=4)
    a = select_lazy(ctx)
    b = select_lazy(ctx)
    assert a == b


def test_restricted_candidate_pool():
    g, x, edges, n, ctx = make_context(4, budget=2,
                                       candidate_pool=(0, 1, 2, 3))
    res = select_lazy(ctx)
    assert set(res.seeds) <= {0, 1, 2, 3}


@pytest.mark.parametrize("radius", [0.0, 0.8, math.inf])
def test_restricted_pool_composes_pool_rows_only(radius):
    """A state's composed unions are empty outside the candidate pool and
    equal a full-pool state's on it, in every coverage form; lazy and naive
    still agree."""
    pool = [0, 2, 5]
    g, x, edges, n, ctx = make_context(3, radius=radius,
                                       candidate_pool=tuple(pool))
    full = make_context(3, radius=radius)[-1]
    outside = np.setdiff1d(np.arange(n), pool)
    sizes, expect = (
        sets.uncovered(sets.empty(), np.arange(n))
        for sets in (ctx.fresh_state().sets, full.fresh_state().sets))
    assert expect[outside].any() and not sizes[outside].any()
    assert sizes[pool].tolist() == expect[pool].tolist()
    naive, lazy = select_naive(ctx), select_lazy(ctx)
    assert (lazy.seeds, lazy.gains, lazy.trace) == (
        naive.seeds, naive.gains, naive.trace)


@pytest.mark.parametrize("seed", range(15))
def test_greedy_guarantee_on_exhaustive_instances(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(6, 11))
    budget = int(rng.integers(1, 4))
    g, x, edges, n, ctx = make_context(seed + 2000, n_max=10, budget=1)
    from dataclasses import replace
    n = g.num_nodes
    budget = min(budget, n)
    ctx.config = replace(ctx.config, budget=budget)
    res = select_naive(ctx)

    m_k, oballs = oracle_inputs(g, x, ctx)

    def value(subset):
        return oracles.scratch_objective(
            edges, g.num_nodes, m_k, ctx.config.theta, oballs, subset,
            ctx.config.beta, ctx.config.gamma, ctx.moi_hat, ctx.edv_hat)[2]

    _, opt = oracles.exhaustive_best_subset(value, range(g.num_nodes), budget)
    greedy_val = value(set(res.seeds))
    assert greedy_val >= (1 - 1 / math.e) * opt - 1e-9


def test_default_config_scale_lazy_equals_naive():
    """The criterion-8 generator at n=5000 under the default radius=auto:
    balls hold about 5% of n, so coverage takes the bitset path and the
    pool's first batch spans several gather blocks. Lazy and naive agree
    exactly, with fewer evaluations for lazy."""
    rng = np.random.default_rng(0)
    n, m = 5000, 2500
    sizes = rng.poisson(4, m) + 1  # mean edge size 5
    flat = rng.integers(0, n, size=int(sizes.sum()))
    g = build([e.tolist() for e in np.split(flat, np.cumsum(sizes)[:-1])],
              num_nodes=n)
    centers = rng.normal(size=(4, 8)) * 3
    x = centers[rng.integers(0, 4, n)] + rng.normal(size=(n, 8))
    ctx = prepare(g, x, SelectionConfig(budget=10))
    state = ctx.fresh_state()
    assert ctx.balls._bits is not None and state.sets._bits is not None
    assert ctx.pool.size > 2 * state.sets._block_rows()
    naive = select_naive(ctx)
    lazy = select_lazy(ctx)
    assert lazy.seeds == naive.seeds
    assert lazy.gains == naive.gains
    assert lazy.trace == naive.trace
    assert lazy.n_evaluations < naive.n_evaluations
