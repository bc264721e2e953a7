import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hial import (ConfigError, DataError, SelectionConfig, build,
                  build_hoi_transition, build_transition, edv,
                  influence_columns, prepare, propagate, select_lazy,
                  select_naive)
from hial import objective, propagation
from hial.propagation import InfluenceColumns
from hial.selector import RADIUS_QUANTILE, _resolve_radius, _resolve_theta
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
        SelectionConfig(budget=1, theta_quantile=1.0).validate(3)
    with pytest.raises(ConfigError):
        SelectionConfig(budget=1, candidate_pool=(9,)).validate(3)
    for pool in ((2 ** 70,), (-2 ** 70, 1)):  # past int64 too
        with pytest.raises(ConfigError, match="out-of-range"):
            SelectionConfig(budget=1, candidate_pool=pool).validate(3)
    for bad in ({"budget": 2.5}, {"budget": 2.0}, {"budget": "2"},
                {"budget": 1, "k": 1.5}, {"budget": 1, "rng_seed": 0.5}):
        with pytest.raises(ConfigError, match="must be an integer"):
            SelectionConfig(**bad).validate(3)
    for pool in ((0.7,), (2.0, 1.9), ("x",), (1, np.float64(2.0))):
        with pytest.raises(ConfigError, match="must be an integer"):
            SelectionConfig(budget=1, candidate_pool=pool).validate(3)
    SelectionConfig(budget=2, candidate_pool=(0, 2)).validate(3)
    SelectionConfig(budget=2, candidate_pool=(np.int32(0), 2)).validate(3)
    SelectionConfig(budget=np.int64(2), k=np.int64(1),
                    rng_seed=np.int64(3)).validate(3)


def test_normalizers_edv_is_node_count():
    g, x, edges, n, ctx = make_context(0)
    assert ctx.edv_hat == edv(g, range(n), ctx.config.beta) == float(n)


def test_normalizer_moi_matches_scratch():
    for seed, radius in itertools.product(range(8), (0.0, 0.8, math.inf)):
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


@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
@pytest.mark.parametrize("pool", [None, (0, 2, 5)], ids=["all", "pool"])
@pytest.mark.parametrize("seed", range(4))
def test_theta_and_activation_sets_match_csc_oracle(seed, pool, backend):
    """Auto θ and the activation sets of ``prepare`` equal, bit for bit,
    those of the column-stored pass: CSC with sorted ids, one mask per
    column, and one row per pool node."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 61))
    g = build(oracles.random_hypergraph(rng, n, n), num_nodes=n)
    ctx = prepare(g, rng.normal(size=(n, 4)), SelectionConfig(
        budget=3, radius=0.8, backend=backend, candidate_pool=pool,
        theta_quantile=0.5))
    cfg = ctx.config
    t = build_transition(g, backend)
    theta, indptr, indices = oracles.csc_theta_and_activation_sets(
        t.matrix, cfg.k, cfg.alpha, ctx.pool, cfg.theta_quantile)
    assert cfg.theta == theta
    np.testing.assert_array_equal(ctx.acts.indptr, indptr)
    np.testing.assert_array_equal(ctx.acts.indices, indices)


@pytest.mark.parametrize("theta", ["auto", 0.1])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
def test_pool_path_matches_full_matrix(backend, k, alpha, theta):
    """For pools of 1, n/5 and n − 1 nodes, θ (its ``float.hex``) and the
    activation sets equal the column-stored pass over the full matrix, and
    MoI(V) the brute-force union of the balls over σ_all, the sets of every
    column. Where no entry exceeds θ (auto θ at k = 0 or α = 0, whose
    entries are all 1.0) or the pool's columns hold none (one isolated node
    at α = 1), ``prepare`` raises ``ConfigError`` instead. One node sits
    alone in a hyperedge and two in none: empty ``T`` rows."""
    rng = np.random.default_rng(k + 10 * round(alpha * 10))
    g = build(oracles.random_hypergraph(rng, 30, 30) + [[30]], num_nodes=33)
    n = g.num_nodes
    x = rng.normal(size=(n, 3))
    t = build_transition(g, backend)
    balls = oracles.feature_balls(
        propagate(t, x, k, alpha).propagated_features, 0.5)
    for size in (1, n // 5, n - 1):
        pool = np.sort(rng.choice(n, size, replace=False))
        cfg = SelectionConfig(budget=1, k=k, alpha=alpha, theta=theta,
                              radius=0.5, backend=backend,
                              candidate_pool=tuple(pool.tolist()),
                              theta_quantile=0.5)
        want, indptr, indices = oracles.csc_theta_and_activation_sets(
            t.matrix, k, alpha, pool, 0.5,
            theta=None if theta == "auto" else theta)
        if want is None:
            with pytest.raises(ConfigError, match="no nonzero influence"):
                prepare(g, x, cfg)
            continue
        every = oracles.csc_theta_and_activation_sets(
            t.matrix, k, alpha, range(n), 0.5, theta=want)[2]
        if every.size == 0:
            match = ("lower theta" if theta != "auto" else
                     rf"auto theta {want!r} is the largest .* held by \d+")
            with pytest.raises(ConfigError, match=match):
                prepare(g, x, cfg)
            continue
        ctx = prepare(g, x, cfg)
        assert ctx.config.theta.hex() == want.hex()
        np.testing.assert_array_equal(ctx.acts.indptr, indptr)
        np.testing.assert_array_equal(ctx.acts.indices, indices)
        assert ctx.moi_hat == oracles.ball_union(balls, every)


@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
@pytest.mark.parametrize("theta, certified", [(0.05, True), (0.4, False)])
def test_strict_pool_certificate_or_full_matrix(backend, theta, certified,
                                                monkeypatch):
    """A strict pool multiplies out its own columns only. When every
    node's own normalized influence exceeds θ, that certifies σ_all = V
    and MoI(V) = n; else the rows of the nodes that neither the pool's
    sets nor their own entry place in σ_all are multiplied out, and only
    those. MoI(V) equals the brute-force count on both paths."""
    calls, rows = [], []
    real = propagation.influence_columns
    real_rows = propagation._activated_rows

    def counted(t, k, alpha, columns=None):
        calls.append(None if columns is None else columns.size)
        return real(t, k, alpha, columns)

    def counted_rows(t, k, alpha, theta, row_sums, at):
        rows.append(at.size)
        return real_rows(t, k, alpha, theta, row_sums, at)

    monkeypatch.setattr(propagation, "influence_columns", counted)
    monkeypatch.setattr(propagation, "_activated_rows", counted_rows)
    g, x, edges, n, ctx = make_context(3, backend=backend, theta=theta,
                                       candidate_pool=(0, 2, 5))
    assert calls == [3]
    assert len(rows) == 1 and (rows[0] == 0) == certified and rows[0] < n
    m_k, oballs = oracle_inputs(g, x, ctx)
    assert ctx.moi_hat == oracles.moi_value(m_k, theta, set(range(n)),
                                            oballs)
    assert ctx.moi_hat == n or not certified


@pytest.mark.parametrize("theta, certified", [(0.05, True), (0.2, False)])
def test_strict_pool_k3_peak_below_half_the_matrix(theta, certified,
                                                   monkeypatch):
    """At k = 3 a 20% pool holds its own columns and, for σ_all, ``M_2``
    and blocks of ``M_3``'s rows, never the whole ``M_3``: the traced peak
    of ``prepare`` stays under half of ``M_3``'s data and indices, whether
    the diagonal certifies σ_all = V or the other rows are multiplied out
    (criterion-8 generator, n = 2000, m = 1000)."""
    rng = np.random.default_rng(0)
    n, m = 2000, 1000
    sizes = rng.poisson(4, m) + 1
    flat = rng.integers(0, n, size=int(sizes.sum()))
    g = build([e.tolist() for e in np.split(flat, np.cumsum(sizes)[:-1])],
              num_nodes=n)
    x = rng.normal(size=(n, 8))
    pool = np.sort(rng.choice(n, n // 5, replace=False))
    full = influence_columns(build_transition(g, "hoi"), 3, 0.9).columns
    rows = []
    real = propagation._activated_rows
    monkeypatch.setattr(propagation, "_activated_rows",
                        lambda *a: rows.append(a[-1].size) or real(*a))
    cfg = SelectionConfig(budget=5, k=3, theta=theta, radius=0.3,
                          candidate_pool=tuple(pool.tolist()))
    tracemalloc.start()
    try:
        prepare(g, x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rows == [0]) == certified
    assert peak < (full.data.nbytes + full.indices.nbytes) / 2


def _entries(rng, kind, size):
    """``size`` positive finite influence-like entries of one kind."""
    if kind == "uniform":
        return 1.0 - rng.random(size)  # in (0, 1]
    if kind == "spread":  # over ±20 decades
        return np.exp(rng.uniform(-46.0, 46.0, size))
    if kind == "ties":
        return rng.choice(1.0 - rng.random(3), size)
    if kind == "equal":
        return np.full(size, 0.3)
    if kind == "near":  # one top 16 bits, three patterns in each field below
        low = rng.integers(0, 3, (3, size)) * 0x5555
        return ((0x3FD3 << 48) | low[0] << 32 | low[1] << 16
                | low[2]).view(np.float64)
    # subnormals, their smallest step apart, among a few normal entries
    tiny = rng.integers(1, 40, size) * 5e-324
    return np.where(rng.random(size) < 0.8, tiny, 1.0 - rng.random(size))


def _influence(data, ids, n_cols):
    """Influence columns with one entry per row: ``data[r]`` in column
    ``ids[r]``, rows cut into blocks wherever ``BLOCK_ENTRIES`` says."""
    cols = sp.csr_matrix((data, ids, np.arange(data.size + 1)),
                         shape=(data.size, n_cols))
    return InfluenceColumns(cols, np.ones(data.size))


@pytest.mark.parametrize("pool", ["all", "restricted"])
@pytest.mark.parametrize("block", [1, 7, None], ids=["one", "seven", "default"])
def test_auto_theta_bits_match_numpy_quantile(block, pool, monkeypatch):
    """Auto θ from bucket counts is ``np.quantile`` over the entries of
    the pool's own columns, bit for bit: N from 1 up, q near 0 and 1, ties, one repeated
    value, subnormals, entries spread over 40 decades and entries that
    share their top bits, with blocks of one entry, seven entries (cut
    mid-bucket) and the default. Blocks of one or seven also refine the
    buckets of more entries, down to all 64 bits for ties."""
    if block is not None:
        monkeypatch.setattr(propagation, "BLOCK_ENTRIES", block)
    sizes = {1: (1, 2, 3, 10, 61), 7: (1, 2, 5, 16, 64, 500)}.get(
        block, (1, 2, 3, 17, 100, 1000, 4000))
    rng = np.random.default_rng([block or 0, pool == "all"])
    n_cols = 10
    for kind, size, q in itertools.product(
            ("uniform", "spread", "ties", "equal", "near", "subnormal"), sizes,
            (1e-9, 0.05, 0.5, 0.95, 1 - 1e-9, float(rng.random()))):
        data = _entries(rng, kind, size)
        ids = rng.integers(0, n_cols, size)
        ic = _influence(data, ids, n_cols)
        cfg = SelectionConfig(budget=1, theta_quantile=q)
        if pool == "all":
            keep = np.arange(n_cols)
        else:
            keep = np.sort(rng.choice(n_cols, 4, replace=False))
        want = data[np.isin(ids, keep)]
        ic = InfluenceColumns(ic.columns[:, keep], ic.row_sums)
        if want.size == 0:
            with pytest.raises(ConfigError, match="no nonzero influence"):
                _resolve_theta(cfg, ic)
            continue
        got = _resolve_theta(cfg, ic)
        assert got.hex() == float(np.quantile(want, q)).hex(), (kind, size, q)


# θ's working set is a few blocks of 2^16 entries and 2^16 counts
THETA_PEAK_BYTES = 4 * 2**20


def _big_influence():
    """1.26M influence entries: a copy takes 10 MB, and 1.5 times their
    bytes, a bound that grows with nnz, would allow 15 MB."""
    rng = np.random.default_rng(11)
    n = 3000
    g = build(oracles.random_hypergraph(rng, n, 3000, 8), num_nodes=n)
    ic = influence_columns(build_hoi_transition(g), 2, 0.8)
    assert ic.columns.nnz > 10**6
    cols = ic.columns.copy()
    cols.data[:] = 0.25  # one value: every level refines, down to all 64 bits
    return n, ic, InfluenceColumns(cols, ic.row_sums)


def _theta_and_peak(ic, pool):
    """θ=auto over the pool's own columns of ``ic``, the quantile it
    should be, and the traced peak of resolving it."""
    cfg = SelectionConfig(budget=1)
    ic = InfluenceColumns(ic.columns[:, pool], ic.row_sums)
    tracemalloc.start()
    try:
        theta = _resolve_theta(cfg, ic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return theta, np.quantile(ic.columns.data, cfg.theta_quantile), peak


def test_auto_theta_full_pool_memory_bounded():
    """θ=auto over every node holds a fixed working set, not a copy of
    the entries, whether they spread or all tie."""
    n, ic, tied = _big_influence()
    for m in (ic, tied):
        theta, want, peak = _theta_and_peak(m, np.arange(n))
        assert theta == want
        assert peak < THETA_PEAK_BYTES


def test_auto_theta_restricted_pool_memory_bounded():
    """Over a pool of half of the columns, θ=auto holds the same fixed
    working set: no copy as long as the pool's entries."""
    n, ic, tied = _big_influence()
    for m in (ic, tied):
        theta, want, peak = _theta_and_peak(m, np.arange(0, n, 2))
        assert theta == want
        assert peak < THETA_PEAK_BYTES


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["block", "one-pair"])
@pytest.mark.parametrize("n, d", [(50, 3), (300, 256)])
def test_auto_radius_matches_whole_sample(n, d, block_bytes, monkeypatch):
    """Blocks of gathered rows, down to one pair each, give the radius of
    the whole sample gathered at once, bit for bit."""
    if block_bytes is not None:
        monkeypatch.setattr(objective.FeatureBalls, "BLOCK_BYTES", block_bytes)
    feats = np.random.default_rng(n).normal(size=(n, d))
    cfg = SelectionConfig(budget=1, rng_seed=7)
    assert _resolve_radius(cfg, feats) == oracles.sampled_radius(
        feats, cfg.rng_seed, RADIUS_QUANTILE)


def test_auto_radius_single_node_is_zero():
    cfg = SelectionConfig(budget=1)
    assert _resolve_radius(cfg, np.ones((1, 3))) == 0.0


def test_auto_radius_memory_bounded():
    """radius=auto on d=256 gathers about 1 MiB of rows at a time, not the
    20000 sampled pairs' 39 MiB per side."""
    feats = np.random.default_rng(2).normal(size=(2000, 256))
    cfg = SelectionConfig(budget=1)
    tracemalloc.start()
    try:
        radius = _resolve_radius(cfg, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert radius == oracles.sampled_radius(feats, cfg.rng_seed,
                                            RADIUS_QUANTILE)


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
    assert [v.hex() for v in lazy.gains] == [v.hex() for v in naive.gains]
    assert lazy.trace == naive.trace
    assert lazy.n_evaluations <= naive.n_evaluations


@pytest.mark.parametrize("radius", [0.0, math.sqrt(2), math.inf, "auto"])
@pytest.mark.parametrize("seed", range(24))
def test_lazy_matches_heap_oracle(seed, radius):
    """The sorted queue gives the ``heapq`` CELF loop's seeds, gain bits,
    trace bits and evaluation count. Each instance holds a component and
    its copy, with equal integer features, so a node and its copy tie on
    every gain; some hold isolated nodes past the copies. Odd seeds
    restrict the pool to some pairs and a few other nodes; k runs over
    0-2, gamma over 0, 1/2 and 1 (0 and 1 give many ties and zero gains)
    and the budget up to the pool size."""
    rng = np.random.default_rng(3000 + seed)
    half = int(rng.integers(3, 9))
    edges = oracles.random_hypergraph(rng, half, int(rng.integers(2, 8)))
    edges += [[v + half for v in e] for e in edges]
    n = 2 * half + int(rng.integers(0, 3))
    x = rng.integers(0, 3, size=(half, 3)).astype(float)
    x = np.vstack([x, x, rng.integers(0, 3, size=(n - 2 * half, 3))])
    pairs = np.arange(half)
    pool = None
    if seed % 2:
        pairs = rng.choice(half, size=int(rng.integers(1, half + 1)),
                           replace=False)
        extra = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        pool = tuple(np.concatenate([pairs, pairs + half, extra]).tolist())
    size = n if pool is None else len(set(pool))
    cfg = SelectionConfig(
        budget=int(rng.integers(1, size + 1)), k=seed % 3, alpha=0.8,
        theta=0.05, radius=radius, beta=0.3,
        gamma=float(rng.choice([0.0, 0.5, 1.0])), candidate_pool=pool)
    ctx = prepare(build(edges, num_nodes=n), x, cfg)
    first = objective.marginal_gain(
        ctx.fresh_state(), np.concatenate([pairs, pairs + half]), cfg.gamma,
        ctx.moi_hat, ctx.edv_hat)
    assert first[:pairs.size].tobytes() == first[pairs.size:].tobytes()

    def bits(res):
        return (res.seeds, [v.hex() for v in res.gains],
                [tuple(float(v).hex() for v in t) for t in res.trace],
                res.n_evaluations)

    assert bits(select_lazy(ctx)) == bits(oracles.celf_heap(ctx))


def test_lazy_zero_first_gain_keeps_its_sign():
    """Every pool node's activation set is empty (θ above each connected
    node's entries) and γ = 1, so the first gains are all +0.0; the queue's
    key must stay -0.0, or the reported gain turns into -0.0."""
    g = build([[0, 1], [1, 2]], num_nodes=4)
    x = np.arange(8.0).reshape(4, 2)
    ctx = prepare(g, x, SelectionConfig(
        budget=2, k=1, alpha=0.5, theta=0.99, radius=1.0, gamma=1.0,
        candidate_pool=(0, 1, 2)))
    for res in (select_lazy(ctx), select_naive(ctx), oracles.celf_heap(ctx)):
        assert [v.hex() for v in res.gains] == ["0x0.0p+0"] * 2


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
    """The context holds one activation row per pool node and a state one
    composed union per pool node, each equal to a full-pool context's row
    of that node (the rows id for id, in sorted order), in every coverage
    form; a node outside the pool has no row, and a state rejects it. Lazy
    and naive still agree."""
    pool = [0, 2, 5]
    g, x, edges, n, ctx = make_context(3, radius=radius,
                                       candidate_pool=tuple(pool))
    full = make_context(3, radius=radius)[-1]
    outside = np.setdiff1d(np.arange(n), pool)
    assert ctx.acts.shape == (len(pool), n)
    for i, u in enumerate(pool):
        row = ctx.acts.indices[ctx.acts.indptr[i]:ctx.acts.indptr[i + 1]]
        want = full.acts.indices[full.acts.indptr[u]:full.acts.indptr[u + 1]]
        assert want.size and (np.diff(want) > 0).all()
        assert row.tolist() == want.tolist()
    state = ctx.fresh_state()
    sizes = state.sets.uncovered(state.sets.empty(), np.arange(len(pool)))
    expect = full.fresh_state().sets.uncovered(full.balls.empty(),
                                               np.arange(n))
    assert expect[outside].any()
    assert sizes.tolist() == expect[pool].tolist()
    for v in (outside[0], outside[-1]):
        with pytest.raises(DataError, match=f"node {v} is not a candidate"):
            state.gains([pool[0], v])
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
    exactly, and lazy's evaluation count is pinned: 20,880 against the
    naive scan's 49,955."""
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
    block_rows = objective.FeatureBalls.BLOCK_BYTES \
        // state.sets._bits[0].nbytes
    assert ctx.pool.size > 2 * block_rows
    naive = select_naive(ctx)
    lazy = select_lazy(ctx)
    assert lazy.seeds == naive.seeds
    assert lazy.gains == naive.gains
    assert lazy.trace == naive.trace
    assert (lazy.n_evaluations, naive.n_evaluations) == (20880, 49955)


@pytest.mark.parametrize("pool", [None, (0, 2, 5)], ids=["all", "pool"])
@pytest.mark.parametrize("radius", [0.0, 0.8, math.inf])
def test_prepare_composes_one_row_and_states_own_rows(radius, pool,
                                                       monkeypatch):
    """``prepare`` makes at most one :meth:`FeatureBalls.unions` call, of
    one row, whose count is MoI(V): none at θ = 0.05, where σ_all holds
    every node and MoI(V) = n, and one at θ = 0.4, where it holds 7 of 13.
    Each fresh state makes one call of one row per pool node, row i the
    ``U_c`` of ``pool[i]``, and owns its rows and its covered set, in the
    CSR (radius 0), bitset (0.8) and live-mask (inf) forms."""
    calls, outs = [], []
    unions = objective.FeatureBalls.unions

    def counted(self, groups):
        calls.append(groups.shape)
        outs.append(unions(self, groups))
        return outs[-1]

    monkeypatch.setattr(objective.FeatureBalls, "unions", counted)
    for theta in (0.05, 0.4):
        del calls[:], outs[:]
        g, x, edges, n, ctx = make_context(3, radius=radius, theta=theta,
                                           candidate_pool=pool)
        m_k, oballs = oracle_inputs(g, x, ctx)
        assert ctx.moi_hat == oracles.moi_value(m_k, theta, set(range(n)),
                                                oballs)
        if theta == 0.05:
            assert calls == [] and ctx.moi_hat == n
        else:
            assert calls == [(1, n)]
            assert outs[0].uncovered(outs[0].empty(), np.array([0]))[0] \
                == ctx.moi_hat == (n if radius else 7)
        rows = ctx.pool.size
        first, second = ctx.fresh_state(), ctx.fresh_state()
        assert calls[-2:] == [(rows, n), (rows, n)]
        assert outs[-2] is first.sets and outs[-1] is second.sets
        assert first.sets is not second.sets
        assert (ctx.balls._csr is not None) == (radius == 0.0)
        assert (ctx.balls._live is not None) == (radius == math.inf)
        assert first.sets.uncovered(first.sets.empty(),
                                    np.arange(rows)).tolist() \
            == [oracles.moi_value(m_k, theta, {c}, oballs) for c in ctx.pool]
        moi, _ = first.gains(ctx.pool)
        first.add(int(ctx.pool[np.argmax(moi)]))
        assert first.covered is not second.covered
        assert first.covered.any() and not second.covered.any()
        assert first.moi_value == moi.max() > 0 and second.moi_value == 0
        with pytest.raises(DataError, match="out of range"):
            first.gains([n])  # no row past the nodes
