import tracemalloc

import numpy as np
import pytest

from hial import (
    ConfigError,
    DataError,
    build,
    build_activation_sets,
    build_feature_balls,
    build_hoi_transition,
    edv,
    influence_columns,
    propagate,
    unified_objective,
)
from hial import objective
from hial.objective import CoverageState, FeatureBalls
import oracles


def make_instance(seed, n_max=10, d=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    edges = oracles.random_hypergraph(rng, n, int(rng.integers(2, 12)))
    g = build(edges, num_nodes=n)
    x = rng.normal(size=(n, d))
    t = build_hoi_transition(g)
    k, alpha = 2, 0.8
    ps = propagate(t, x, k, alpha)
    ic = influence_columns(t, k, alpha)
    m_k = oracles.dense_influence_matrix(t.matrix.toarray(), k, alpha)
    return rng, g, edges, n, ps, ic, m_k


# -- activation sets ----------------------------------------------------


def test_theta_one_empties_everything():
    _, g, _, n, _, ic, _ = make_instance(0)
    acts = build_activation_sets(ic, 1.0)
    for u in range(n):
        assert acts.members(u).size == 0


def test_theta_zero_keeps_all_positive_entries():
    _, g, _, n, _, ic, m_k = make_instance(1)
    acts = build_activation_sets(ic, 0.0)
    for u in range(n):
        expect = {j for j in range(n) if m_k[j, u] > 1e-15}
        assert expect <= set(acts.members(u))


@pytest.mark.parametrize("seed", range(10))
def test_activation_sets_match_bruteforce(seed):
    _, g, _, n, _, ic, m_k = make_instance(seed)
    theta = 0.07
    acts = build_activation_sets(ic, theta)
    for u in range(n):
        expect = oracles.activated_set(m_k, theta, {u})
        assert set(acts.members(u)) == expect


def test_activation_members_out_of_range_rejected():
    _, g, _, n, ps, ic, _ = make_instance(4)
    acts = build_activation_sets(ic, 0.05)
    balls = build_feature_balls(ps, 1.0)
    for u in (-1, n):
        with pytest.raises(DataError):
            acts.members(u)
        with pytest.raises(DataError):
            balls.members(u)


@pytest.mark.parametrize("seed", range(10))
def test_sigma_union_identity(seed):
    """Union of single-seed activation sets equals max-then-threshold."""
    rng, g, _, n, _, ic, m_k = make_instance(seed)
    theta = 0.05
    acts = build_activation_sets(ic, theta)
    seeds = set(rng.choice(n, size=3, replace=False).tolist())
    direct = oracles.activated_set(m_k, theta, seeds)
    union = np.concatenate([acts.members(u) for u in seeds])
    assert set(union.tolist()) == direct


# -- feature balls ------------------------------------------------------


def test_radius_zero_distinct_features():
    _, g, _, n, ps, _, _ = make_instance(2)
    balls = build_feature_balls(ps, 0.0)
    for u in range(n):
        assert list(balls.members(u)) == [u]


def test_radius_infinite_covers_all():
    _, g, _, n, ps, _, _ = make_instance(3)
    balls = build_feature_balls(ps, np.inf)
    for u in range(n):
        assert list(balls.members(u)) == list(range(n))
    assert balls.indices.size == n  # one shared row, not n copies
    assert balls.indptr.tolist() == [0, n]


def test_negative_radius_rejected():
    _, g, _, n, ps, _, _ = make_instance(3)
    for bad in (-0.5, np.nan):
        with pytest.raises(ConfigError):
            build_feature_balls(ps, bad)


@pytest.mark.parametrize("seed", range(10))
def test_balls_match_double_loop(seed):
    rng, g, _, n, ps, _, _ = make_instance(seed)
    r = float(rng.uniform(0.2, 3.0))
    balls = build_feature_balls(ps, r)
    expect = oracles.feature_balls(ps.propagated_features, r)
    for u in range(n):
        assert set(balls.members(u)) == expect[u]
        assert u in expect[u]
    # symmetry
    for u in range(n):
        for v in expect[u]:
            assert u in expect[v]


def test_balls_bruteforce_path_matches_kdtree(monkeypatch):
    rng = np.random.default_rng(11)
    n, d, r = 30, 5, 1.4
    pts = rng.normal(size=(n, d))
    # 4 rows per block, so both paths build the index in several blocks
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", 4 * 8 * n * d)
    kd = FeatureBalls(pts, r)
    monkeypatch.setattr(FeatureBalls, "BRUTE_DIM", 0)
    monkeypatch.setattr(objective, "cKDTree", None)  # brute path needs no tree
    brute = FeatureBalls(pts, r)
    expect = oracles.feature_balls(pts, r)
    for u in range(n):
        assert list(kd.members(u)) == list(brute.members(u))
        assert set(brute.members(u)) == expect[u]


def test_bruteforce_balls_hold_one_block_tensor(monkeypatch):
    """The direct-difference path keeps at most one block's n x d tensor
    alive, so its memory stays near BLOCK_BYTES."""
    rng = np.random.default_rng(12)
    n, d = 400, 20
    block_bytes = 50 * 8 * n * d
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", block_bytes)
    pts = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        FeatureBalls(pts, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes


# -- EDV ----------------------------------------------------------------


def test_edv_empty_set():
    g = build([[0, 1]], num_nodes=2)
    assert edv(g, [], 0.1) == 0.0


def test_edv_hand_example_single_edge():
    g = build([[0, 1]], num_nodes=2)
    assert edv(g, [0], 0.1) == pytest.approx(1.1, abs=1e-12)


def test_edv_hand_example_triangle():
    g = build([[0, 1], [0, 2], [1, 2]], num_nodes=3)
    assert edv(g, [0, 1], 0.5) == pytest.approx(2.4375, abs=1e-12)


def test_edv_rejects_bad_beta():
    g = build([[0, 1]], num_nodes=2)
    for beta in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ConfigError):
            edv(g, [0], beta)


def test_edv_isolated_seed_counts_once():
    g = build([[0, 1]], num_nodes=3)
    assert edv(g, [2], 0.3) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(15))
def test_edv_matches_oracle(seed):
    rng, g, edges, n, *_ = make_instance(seed)
    beta = float(rng.uniform(0.05, 0.95))
    for _ in range(5):
        size = int(rng.integers(1, n))
        seeds = rng.choice(n, size=size, replace=False).tolist()
        assert edv(g, seeds, beta) == pytest.approx(
            oracles.edv_value(edges, n, seeds, beta), abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_edv_bounds(seed):
    rng, g, edges, n, *_ = make_instance(seed)
    for _ in range(5):
        seeds = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        val = edv(g, seeds, 0.4)
        n_s = len(set(seeds.tolist()))
        frontier = oracles.neighborhood_of_set(g, seeds)
        assert n_s - 1e-9 <= val <= n_s + frontier.size + 1e-9


# -- coverage state ------------------------------------------------------


def build_state(seed, theta=0.05, radius=1.0, beta=0.3):
    rng, g, edges, n, ps, ic, m_k = make_instance(seed)
    acts = build_activation_sets(ic, theta)
    balls = build_feature_balls(ps, radius)
    state = CoverageState(g, acts, balls, beta)
    oracle_balls = oracles.feature_balls(ps.propagated_features, radius)
    return rng, g, edges, n, m_k, acts, balls, state, oracle_balls, theta, beta


def test_empty_state():
    *_, state, _, _, _ = build_state(0)
    assert state.moi_value == 0
    assert state.edv_value == 0.0


def test_first_add_matches_definitions():
    rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = build_state(1)
    v = 0
    state.add(v)
    assert state.moi_value == oracles.moi_value(m_k, theta, {v}, oballs)
    assert state.edv_value == pytest.approx(edv(g, [v], beta), abs=1e-12)


def test_saturated_add_gains_zero_moi():
    *_, state, _, _, _ = build_state(2, radius=np.inf, theta=0.0)
    state.add(0)
    n = state.graph.num_nodes
    assert state.moi_value == n
    assert state.gains([1])[0].tolist() == [0]


def test_duplicate_add_rejected():
    *_, state, _, _, _ = build_state(3)
    state.add(1)
    with pytest.raises(DataError):
        state.add(1)
    with pytest.raises(DataError):
        state.gains([1])
    n = state.graph.num_nodes
    for bad in ([0, -1], [n]):  # a negative id must not wrap around
        with pytest.raises(DataError):
            state.gains(bad)


@pytest.mark.parametrize("seed", range(20))
def test_incremental_matches_scratch(seed):
    rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
        build_state(seed)
    order = rng.permutation(n)[:min(5, n)]
    chosen = []
    for v in order:
        chosen.append(int(v))
        state.add(int(v))
        expect_moi = oracles.moi_value(m_k, theta, set(chosen), oballs)
        expect_edv = oracles.edv_value(edges, n, chosen, beta)
        assert state.moi_value == expect_moi
        assert state.edv_value == pytest.approx(expect_edv, abs=1e-9)
        # evasion invariant
        live = ~state.in_seed
        assert np.all(state.evasion[live] > 0)
        assert np.all(state.evasion[live] <= 1.0 + 1e-15)
        frontier = set(oracles.neighborhood_of_set(g, chosen))
        for w in range(n):
            if w in chosen:
                continue
            assert (state.evasion[w] < 1.0) == (w in frontier)


@pytest.mark.parametrize("seed", range(20))
def test_gain_queries_match_add(seed):
    rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
        build_state(seed, radius=0.8, beta=0.5)
    for _ in range(min(4, n - 1)):
        candidates = np.flatnonzero(~state.in_seed)
        v = int(rng.choice(candidates))
        (mg,), (eg,) = state.gains([v])
        pre_moi, pre_edv = state.moi_value, state.edv_value
        state.add(v)
        assert state.moi_value - pre_moi == mg
        assert state.edv_value - pre_edv == pytest.approx(eg, abs=1e-9)
        assert mg >= 0
        assert eg >= -1e-12


@pytest.mark.parametrize("block_flops", [1, 8, CoverageState.BLOCK_FLOPS])
@pytest.mark.parametrize("radius", [0.0, 0.8, np.inf])
@pytest.mark.parametrize("seed", range(8))
def test_batched_gains_match_oracle(seed, radius, block_flops, monkeypatch):
    """Every non-seed candidate's batched gains equal the oracle
    differences after each add, however the product is split into blocks,
    and a permuted batch gives the permuted gains."""
    monkeypatch.setattr(CoverageState, "BLOCK_FLOPS", block_flops)
    rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
        build_state(seed, radius=radius, beta=0.5)
    chosen = []
    for _ in range(min(4, n - 1)):
        cands = np.flatnonzero(~state.in_seed)
        moi, edv_g = state.gains(cands)
        base_moi = oracles.moi_value(m_k, theta, set(chosen), oballs)
        base_edv = oracles.edv_value(edges, n, chosen, beta)
        for c, mg, eg in zip(cands.tolist(), moi, edv_g):
            assert mg == oracles.moi_value(m_k, theta, set(chosen) | {c},
                                           oballs) - base_moi
            assert eg == pytest.approx(
                oracles.edv_value(edges, n, chosen + [c], beta) - base_edv,
                abs=1e-9)
        perm = rng.permutation(cands.size)
        p_moi, p_edv = state.gains(cands[perm])
        assert p_moi.tolist() == moi[perm].tolist()
        assert p_edv.tolist() == edv_g[perm].tolist()
        v = int(rng.choice(cands))
        chosen.append(v)
        state.add(v)


def test_moi_reduces_to_sigma_when_radius_zero():
    for seed in range(10):
        rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
            build_state(seed, radius=0.0)
        for v in rng.permutation(n)[:3]:
            state.add(int(v))
        assert state.moi_value == int(state.activated.sum())


# -- unified objective ---------------------------------------------------


def test_unified_objective_extremes():
    assert unified_objective(5, 2.0, 10, 4.0, 1.0) == pytest.approx(0.5)
    assert unified_objective(5, 2.0, 10, 4.0, 0.0) == pytest.approx(0.5)
    assert unified_objective(5, 2.0, 10, 4.0, 0.5) == pytest.approx(0.5)


def test_unified_objective_rejects_degenerate():
    with pytest.raises(ConfigError):
        unified_objective(1, 1.0, 0, 4.0, 0.5)
    with pytest.raises(ConfigError):
        unified_objective(1, 1.0, 10, 0.0, 0.5)
    with pytest.raises(ConfigError):
        unified_objective(1, 1.0, 10, 4.0, 1.5)


# -- monotonicity and submodularity (small-scale spot checks; the full
#    sweep lives in the acceptance suite) --------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_monotone_submodular_spot_check(seed):
    rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
        build_state(seed, radius=0.7, beta=0.4)
    gamma, moi_hat, edv_hat = 0.5, max(1, n), float(n)

    def f_parts(subset):
        return oracles.scratch_objective(edges, n, m_k, theta, oballs,
                                         subset, beta, gamma, moi_hat, edv_hat)

    for _ in range(30):
        pool = list(range(n))
        s_size = int(rng.integers(0, n - 1))
        s = set(rng.choice(pool, size=s_size, replace=False).tolist())
        extra = [v for v in pool if v not in s]
        t_set = s | set(rng.choice(extra, size=max(1, len(extra) // 2),
                                   replace=False).tolist())
        v = int(rng.choice([w for w in pool if w not in t_set]
                           or [extra[0]]))
        if v in t_set:
            continue
        ms, es, fs = f_parts(s)
        mt, et, ft = f_parts(t_set)
        msv, esv, fsv = f_parts(s | {v})
        mtv, etv, ftv = f_parts(t_set | {v})
        # monotone
        assert mt >= ms and msv >= ms
        assert et >= es - 1e-9 and esv >= es - 1e-9
        assert ft >= fs - 1e-9 and fsv >= fs - 1e-9
        # diminishing returns
        assert msv - ms >= mtv - mt - 1e-9
        assert esv - es >= etv - et - 1e-9
        assert fsv - fs >= ftv - ft - 1e-9
