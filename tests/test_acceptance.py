"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS`` line on success (visible
with ``pytest -s`` or in captured output). Tolerances are fixed here, not
configurable.
"""

import itertools
import math
import resource
import time

import numpy as np
import pytest

import hial
from hial import (
    SelectionConfig,
    build,
    build_activation_sets,
    build_feature_balls,
    build_hoi_transition,
    edv,
    influence_columns,
    prepare,
    propagate,
    select_lazy,
    select_naive,
)
from hial.cli import label_propagation_accuracy
from hial.dataio import Dataset
from hial.objective import CoverageState
import oracles

TOL = 1e-9


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def _safe_threshold(values, quantile):
    """Quantile of ``values`` pushed strictly between data points.

    The activation threshold and ball radius are compared with strict
    inequalities, so a boundary sitting within float noise of an actual
    value would make oracle and production disagree at the last bit. Pick
    the midpoint toward the next value with a real relative gap instead.
    """
    if values.size == 0:
        return 0.0
    vals = np.sort(np.asarray(values, dtype=float))
    a = vals[min(int(quantile * vals.size), vals.size - 1)]
    higher = vals[vals > a * (1 + 1e-9) + 1e-300]
    return float(0.5 * (a + higher[0])) if higher.size else float(a)


def build_structures(rng, n, m, d=8, theta_q=0.8, radius_q=0.3,
                     k=2, alpha=0.8, beta=0.3):
    """Random instance with production-path influence structures."""
    edges = oracles.random_hypergraph(rng, n, m)
    g = build(edges, num_nodes=n)
    x = rng.normal(size=(n, d))
    t = build_hoi_transition(g)
    ps = propagate(t, x, k, alpha)
    ic = influence_columns(t, k, alpha)
    norm = ic.columns.data
    # place theta strictly between two data values so the strict-inequality
    # threshold cannot flip on last-bit float differences across backends
    theta = _safe_threshold(norm, theta_q)
    acts = build_activation_sets(ic, theta)
    i = rng.integers(0, n, 200)
    j = rng.integers(0, n, 200)
    dist = np.linalg.norm(
        ps.propagated_features[i] - ps.propagated_features[j], axis=1)[i != j]
    radius = _safe_threshold(dist, radius_q)
    balls = build_feature_balls(ps, radius)
    return edges, g, t, ps, acts, balls, theta, beta


def sigma_size(acts, seeds):
    """|sigma(S)|: the size of the union of the seeds' activation rows."""
    activated = np.zeros(acts.indptr.size - 1, dtype=bool)
    for v in seeds:
        activated[acts.indices[acts.indptr[v]:acts.indptr[v + 1]]] = True
    return int(activated.sum())


def evaluate_set(g, acts, balls, beta, seeds):
    """(|sigma|, MoI, EDV) of a seed set through the production state."""
    state = CoverageState(g, acts, balls, beta)
    for v in sorted(seeds):
        state.add(int(v))
    return sigma_size(acts, seeds), state.moi_value, state.edv_value


def test_criterion_1_monotone_submodular():
    """100 random hypergraphs, >=1000 (S subset T, v) triples, monotone and
    diminishing-returns inequalities for |sigma|, MoI, EDV, F; < 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    gamma = 0.5
    triples = 0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        m = int(rng.integers(5, 81))
        edges, g, t, ps, acts, balls, theta, beta = build_structures(rng, n, m)
        moi_hat = max(1, n)
        edv_hat = float(n)

        def f_of(parts):
            return (gamma * parts[1] / moi_hat
                    + (1 - gamma) * parts[2] / edv_hat)

        for _ in range(11):
            s_size = int(rng.integers(0, max(1, n - 2)))
            perm = rng.permutation(n)
            s = set(perm[:s_size].tolist())
            extra = int(rng.integers(0, n - s_size - 1))
            t_set = s | set(perm[s_size:s_size + extra].tolist())
            v = int(perm[-1])
            ps_ = evaluate_set(g, acts, balls, beta, s)
            pt = evaluate_set(g, acts, balls, beta, t_set)
            psv = evaluate_set(g, acts, balls, beta, s | {v})
            ptv = evaluate_set(g, acts, balls, beta, t_set | {v})
            for idx in range(3):  # |sigma|, MoI, EDV monotone
                assert pt[idx] >= ps_[idx] - TOL
                assert psv[idx] >= ps_[idx] - TOL
                assert psv[idx] - ps_[idx] >= ptv[idx] - pt[idx] - TOL
            fs, ft = f_of(ps_), f_of(pt)
            fsv, ftv = f_of(psv), f_of(ptv)
            assert ft >= fs - TOL and fsv >= fs - TOL
            assert fsv - fs >= ftv - ft - TOL
            triples += 1
    elapsed = time.perf_counter() - start
    assert triples >= 1000
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    report("1 (monotonicity & submodularity)")


def test_criterion_2_greedy_guarantee():
    """50 exhaustively solvable instances: greedy within (1 - 1/e) of the
    enumerated optimum; < 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    factor = 1 - 1 / math.e
    for trial in range(50):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(3, 15))
        budget = int(rng.integers(1, 4))
        pool = sorted(rng.permutation(n)[:min(10, n)].tolist())
        budget = min(budget, len(pool))
        edges, g, t, ps, acts, balls, theta, beta = build_structures(
            rng, n, m, d=4)
        moi_hat = max(1, n)
        edv_hat = float(n)
        gamma = 0.5

        def value(subset):
            parts = evaluate_set(g, acts, balls, beta, subset)
            return gamma * parts[1] / moi_hat + (1 - gamma) * parts[2] / edv_hat

        cfg = SelectionConfig(budget=budget, k=2, alpha=0.8, theta=theta,
                              radius=balls.radius, beta=beta, gamma=gamma,
                              candidate_pool=tuple(pool))
        try:
            ctx = prepare(g, ps.initial_features, cfg)
        except hial.ConfigError:
            continue  # degenerate draw (empty coverage); not exhaustible
        res = select_naive(ctx)
        greedy_val = value(set(res.seeds))
        _, opt = oracles.exhaustive_best_subset(value, pool, budget)
        assert greedy_val >= factor * opt - TOL, (
            f"trial {trial}: greedy {greedy_val} < {factor} * {opt}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"
    report("2 (greedy (1-1/e) guarantee)")


def test_criterion_3_oracle_equivalence():
    """Influence columns vs dense recurrence (1e-10) and finite differences
    (1e-5 relative); incremental state vs from-scratch (1e-9) over 1000
    random add sequences."""
    rng = np.random.default_rng(555)
    # columns vs dense recurrence and finite differences
    for _ in range(20):
        n = int(rng.integers(4, 9))
        edges = oracles.random_hypergraph(rng, n, int(rng.integers(2, 10)))
        g = build(edges, num_nodes=n)
        t = build_hoi_transition(g)
        k = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.2, 0.95))
        ic = influence_columns(t, k, alpha)
        dense = oracles.dense_influence_matrix(t.matrix.toarray(), k, alpha)
        np.testing.assert_allclose(
            ic.columns.toarray() * ic.row_sums[:, None], dense, atol=1e-10)
        x = rng.normal(size=(n, 3))
        for _ in range(4):
            j, u = int(rng.integers(n)), int(rng.integers(n))
            fd = oracles.finite_difference_influence(
                t.matrix.toarray(), x, k, alpha, j, u)
            np.testing.assert_allclose(
                fd, np.full(fd.size, dense[j, u]), rtol=1e-5, atol=1e-7)

    # incremental vs scratch: 1000 random add sequences over 50 instances
    sequences = 0
    for _ in range(50):
        n = int(rng.integers(5, 13))
        edges, g, t, ps, acts, balls, theta, beta = build_structures(
            rng, n, int(rng.integers(3, 14)), d=4)
        m_k = oracles.dense_influence_matrix(t.matrix.toarray(), 2, 0.8)
        oballs = oracles.feature_balls(ps.propagated_features, balls.radius)
        for _ in range(20):
            size = int(rng.integers(1, n + 1))
            seq = rng.permutation(n)[:size]
            state = CoverageState(g, acts, balls, beta)
            for v in seq:
                state.add(int(v))
            expect_moi = oracles.moi_value(m_k, theta, set(seq.tolist()),
                                           oballs)
            expect_edv = oracles.edv_value(edges, n, seq.tolist(), beta)
            assert state.moi_value == expect_moi
            assert abs(state.edv_value - expect_edv) <= 1e-9
            sequences += 1
    assert sequences >= 1000
    report("3 (oracle equivalence)")


def test_criterion_4_moi_reduces_to_sigma_at_radius_zero():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(5, 30))
        edges, g, t, ps, acts, _, theta, beta = build_structures(
            rng, n, int(rng.integers(3, 30)), d=4)
        balls = build_feature_balls(ps, 0.0)
        state = CoverageState(g, acts, balls, beta)
        seeds = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        for v in seeds:
            state.add(int(v))
        assert state.moi_value == sigma_size(acts, seeds)
    report("4 (MoI reduction at r = 0)")


def test_criterion_5_lazy_naive_identity():
    """Identical seed sequences on 100 random instances; strictly fewer
    evaluations whenever the pool has >= 20 candidates."""
    rng = np.random.default_rng(31337)
    checked_large = 0
    for trial in range(100):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(4, 40))
        edges = oracles.random_hypergraph(rng, n, m)
        g = build(edges, num_nodes=n)
        x = rng.normal(size=(n, 5))
        budget = int(rng.integers(2, min(6, n)))
        cfg = SelectionConfig(budget=budget, k=2,
                              alpha=float(rng.uniform(0.3, 0.95)),
                              theta="auto", radius="auto",
                              beta=float(rng.uniform(0.1, 0.9)),
                              gamma=float(rng.uniform(0.0, 1.0)),
                              theta_quantile=0.8, rng_seed=trial)
        try:
            ctx = prepare(g, x, cfg)
        except hial.ConfigError:
            continue
        naive = select_naive(ctx)
        lazy = select_lazy(ctx)
        assert lazy.seeds == naive.seeds, f"trial {trial}"
        if ctx.pool.size >= 20:
            assert lazy.n_evaluations < naive.n_evaluations, f"trial {trial}"
            checked_large += 1
    assert checked_large >= 20
    report("5 (lazy/naive identity)")


def test_criterion_6_edv_hand_cases():
    g1 = build([[0, 1]], num_nodes=2)
    assert abs(edv(g1, [0], 0.1) - 1.1) <= 1e-12
    g2 = build([[0, 1], [0, 2], [1, 2]], num_nodes=3)
    assert abs(edv(g2, [0, 1], 0.5) - 2.4375) <= 1e-12
    report("6 (EDV hand-computed cases)")


def _two_community_instance():
    rng = np.random.default_rng(42)
    n = 200
    labels = np.array([0] * 100 + [1] * 100)
    edges = []
    for c in (0, 1):
        base = c * 100
        for i in range(0, 97, 3):  # overlapping chain of 4-node groups
            edges.append([base + i, base + i + 1, base + i + 2, base + i + 3])
    edges.append([50, 150, 51, 151])
    edges.append([20, 120])
    g = build(edges, num_nodes=n)
    feats = np.zeros((n, 4))
    feats[:, 0] = np.where(labels == 0, 1.5, -1.5)
    feats[:, 1] = (np.arange(n) % 100) / 25.0  # position along the chain
    feats += rng.normal(size=(n, 4)) * 0.15
    return g, feats, labels


def test_criterion_7_desk_scale_proxy():
    """Selected seeds beat the mean of 20 random draws by >= 10 points of
    label-propagation accuracy on a planted 2-community hypergraph."""
    g, feats, labels = _two_community_instance()
    ds = Dataset(g, feats, labels, {}, [str(i) for i in range(g.num_nodes)])
    cfg = SelectionConfig(budget=10, k=3, alpha=0.9, theta=0.01, radius=0.25,
                          beta=0.1, gamma=0.5, rng_seed=0)
    ctx = prepare(g, feats, cfg)
    res = select_lazy(ctx)
    acc = label_propagation_accuracy(ds, np.asarray(res.seeds), 3, 0.9, "hoi")
    rand_accs = []
    for t in range(20):
        draw = np.random.default_rng(1000 + t).choice(
            g.num_nodes, size=10, replace=False)
        rand_accs.append(label_propagation_accuracy(ds, draw, 3, 0.9, "hoi"))
    margin = acc - float(np.mean(rand_accs))
    assert margin >= 0.10, (
        f"selected acc {acc:.3f}, random mean {np.mean(rand_accs):.3f}, "
        f"margin {margin:.3f}")
    report("7 (desk-scale selection beats random by >= 10 points)")


def test_criterion_8_scalability_smoke():
    """B=50 from n=100k, m=50k (mean edge size 5) in < 10 minutes and
    < 8 GB peak, via candidate-column computation."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n, m = 100_000, 50_000
    sizes = rng.poisson(4, m) + 1  # mean edge size 5
    flat = rng.integers(0, n, size=int(sizes.sum()))
    edge_lists = np.split(flat, np.cumsum(sizes)[:-1])
    g = build([e.tolist() for e in edge_lists], num_nodes=n)
    centers = rng.normal(size=(4, 8)) * 3
    feats = centers[rng.integers(0, 4, n)] + rng.normal(size=(n, 8))
    cfg = SelectionConfig(budget=50, k=2, alpha=0.9, theta="auto",
                          radius=0.3, beta=0.1, gamma=0.5, rng_seed=0)
    ctx = prepare(g, feats, cfg)
    res = select_lazy(ctx)
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    assert len(res.seeds) == 50
    assert elapsed < 600, f"took {elapsed:.0f}s"
    assert peak_gb < 8, f"peak memory {peak_gb:.2f} GB"
    report(f"8 (scalability: {elapsed:.0f}s, peak {peak_gb:.2f} GB)")
