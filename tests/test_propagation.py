import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hial import (
    ConfigError,
    DataError,
    build,
    build_hgnn_transition,
    build_hoi_transition,
    build_transition,
    influence_columns,
    propagate,
)
from hial import propagation
from hial.propagation import TransitionMatrix
import oracles


def small_instance(seed, n_max=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_max + 1))
    edges = oracles.random_hypergraph(rng, n, int(rng.integers(1, 10)))
    g = build(edges, num_nodes=n)
    x = rng.normal(size=(n, 4))
    return g, edges, n, x, rng


def test_hoi_single_triangle_edge():
    g = build([[0, 1, 2]], num_nodes=3)
    t = build_hoi_transition(g)
    # raw pair weight is (3-1)=2 everywhere off-diagonal; row sums are 4
    raw = oracles.dense_transition_hoi([[0, 1, 2]], 3)
    np.testing.assert_allclose(t.matrix.toarray(), raw, atol=1e-12)
    assert raw[0, 1] == pytest.approx(2 / 4)


def test_hoi_pair_weight_accumulates_across_edges():
    edges = [[0, 1, 2], [1, 2]]
    g = build(edges, num_nodes=3)
    scale = build_hoi_transition(g)
    # unnormalized weight between 1 and 2: (3-1) + (2-1) = 3
    l = oracles.dense_transition_hoi(edges, 3)
    np.testing.assert_allclose(scale.matrix.toarray(), l, atol=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_hoi_matches_bruteforce(seed):
    g, edges, n, _, _ = small_instance(seed)
    t = build_hoi_transition(g)
    expect = oracles.dense_transition_hoi(edges, n)
    np.testing.assert_allclose(t.matrix.toarray(), expect, atol=1e-12)
    assert np.all(np.abs(np.diag(t.matrix.toarray())) == 0)
    # symmetric
    np.testing.assert_allclose(t.matrix.toarray(), t.matrix.toarray().T,
                               atol=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_spectral_radius_bounded(seed):
    g, *_ = small_instance(seed)
    dense = build_hoi_transition(g).matrix.toarray()
    eigs = np.linalg.eigvalsh(dense)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-6


def test_hgnn_single_pair_edge():
    g = build([[0, 1]], num_nodes=2)
    t = build_hgnn_transition(g)
    np.testing.assert_allclose(t.matrix.toarray(),
                               [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_hgnn_singleton():
    g = build([[0]], num_nodes=1)
    t = build_hgnn_transition(g)
    np.testing.assert_allclose(t.matrix.toarray(), [[1.0]], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_hgnn_matches_dense_product(seed):
    g, edges, n, _, _ = small_instance(seed)
    t = build_hgnn_transition(g)
    expect = oracles.dense_transition_hgnn(edges, n)
    np.testing.assert_allclose(t.matrix.toarray(), expect, atol=1e-12)


def test_hgnn_isolated_node_zero_row():
    g = build([[0, 1]], num_nodes=3)
    t = build_hgnn_transition(g)
    assert np.all(t.matrix.toarray()[2] == 0)


def test_propagate_alpha_zero_is_identity():
    g, _, n, x, _ = small_instance(1)
    t = build_hoi_transition(g)
    ps = propagate(t, x, 5, 0.0)
    np.testing.assert_array_equal(ps.propagated_features, x)


def test_propagate_k_zero():
    g, _, n, x, _ = small_instance(2)
    t = build_hoi_transition(g)
    ps = propagate(t, x, 0, 0.7)
    np.testing.assert_array_equal(ps.propagated_features, x)


def test_propagate_shape_mismatch_rejected():
    g = build([[0, 1]], num_nodes=2)
    t = build_hoi_transition(g)
    with pytest.raises(DataError):
        propagate(t, np.zeros((3, 2)), 1, 0.5)
    with pytest.raises(ConfigError):
        propagate(t, np.zeros((2, 2)), 1, 1.5)
    with pytest.raises(ConfigError):
        propagate(t, np.zeros((2, 2)), -1, 0.5)
    with pytest.raises(ConfigError):
        build_transition(g, "nope")


def test_propagate_vector_is_one_column():
    g, _, n, x, _ = small_instance(4)
    t = build_hoi_transition(g)
    col = propagate(t, x[:, :1], 2, 0.6)
    vec = propagate(t, x[:, 0], 2, 0.6)
    np.testing.assert_array_equal(vec.propagated_features,
                                  col.propagated_features)
    np.testing.assert_array_equal(vec.initial_features, col.initial_features)


@pytest.mark.parametrize("seed", range(10))
def test_propagate_matches_dense_influence_product(seed):
    g, edges, n, x, _ = small_instance(seed)
    t = build_hoi_transition(g)
    for k in (1, 2, 3):
        ps = propagate(t, x, k, 0.6)
        m_k = oracles.dense_influence_matrix(t.matrix.toarray(), k, 0.6)
        np.testing.assert_allclose(ps.propagated_features, m_k @ x, atol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_propagate_linearity(seed):
    g, _, n, x, rng = small_instance(seed)
    y = rng.normal(size=x.shape)
    a, b = 0.7, -1.3
    t = build_hoi_transition(g)
    lhs = propagate(t, a * x + b * y, 3, 0.5).propagated_features
    rhs = (a * propagate(t, x, 3, 0.5).propagated_features
           + b * propagate(t, y, 3, 0.5).propagated_features)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_influence_columns_k0_and_alpha0():
    g, _, n, _, _ = small_instance(3)
    t = build_hoi_transition(g)
    for k, alpha in ((0, 0.8), (4, 0.0)):
        ic = influence_columns(t, k, alpha)
        normalized = ic.columns.toarray()
        np.testing.assert_allclose(normalized * ic.row_sums[:, None],
                                   np.eye(n), atol=1e-12)
        np.testing.assert_allclose(normalized, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_influence_columns_match_dense_recurrence(seed):
    g, _, n, _, rng = small_instance(seed)
    t = build_hoi_transition(g)
    k, alpha = int(rng.integers(1, 4)), float(rng.uniform(0.1, 1.0))
    ic = influence_columns(t, k, alpha)
    m_k = oracles.dense_influence_matrix(t.matrix.toarray(), k, alpha)
    assert ic.columns.shape == (n, n)
    np.testing.assert_allclose(ic.columns.toarray() * ic.row_sums[:, None],
                               m_k, atol=1e-10)
    np.testing.assert_allclose(ic.row_sums, m_k.sum(axis=1), atol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_normalized_influence_matches_finite_differences(seed):
    g, _, n, x, rng = small_instance(seed)
    t = build_hoi_transition(g)
    k, alpha = 2, 0.7
    ic = influence_columns(t, k, alpha)
    t_dense = t.matrix.toarray()
    for _ in range(5):
        j = int(rng.integers(n))
        u = int(rng.integers(n))
        fd = oracles.finite_difference_influence(t_dense, x, k, alpha, j, u)
        expect = ic.columns[j, u] * ic.row_sums[j]
        np.testing.assert_allclose(fd, np.full(fd.size, expect),
                                   rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("seed", range(10))
def test_influence_normalization_sums_to_one(seed):
    g, _, n, _, _ = small_instance(seed)
    t = build_hoi_transition(g)
    ic = influence_columns(t, 2, 0.6)
    normalized = ic.columns.toarray()
    full = normalized * ic.row_sums[:, None]
    assert np.all((0.0 <= normalized) & (normalized <= 1.0))
    np.testing.assert_allclose(normalized.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(full >= 0)
    assert np.all(ic.row_sums >= (1 - 0.6) - 1e-12)


def test_influence_columns_memory_bounded_by_output():
    """The pass holds a small multiple of the matrix it returns."""
    rng = np.random.default_rng(3)
    n = 1000
    t = build_hoi_transition(build(oracles.random_hypergraph(rng, n, 500),
                                   num_nodes=n))
    tracemalloc.start()
    try:
        ic = influence_columns(t, 2, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c = ic.columns
    held = (c.data.nbytes + c.indices.nbytes + c.indptr.nbytes
            + ic.row_sums.nbytes)
    assert n < c.nnz < n * n  # neither the identity nor dense
    assert peak < 3 * held


def random_graph(rng, n, m, max_size, isolated):
    """Random hyperedges over ``n`` ids. With ``isolated``, 20 more ids in
    no hyperedge and one alone in a singleton hyperedge (an empty hoi row);
    else a chain of pairs over every id first, so no row is empty."""
    edges = oracles.random_hypergraph(rng, n, m, max_size)
    if isolated:
        return build(edges + [[n]], num_nodes=n + 21)
    return build([[u, u + 1] for u in range(n - 1)] + edges, num_nodes=n)


@pytest.mark.parametrize("block", [None, 7], ids=["block", "tiny-block"])
@pytest.mark.parametrize("scale", [1.0, 1e-170], ids=["plain", "underflow"])
@pytest.mark.parametrize("isolated", [False, True],
                         ids=["connected", "isolated"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
def test_influence_columns_bits_match_summed_recurrence(
        backend, k, isolated, scale, block, monkeypatch):
    """Same ``indptr``, and each row the summed recurrence's (column,
    float64 bits) pairs in some order. Scaling ``T`` by 1e-170 underflows
    ``T²``'s hoi diagonal, so scipy inserts it; blocks of 7 entries cut
    the row-sum division's rows apart from their neighbours."""
    if block is not None:
        monkeypatch.setattr(propagation, "BLOCK_ENTRIES", block)
    rng = np.random.default_rng(k)
    g = random_graph(rng, 40, 25, 5, isolated)
    t = TransitionMatrix(build_transition(g, backend).matrix * scale)
    if backend == "hoi" and scale != 1.0:
        live = np.diff(t.matrix.indptr) > 0
        assert not (t.matrix @ t.matrix).diagonal()[live].all()
    for alpha in (0.0, 0.5, 0.9, 1.0):
        ic = influence_columns(t, k, alpha)
        want, sums = oracles.summed_influence_columns(t.matrix, k, alpha)
        got = ic.columns.copy()
        got.sort_indices()
        want.sort_indices()
        np.testing.assert_array_equal(ic.columns.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data.view(np.uint64),
                                      want.data.view(np.uint64))
        np.testing.assert_array_equal(ic.row_sums.view(np.uint64),
                                      sums.view(np.uint64))


@pytest.mark.parametrize("scale", [1.0, 1e-170], ids=["plain", "underflow"])
@pytest.mark.parametrize("isolated", [False, True],
                         ids=["connected", "isolated"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
def test_pool_columns_bits_match_full_columns(backend, k, isolated, scale):
    """``influence_columns`` over a pool's columns stores, bit for bit, the
    full matrix's ``[:, pool]`` and its row sums, at each α, for pools of 1,
    n/5 and n − 1 nodes (with ``isolated``, nodes in no hyperedge or alone
    in one, whose ``T`` rows are empty, among them)."""
    rng = np.random.default_rng(10 + k)
    g = random_graph(rng, 40, 25, 5, isolated)
    t = TransitionMatrix(build_transition(g, backend).matrix * scale)
    n = t.num_nodes
    for alpha in (0.0, 0.5, 0.9, 1.0):
        full = influence_columns(t, k, alpha)
        for size in (1, n // 5, n - 1):
            pool = np.sort(rng.choice(n, size, replace=False))
            if isolated and size > 1:
                pool = np.union1d(pool[1:], [n - 1])  # one in no hyperedge
            ic = influence_columns(t, k, alpha, pool)
            assert ic.columns.shape == (n, pool.size)
            for got, want in zip(oracles.sorted_bits(ic.columns),
                                 oracles.sorted_bits(full.columns[:, pool])):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(ic.row_sums.view(np.uint64),
                                          full.row_sums.view(np.uint64))


@pytest.mark.parametrize("scale", [1.0, 1e-170], ids=["plain", "underflow"])
@pytest.mark.parametrize("isolated", [False, True],
                         ids=["connected", "isolated"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
def test_self_influence_bits_match_diagonal(backend, k, isolated, scale):
    """The diagonal fold over the row sums is the full matrix's diagonal,
    bit for bit, at each α; where a row sum is 0 (``T``'s empty rows at
    α = 1, or an underflow) the matrix stores nothing and the quotient is
    NaN, which exceeds no θ."""
    rng = np.random.default_rng(20 + k)
    g = random_graph(rng, 40, 25, 5, isolated)
    t = TransitionMatrix(build_transition(g, backend).matrix * scale)
    for alpha in (0.0, 0.5, 0.9, 1.0):
        ic = influence_columns(t, k, alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            own = propagation._self_influence(t, k, alpha) / ic.row_sums
        diag = ic.columns.diagonal()
        live = ic.row_sums > 0
        np.testing.assert_array_equal(own[live].view(np.uint64),
                                      diag[live].view(np.uint64))
        assert np.isnan(own[~live]).all() and not diag[~live].any()
        assert live.all() or (alpha == 1.0 and isolated) or scale != 1.0


@pytest.mark.parametrize("isolated", [False, True],
                         ids=["connected", "isolated"])
@pytest.mark.parametrize("seed", range(3))
def test_symmetric_normalize_matches_diagonal_products(seed, isolated):
    """The hoi transition has the ``indptr``, the entry order and the data
    bits of ``diag(s) L diag(s)`` as two diagonal sparse products. Every
    later product sums in that entry order, so a rewrite of the scaling
    must keep it along with the bits."""
    g = random_graph(np.random.default_rng(seed), 40, 25, 5, isolated)
    h = g.incidence
    raw = (h @ sp.diags((g.edge_degree - 1).astype(np.float64)) @ h.T).tocsr()
    raw.setdiag(0)
    raw.eliminate_zeros()
    s = propagation._inv_sqrt(np.asarray(raw.sum(axis=1)).ravel())
    want = (sp.diags(s) @ raw @ sp.diags(s)).tocsr()
    want.eliminate_zeros()
    got = build_hoi_transition(g).matrix
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint64),
                                  want.data.view(np.uint64))


def traced_peak_and_output(backend, k, n, m, max_size):
    """The traced peak of ``influence_columns`` at alpha 0.8 on a random
    graph with isolated ids, and the bytes of what it returns."""
    rng = np.random.default_rng(3)
    t = build_transition(random_graph(rng, n, m, max_size, True), backend)
    tracemalloc.start()
    try:
        ic = influence_columns(t, k, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c = ic.columns
    held = (c.data.nbytes + c.indices.nbytes + c.indptr.nbytes
            + ic.row_sums.nbytes)
    return peak, held


@pytest.mark.parametrize("k, n, m, max_size", [(2, 3000, 3000, 8),
                                               (3, 2000, 1000, 8)])
@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
def test_influence_columns_peak_near_output(backend, k, n, m, max_size):
    """Beside the matrix it returns, the pass holds ``T′``, the previous
    step and blocks of about 2^16 entries; here the last step grows the
    matrix about sixfold, so the peak is within 1.25x of it."""
    peak, held = traced_peak_and_output(backend, k, n, m, max_size)
    assert peak <= 1.25 * held


@pytest.mark.parametrize("n, m", [(3000, 3000), (2000, 1000)])
@pytest.mark.parametrize("backend", ["hoi", "hgnn"])
def test_influence_columns_first_step_peak(backend, n, m):
    """The first step is one sparse sum ``alpha T + (1 - alpha) I``: the
    peak holds the scaled ``T`` beside the sum it returns, about twice
    the output, and no copy of ``T′``."""
    peak, held = traced_peak_and_output(backend, 1, n, m, 8)
    assert peak <= 2.5 * held


def test_influence_columns_rejects_empty_graph():
    t = build_hoi_transition(build([], num_nodes=0))
    with pytest.raises(DataError):
        influence_columns(t, 1, 0.5)
