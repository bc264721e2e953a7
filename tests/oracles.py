"""Independent brute-force references used only by the test suite.

These deliberately share no code with the production paths: dense matrix
recurrences instead of sparse products, explicit set arithmetic
instead of bitsets, direct definition evaluation instead of incremental
updates. Size guards keep them honest at test scale only. The one
exception is :func:`celf_heap`, a reference for the lazy greedy's queue
only: it scores candidates through the production objective.

The structural queries at the end read a built ``Hypergraph`` through its
incidence and adjacency; only the tests need them.
"""

import heapq
import itertools

import numpy as np
import scipy.sparse as sp

from hial import DataError, SelectionResult, objective

MAX_DENSE_N = 2000
MAX_ENUM = 10**6


def dense_transition_hoi(edge_lists, n):
    """Pair weights by double loop over hyperedges and member pairs,
    then symmetric row-sum normalization, all dense."""
    l = np.zeros((n, n))
    for edge in edge_lists:
        members = sorted(set(edge))
        size = len(members)
        for i in members:
            for j in members:
                if i != j:
                    l[i, j] += size - 1
    rowsum = l.sum(axis=1)
    s = np.where(rowsum > 0, 1.0 / np.sqrt(np.where(rowsum > 0, rowsum, 1)), 0.0)
    return s[:, None] * l * s[None, :]


def dense_transition_hgnn(edge_lists, n):
    """Dense evaluation of the degree-normalized incidence product."""
    m = len(edge_lists)
    h = np.zeros((n, m))
    for e, edge in enumerate(edge_lists):
        for v in set(edge):
            h[v, e] = 1.0
    dv = h.sum(axis=1)
    de = h.sum(axis=0)
    dv_is = np.where(dv > 0, dv, 1.0) ** -0.5 * (dv > 0)
    de_inv = np.where(de > 0, 1.0 / np.where(de > 0, de, 1.0), 0.0)
    return (dv_is[:, None] * h) @ np.diag(de_inv) @ (h.T * dv_is[None, :])


def dense_influence_matrix(t_dense, k, alpha):
    """M_k by the explicit dense recurrence M_t = a T M_{t-1} + (1-a) I."""
    n = t_dense.shape[0]
    if n > MAX_DENSE_N:
        raise ValueError(f"dense oracle limited to n <= {MAX_DENSE_N}")
    m = np.eye(n)
    for _ in range(k):
        m = alpha * (t_dense @ m) + (1 - alpha) * np.eye(n)
    return m


def summed_influence_columns(t_csr, k, alpha):
    """The row-normalized influence matrix and its row sums by the summed
    sparse recurrence ``M <- a T M + (1-a) I`` from the identity, each step
    a new product scaled and then added to ``(1-a) I`` (and ``s <- a T s +
    (1-a) 1`` from the ones), zeros dropped and each entry divided by its
    row's sum. Returns the CSR matrix and the row sums."""
    n = t_csr.shape[0]
    eye, ones = sp.identity(n, format="csr"), np.ones(n)
    m, s = eye, ones
    for _ in range(k):
        m = t_csr @ m
        m *= alpha
        m = m + (1.0 - alpha) * eye
        s = t_csr @ s
        s *= alpha
        s = s + (1.0 - alpha) * ones
    m.eliminate_zeros()
    m.data /= np.repeat(s, np.diff(m.indptr))
    return m, s


def csc_theta_and_activation_sets(t_csr, k, alpha, pool, quantile,
                                  theta=None):
    """Auto θ and the activation sets, bit for bit, the column-stored way:
    the sparse recurrence ``M <- a T M + (1-a) I`` from the identity and
    ``s <- a T s + (1-a) 1`` from the ones (the same products, so the same
    bits; a dense product would round differently), ``M`` turned into CSC
    with sorted row ids and each entry divided by its row's sum. θ is the
    given ``theta``, or else the ``quantile`` of the entries in the pool's
    columns; set ``i`` lists the row ids of column ``pool[i]``'s entries
    above θ, one set per pool node in the pool's order. Returns θ and the
    sets' ``indptr`` and ``indices``, or three Nones for an auto θ when the
    pool's columns hold no entry."""
    n = t_csr.shape[0]
    eye, ones = sp.identity(n, format="csr"), np.ones(n)
    m, s = eye, ones
    for _ in range(k):
        m = t_csr @ m
        m *= alpha
        m = m + (1.0 - alpha) * eye
        s = t_csr @ s
        s *= alpha
        s = s + (1.0 - alpha) * ones
    cols = m.tocsc()
    cols.eliminate_zeros()
    cols.sort_indices()
    cols.data /= s[cols.indices]

    def column(u):
        lo, hi = cols.indptr[u], cols.indptr[u + 1]
        return cols.indices[lo:hi], cols.data[lo:hi]

    if theta is None:
        entries = np.concatenate([column(u)[1] for u in pool])
        if entries.size == 0:  # no quantile to take
            return None, None, None
        theta = float(np.quantile(entries, quantile))
    indptr, indices = [0], []
    for u in pool:
        rows, vals = column(u)
        indices.extend(rows[vals > theta].tolist())
        indptr.append(len(indices))
    return theta, np.array(indptr), np.array(indices, dtype=np.int64)


def ball_union(balls, ids):
    """Size of the union of the balls at ``ids``, by set union."""
    return len(set().union(*(balls[u] for u in set(ids))))


def sorted_bits(m):
    """A CSR matrix's ``indptr``, and its column ids and float64 bits with
    each row sorted by column: equal for two matrices that store the same
    entries, bit for bit, in any order within a row."""
    m = m.copy()
    m.sort_indices()
    return m.indptr, m.indices, m.data.view(np.uint64)


def sampled_radius(feats, seed, quantile, max_pairs=20000):
    """The ``quantile`` of the distances of up to ``max_pairs`` distinct
    node pairs drawn from ``seed``, every pair's rows gathered at once."""
    n = feats.shape[0]
    rng = np.random.default_rng(seed)
    n_pairs = min(max_pairs, n * (n - 1) // 2)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n - 1, size=n_pairs)
    j = np.where(j >= i, j + 1, j)
    return float(np.quantile(np.linalg.norm(feats[i] - feats[j], axis=1),
                             quantile))


def dense_propagate(t_dense, x0, k, alpha):
    x = np.array(x0, dtype=float)
    for _ in range(k):
        x = alpha * (t_dense @ x) + (1 - alpha) * np.asarray(x0, float)
    return x


def finite_difference_influence(t_dense, x0, k, alpha, j, u, eps=1e-6):
    """M_k[j, u] estimated channel-wise by perturbing node u's initial
    feature and observing node j's propagated feature."""
    base = dense_propagate(t_dense, x0, k, alpha)
    d = x0.shape[1]
    vals = []
    for c in range(d):
        xp = np.array(x0, dtype=float)
        xp[u, c] += eps
        pert = dense_propagate(t_dense, xp, k, alpha)
        vals.append((pert[j, c] - base[j, c]) / eps)
    return np.asarray(vals)


def activated_set(m_k, theta, seeds):
    """Direct max-then-threshold definition of the activated set."""
    n = m_k.shape[0]
    if not seeds:
        return set()
    s = m_k.sum(axis=1)
    out = set()
    for j in range(n):
        if s[j] <= 0:
            continue
        best = max(m_k[j, u] / s[j] for u in seeds)
        if best > theta:
            out.add(j)
    return out


def feature_balls(points, radius):
    """Per-node radius neighborhoods by brute force: ``v`` is in the ball
    of ``u`` when the row norm of ``x_u − x_v`` is at most ``radius``. The
    norm is taken along axis 1, as ``radius=auto`` takes it; a 1-D norm
    sums in another order, and its last bit differs on about a fifth of
    random pairs."""
    return [set(np.flatnonzero(
        np.linalg.norm(points[u] - points, axis=1) <= radius).tolist())
        for u in range(points.shape[0])]


def moi_value(m_k, theta, seeds, balls):
    """Union of balls over the activated set, by set union."""
    cov = set()
    for u in activated_set(m_k, theta, seeds):
        cov |= balls[u]
    return len(cov)


def edv_value(edge_lists, n, seeds, beta):
    """Direct product-formula evaluation of the diffusion objective."""
    seeds = set(seeds)
    if not seeds:
        return 0.0
    edge_sets = [set(e) for e in edge_lists]

    def shared(u, v):
        return sum(1 for e in edge_sets if u in e and v in e)

    def degree(u):
        return sum(1 for e in edge_sets if u in e)

    def neighbors(v):
        out = set()
        for e in edge_sets:
            if v in e:
                out |= e
        out.discard(v)
        return out

    frontier = set()
    for u in seeds:
        frontier |= neighbors(u)
    frontier -= seeds

    total = float(len(seeds))
    for v in frontier:
        evade = 1.0
        for u in seeds & neighbors(v):
            evade *= 1.0 - beta * shared(u, v) / degree(u)
        total += 1.0 - evade
    return total


def scratch_objective(edge_lists, n, m_k, theta, balls, seeds, beta,
                      gamma, moi_hat, edv_hat):
    """(MoI, EDV, F) for a seed set, straight from the definitions."""
    moi = moi_value(m_k, theta, seeds, balls)
    edv = edv_value(edge_lists, n, seeds, beta)
    f = gamma * moi / moi_hat + (1 - gamma) * edv / edv_hat
    return moi, edv, f


def exhaustive_best_subset(value_fn, pool, budget):
    """True argmax over all budget-sized subsets; ties go to the
    lexicographically smallest set."""
    from math import comb
    if comb(len(pool), budget) > MAX_ENUM:
        raise ValueError("enumeration guard exceeded")
    best_set, best_val = None, -np.inf
    for combo in itertools.combinations(sorted(pool), budget):
        val = value_fn(set(combo))
        if val > best_val:
            best_set, best_val = combo, val
    return best_set, best_val


def celf_heap(ctx):
    """CELF lazy greedy over a ``heapq`` of ``(-gain, id, round)`` tuples,
    scored through the context's own states: stale entries are popped in
    batches of 1, 2, 4, ... (stopping at a fresh top), re-scored in one
    call and pushed back, until the top is fresh. The production queue
    must give the same seeds, gain bits, trace and evaluation count."""
    cfg = ctx.config

    def gains_of(state, cands):
        return objective.marginal_gain(state, cands, cfg.gamma, ctx.moi_hat,
                                       ctx.edv_hat)

    state = ctx.fresh_state()
    seeds, gains, trace = [], [], []
    pool = ctx.pool
    heap = list(zip((-gains_of(state, pool)).tolist(), pool.tolist(),
                    [0] * pool.size))
    heapq.heapify(heap)
    evals = pool.size
    for round_no in range(cfg.budget):
        batch = 1
        while heap[0][2] != round_no:
            stale = []
            while len(stale) < batch and heap and heap[0][2] != round_no:
                stale.append(heapq.heappop(heap)[1])
            g = gains_of(state, np.asarray(stale, dtype=np.int64))
            evals += len(stale)
            for neg_g, v in zip((-g).tolist(), stale):
                heapq.heappush(heap, (neg_g, v, round_no))
            batch *= 2
        neg_g, v, _ = heapq.heappop(heap)
        state.add(v)
        seeds.append(v)
        gains.append(-neg_g)
        trace.append((state.moi_value, state.edv_value,
                      objective.unified_objective(
                          state.moi_value, state.edv_value, ctx.moi_hat,
                          ctx.edv_hat, cfg.gamma)))
    return SelectionResult(seeds, gains, trace, dict(ctx.resolved_params),
                           evals)


def random_hypergraph(rng, n, m, max_size=5):
    """Random edge lists covering ids below n (some nodes may be isolated)."""
    edges = []
    for _ in range(m):
        size = int(rng.integers(1, max_size + 1))
        edges.append(list(rng.choice(n, size=min(size, n), replace=False)))
    return edges


def _check_node(g, v):
    if not 0 <= v < g.num_nodes:
        raise DataError(f"node id {v} out of range [0, {g.num_nodes})")


def node_to_edges(g, v):
    """Sorted hyperedge ids containing node ``v``."""
    _check_node(g, v)
    h = g.incidence
    return h.indices[h.indptr[v]:h.indptr[v + 1]]


def edge_to_nodes(g, e):
    """Sorted node ids belonging to hyperedge ``e``."""
    if not 0 <= e < g.num_edges:
        raise DataError(f"hyperedge id {e} out of range [0, {g.num_edges})")
    ht = g.incidence.T.tocsr()
    return ht.indices[ht.indptr[e]:ht.indptr[e + 1]]


def shared_edge_count(g, u, v):
    """Number of hyperedges containing both ``u`` and ``v``."""
    if u == v:
        raise DataError("shared_edge_count requires two distinct nodes")
    return int(np.intersect1d(node_to_edges(g, u), node_to_edges(g, v),
                              assume_unique=True).size)


def one_hop_neighbors(g, v):
    """Sorted ids of nodes sharing at least one hyperedge with ``v``."""
    _check_node(g, v)
    indptr, indices, _ = g.adjacency()
    return indices[indptr[v]:indptr[v + 1]].copy()


def neighborhood_of_set(g, seeds):
    """One-hop neighbors of the set, excluding the set itself."""
    seeds = sorted(set(int(s) for s in seeds))
    mask = np.zeros(g.num_nodes, dtype=bool)
    for s in seeds:
        mask[one_hop_neighbors(g, s)] = True
    mask[seeds] = False
    return np.flatnonzero(mask)
