import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

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
from hial.objective import (CoverageState, FeatureBalls, pair_distances,
                            squared_norms)
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


def activated_by(acts, u):
    """Sorted ids node ``u`` activates alone, read from the sets."""
    return acts.indices[acts.indptr[u]:acts.indptr[u + 1]]


def test_theta_one_empties_everything():
    _, g, _, n, _, ic, _ = make_instance(0)
    acts = build_activation_sets(ic, 1.0)
    for u in range(n):
        assert activated_by(acts, u).size == 0


def test_theta_zero_keeps_all_positive_entries():
    _, g, _, n, _, ic, m_k = make_instance(1)
    acts = build_activation_sets(ic, 0.0)
    for u in range(n):
        expect = {j for j in range(n) if m_k[j, u] > 1e-15}
        assert expect <= set(activated_by(acts, u))


@pytest.mark.parametrize("seed", range(10))
def test_activation_sets_match_bruteforce(seed):
    _, g, _, n, _, ic, m_k = make_instance(seed)
    theta = 0.07
    acts = build_activation_sets(ic, theta)
    assert acts.has_canonical_format  # each row sorted, each id once
    for u in range(n):
        expect = oracles.activated_set(m_k, theta, {u})
        assert set(activated_by(acts, u)) == expect


@pytest.mark.parametrize("seed", range(10))
def test_sigma_union_identity(seed):
    """Union of single-seed activation sets equals max-then-threshold."""
    rng, g, _, n, _, ic, m_k = make_instance(seed)
    theta = 0.05
    acts = build_activation_sets(ic, theta)
    seeds = set(rng.choice(n, size=3, replace=False).tolist())
    direct = oracles.activated_set(m_k, theta, seeds)
    union = np.concatenate([activated_by(acts, u) for u in seeds])
    assert set(union.tolist()) == direct


def test_activation_memory_follows_output():
    """Thresholding reads the normalized entries in place: it allocates one
    boolean mask over them plus the kept entries, never a normalized copy
    or per-entry column and row ids (0.18x here)."""
    rng = np.random.default_rng(5)
    n = 1000
    g = build(oracles.random_hypergraph(rng, n, 500), num_nodes=n)
    ic = influence_columns(build_hoi_transition(g), 2, 0.8)
    theta = float(np.quantile(ic.columns.data, 0.95))
    tracemalloc.start()
    try:
        acts = build_activation_sets(ic, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < acts.indices.size < ic.columns.nnz
    assert peak < 0.5 * ic.columns.data.nbytes


# -- feature balls ------------------------------------------------------


def ball(balls, u):
    """Sorted ids of the ball of node ``u``, read from its coverage form:
    row ``u`` of the CSR, bitset row ``u`` unpacked, or, for an infinite
    radius, every id if the mask of live rows holds ``u`` and none if not."""
    if balls._csr is not None:
        ptr = balls._csr.indptr
        return balls._csr.indices[ptr[u]:ptr[u + 1]]
    if balls._bits is None:
        return np.arange(balls.num_nodes if balls._live[u] else 0)
    bits = np.unpackbits(balls._bits[u].view(np.uint8), bitorder="little")
    return np.flatnonzero(bits[:balls.num_nodes])


def holds_no_table(balls):
    """Whether the balls keep only their mask of live rows: no CSR and no
    bitset, so no ``n``-row table."""
    return balls._csr is None and balls._bits is None and \
        balls._live is not None


def coverage_form(balls):
    """The arrays of the balls' coverage form: the CSR, the bitset or the
    mask of live rows."""
    return next(form for form in (balls._csr, balls._bits, balls._live)
                if form is not None)


def assert_balls_match_oracle(balls, points, r):
    expect = oracles.feature_balls(points, r)
    for u in range(points.shape[0]):
        row = ball(balls, u)
        assert np.all(np.diff(row) > 0)  # sorted, no duplicates
        assert set(row.tolist()) == expect[u]
        assert u in expect[u]
    # symmetry
    for u, members in enumerate(expect):
        for v in members:
            assert u in expect[v]


def test_radius_zero_distinct_features():
    _, g, _, n, ps, _, _ = make_instance(2)
    balls = build_feature_balls(ps, 0.0)
    for u in range(n):
        assert ball(balls, u).tolist() == [u]


def test_radius_infinite_covers_all():
    _, g, _, n, ps, _, _ = make_instance(3)
    balls = build_feature_balls(ps, np.inf)
    for u in range(n):
        assert ball(balls, u).tolist() == list(range(n))
    assert holds_no_table(balls)


def test_negative_radius_rejected():
    _, g, _, n, ps, _, _ = make_instance(3)
    for bad in (-0.5, np.nan):
        with pytest.raises(ConfigError):
            build_feature_balls(ps, bad)


# d=32 adds high-dimensional features; the d=4 cases keep their old ids
@pytest.mark.parametrize("seed,d", [
    *[pytest.param(s, 4, id=str(s)) for s in range(10)],
    *[pytest.param(s, 32, id=f"{s}-d32") for s in range(10)]])
def test_balls_match_double_loop(seed, d):
    rng, g, _, n, ps, _, _ = make_instance(seed, d=d)
    r = float(rng.uniform(0.2, 3.0)) * np.sqrt(d / 4)
    balls = build_feature_balls(ps, r)
    assert_balls_match_oracle(balls, ps.propagated_features, r)


# the shifted grid keeps every difference exact, but its squared norms
# and products pass 2^53, so their rounding (up to a few units) dwarfs the
# unit spacing of the squared distances: only the recheck decides (below
# 2^26, as at 2^20, the product form would still be exact). At √3 and √6,
# fl(r·r) < r², so a product compared with fl(r·r) would drop the pairs at
# distance exactly r, which the norm rule keeps
TIE_RADII = (0.0, 1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0, np.sqrt(6.0))


@pytest.mark.parametrize("r,shift", [
    *[pytest.param(r, 0.0, id=str(r)) for r in TIE_RADII],
    *[pytest.param(r, 2.0 ** 27, id=f"{r}-shifted") for r in TIE_RADII]])
def test_balls_exact_ties_on_integer_grid(r, shift):
    """Grid points sit exactly on the radius and some coincide: a distance
    equal to the radius is inside, and duplicates share their balls."""
    rng = np.random.default_rng(13)
    grid = np.stack(np.meshgrid(*[np.arange(3.0)] * 3), -1).reshape(-1, 3)
    pts = np.concatenate([grid, grid[rng.choice(len(grid), 8)]])
    pts = pts[rng.permutation(len(pts))] + shift
    balls = FeatureBalls(pts, r)
    assert (balls._bits is None) == (r == 0.0)  # r > 0 fills the bitset
    assert_balls_match_oracle(balls, pts, r)


def unpacked(bits, n):
    """The bitset as an n x n boolean matrix; its bits past ``n`` are 0."""
    full = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")
    assert not full[:, n:].any()
    return full[:, :n].astype(bool)


# 6x5x5 grid points and 25 duplicates: 175 points, three 64-row blocks and
# n % 8 = 7, so tie pairs reach the mirrored tiles and the last byte is
# partial; fewer BLOCK_BYTES split the column tiles inside the diagonal
# block (8 columns) and across its edge (24, 40, 72 columns)
TIE_GRID = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0),
                                np.arange(5.0)), -1).reshape(-1, 3)
TIE_POINTS = np.concatenate([TIE_GRID, TIE_GRID[
    np.random.default_rng(17).choice(len(TIE_GRID), 25)]])[
    np.random.default_rng(18).permutation(len(TIE_GRID) + 25)]


@functools.cache
def tie_balls(r):
    return oracles.feature_balls(TIE_POINTS, r)


@pytest.mark.parametrize("block_bytes", [
    pytest.param(b, id=f"{b}B") for b in (1 << 20, 8, 3 << 12, 5 << 12,
                                          9 << 12)])
@pytest.mark.parametrize("r,shift", [
    *[pytest.param(r, 0.0, id=str(r)) for r in TIE_RADII],
    *[pytest.param(r, 2.0 ** 27, id=f"{r}-shifted") for r in TIE_RADII]])
def test_fill_ties_reach_mirrored_tiles(r, shift, block_bytes, monkeypatch):
    """Ties decided in one row block land mirrored in the rows of another:
    the bitset equals its transpose and the oracle, whatever the tiles."""
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", block_bytes)
    pts = TIE_POINTS + shift
    n = pts.shape[0]
    d2 = ((TIE_POINTS[:, None] - TIE_POINTS[None]) ** 2).sum(axis=2)
    assert (d2 == round(r * r))[:64, 64:].any()  # ties past block 0
    balls = FeatureBalls(pts, r)
    bits = unpacked(balls._fill(pts, squared_norms(pts), -(-n // 64)), n)
    assert (bits == bits.T).all()
    for u in range(n):
        assert set(np.flatnonzero(bits[u]).tolist()) == tie_balls(r)[u]


@pytest.mark.parametrize("r,shift", [
    *[pytest.param(r, 0.0, id=str(r)) for r in TIE_RADII],
    *[pytest.param(r, 2.0 ** 27, id=f"{r}-shifted") for r in TIE_RADII]])
def test_pair_query_ties_match_fill(r, shift):
    """At radii that grid distances hit exactly, the KD-tree's rows equal
    the bitset fill's and the oracle's: the two forms decide ties alike."""
    pts = TIE_POINTS + shift
    n = pts.shape[0]
    balls = FeatureBalls(pts, r)
    bits = unpacked(balls._fill(pts, squared_norms(pts), -(-n // 64)), n)
    csr = balls._build_index(pts)
    assert csr.has_canonical_format
    for u in range(n):
        row = csr.indices[csr.indptr[u]:csr.indptr[u + 1]].tolist()
        assert row == np.flatnonzero(bits[u]).tolist()
        assert set(row) == tie_balls(r)[u]


@pytest.mark.parametrize("d", [3, 8, 32])
def test_balls_keep_pairs_at_a_computed_distance(d):
    """A radius equal to a pair's computed distance, as ``radius=auto``'s
    quantile can be, keeps that pair and decides every other pair by the
    oracle's rule, in both forms."""
    rng = np.random.default_rng(d)
    n = 150
    pts = rng.normal(size=(n, d))
    words = -(-n // 64)
    for u, v in rng.integers(0, n, (10, 2)).tolist():
        r = float(np.linalg.norm(pts[[u]] - pts[[v]], axis=1)[0])
        balls = FeatureBalls(pts, r)
        bits = unpacked(balls._fill(pts, squared_norms(pts), words), n)
        csr = balls._build_index(pts)
        want = oracles.feature_balls(pts, r)
        assert v in want[u]
        for a in range(n):
            assert set(np.flatnonzero(bits[a]).tolist()) == want[a]
            assert set(csr.indices[csr.indptr[a]:csr.indptr[a + 1]].tolist()) \
                == want[a]


@pytest.mark.parametrize("d", [4, 8, 32])
def test_fill_matches_pair_query(d):
    """The bitset fill and the KD-tree pair query, run on the same points,
    give the same rows, for radii that choose either form."""
    rng = np.random.default_rng(d)
    n = 300
    pts = rng.normal(size=(4, d))[rng.integers(0, 4, n)] * 2 \
        + rng.normal(size=(n, d))
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    words = -(-n // 64)
    for q, dense in ((0.005, False), (0.2, True)):
        r = float(np.quantile(dist[np.triu_indices(n, 1)], q))
        balls = FeatureBalls(pts, r)
        assert (balls._bits is not None) == dense
        bits = balls._fill(pts, squared_norms(pts), words)
        csr = balls._build_index(pts)
        assert csr.has_canonical_format
        indptr, ids = csr.indptr, csr.indices
        for u in range(n):
            row = np.unpackbits(bits[u].view(np.uint8), bitorder="little")
            assert np.flatnonzero(row).tolist() \
                == ids[indptr[u]:indptr[u + 1]].tolist()
            assert np.flatnonzero(row[:n]).tolist() \
                == np.flatnonzero(dist[u] <= r).tolist()


def assert_build_memory_follows_output(monkeypatch, pts, radius, dense):
    """The traced peak of the build's numpy buffers stays below 4 times the
    input plus the int32 id CSR of its balls, with a fill block
    (``BLOCK_BYTES``) small beside the output."""
    import scipy.spatial  # noqa: F401 -- loading it is not the build's cost
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", 1 << 14)
    n = pts.shape[0]
    tracemalloc.start()
    try:
        balls = FeatureBalls(pts, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (balls._bits is not None) == dense
    nnz = sum(ball(balls, u).size for u in range(n))
    assert 2 * n < nnz < n * n  # neither empty nor full
    held = pts.nbytes + 8 * (n + 1) + 4 * nnz  # the int32 id CSR's bytes
    assert peak < 4 * held


def test_balls_memory_follows_output(monkeypatch):
    """The fill holds one block of distances and never a pair array, sort
    keys or a block x n x d difference tensor (0.79x measured)."""
    pts = np.random.default_rng(12).normal(size=(400, 32))
    assert_build_memory_follows_output(monkeypatch, pts, 7.0, dense=True)


def test_csr_balls_memory_follows_output(monkeypatch):
    """The KD-tree build holds its pairs and the summed CSRs, proportional
    to the output (1.57x measured, most of it the 4096 sampled pairs that
    chose the form). Radius 0.3 holds 2-11 ids per ball on these points,
    so it takes the CSR."""
    pts = np.random.default_rng(12).normal(size=(400, 32)) * 0.055
    assert_build_memory_follows_output(monkeypatch, pts, 0.3, dense=False)


def test_bitset_chosen_where_the_csr_build_peaks_higher(monkeypatch):
    """At 2% density the kept CSR (5 bytes per id) is smaller than the
    bitset, but its KD-tree build peaks higher (about 15 bytes per id from
    a pair), so the bitset is chosen: its fill holds the output, the two
    product operands and one tile's buffers, below the CSR build's traced
    peak, which misses the pair query's own buffer."""
    import scipy.spatial  # noqa: F401 -- loading it is not the build's cost
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", 1 << 17)
    rng = np.random.default_rng(5)
    n, d = 6000, 8
    pts = rng.normal(size=(4, d))[rng.integers(0, 4, n)] * 3 \
        + rng.normal(size=(n, d))
    r = float(np.quantile(pair_distances(pts, *rng.integers(0, n, (2, 20000))),
                          0.02))
    tracemalloc.start()
    try:
        balls = FeatureBalls(pts, r)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        csr = balls._build_index(pts)
        csr_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert balls._bits is not None
    out = balls._bits.nbytes
    assert 0.008 < csr.nnz / n ** 2 < 0.025  # in the band
    assert 5 * csr.nnz < out  # the kept CSR alone would have chosen it
    assert peak < out + 2 * (16 * (d + 2) * n + FeatureBalls.BLOCK_BYTES)
    assert peak < csr_peak


@pytest.mark.parametrize("n,d", [(2000, 8), (3000, 32)])
def test_fill_holds_three_tile_buffers(n, d):
    """At the default ``BLOCK_BYTES`` the fill holds its bitset, the two
    product operands and three tile buffers: the distances
    (``BLOCK_BYTES``), the bits and the tie band (1/8 each), besides a
    packed tile, its mirrored bytes and the band's ids, all small. Peak
    over the bitset and operands, measured in both cases: 1.27 blocks; a
    fourth tile buffer would add 1/8 of one (1.40 measured with four)."""
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(4, d))[rng.integers(0, 4, n)] * 3 \
        + rng.normal(size=(n, d))
    r = float(np.quantile(pair_distances(pts, *rng.integers(0, n, (2, 20000))),
                          0.05))
    balls = FeatureBalls(pts, r)
    assert balls._bits is not None
    sq = squared_norms(pts)
    tracemalloc.start()
    try:
        bits = balls._fill(pts, sq, -(-n // 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (bits == balls._bits).all()
    operands = 2 * n * (d + 2) * 8
    assert peak < bits.nbytes + operands + 1.25 * FeatureBalls.BLOCK_BYTES \
        + (64 << 10)


@pytest.mark.parametrize("d", [3, 8])
def test_fill_near_the_overflow_guard_matches_oracle(d):
    """Features scaled until ``4·max|x|²`` is 1/16 of the float64 maximum,
    inside what :func:`squared_norms` admits: every product term and
    partial sum stays finite, so no tile entry is NaN, and the bitset
    matches the oracle row by row."""
    rng = np.random.default_rng(d)
    n = 200
    pts = rng.normal(size=(4, d))[rng.integers(0, 4, n)] * 3 \
        + rng.normal(size=(n, d))
    big = np.finfo(np.float64).max
    pts *= np.sqrt(big / 64 / squared_norms(pts).max())
    assert 4 * squared_norms(pts).max() == pytest.approx(big / 16)
    r = float(np.quantile(pair_distances(pts, *np.triu_indices(n, 1)), 0.2))
    balls = FeatureBalls(pts, r)
    assert balls._bits is not None
    assert_balls_match_oracle(balls, pts, r)


@pytest.mark.parametrize("value,radius", [
    (1e200, 1e201), (1e200, 1.0), (1e308, 1.0), (np.inf, 1.0)])
def test_balls_overflowing_features_rejected(value, radius):
    """Squared distances past float64 would drop even ``u`` from its own
    ball, so they raise DataError; an infinite radius measures none."""
    pts = np.full((4, 3), value) * [[1.0], [-1.0], [0.5], [0.25]]
    with pytest.raises(DataError, match="overflow"):
        FeatureBalls(pts, radius)
    balls = FeatureBalls(pts, np.inf)
    assert all(ball(balls, u).tolist() == [0, 1, 2, 3] for u in range(4))


def test_balls_nan_features_rejected():
    """A NaN feature is named as a non-finite value, not as an overflow."""
    pts = np.random.default_rng(6).normal(size=(4, 3))
    pts[2, 1] = np.nan
    with pytest.raises(DataError, match=r"non-finite values \(nan\)") as err:
        FeatureBalls(pts, 1.0)
    assert "overflow" not in str(err.value)


def test_balls_radius_squared_past_float64_covers_all():
    """``r²`` overflows to inf (``r ** 2`` would raise), so every ball
    holds every id."""
    pts = np.random.default_rng(5).normal(size=(6, 3))
    balls = FeatureBalls(pts, 1e201)
    assert all(ball(balls, u).tolist() == list(range(6)) for u in range(6))


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
    moi, edv_value = state.moi_value, state.edv_value
    covered = state.covered.copy()
    for bad in (-1, n):  # rejected before anything is written
        with pytest.raises(DataError, match="out of range"):
            state.add(bad)
        assert (state.moi_value, state.edv_value) == (moi, edv_value)
        assert np.array_equal(state.covered, covered)


@pytest.mark.parametrize("call,error", [
    (lambda g, ic, state: state.add(1.5), DataError),
    (lambda g, ic, state: state.gains([2**70]), DataError),
    (lambda g, ic, state: edv(g, [1.5], 0.3), DataError),
    (lambda g, ic, state: edv(g, [2**70], 0.3), DataError),
    (lambda g, ic, state: build_activation_sets(ic, float("nan")),
     ConfigError),
    (lambda g, ic, state: influence_columns(build_hoi_transition(g), 1.5,
                                            0.8), ConfigError),
], ids=["add-float", "gains-past-int64", "edv-float", "edv-past-int64",
        "theta-nan", "k-float"])
def test_bad_library_arguments_rejected(call, error):
    """A non-integer id or step count, an id past int64 and a NaN threshold
    raise the package's errors, never a truncated or empty result."""
    rng, g, edges, n, ps, ic, m_k = make_instance(3)
    state = CoverageState(g, build_activation_sets(ic, 0.05),
                          build_feature_balls(ps, 1.0), 0.3)
    with pytest.raises(error):
        call(g, ic, state)
    assert not state.in_seed.any() and state.edv_value == 0.0


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
        # a seed's evasion is 0, so EDV(S) is the sum of 1 - evasion
        assert state.evasion[chosen].tolist() == [0.0] * len(chosen)
        assert state.edv_value == pytest.approx(n - state.evasion.sum(),
                                                abs=1e-9)
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
        if pre_edv == 0.0:  # add sums v's term as gains does, bit for bit
            assert state.edv_value == eg
        assert mg >= 0
        assert eg >= -1e-12


@pytest.mark.parametrize("seed", range(10))
def test_edv_gains_bits_match_ordered_row_sums(seed):
    """After each add, every non-seed's EDV gain has the bits of
    ``evasion[c] + beta / max(d, 1) * s``, with ``s`` its adjacency row
    times evasion summed left to right in stored order in Python floats;
    gains of singleton batches and of a permuted whole batch have the same
    bits. One id is alone in a hyperedge and two are in none."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    edges = oracles.random_hypergraph(rng, n, int(rng.integers(2, 30)), 8)
    g = build(edges + [[n]], num_nodes=n + 3)
    beta = float(rng.uniform(0.05, 0.95))
    balls = FeatureBalls(rng.normal(size=(n + 3, 2)), 0.0)
    state = CoverageState(g, sp.identity(n + 3, dtype=bool, format="csr"),
                          balls, beta)
    indptr, indices, counts = g.adjacency()
    for v in rng.permutation(n + 3)[:8].tolist():
        cands = np.flatnonzero(~state.in_seed)
        got = [x.hex() for x in state.gains(cands)[1].tolist()]
        want = []
        for c in cands.tolist():
            s = 0.0
            for p in range(indptr[c], indptr[c + 1]):
                s += float(counts[p]) * float(state.evasion[indices[p]])
            d = max(int(g.node_degree[c]), 1)
            want.append((float(state.evasion[c]) + beta / d * s).hex())
        assert got == want
        assert [state.gains([c])[1][0].hex() for c in cands] == got
        perm = rng.permutation(cands.size)
        assert [x.hex() for x in state.gains(cands[perm])[1].tolist()] == \
            [got[i] for i in perm]
        state.add(v)


@pytest.mark.parametrize("block_rows", [1, 8, 1 << 20])
@pytest.mark.parametrize("radius", [0.0, 0.8, np.inf])
@pytest.mark.parametrize("seed", range(8))
def test_batched_gains_match_oracle(seed, radius, block_rows, monkeypatch):
    """Every non-seed candidate's batched gains equal the oracle
    differences after each add, however the bitset gather is split into
    blocks (1, 8 or 2^20 one-word rows; the last, like the default, holds
    every row here), and a permuted batch gives the permuted gains.
    Radius 0 takes the CSR product and the wider radii the bitset, so both
    coverage forms are checked. Row ``u`` of the state's composed sets is
    the union of the balls over ``A_u``, and adds write neither it nor the
    balls. A second state composes its own rows and starts from its own
    empty covered set."""
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", 8 * block_rows)
    rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
        build_state(seed, radius=radius, beta=0.5)
    assert (balls._csr is not None) == (radius == 0.0)
    assert (state.sets._csr is not None) == (radius == 0.0)
    if radius == np.inf:  # a mask of live rows, not n copies of one
        assert holds_no_table(state.sets)
    for u in range(n):
        expect = set().union(*(oballs[j] for j in activated_by(acts, u)))
        assert set(ball(state.sets, u).tolist()) == expect
    snapshots = [form.copy() for form in (coverage_form(balls),
                                          coverage_form(state.sets))]
    chosen = []
    for _ in range(min(4, n - 1)):
        cands = np.flatnonzero(~state.in_seed)
        moi, edv_g = state.gains(cands)
        if not chosen:
            first = moi, edv_g
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
    # add marks ids covered and writes neither the balls nor the unions
    for form, snapshot in zip((coverage_form(balls),
                               coverage_form(state.sets)), snapshots):
        if sp.issparse(form):
            assert (form != snapshot).nnz == 0
        else:
            assert np.array_equal(form, snapshot)
    fresh = CoverageState(g, acts, balls, beta)
    assert fresh.sets is not state.sets
    assert fresh.covered is not state.covered
    assert not np.any(fresh.covered)
    f_moi, f_edv = fresh.gains(np.arange(n))
    assert f_moi.tolist() == first[0].tolist()
    assert f_edv.tolist() == first[1].tolist()


def groups_csr(indptr, rows, n):
    """Boolean CSR whose row ``i`` lists ``rows[indptr[i]:indptr[i + 1]]``,
    in order and with any repeats."""
    return sp.csr_matrix((np.ones(rows.size, dtype=bool), rows, indptr),
                         shape=(indptr.size - 1, n))


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("radius", [0.0, 0.8, np.inf])
@pytest.mark.parametrize("seed", range(6))
def test_unions_match_oracle(seed, radius, small_blocks, monkeypatch):
    """Row ``i`` of ``unions(groups)`` is the union of the balls of
    ``rows[indptr[i]:indptr[i + 1]]``, in the balls' own form, for empty
    groups, repeated rows and groups larger than one block."""
    if small_blocks:  # one one-word row per block
        monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", 8)
    rng, g, _, n, ps, _, _ = make_instance(seed)
    balls = build_feature_balls(ps, radius)
    oballs = oracles.feature_balls(ps.propagated_features, radius)
    sizes = rng.integers(0, 2 * n, size=12)
    sizes[rng.choice(12, size=4, replace=False)] = 0
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    rows = rng.integers(0, n, size=indptr[-1])
    sets = balls.unions(groups_csr(indptr, rows, n))
    assert (sets._csr is not None) == (balls._csr is not None) == \
        (radius == 0.0)
    if radius == np.inf:  # a mask of live rows, not a row per group
        assert holds_no_table(sets)
    assert sets.num_nodes == n
    for i in range(sizes.size):
        group = rows[indptr[i]:indptr[i + 1]].tolist()
        expect = set().union(*(oballs[j] for j in group))
        got = ball(sets, i)
        assert got.size == len(expect)  # each id listed once
        assert set(got.tolist()) == expect
    assert sets.uncovered(sets.empty(), np.arange(sizes.size)).tolist() == \
        [ball(sets, i).size for i in range(sizes.size)]
    covered = sets.empty()
    for i in range(sizes.size):  # one row per call
        sets.cover(covered, i)
    count = (np.count_nonzero(covered) if covered.dtype == bool
             else np.bitwise_count(covered).sum())
    assert count == len(set().union(*(oballs[j] for j in rows.tolist())))


@pytest.mark.parametrize("radius", [0.0, 7.0, np.inf])
def test_unions_memory_follows_output(radius, monkeypatch):
    """Composing the bitset unions holds the output and one block:
    gathering every group's ball rows at once would take about 12x the
    output here. The CSR's one boolean product counts its output before it
    fills it, so its peak stays below twice its output (measured: 1.04x the
    bitset output, 1.57x the CSR output). An infinite radius keeps only a
    mask of the non-empty groups, far below a row per group."""
    monkeypatch.setattr(FeatureBalls, "BLOCK_BYTES", 1 << 14)
    rng = np.random.default_rng(4)
    n, d = 2000, 32
    pts = rng.normal(size=(n, d))
    if radius == 0.0:
        pts[rng.integers(0, n, n)] = pts[rng.integers(0, n, n)]  # duplicates
    balls = FeatureBalls(pts, radius)
    assert (balls._csr is not None) == (radius == 0.0)
    sizes = rng.integers(0, 24, size=n)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    rows = rng.integers(0, n, size=indptr[-1])
    groups = groups_csr(indptr, rows, n)
    tracemalloc.start()
    try:
        sets = balls.unions(groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if sets._csr is not None:
        out = sets._csr.data.nbytes + sets._csr.indices.nbytes \
            + sets._csr.indptr.nbytes
        assert peak < 2 * out
    elif radius == np.inf:  # the gathered mask and the group positions
        assert holds_no_table(sets)
        bound = rows.size + 16 * sizes.size
        assert 8 * bound < sizes.size * 8 * -(-n // 64)  # a bitset row each
        assert peak < bound
    else:
        out = sets._bits.nbytes
        assert rows.size * balls._bits[0].nbytes > 8 * out
        assert peak < out + 4 * FeatureBalls.BLOCK_BYTES


def test_moi_reduces_to_sigma_when_radius_zero():
    for seed in range(10):
        rng, g, edges, n, m_k, acts, balls, state, oballs, theta, beta = \
            build_state(seed, radius=0.0)
        seeds = rng.permutation(n)[:3]
        for v in seeds:
            state.add(int(v))
        sigma = np.unique(np.concatenate([activated_by(acts, v)
                                          for v in seeds]))
        assert state.moi_value == sigma.size


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
