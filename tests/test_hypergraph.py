import numpy as np
import pytest

from hial import DataError, build
from oracles import (neighborhood_of_set, one_hop_neighbors,
                     random_hypergraph, shared_edge_count)


def test_build_degrees():
    g = build([[0, 1, 2], [1, 2]], num_nodes=3)
    assert list(g.node_degree) == [1, 2, 2]
    assert list(g.edge_degree) == [3, 2]


def test_build_minimal():
    g = build([[0]], num_nodes=1)
    assert list(g.node_degree) == [1]
    assert list(g.edge_degree) == [1]


def test_build_dedups_within_edge():
    g = build([[0, 0, 1]], num_nodes=2)
    assert list(g.edge_degree) == [2]


def test_build_rejects_empty_edge():
    with pytest.raises(DataError, match="hyperedge 1"):
        build([[0], []], num_nodes=2)


def test_build_rejects_out_of_range():
    with pytest.raises(DataError):
        build([[0, 5]], num_nodes=3)
    with pytest.raises(DataError):
        build([[-1]], num_nodes=3)


def test_shared_edge_count():
    g = build([[0, 1, 2], [1, 2]], num_nodes=3)
    assert shared_edge_count(g, 1, 2) == 2
    assert shared_edge_count(g, 0, 2) == 1


def test_shared_edge_count_disconnected():
    g = build([[0], [1]], num_nodes=3)
    assert shared_edge_count(g, 0, 1) == 0
    with pytest.raises(DataError):
        shared_edge_count(g, 0, 0)
    with pytest.raises(DataError):
        shared_edge_count(g, 0, 7)


def test_one_hop_neighbors():
    g = build([[0, 1, 2], [1, 2]], num_nodes=3)
    assert set(one_hop_neighbors(g, 0)) == {1, 2}
    g2 = build([[0]], num_nodes=1)
    assert one_hop_neighbors(g2, 0).size == 0
    g3 = build([[0, 1], [1, 2]], num_nodes=3)
    assert set(one_hop_neighbors(g3, 1)) == {0, 2}


def test_neighborhood_of_set():
    g = build([[0, 1, 2]], num_nodes=3)
    assert set(neighborhood_of_set(g, {0})) == {1, 2}
    assert neighborhood_of_set(g, {0, 1, 2}).size == 0
    g2 = build([[0, 1], [1, 2]], num_nodes=3)
    assert set(neighborhood_of_set(g2, {0, 2})) == {1}


@pytest.mark.parametrize("trial", range(20))
def test_random_structure_invariants(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(3, 12))
    edges = random_hypergraph(rng, n, int(rng.integers(1, 12)))
    g = build(edges, num_nodes=n)

    # degree-sum identity
    assert g.node_degree.sum() == g.edge_degree.sum()

    # transpose consistency
    for e in range(g.num_edges):
        for v in g.edge_to_nodes(e):
            assert e in g.node_to_edges(v)
    for v in range(g.num_nodes):
        for e in g.node_to_edges(v):
            assert v in g.edge_to_nodes(e)

    # symmetry and the neighbor/shared-count equivalence
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            c = shared_edge_count(g, u, v)
            assert c == shared_edge_count(g, v, u)
            assert (c >= 1) == (v in one_hop_neighbors(g, u))
