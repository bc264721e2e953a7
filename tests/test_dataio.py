import re
from pathlib import Path

import numpy as np
import pytest

from hial import DataError, SelectionConfig, prepare, select_lazy
from hial import dataio

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- hyperedge parsing ---------------------------------------------------


def test_load_hyperedges_basic(tmp_path):
    p = write(tmp_path, "g.hyperedges", "0 1 2\n1 2\n")
    assert dataio.load_hypergraph(p) == [["0", "1", "2"], ["1", "2"]]


def test_load_hyperedges_comments_and_blanks(tmp_path):
    p = write(tmp_path, "g.hyperedges", "# header\n\n0 1\n 2 3 # trailing\n")
    assert dataio.load_hypergraph(p) == [["0", "1"], ["2", "3"]]


def test_load_hyperedges_empty_file(tmp_path):
    p = write(tmp_path, "g.hyperedges", "# nothing\n")
    assert dataio.load_hypergraph(p) == []


# -- feature parsing -----------------------------------------------------


def test_load_features_dense(tmp_path):
    p = write(tmp_path, "f.csv", "0,1.0,0.0\n1,0.0,1.0\n")
    feats = dataio.load_features(p)
    np.testing.assert_array_equal(feats["0"], [1.0, 0.0])
    np.testing.assert_array_equal(feats["1"], [0.0, 1.0])


def test_load_features_ragged_rejected(tmp_path):
    p = write(tmp_path, "f.csv", "0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataError, match="ragged"):
        dataio.load_features(p)


def test_load_features_non_numeric_rejected(tmp_path):
    p = write(tmp_path, "f.csv", "0,1.0\n1,abc\n")
    with pytest.raises(DataError, match="non-numeric"):
        dataio.load_features(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_features_non_finite_rejected(tmp_path, cell):
    p = write(tmp_path, "f.csv", f"0,1.0\n1,{cell}\n")
    with pytest.raises(DataError, match="non-finite"):
        dataio.load_features(p)
    p = write(tmp_path, "s.csv", f"0,0:1.0\n1,2:{cell}\n")
    with pytest.raises(DataError, match="non-finite"):
        dataio.load_features(p, sparse=True)


def test_load_features_sparse(tmp_path):
    p = write(tmp_path, "f.csv", "0,0:1.5,3:2.0\n1,1:1.0\n")
    feats = dataio.load_features(p, sparse=True)
    np.testing.assert_array_equal(feats["0"], [1.5, 0.0, 0.0, 2.0])
    np.testing.assert_array_equal(feats["1"], [0.0, 1.0, 0.0, 0.0])


def test_load_features_sparse_bad_cell(tmp_path):
    p = write(tmp_path, "f.csv", "0,15\n")
    with pytest.raises(DataError, match="idx:value"):
        dataio.load_features(p, sparse=True)


def test_load_features_sparse_repeated_index_rejected(tmp_path):
    """A repeated index used to load silently, the last value winning."""
    p = write(tmp_path, "f.csv", "a,1:2.0\nb,0:1,0:5\n")
    with pytest.raises(DataError, match=r"f\.csv:2: repeated feature index 0"):
        dataio.load_features(p, sparse=True)


def test_load_features_sparse_no_cells_rejected(tmp_path):
    p = write(tmp_path, "f.csv", "0,\n1,\n")
    with pytest.raises(DataError, match="no feature cells"):
        dataio.load_features(p, sparse=True)


@pytest.mark.parametrize("loader, row", [
    (dataio.load_features, "{},1.0"),
    (lambda p: dataio.load_features(p, sparse=True), "{},0:1.0"),
    (dataio.load_labels, "{},1")], ids=["features", "sparse", "labels"])
def test_csv_rows_skip_blanks_and_reject_repeated_ids(tmp_path, loader, row):
    """Feature and label files share their row rules: blank rows are
    skipped, and a repeated id (after stripping) names its file and line."""
    rows = [row.format("a"), "", "  ", row.format("b")]
    assert list(loader(write(tmp_path, "ok.csv", "\n".join(rows)))) == ["a", "b"]
    p = write(tmp_path, "dup.csv", "\n".join(rows + [row.format(" a ")]))
    with pytest.raises(DataError,
                       match=f"{re.escape(str(p))}:5: duplicate node id 'a'"):
        loader(p)


# -- dataset assembly ----------------------------------------------------


def test_load_dataset_missing_feature_row_rejected(tmp_path):
    g = write(tmp_path, "g.hyperedges", "0 1 2\n")
    f = write(tmp_path, "f.csv", "0,1.0\n1,2.0\n")
    with pytest.raises(DataError, match="missing feature rows"):
        dataio.load_dataset(g, f)


def test_load_dataset_without_nodes_rejected(tmp_path):
    g = write(tmp_path, "g.hyperedges", "")
    with pytest.raises(DataError, match="empty dataset"):
        dataio.load_dataset(g)


def test_load_dataset_numeric_id_order(tmp_path):
    g = write(tmp_path, "g.hyperedges", "10 2\n2 1\n")
    f = write(tmp_path, "f.csv", "10,1.0\n2,2.0\n1,3.0\n")
    ds = dataio.load_dataset(g, f)
    assert ds.ids == ["1", "2", "10"]  # numeric, not lexicographic
    assert ds.id_map == {"1": 0, "2": 1, "10": 2}
    np.testing.assert_array_equal(ds.features[:, 0], [3.0, 2.0, 1.0])


def test_sorted_ids_break_integer_ties_by_string():
    ids = ["1", "01", "+1", "10", "1_0", "2"]
    expect = ["+1", "01", "1", "2", "10", "1_0"]
    rng = np.random.default_rng(0)
    for _ in range(20):  # sorted() is stable: a tie would keep input order
        assert dataio._sorted_ids(rng.permutation(ids).tolist()) == expect


def test_load_dataset_string_ids(tmp_path):
    g = write(tmp_path, "g.hyperedges", "b a\na c\n")
    f = write(tmp_path, "f.csv", "a,1.0\nb,2.0\nc,3.0\n")
    ds = dataio.load_dataset(g, f)
    assert ds.ids == ["a", "b", "c"]


def test_load_dataset_splits_unknown_id(tmp_path):
    g = write(tmp_path, "g.hyperedges", "0 1\n")
    f = write(tmp_path, "f.csv", "0,1.0\n1,2.0\n")
    s = write(tmp_path, "s.json", '{"train": ["7"]}')
    with pytest.raises(DataError, match="unknown node ids"):
        dataio.load_dataset(g, f, splits=s)


def test_sample_dataset_loads():
    ds = dataio.load_dataset(SAMPLE / "toy.hyperedges",
                             SAMPLE / "toy.features.csv",
                             SAMPLE / "toy.labels.csv",
                             SAMPLE / "toy.splits.json")
    assert ds.hypergraph.num_nodes == 12
    assert ds.hypergraph.num_edges == 11
    assert ds.features.shape == (12, 2)
    assert ds.labels.shape == (12,)
    assert ds.train_nodes.size == 12
    assert ds.test_nodes.size == 6


# -- result round trip ---------------------------------------------------


def test_result_round_trip(tmp_path):
    ds = dataio.load_dataset(SAMPLE / "toy.hyperedges",
                             SAMPLE / "toy.features.csv")
    cfg = SelectionConfig(budget=3, k=2, alpha=0.8, beta=0.2, gamma=0.5,
                          theta="auto", radius="auto", rng_seed=1)
    res = select_lazy(prepare(ds.hypergraph, ds.features, cfg))
    out = tmp_path / "result.json"
    dataio.write_result(res, out, ds.ids)
    doc = dataio.read_result(out)
    assert [ds.id_map[s] for s in doc["seeds"]] == res.seeds
    assert doc["gains"] == res.gains  # exact float round trip
    assert len(doc["trace"]) == 3
    for entry, (m, e, f) in zip(doc["trace"], res.trace):
        assert entry["moi"] == m and entry["edv"] == e and entry["F"] == f
    assert doc["resolved_params"]["theta"] == res.resolved_params["theta"]


def test_read_result_invalid_json(tmp_path):
    p = write(tmp_path, "bad.json", "{nope")
    with pytest.raises(DataError, match="invalid result document"):
        dataio.read_result(p)


@pytest.mark.parametrize("loader", [
    dataio.load_hypergraph, dataio.load_features,
    lambda p: dataio.load_features(p, sparse=True), dataio.load_labels,
    dataio.load_splits, dataio.read_result],
    ids=["hyperedges", "features", "sparse", "labels", "splits", "result"])
def test_non_utf8_input_rejected(tmp_path, loader):
    """A byte that is not UTF-8 raises DataError naming the file."""
    p = tmp_path / "bad.txt"
    p.write_bytes(b"0,1\n1,\xff\n")
    with pytest.raises(DataError, match=f"{re.escape(str(p))}: not UTF-8"):
        loader(p)
