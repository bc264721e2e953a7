"""Dataset ingestion and result serialization.

File formats:

* ``*.hyperedges`` — one hyperedge per line, whitespace-separated external
  node ids; blank lines and ``#`` comments skipped.
* ``*.features.csv`` — first column external node id, remaining columns
  numeric feature values. A sparse variant (``id,idx:val,idx:val,...``)
  is accepted behind a flag.
* ``*.labels.csv`` — ``id,class`` rows, classes non-negative integers.
* splits file — JSON with ``"train"`` / ``"test"`` lists of external ids.
* result document — JSON with stable key order.

Every input file is read as UTF-8, whatever the locale.

External ids may be arbitrary strings; dense integer ids are assigned by
sorting the external ids (numerically when every id parses as an integer).
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError
from .hypergraph import Hypergraph, build
from .selector import SelectionResult

__all__ = [
    "Dataset",
    "load_hypergraph",
    "load_features",
    "load_labels",
    "load_splits",
    "id_lists",
    "load_dataset",
    "write_result",
    "read_result",
]


@dataclass
class Dataset:
    """Hypergraph plus node features and optional labels/splits, with the
    external-id mapping used by all of them."""

    hypergraph: Hypergraph
    features: np.ndarray | None
    labels: np.ndarray | None
    id_map: dict[str, int]           # external id -> dense id
    ids: list[str]                   # dense id -> external id
    train_nodes: np.ndarray | None = None
    test_nodes: np.ndarray | None = None


@contextmanager
def _open_text(path: str | Path):
    """An input file opened as UTF-8 text, whatever the locale; a byte that
    is not UTF-8 raises :class:`DataError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise DataError(f"{path}: not UTF-8 text ({bad!r})") from None


def load_hypergraph(path: str | Path) -> list[list[str]]:
    """Parse a hyperedge-list file into lists of external node ids."""
    edges: list[list[str]] = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            edges.append(line.split())
    return edges


def _parse_float(cell: str, path, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite cell {cell!r}")
    return value


def load_features(path: str | Path,
                  sparse: bool = False) -> dict[str, np.ndarray]:
    """Parse a feature CSV into ``external id -> feature vector``."""
    if sparse:
        return _load_features_sparse(path)
    feats: dict[str, np.ndarray] = {}
    width = None
    with _open_text(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            ext = row[0].strip()
            if ext in feats:
                raise DataError(f"{path}:{lineno}: duplicate node id {ext!r}")
            if width is None:
                width = len(row) - 1
                if width < 1:
                    raise DataError(f"{path}:{lineno}: no feature columns")
            elif len(row) - 1 != width:
                raise DataError(
                    f"{path}:{lineno}: ragged row, expected {width} values, "
                    f"got {len(row) - 1}")
            feats[ext] = np.array(
                [_parse_float(c, path, lineno) for c in row[1:]], dtype=np.float64)
    if not feats:
        raise DataError(f"{path}: no feature rows")
    return feats


def _load_features_sparse(path: str | Path) -> dict[str, np.ndarray]:
    entries: dict[str, dict[int, float]] = {}
    dim = 0
    with _open_text(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            ext = row[0].strip()
            if ext in entries:
                raise DataError(f"{path}:{lineno}: duplicate node id {ext!r}")
            pairs: dict[int, float] = {}
            for cell in row[1:]:
                cell = cell.strip()
                if not cell:
                    continue
                if ":" not in cell:
                    raise DataError(
                        f"{path}:{lineno}: expected idx:value, got {cell!r}")
                idx_s, val_s = cell.split(":", 1)
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: bad feature index {idx_s!r}") from None
                if idx < 0:
                    raise DataError(f"{path}:{lineno}: negative feature index")
                if idx in pairs:
                    raise DataError(
                        f"{path}:{lineno}: repeated feature index {idx}")
                pairs[idx] = _parse_float(val_s, path, lineno)
                dim = max(dim, idx + 1)
            entries[ext] = pairs
    if not entries:
        raise DataError(f"{path}: no feature rows")
    if dim == 0:
        raise DataError(f"{path}: no feature cells in any row")
    feats = {}
    for ext, pairs in entries.items():
        vec = np.zeros(dim, dtype=np.float64)
        for idx, val in pairs.items():
            vec[idx] = val
        feats[ext] = vec
    return feats


def load_labels(path: str | Path) -> dict[str, int]:
    """Parse an ``id,class`` CSV."""
    labels: dict[str, int] = {}
    with _open_text(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id,class'")
            ext = row[0].strip()
            if ext in labels:
                raise DataError(f"{path}:{lineno}: duplicate node id {ext!r}")
            try:
                labels[ext] = int(row[1])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-integer class {row[1]!r}") from None
            if labels[ext] < 0:
                raise DataError(f"{path}:{lineno}: negative class {row[1]!r}")
    return labels


def load_splits(path: str | Path) -> dict[str, list[str]]:
    with _open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
    return id_lists(path, doc, ("train", "test"))


def id_lists(path: str | Path, doc, keys) -> dict[str, list[str]]:
    """The lists of string or integer ids under ``keys`` of the JSON object
    ``doc``, as strings; any other shape raises :class:`DataError`."""
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    out = {key: doc[key] for key in keys if key in doc}
    for key, ids in out.items():
        if not (isinstance(ids, list) and all(type(x) in (str, int)
                                              for x in ids)):
            raise DataError(f"{path}: '{key}' must be a list of node ids")
    return {key: [str(x) for x in ids] for key, ids in out.items()}


def _sorted_ids(ids: set[str]) -> list[str]:
    """Numeric order when every id parses as an integer, else string order.
    Ids that parse to the same integer ("1", "01", "+1") are ordered by
    their strings, so the order never depends on the set's iteration."""
    try:
        return sorted(ids, key=lambda s: (int(s), s))
    except ValueError:
        return sorted(ids)


def load_dataset(hyperedges: str | Path,
                 features: str | Path | None = None,
                 labels: str | Path | None = None,
                 splits: str | Path | None = None,
                 sparse_features: bool = False) -> Dataset:
    """Load and cross-validate all dataset files into dense-id form."""
    raw_edges = load_hypergraph(hyperedges)
    feats = load_features(features, sparse=sparse_features) if features else None
    labs = load_labels(labels) if labels else None

    universe: set[str] = set()
    for e in raw_edges:
        universe.update(e)
    if feats:
        universe.update(feats)
    if labs:
        universe.update(labs)
    if not universe:
        raise DataError(f"{hyperedges}: empty dataset (no nodes anywhere)")
    ids = _sorted_ids(universe)
    id_map = {ext: i for i, ext in enumerate(ids)}

    edge_lists = [[id_map[v] for v in e] for e in raw_edges]
    g = build(edge_lists, num_nodes=len(ids))

    x = None
    if feats is not None:
        missing = [ext for ext in ids if ext not in feats]
        if missing:
            raise DataError(
                f"{features}: nodes missing feature rows: {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
        x = np.stack([feats[ext] for ext in ids])

    y = None
    if labs is not None:
        missing = [ext for ext in ids if ext not in labs]
        if missing:
            raise DataError(
                f"{labels}: nodes missing labels: {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
        y = np.array([labs[ext] for ext in ids], dtype=np.int64)

    train = test = None
    if splits:
        sp = load_splits(splits)
        for key in sp:
            unknown = [v for v in sp[key] if v not in id_map]
            if unknown:
                raise DataError(f"{splits}: unknown node ids in '{key}': "
                                f"{unknown[:5]}")
        if "train" in sp:
            train = np.asarray(sorted(id_map[v] for v in sp["train"]),
                               dtype=np.int64)
        if "test" in sp:
            test = np.asarray(sorted(id_map[v] for v in sp["test"]),
                              dtype=np.int64)
    return Dataset(g, x, y, id_map, ids, train, test)


def write_result(result: SelectionResult, path: str | Path,
                 ids: list[str] | None = None) -> None:
    """Serialize a selection result as JSON with stable key order.

    ``ids`` maps dense ids back to external ids when available.
    """
    ext = [ids[s] if ids else str(s) for s in result.seeds]
    doc = {
        "gains": list(result.gains),
        "n_evaluations": result.n_evaluations,
        "resolved_params": dict(sorted(result.resolved_params.items())),
        "seeds": ext,
        "tool_version": __version__,
        "trace": [{"F": f, "edv": e, "moi": m} for m, e, f in result.trace],
    }
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write result to {path}: {exc}") from None


def read_result(path: str | Path) -> dict:
    """Parse a result document written by :func:`write_result`."""
    try:
        with _open_text(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid result document: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read result from {path}: {exc}") from None
