"""Dataset ingestion and result serialization.

File formats:

* ``*.hyperedges`` — one hyperedge per line, whitespace-separated external
  node ids; blank lines and ``#`` comments skipped.
* ``*.features.csv`` — first column external node id, remaining columns
  numeric feature values. A sparse variant (``id,idx:val,idx:val,...``)
  is accepted behind a flag.
* ``*.labels.csv`` — ``id,class`` rows, classes non-negative integers.

In both CSV files blank rows are skipped and a repeated id is rejected.
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
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                edges.append(line.split())
    return edges


def _csv_rows(path: str | Path):
    """The non-blank rows of a CSV file as ``(lineno, id, cells)`` with the
    id stripped; a repeated id raises :class:`DataError` naming the line."""
    seen: set[str] = set()
    with _open_text(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            ext = row[0].strip()
            if ext in seen:
                raise DataError(f"{path}:{lineno}: duplicate node id {ext!r}")
            seen.add(ext)
            yield lineno, ext, row[1:]


def _parse_float(cell: str, path, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite cell {cell!r}")
    return value


def _sparse_cells(cells: list[str], path, lineno: int) -> np.ndarray:
    """``idx:value`` cells as a row of values up to the largest index, zero
    at every index the cells do not list; blank cells are skipped."""
    pairs: dict[int, float] = {}
    for cell in filter(None, map(str.strip, cells)):
        idx_s, colon, val_s = cell.partition(":")
        if not colon:
            raise DataError(f"{path}:{lineno}: expected idx:value, got {cell!r}")
        try:
            idx = int(idx_s)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: bad feature index {idx_s!r}") from None
        if idx < 0:
            raise DataError(f"{path}:{lineno}: negative feature index")
        if idx in pairs:
            raise DataError(f"{path}:{lineno}: repeated feature index {idx}")
        pairs[idx] = _parse_float(val_s, path, lineno)
    row = np.zeros(1 + max(pairs, default=-1), dtype=np.float64)
    for idx, value in pairs.items():
        row[idx] = value
    return row


def load_features(path: str | Path,
                  sparse: bool = False) -> dict[str, np.ndarray]:
    """Parse a feature CSV into ``external id -> feature vector``: rows of
    float cells of one width, or with ``sparse`` rows of ``idx:value``
    cells, zero at every index a row does not list."""
    rows: dict[str, np.ndarray] = {}
    width = None
    for lineno, ext, cells in _csv_rows(path):
        if sparse:
            rows[ext] = _sparse_cells(cells, path, lineno)
            continue
        width = len(cells) if width is None else width
        if width < 1:
            raise DataError(f"{path}:{lineno}: no feature columns")
        if len(cells) != width:
            raise DataError(f"{path}:{lineno}: ragged row, expected {width} "
                            f"values, got {len(cells)}")
        rows[ext] = np.array([_parse_float(c, path, lineno) for c in cells],
                             dtype=np.float64)
    if not rows:
        raise DataError(f"{path}: no feature rows")
    dim = max(row.size for row in rows.values())
    if dim == 0:
        raise DataError(f"{path}: no feature cells in any row")
    for row in rows.values():
        if row.size < dim:  # zeros past a sparse row's largest index
            row.resize(dim, refcheck=False)
    return rows


def load_labels(path: str | Path) -> dict[str, int]:
    """Parse an ``id,class`` CSV."""
    labels: dict[str, int] = {}
    for lineno, ext, cells in _csv_rows(path):
        if len(cells) != 1:
            raise DataError(f"{path}:{lineno}: expected 'id,class'")
        try:
            labels[ext] = int(cells[0])
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: non-integer class {cells[0]!r}") from None
        if labels[ext] < 0:
            raise DataError(f"{path}:{lineno}: negative class {cells[0]!r}")
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


def _in_id_order(rows: dict, ids: list[str], path, what: str) -> list:
    """``rows[ext]`` for every id of ``ids``; an id without a row raises
    :class:`DataError` naming ``path``."""
    missing = [ext for ext in ids if ext not in rows]
    if missing:
        raise DataError(f"{path}: nodes missing {what}: {missing[:5]}"
                        + ("..." if len(missing) > 5 else ""))
    return [rows[ext] for ext in ids]


def load_dataset(hyperedges: str | Path,
                 features: str | Path | None = None,
                 labels: str | Path | None = None,
                 splits: str | Path | None = None,
                 sparse_features: bool = False) -> Dataset:
    """Load and cross-validate all dataset files into dense-id form."""
    raw_edges = load_hypergraph(hyperedges)
    feats = load_features(features, sparse=sparse_features) if features else None
    labs = load_labels(labels) if labels else None

    universe = set().union(*raw_edges, feats or (), labs or ())
    if not universe:
        raise DataError(f"{hyperedges}: empty dataset (no nodes anywhere)")
    ids = _sorted_ids(universe)
    id_map = {ext: i for i, ext in enumerate(ids)}

    edge_lists = [[id_map[v] for v in e] for e in raw_edges]
    g = build(edge_lists, num_nodes=len(ids))
    x = y = train = test = None
    if feats is not None:
        x = np.stack(_in_id_order(feats, ids, features, "feature rows"))
    if labs is not None:
        y = np.array(_in_id_order(labs, ids, labels, "labels"), dtype=np.int64)
    if splits:
        sp = load_splits(splits)
        for key in sp:
            unknown = [v for v in sp[key] if v not in id_map]
            if unknown:
                raise DataError(f"{splits}: unknown node ids in '{key}': "
                                f"{unknown[:5]}")
        train, test = (
            np.asarray(sorted(id_map[v] for v in sp[key]), dtype=np.int64)
            if key in sp else None for key in ("train", "test"))
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
