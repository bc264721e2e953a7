"""Command-line front end.

Subcommands: ``select`` (run the greedy pipeline end to end), ``stats``
(dataset and resolved-parameter report), ``evaluate`` (label-propagation
proxy accuracy for a seed file).

Exit codes: 0 success, 2 usage error, 3 data/parse error, 4 config error,
1 any other failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, dataio, objective, propagation, selector
from .errors import ConfigError, DataError, HialError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4

def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hyperedges", required=True, help="hyperedge list file")
    p.add_argument("--features", required=True, help="node feature CSV")
    p.add_argument("--labels", help="node label CSV")
    p.add_argument("--splits", help="train/test split JSON")
    p.add_argument("--sparse-features", action="store_true",
                   help="features CSV uses idx:value sparse cells")


def _add_propagation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2, help="propagation steps")
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--backend", choices=[propagation.HOI, propagation.HGNN],
                   default=propagation.HOI)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=10)
    _add_propagation_args(p)
    p.add_argument("--theta", default="auto",
                   help="activation threshold, or 'auto'")
    p.add_argument("--radius", default="auto",
                   help="feature ball radius, or 'auto'")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--train-split", action="store_true",
                   help="restrict candidates to the train split")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for auto-quantile sampling")


def _parse_auto(value: str, name: str) -> float | str:
    if value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number or 'auto', got {value!r}") from None


def _build_config(args, ds: dataio.Dataset) -> selector.SelectionConfig:
    pool = None
    if args.train_split:
        if ds.train_nodes is None:
            raise ConfigError("--train-split requires a splits file with 'train'")
        pool = tuple(int(v) for v in ds.train_nodes)
    return selector.SelectionConfig(
        budget=args.budget, k=args.k, alpha=args.alpha,
        theta=_parse_auto(args.theta, "theta"),
        radius=_parse_auto(args.radius, "radius"),
        beta=args.beta, gamma=args.gamma, backend=args.backend,
        candidate_pool=pool, rng_seed=args.seed)


def _load(args) -> dataio.Dataset:
    return dataio.load_dataset(args.hyperedges, args.features, args.labels,
                               args.splits, sparse_features=args.sparse_features)


def cmd_select(args) -> int:
    ds = _load(args)
    cfg = _build_config(args, ds)
    t0 = time.perf_counter()
    ctx = selector.prepare(ds.hypergraph, ds.features, cfg)
    result = (selector.select_naive if args.naive else selector.select_lazy)(ctx)
    elapsed = time.perf_counter() - t0
    if args.output:
        dataio.write_result(result, args.output, ds.ids)
    final_f = result.trace[-1][2] if result.trace else 0.0
    print(f"selected {len(result.seeds)} seeds  "
          f"F={final_f:.6f}  theta={ctx.resolved_params['theta']:.6g}  "
          f"radius={ctx.resolved_params['radius']:.6g}  "
          f"time={elapsed:.2f}s")
    print("seeds:", " ".join(ds.ids[s] for s in result.seeds))
    return EXIT_OK


def _distribution_line(name: str, values: np.ndarray) -> str:
    if values.size == 0:
        return f"{name}: (empty)"
    qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return (f"{name}: min={qs[0]:g} q25={qs[1]:g} median={qs[2]:g} "
            f"q75={qs[3]:g} max={qs[4]:g} mean={values.mean():g}")


def cmd_stats(args) -> int:
    ds = _load(args)
    g = ds.hypergraph
    print(f"nodes: {g.num_nodes}")
    print(f"hyperedges: {g.num_edges}")
    print(f"incidence pairs: {int(g.node_degree.sum())}")
    print(_distribution_line("node degree", g.node_degree))
    print(_distribution_line("hyperedge size", g.edge_degree))
    # stats selects nothing, so --budget need not fit the candidate pool
    cfg = replace(_build_config(args, ds), budget=1)
    ctx = selector.prepare(g, ds.features, cfg)
    print(f"resolved theta: {ctx.resolved_params['theta']:.17g}")
    print(f"resolved radius: {ctx.resolved_params['radius']:.17g}")
    sizes = np.diff(ctx.acts.indptr)[ctx.pool]
    print(_distribution_line("activation set size", sizes.astype(float)))
    print(f"moi normalizer: {ctx.moi_hat}")
    print(f"edv normalizer: {ctx.edv_hat:.17g}")
    return EXIT_OK


def label_propagation_accuracy(ds: dataio.Dataset, seeds: np.ndarray,
                               k: int, alpha: float, backend: str) -> float:
    """Propagate one-hot seed labels and score argmax predictions on the
    test split (all non-seed labeled nodes when no split is given)."""
    if ds.labels is None:
        raise DataError("evaluation requires labels")
    if seeds.size == 0:
        raise DataError("seed set is empty")
    n = ds.hypergraph.num_nodes
    n_classes = int(ds.labels.max()) + 1
    y0 = np.zeros((n, n_classes), dtype=np.float64)
    y0[seeds, ds.labels[seeds]] = 1.0
    t = propagation.build_transition(ds.hypergraph, backend)
    ps = propagation.propagate(t, y0, k, alpha)
    pred = np.argmax(ps.propagated_features, axis=1)
    if ds.test_nodes is not None:
        eval_nodes = ds.test_nodes
    else:
        mask = np.ones(n, dtype=bool)
        mask[seeds] = False
        eval_nodes = np.flatnonzero(mask)
    if eval_nodes.size == 0:
        raise DataError("no evaluation nodes (everything is seeded)")
    return float(np.mean(pred[eval_nodes] == ds.labels[eval_nodes]))


def cmd_evaluate(args) -> int:
    ds = _load(args)
    if ds.labels is None:
        raise DataError("evaluate requires --labels")
    doc = dataio.read_result(args.seeds)
    ext_seeds = dataio.id_lists(args.seeds, doc, ("seeds",)).get("seeds", [])
    if not ext_seeds:
        raise DataError(f"{args.seeds}: empty seed list")
    unknown = [s for s in ext_seeds if s not in ds.id_map]
    if unknown:
        raise DataError(f"{args.seeds}: unknown seed ids {unknown[:5]}")
    seeds = np.asarray([ds.id_map[s] for s in ext_seeds], dtype=np.int64)
    acc = label_propagation_accuracy(ds, seeds, args.k, args.alpha,
                                     args.backend)
    print(f"seeds: {seeds.size}")
    print(f"accuracy: {acc:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hial",
        description="Hypergraph active-learning seed selection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="greedy seed selection")
    _add_dataset_args(p_sel)
    _add_config_args(p_sel)
    p_sel.add_argument("--naive", action="store_true",
                       help="use the reference (non-lazy) greedy path")
    p_sel.add_argument("--output", help="write the result document here")
    p_sel.set_defaults(func=cmd_select)

    p_stats = sub.add_parser("stats", help="dataset and parameter report")
    _add_dataset_args(p_stats)
    _add_config_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_eval = sub.add_parser("evaluate",
                            help="label-propagation proxy accuracy")
    _add_dataset_args(p_eval)
    p_eval.add_argument("--seeds", required=True,
                        help="result document from 'select'")
    _add_propagation_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    # an id that the locale cannot encode prints escaped instead of raising
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    level = os.environ.get("HIAL_LOG_LEVEL", "WARNING").upper()
    # a known level name maps to its number, an unknown one to a string
    # (getLevelNamesMapping would need Python 3.11)
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: unknown HIAL_LOG_LEVEL {level!r}", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:  # a file that cannot be opened, e.g. a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
