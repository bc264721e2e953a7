"""Input generators for the selection benchmark.

Every workload draws its hyperedges with the acceptance suite's criterion-8
generator (edge sizes ``Poisson(4) + 1``, node ids uniform in ``[0, n)``)
from ``numpy.random.default_rng(seed)``. External node ids are the decimal
strings ``"0" .. "n-1"`` and every node has a feature row, so the dense ids
the program assigns equal the generator's ids.

Why each workload exists:

* ``planted-100k-pinned`` is criterion 8 itself (same draw order, so seed 0
  reproduces the acceptance instance bit for bit): n=100k, m=50k, four
  Gaussian clusters in d=8, ``radius=0.3``. Many small cached KD-tree ball
  queries; load, influence columns and the two normalizers carry the time.
* ``planted-5k-auto`` is the same generator at n=5k under the default
  config (``radius=auto``): balls hold about 5% of n, so the greedy loop and
  the coverage kernels dominate and cost grows quadratically.
* ``sparse-3k-pool`` has sparse binary bag-of-words features (d=32, four
  topics), a 20% train-split candidate pool and the hgnn backend. It is the
  only workload on the brute-force ball path (d > 16), the restricted-pool
  ``activated_mask_all`` path and the sparse CSV parser.

``BENCHMARK.json`` gates only the last two. ``planted-100k-pinned`` runs
with the same command, but a run holds a single 40-55 s job, and over ten
runs on a shared 2-vCPU host its time spread by up to 0.24 of the median:
too wide to gate regressions on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    features: str                  # "dense" (planted clusters) or "sparse"
    budget: int
    select_args: tuple[str, ...] = field(default_factory=tuple)
    pool_share: float | None = None  # train split share, sparse only


BETA = 0.1
GAMMA = 0.5
# Settings shared by every workload; a workload's own args come after these.
COMMON_ARGS = ("--k", "2", "--alpha", "0.9", "--beta", str(BETA),
               "--gamma", str(GAMMA), "--seed", "0")

WORKLOADS = {
    w.name: w for w in (
        Workload("planted-100k-pinned", 100_000, 50_000, "dense", 50,
                 ("--theta", "auto", "--radius", "0.3", "--backend", "hoi")),
        Workload("planted-5k-auto", 5_000, 2_500, "dense", 50,
                 ("--backend", "hoi")),
        Workload("sparse-3k-pool", 3_000, 1_500, "sparse", 100,
                 ("--sparse-features", "--train-split", "--backend", "hgnn"),
                 pool_share=0.2),
    )
}

SPARSE_DIM = 32
SPARSE_TOPICS = 4


@dataclass
class Inputs:
    """Generated instance, kept in memory for the output check."""

    workload: Workload
    seed: int
    instance: int
    edges: list[np.ndarray]
    features: np.ndarray            # dense n x d (binary for sparse)
    pool: np.ndarray | None         # sorted train ids, or None for all nodes
    files: dict[str, Path]

    def select_argv(self, output: Path) -> list[str]:
        """Arguments of ``hial select`` for this instance."""
        argv = ["--hyperedges", str(self.files["hyperedges"]),
                "--features", str(self.files["features"])]
        if "splits" in self.files:
            argv += ["--splits", str(self.files["splits"])]
        argv += ["--budget", str(self.workload.budget), *COMMON_ARGS,
                 *self.workload.select_args, "--output", str(output)]
        return argv

    def sizes(self) -> dict:
        return {
            "instance": self.instance,
            "n": self.workload.n,
            "m": self.workload.m,
            "incidence_nnz": int(sum(np.unique(e).size for e in self.edges)),
            "d": int(self.features.shape[1]),
            "pool": int(self.workload.n if self.pool is None
                        else self.pool.size),
            "budget": self.workload.budget,
            "input_bytes": {k: p.stat().st_size
                            for k, p in sorted(self.files.items())},
        }


def _edges(rng: np.random.Generator, n: int, m: int) -> list[np.ndarray]:
    sizes = rng.poisson(4, m) + 1  # mean edge size 5
    flat = rng.integers(0, n, size=int(sizes.sum()))
    return np.split(flat, np.cumsum(sizes)[:-1])


def _planted_features(rng: np.random.Generator, n: int) -> np.ndarray:
    centers = rng.normal(size=(4, 8)) * 3
    return centers[rng.integers(0, 4, n)] + rng.normal(size=(n, 8))


def _topic_features(rng: np.random.Generator, n: int) -> np.ndarray:
    """Binary bag of words: each node draws Poisson(5)+1 words, three in
    four from its topic's block of the vocabulary."""
    block = SPARSE_DIM // SPARSE_TOPICS
    topic = rng.integers(0, SPARSE_TOPICS, n)
    counts = rng.poisson(5, n) + 1
    owner = np.repeat(np.arange(n), counts)
    in_topic = rng.random(owner.size) < 0.75
    word = np.where(in_topic,
                    topic[owner] * block + rng.integers(0, block, owner.size),
                    rng.integers(0, SPARSE_DIM, owner.size))
    x = np.zeros((n, SPARSE_DIM), dtype=np.float64)
    x[owner, word] = 1.0
    return x


def generate(wl: Workload, seed: int, instance: int,
             workdir: Path) -> Inputs:
    """Draw instance ``instance`` of ``seed`` and write its input files.

    Instance 0 draws from ``default_rng(seed)`` itself, so at seed 0 it is
    the criterion-8 instance or the ROADMAP baseline instance; instance
    i > 0 draws from ``default_rng([seed, i])``.
    """
    rng = np.random.default_rng(seed if instance == 0 else [seed, instance])
    edges = _edges(rng, wl.n, wl.m)
    if wl.features == "dense":
        x = _planted_features(rng, wl.n)
    else:
        x = _topic_features(rng, wl.n)
        if not x[:, -1].any():
            raise RuntimeError(f"seed {seed}: no node uses the last word; "
                               "the sparse parser would see d < 32")
    pool = None
    if wl.pool_share is not None:
        perm = rng.permutation(wl.n)
        cut = int(round(wl.pool_share * wl.n))
        pool = np.sort(perm[:cut])
    workdir.mkdir(parents=True, exist_ok=True)
    files = {"hyperedges": workdir / "graph.hyperedges",
             "features": workdir / "graph.features.csv"}
    with open(files["hyperedges"], "w") as fh:
        fh.writelines(" ".join(map(str, e.tolist())) + "\n" for e in edges)
    with open(files["features"], "w") as fh:
        if wl.features == "dense":
            # repr round-trips float64 exactly, so the program sees x itself
            fh.writelines(f"{i}," + ",".join(map(repr, row)) + "\n"
                          for i, row in enumerate(x.tolist()))
        else:
            fh.writelines(
                f"{i}," + ",".join(f"{j}:1" for j in np.flatnonzero(row)) + "\n"
                for i, row in enumerate(x))
    if pool is not None:
        files["splits"] = workdir / "graph.splits.json"
        rest = np.setdiff1d(np.arange(wl.n), pool)
        with open(files["splits"], "w") as fh:
            fh.write('{"train": [' + ", ".join(f'"{v}"' for v in pool)
                     + '], "test": [' + ", ".join(f'"{v}"' for v in rest)
                     + "]}\n")
    return Inputs(wl, seed, instance, edges, x, pool, files)
