"""Coverage-counting kernels of the greedy loop.

Every marginal-gain query counts how many not-yet-covered nodes a
candidate's feature balls would add; every seed addition marks them.
``covered`` is a uint8 mask over the nodes and ``indices`` an integer id
array that may repeat ids.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"  # recorded with every job by selbench/job.py


def count_uncovered_unique(covered: np.ndarray, indices: np.ndarray) -> int:
    """Number of distinct ids in ``indices`` not yet marked in ``covered``."""
    fresh = indices[covered[indices] == 0]
    return int(np.unique(fresh).size)


def mark_covered(covered: np.ndarray, indices: np.ndarray) -> int:
    """Mark ids in ``covered``; return how many were newly covered."""
    fresh = indices[covered[indices] == 0]
    covered[fresh] = 1
    return int(np.unique(fresh).size)
