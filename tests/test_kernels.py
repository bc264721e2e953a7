import numpy as np

from hial import kernels


def test_count_uncovered_unique():
    covered = np.zeros(10, dtype=np.uint8)
    covered[[1, 3]] = 1
    idx = np.array([0, 0, 1, 2, 3, 9, 9], dtype=np.int64)
    assert kernels.count_uncovered_unique(covered, idx) == 3
    assert list(covered) == [0, 1, 0, 1, 0, 0, 0, 0, 0, 0]  # read only
    assert kernels.count_uncovered_unique(covered, np.empty(0, np.int64)) == 0


def test_mark_covered():
    covered = np.zeros(6, dtype=np.uint8)
    assert kernels.mark_covered(covered, np.array([0, 0, 2], np.int64)) == 2
    assert kernels.mark_covered(covered, np.array([0, 2, 3], np.int64)) == 1
    assert list(covered) == [1, 0, 1, 1, 0, 0]
    assert kernels.mark_covered(covered, np.empty(0, np.int64)) == 0


def test_selected_backend_exports():
    assert kernels.BACKEND == "python"
    assert callable(kernels.count_uncovered_unique)
    assert callable(kernels.mark_covered)
