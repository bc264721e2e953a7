"""``hial select`` and ``hial stats`` on ``sample_data`` against the
outputs kept in ``tests/data``: seeds, evaluation counts, MoI values,
parameter names and every other non-float exactly, and each float within a
relative 1e-12, so the check also holds on a numpy or BLAS kernel that
rounds differently. In a stats report every number is compared that way
and the text around the numbers exactly.

A change of intended output rewrites both with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from hial import cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "sample_data"
GOLDEN = ROOT / "tests" / "data"
CASES = {
    "plain": [],
    "radius-0": ["--radius", "0"],
    "radius-inf": ["--radius", "inf"],
    "hgnn-k3": ["--backend", "hgnn", "--k", "3"],
    "train-split": ["--splits", str(SAMPLE / "toy.splits.json"),
                    "--train-split"],
    # a strict pool: the train split holds nodes 0-5 of 12
    "half-split": ["--splits", str(GOLDEN / "toy-half.splits.json"),
                   "--train-split", "--budget", "4"],
}
STATS_CASES = ("plain", "radius-0", "radius-inf", "train-split",
               "half-split")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def select(extra, out: Path) -> dict:
    """The result document of ``hial select`` on the toy data, written to
    ``out``."""
    code = cli.main(["select", "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                     "--features", str(SAMPLE / "toy.features.csv"), *extra,
                     "--output", str(out)])
    assert code == cli.EXIT_OK
    return json.loads(out.read_text())


def stats(extra) -> str:
    """The report of ``hial stats`` on the toy data."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["stats", "--hyperedges",
                         str(SAMPLE / "toy.hyperedges"), "--features",
                         str(SAMPLE / "toy.features.csv"), *extra])
    assert code == cli.EXIT_OK
    return out.getvalue()


def assert_same(got, want, where="document"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", CASES)
def test_sample_data_matches_golden(name, tmp_path, capsys):
    got = select(CASES[name], tmp_path / "result.json")
    want = json.loads((GOLDEN / f"toy-{name}.json").read_text())
    for doc in (got, want):
        del doc["tool_version"]  # a release changes it, not the selection
    assert_same(got, want)


@pytest.mark.parametrize("name", STATS_CASES)
def test_sample_data_stats_match_golden(name):
    got = stats(CASES[name])
    want = (GOLDEN / f"toy-stats-{name}.txt").read_text()
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want)
    assert_same([float(x) for x in NUMBER.findall(got)],
                [float(x) for x in NUMBER.findall(want)], "report")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, extra in CASES.items():
        select(extra, GOLDEN / f"toy-{name}.json")
    for name in STATS_CASES:
        (GOLDEN / f"toy-stats-{name}.txt").write_text(stats(CASES[name]))
    sys.exit(0)
