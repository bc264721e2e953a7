import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hial import SelectionConfig, cli, dataio, prepare

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "sample_data"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def toy_args(extra=()):
    return ["select",
            "--hyperedges", str(SAMPLE / "toy.hyperedges"),
            "--features", str(SAMPLE / "toy.features.csv"),
            *extra]


def test_select_writes_result(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, stdout, _ = run(toy_args(["--budget", "2", "--output", str(out)]),
                          capsys)
    assert code == 0
    assert "selected 2 seeds" in stdout
    doc = json.loads(out.read_text())
    assert len(doc["seeds"]) == 2
    f_vals = [t["F"] for t in doc["trace"]]
    assert all(b >= a - 1e-12 for a, b in zip(f_vals, f_vals[1:]))


def test_naive_and_lazy_agree(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["--budget", "3", "--seed", "7"]
    assert run(toy_args(base + ["--output", str(out_a)]), capsys)[0] == 0
    assert run(toy_args(base + ["--naive", "--output", str(out_b)]),
               capsys)[0] == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["seeds"] == b["seeds"]
    assert a["trace"] == b["trace"]


def test_gamma_extremes_select_different_seeds(tmp_path, capsys):
    # node 0 dominates the topology; the feature cluster lives elsewhere
    g = tmp_path / "g.hyperedges"
    g.write_text("0 1\n0 2\n0 3\n0 4\n0 5\n1 2 3 4 5\n")
    f = tmp_path / "f.csv"
    rows = ["0,10.0,10.0"]
    rows += [f"{i},{0.01 * i:.2f},0.0" for i in range(1, 6)]
    f.write_text("\n".join(rows) + "\n")
    outs = []
    for gamma in ("1.0", "0.0"):
        out = tmp_path / f"res{gamma}.json"
        code, _, _ = run(["select", "--hyperedges", str(g),
                          "--features", str(f), "--budget", "1",
                          "--theta", "0.01", "--radius", "0.5",
                          "--gamma", gamma, "--output", str(out)], capsys)
        assert code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["seeds"] != outs[1]["seeds"]
    assert outs[0]["trace"] != outs[1]["trace"]


def test_select_deterministic_with_seed(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--budget", "2", "--seed", "3"]
    run(toy_args(args + ["--output", str(out_a)]), capsys)
    run(toy_args(args + ["--output", str(out_b)]), capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_stats_reports_counts(capsys):
    code, stdout, _ = run(["stats",
                           "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                           "--features", str(SAMPLE / "toy.features.csv")],
                          capsys)
    assert code == 0
    assert "nodes: 12" in stdout
    assert "hyperedges: 11" in stdout
    assert "resolved theta" in stdout


def test_stats_deterministic(capsys):
    argv = ["stats", "--hyperedges", str(SAMPLE / "toy.hyperedges"),
            "--features", str(SAMPLE / "toy.features.csv"), "--seed", "5"]
    _, out_a, _ = run(argv, capsys)
    _, out_b, _ = run(argv, capsys)
    assert out_a == out_b


def test_stats_ignores_budget_on_small_split(tmp_path, capsys):
    """stats selects nothing, so the default --budget 10 need not fit a
    5-node train split, and --budget does not change the report."""
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": ["0", "2", "3", "7", "9"],
                                 "test": ["1", "4"]}))
    argv = ["stats", "--hyperedges", str(SAMPLE / "toy.hyperedges"),
            "--features", str(SAMPLE / "toy.features.csv"),
            "--splits", str(split), "--train-split"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "moi normalizer" in out
    assert run(argv + ["--budget", "3"], capsys)[1] == out


def test_stats_train_split_reports_pool(tmp_path, capsys):
    """--train-split narrows the reported activation sets to the pool; the
    MoI normalizer still covers every node."""
    train = ["0", "2", "3", "7", "9"]
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": train, "test": ["1", "4"]}))
    argv = ["stats", "--hyperedges", str(SAMPLE / "toy.hyperedges"),
            "--features", str(SAMPLE / "toy.features.csv"),
            "--budget", "3", "--theta", "0.15", "--radius", "0.01"]
    code, full, _ = run(argv, capsys)
    assert code == 0
    code, sub, _ = run(argv + ["--splits", str(split), "--train-split"],
                       capsys)
    assert code == 0

    def line(out, name):
        return next(l for l in out.splitlines() if l.startswith(name))

    ds = dataio.load_dataset(SAMPLE / "toy.hyperedges",
                             SAMPLE / "toy.features.csv")
    ctx = prepare(ds.hypergraph, ds.features,
                  SelectionConfig(budget=3, theta=0.15, radius=0.01))
    sizes = np.diff(ctx.acts.indptr)[[ds.id_map[v] for v in train]]
    expect = cli._distribution_line("activation set size",
                                    sizes.astype(float))
    assert line(sub, "activation set size") == expect
    assert line(sub, "activation set size") != line(full,
                                                    "activation set size")
    # the pool alone activates 9 of the 12 nodes
    assert line(sub, "moi normalizer") == line(full, "moi normalizer") \
        == "moi normalizer: 12"


def test_evaluate_round_trip(tmp_path, capsys):
    out = tmp_path / "res.json"
    run(toy_args(["--budget", "2", "--output", str(out)]), capsys)
    code, stdout, _ = run(["evaluate",
                           "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                           "--features", str(SAMPLE / "toy.features.csv"),
                           "--labels", str(SAMPLE / "toy.labels.csv"),
                           "--splits", str(SAMPLE / "toy.splits.json"),
                           "--seeds", str(out)], capsys)
    assert code == 0
    assert "accuracy:" in stdout


def test_evaluate_empty_seeds_rejected(tmp_path, capsys):
    seeds = tmp_path / "empty.json"
    seeds.write_text('{"seeds": []}')
    code, _, err = run(["evaluate",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(SAMPLE / "toy.features.csv"),
                        "--labels", str(SAMPLE / "toy.labels.csv"),
                        "--seeds", str(seeds)], capsys)
    assert code == cli.EXIT_DATA
    assert "empty seed list" in err


def test_evaluate_requires_labels(tmp_path, capsys):
    seeds = tmp_path / "s.json"
    seeds.write_text('{"seeds": ["0"]}')
    code, _, err = run(["evaluate",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(SAMPLE / "toy.features.csv"),
                        "--seeds", str(seeds)], capsys)
    assert code == cli.EXIT_DATA


@pytest.mark.parametrize("doc", [{"train": "12"}, ["1", "2"]],
                         ids=["string-ids", "top-level-list"])
def test_splits_wrong_shape_rejected(tmp_path, capsys, doc):
    """A string is not an id list and a list is not an object: both exit 3
    instead of reading the characters as ids or raising a TypeError."""
    split = tmp_path / "split.json"
    split.write_text(json.dumps(doc))
    code, _, err = run(["stats",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(SAMPLE / "toy.features.csv"),
                        "--splits", str(split), "--train-split"], capsys)
    assert code == cli.EXIT_DATA
    assert str(split) in err


@pytest.mark.parametrize("doc", [{"seeds": "12"}, ["1", "2"]],
                         ids=["string-ids", "top-level-list"])
def test_evaluate_seeds_wrong_shape_rejected(tmp_path, capsys, doc):
    """The characters of a string are not seeds, and a list is not a result
    document: both exit 3 instead of scoring or raising AttributeError."""
    seeds = tmp_path / "s.json"
    seeds.write_text(json.dumps(doc))
    code, out, err = run(["evaluate",
                          "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                          "--features", str(SAMPLE / "toy.features.csv"),
                          "--labels", str(SAMPLE / "toy.labels.csv"),
                          "--seeds", str(seeds)], capsys)
    assert code == cli.EXIT_DATA
    assert "accuracy" not in out
    assert str(seeds) in err


def test_exit_code_usage(capsys):
    assert run(["select"], capsys)[0] == cli.EXIT_USAGE
    assert run([], capsys)[0] == cli.EXIT_USAGE


def test_exit_code_missing_file(capsys):
    code, _, err = run(toy_args(["--hyperedges", "/nonexistent.hyperedges"]),
                       capsys)
    assert code == cli.EXIT_DATA


def test_exit_code_directory_as_file(tmp_path, capsys):
    code, _, err = run(toy_args(["--hyperedges", str(tmp_path)]), capsys)
    assert code == cli.EXIT_DATA
    assert str(tmp_path) in err


def test_exit_code_negative_seed(capsys):
    code, _, err = run(toy_args(["--budget", "1", "--seed", "-1"]), capsys)
    assert code == cli.EXIT_CONFIG
    assert "seed" in err


def test_evaluate_negative_label_rejected(tmp_path, capsys):
    """A negative class would index the last one-hot column and score a
    plausible accuracy; it exits 3 instead."""
    rows = (SAMPLE / "toy.labels.csv").read_text().splitlines()
    labels = tmp_path / "shifted.labels.csv"
    labels.write_text("".join(f"{r.split(',')[0]},{int(r.split(',')[1]) - 1}\n"
                              for r in rows))
    out = tmp_path / "res.json"
    assert run(toy_args(["--budget", "2", "--output", str(out)]), capsys)[0] == 0
    code, stdout, err = run(["evaluate",
                             "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                             "--features", str(SAMPLE / "toy.features.csv"),
                             "--labels", str(labels),
                             "--splits", str(SAMPLE / "toy.splits.json"),
                             "--seeds", str(out)], capsys)
    assert code == cli.EXIT_DATA
    assert "accuracy" not in stdout
    assert "negative class" in err


def test_exit_code_config_error(capsys):
    code, _, err = run(toy_args(["--budget", "999"]), capsys)
    assert code == cli.EXIT_CONFIG
    code, _, err = run(toy_args(["--gamma", "3.0"]), capsys)
    assert code == cli.EXIT_CONFIG


def test_error_printed_once():
    """A failing command writes its error to stderr once. Run in a child
    process: the log handler writes to the real stderr, which capsys does
    not see."""
    env = dict(os.environ)
    env.pop("HIAL_LOG_LEVEL", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "hial.cli",
                           *toy_args(["--budget", "0"])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_select_byte_identical_across_hash_seeds(tmp_path):
    """The result document does not depend on Python's string hash order:
    two child processes under different PYTHONHASHSEED values write the
    same bytes and print the same stdout, apart from the wall time."""
    docs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        out = tmp_path / f"res{hash_seed}.json"
        proc = subprocess.run([sys.executable, "-m", "hial.cli",
                               *toy_args(["--budget", "3", "--output",
                                          str(out)])],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        stdout, timed = re.subn(rb"time=[0-9.]+s", b"time=*s", proc.stdout)
        assert timed == 1
        docs.append((out.read_bytes(), stdout))
    assert docs[0] == docs[1]


def test_exit_code_unknown_log_level(monkeypatch, capsys):
    monkeypatch.setenv("HIAL_LOG_LEVEL", "foo")
    code, stdout, err = run(["stats",
                             "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                             "--features", str(SAMPLE / "toy.features.csv")],
                            capsys)
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "HIAL_LOG_LEVEL" in err


def test_exit_code_malformed_features(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("0,abc\n")
    code, _, err = run(["select",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(f), "--budget", "1"], capsys)
    assert code == cli.EXIT_DATA


def test_exit_code_sparse_features_without_cells(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("0,\n1,\n")
    code, _, err = run(["select",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(f), "--sparse-features",
                        "--budget", "1"], capsys)
    assert code == cli.EXIT_DATA
    assert "no feature cells" in err


def test_exit_code_sparse_repeated_index(tmp_path, capsys):
    f = tmp_path / "dup.csv"
    f.write_text("".join(f"{i},0:1,1:{i}\n" for i in range(11))
                 + "11,0:1,0:5\n")
    code, _, err = run(["select",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(f), "--sparse-features",
                        "--budget", "1"], capsys)
    assert code == cli.EXIT_DATA
    assert "dup.csv:12: repeated feature index 0" in err


def test_exit_code_non_finite_feature(tmp_path, capsys):
    # the toy features with one cell replaced by nan
    rows = (SAMPLE / "toy.features.csv").read_text().splitlines()
    cells = rows[-1].split(",")
    rows[-1] = ",".join([*cells[:-1], "nan"])
    f = tmp_path / "nan.csv"
    f.write_text("\n".join(rows) + "\n")
    code, _, err = run(["select",
                        "--hyperedges", str(SAMPLE / "toy.hyperedges"),
                        "--features", str(f), "--budget", "1"], capsys)
    assert code == cli.EXIT_DATA
    assert "non-finite" in err


def test_exit_code_nan_theta_or_radius(capsys):
    for flag in ("--theta", "--radius"):
        code, _, err = run(toy_args(["--budget", "1", flag, "nan"]), capsys)
        assert code == cli.EXIT_CONFIG
        assert flag[2:] in err


def test_infinite_radius_accepted(capsys):
    code, stdout, _ = run(toy_args(["--budget", "2", "--radius", "inf"]),
                          capsys)
    assert code == 0
    assert "radius=inf" in stdout


def test_label_propagation_full_seeding_fits_training():
    ds = dataio.load_dataset(SAMPLE / "toy.hyperedges",
                             SAMPLE / "toy.features.csv",
                             SAMPLE / "toy.labels.csv",
                             SAMPLE / "toy.splits.json")
    acc = cli.label_propagation_accuracy(
        ds, np.arange(12), k=2, alpha=0.5, backend="hoi")
    assert acc == 1.0
