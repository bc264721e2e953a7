"""Quick self-check of the benchmark (a few seconds).

    python3 selbench/selfcheck.py

Runs the three workload shapes at a tiny size through a traced child job
and checks that:

* every job passes the output check;
* recorded spans nest inside their parents and siblings do not overlap;
* self times are non-negative and at most the inclusive times;
* every layer metric is measured, except ``propagation.activated_mask_all``
  on the full-pool shapes, where it is absent, and ``BENCHMARK.json`` lists
  only metrics measured on every shape;
* wrapping a name the program lacks marks it absent instead of failing;
* the output check rejects tampered result documents.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time
from dataclasses import replace

import run
import tracer
import workloads
from check import check_result

TINY = {
    "planted-100k-pinned": dict(n=600, m=300, budget=5),
    "planted-5k-auto": dict(n=400, m=200, budget=5),
    "sparse-3k-pool": dict(n=300, m=150, budget=5),
}
ONLY_ON_RESTRICTED_POOL = {"propagation.activated_mask_all_s",
                           "propagation.activated_mask_all.rss_hwm_delta_mb"}
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_spans(name: str, dump: dict) -> None:
    spans = {s[0]: s for s in dump["spans"]}
    children: dict = {}
    for span_id, span, parent, t0, t1 in spans.values():
        expect(t0 <= t1, f"{name}: span {span} ends before it starts")
        if parent is None:
            continue
        expect(parent in spans, f"{name}: span {span} has unrecorded parent")
        if parent in spans:
            p = spans[parent]
            expect(p[3] <= t0 and t1 <= p[4],
                   f"{name}: span {span} not inside its parent {p[1]}")
        children.setdefault(parent, []).append((t0, t1, span))
    for kids in children.values():
        kids.sort()
        for (a0, a1, a), (b0, b1, b) in zip(kids, kids[1:]):
            expect(a1 <= b0, f"{name}: sibling spans {a} and {b} overlap")
    for span, stat in dump["stats"].items():
        expect(stat["self"] >= -1e-9,
               f"{name}: negative self time for {span}")
        expect(stat["self"] <= stat["total"] + 1e-9,
               f"{name}: self time above total for {span}")


def check_tampering(name: str, doc: dict, verify) -> None:
    expect(not verify(doc), f"{name}: untampered document rejected")
    expect(not verify(doc, reference={
        "seeds": [int(s) for s in doc["seeds"]], "trace": doc["trace"]}),
        f"{name}: document differs from itself as a reference")

    def tampered(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    cases = {
        "swapped seeds": lambda d: d["seeds"].insert(1, d["seeds"].pop(0)),
        "repeated seed": lambda d: d["seeds"].__setitem__(1, d["seeds"][0]),
        "raised gain": lambda d: d["gains"].__setitem__(
            -1, d["gains"][-1] * 1.001),
        "edv off": lambda d: d["trace"][-1].__setitem__(
            "edv", d["trace"][-1]["edv"] + 1e-6),
        "seed missing": lambda d: d["seeds"].pop(),
    }
    for label, edit in cases.items():
        expect(bool(verify(tampered(edit))), f"{name}: {label} not caught")
    reference = {"seeds": [int(s) for s in doc["seeds"]][::-1],
                 "trace": doc["trace"]}
    expect(bool(verify(doc, reference=reference)),
           f"{name}: reference mismatch not caught")


def main() -> int:
    start = time.monotonic()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]} - {
            "trace.overhead_s"}
    expect(listed <= set(tracer.METRICS),
           f"BENCHMARK.json lists unknown layer metrics {listed - set(tracer.METRICS)}")
    sys.path.insert(0, str(run.ROOT / "src"))
    from hial.hypergraph import build

    base = run.ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    for name, size in TINY.items():
        wl = replace(workloads.WORKLOADS[name], **size)
        inputs = workloads.generate(wl, 1, 0, base / name)
        graph = build([e.tolist() for e in inputs.edges], num_nodes=wl.n)
        pool = range(wl.n) if inputs.pool is None else set(inputs.pool.tolist())

        def verify(doc, reference=None):
            return check_result(doc, budget=wl.budget, pool=pool, graph=graph,
                                beta=workloads.BETA, gamma=workloads.GAMMA,
                                reference=reference)

        job = run.run_job(inputs, verify, "trace", 0, base / name,
                          time.monotonic() + 120)
        expect(not job["errors"], f"{name}: job failed: {job['errors']}")
        if job["errors"]:
            continue
        check_spans(name, job["trace"])
        values, absent = tracer.layer_metrics(job["trace"], tracer.METRICS)
        want_absent = set() if inputs.pool is not None else ONLY_ON_RESTRICTED_POOL
        expect(set(absent) == want_absent,
               f"{name}: absent {sorted(absent)}, expected {sorted(want_absent)}")
        expect(not listed & set(absent),
               f"{name}: metrics in BENCHMARK.json absent: {listed & set(absent)}")
        with open(base / name / "trace0.result.json") as fh:
            check_tampering(name, json.load(fh), verify)
        print(f"selfcheck {name}: {len(values)} layer metrics, "
              f"{len(job['trace']['spans'])} spans")

    t = tracer.Tracer().install(tracer.LAYERS + [
        ("hial.objective:NoSuchBalls.members", "objective.gone", None),
        ("hial.no_such_module:f", "gone.module", None)])
    t.uninstall()
    expect(set(t.absent) == {"objective.gone", "gone.module"},
           f"missing layers not reported absent: {t.absent}")
    from hial import objective
    expect(not hasattr(objective.FeatureBalls.members, "__wrapped__"),
           "uninstall left a wrapper in place")

    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print(f"selfcheck {'FAILED' if problems else 'ok'} "
          f"in {time.monotonic() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
