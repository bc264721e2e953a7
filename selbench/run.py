"""Selection benchmark: load -> prepare -> select_lazy -> result document.

    python3 selbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. The workload seed draws the inputs (see
``workloads.py``); the program receives only the generated files.

Closed loop, one client: this process starts one child interpreter per job
(``job.py``) and waits for it to exit before starting the next, for
``--seconds`` seconds and at least one job. Timed jobs cycle through
``INSTANCES`` inputs drawn from the seed, so a run's median is not set by
one draw; traced jobs all use instance 0. Each child gets
``PYTHONHASHSEED`` = its index in the run (recorded) and BLAS thread
variables equal to the CPUs this process may use. Every job's result
document goes through ``check.py``; a job that exits non-zero or fails the
check counts as failed.

``--trace 0`` first starts ``SETUP_PROBES`` children that stop once the
dataset is loaded, then the timed jobs, and reports the end-to-end metrics
(median over jobs):

* ``e2e_s``: spawning the child to its exit
* ``setup_s``: spawning the child to ``dataio.load_dataset`` returning
  (median over probes and jobs)
* ``solve_s``: ``selector.prepare`` plus ``selector.select_lazy``
* ``peak_rss_mb``: the child's own peak RSS (``ru_maxrss`` from wait4)

``--trace 1`` runs traced jobs, then one untraced job, and summarises every
metric of ``tracer.METRICS`` (median over traced jobs); the result line
carries those that ``BENCHMARK.json`` lists. A layer that is missing from
the program or never called is listed as absent (and reported as 0).
``trace.overhead_s`` is traced minus untraced ``e2e_s``.

The last line of standard output is the JSON result; the full record
(environment, input sizes, every job, quartiles, absent layers) goes to
``.bench_work/<workload>/BENCH_pipeline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
INSTANCES = 3  # inputs per seed; timed jobs cycle through them
RUN_LIMIT_S = 170.0  # keeps a run under 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E = ("e2e_s", "setup_s", "solve_s", "peak_rss_mb")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(index: int) -> dict:
    env = dict(os.environ)
    env.pop("HIAL_LOG_LEVEL", None)
    env.update({var: str(nproc()) for var in BLAS_VARS})
    env["PYTHONHASHSEED"] = str(index)
    return env


def run_job(inputs, check, mode: str, index: int, workdir: Path,
            deadline: float) -> dict:
    """Run one child job and check its output; return its record."""
    stem = workdir / f"{mode}{index}"
    result_path = Path(f"{stem}.result.json")
    record_path = Path(f"{stem}.record.json")
    cmd = [sys.executable, str(HERE / "job.py"), mode, str(record_path),
           "--", *inputs.select_argv(result_path)]
    env = child_env(index)
    with open(f"{stem}.log", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    job = {"mode": mode, "index": index, "instance": inputs.instance,
           "hashseed": index,
           "returncode": proc.returncode, "e2e_s": t1 - t0,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if proc.returncode != 0:
        job["errors"].append(f"exit code {proc.returncode}, see {stem}.log")
        return job
    with open(record_path) as fh:
        record = json.load(fh)
    stamps = record["stamps"]
    job["setup_s"] = stamps["loaded"][1] - t0
    job["kernels_backend"] = record["kernels_backend"]
    if mode == "setup":
        return job
    job["solve_s"] = sum(stamps[k][1] - stamps[k][0]
                         for k in ("prepare", "select"))
    if "trace" in record:
        job["trace"] = record["trace"]
    try:
        with open(result_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        job["errors"].append(f"unreadable result document: {exc}")
    else:
        job["n_evaluations"] = doc.get("n_evaluations")
        job["errors"] += check(doc)
    return job


def run_loop(pick, mode: str, workdir: Path, seconds: float,
             deadline: float) -> list[dict]:
    """Jobs back to back for ``seconds`` (at least one, none that would
    overrun ``deadline``); job i runs on ``pick(i)`` = (inputs, check)."""
    jobs = []
    start = time.monotonic()
    while True:
        jobs.append(run_job(*pick(len(jobs)), mode, len(jobs), workdir,
                            deadline))
        now = time.monotonic()
        longest = max(j["e2e_s"] for j in jobs)
        if now - start >= seconds or now + 1.5 * longest > deadline:
            return jobs


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment(jobs: list[dict]) -> dict:
    import numpy
    import scipy

    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            caches[parts[0]] = int(parts[1])
    return {
        "kernels_backend": sorted({j["kernels_backend"] for j in jobs
                                   if "kernels_backend" in j}),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": {var: child_env(0)[var] for var in BLAS_VARS},
        "cache_bytes": caches,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # unwind on SIGTERM too, so run_job kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S

    if not (ROOT / "src" / "hial" / "__init__.py").is_file():
        print(f"selbench: no hial sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    import workloads
    from check import REFERENCE_SEED, check_result, load_reference
    from tracer import METRICS, layer_metrics

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"selbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hial.hypergraph import build

    workdir = ROOT / ".bench_work" / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    instances = {}

    def instance(i: int):
        """Inputs of instance ``i`` of the seed and the check of its output,
        generated on first use."""
        if i in instances:
            return instances[i]
        inputs = workloads.generate(wl, args.seed, i, workdir / f"instance{i}")
        graph = build([e.tolist() for e in inputs.edges], num_nodes=wl.n)
        pool = range(wl.n) if inputs.pool is None else set(inputs.pool.tolist())
        reference, errors = None, []
        if args.seed == REFERENCE_SEED and i == 0:
            reference = load_reference(wl.name)
            if reference is None:
                errors.append(f"no reference recorded for {wl.name}")

        def check(doc):
            return errors + check_result(
                doc, budget=wl.budget, pool=pool, graph=graph,
                beta=workloads.BETA, gamma=workloads.GAMMA,
                reference=reference)

        instances[i] = inputs, check
        return instances[i]

    probes, absent = [], {}
    if args.trace:
        # per-layer counts come from instance 0 alone, so they repeat exactly;
        # the untraced job for trace.overhead_s runs last, once caches are warm
        jobs = run_loop(lambda i: instance(0), "trace", workdir,
                        args.seconds, deadline)
        jobs.append(run_job(*instance(0), "job", 0, workdir, deadline))
    else:
        probes = [run_job(*instance(0), "setup", i, workdir, deadline)
                  for i in range(SETUP_PROBES)]
        jobs = run_loop(lambda i: instance(i % INSTANCES), "job", workdir,
                        args.seconds, deadline)
    ok = [j for j in jobs if j["returncode"] == 0]
    failed = sum(1 for j in probes + jobs if j["errors"])
    attempted = len(probes) + len(jobs)

    summary = {}
    metrics = {}
    if args.trace:
        # every layer metric is summarised and recorded; the result line
        # carries the ones BENCHMARK.json lists (measured on every workload)
        names = [*METRICS, "trace.overhead_s"]
        traced = [j for j in ok if j["mode"] == "trace"]
        per_job = []
        for j in traced:
            values, absent = layer_metrics(j["trace"], METRICS)
            per_job.append(values)
        untraced_ok = [j["e2e_s"] for j in ok if j["mode"] == "job"]
        if traced and untraced_ok:
            overhead = (statistics.median(j["e2e_s"] for j in traced)
                        - statistics.median(untraced_ok))
            for values in per_job:
                values["trace.overhead_s"] = overhead
        for name in names:
            samples = [v[name] for v in per_job if name in v]
            if samples and name not in absent:
                summary[name] = quartiles(samples)
            else:
                absent.setdefault(name, "no traced job finished")
        for m in spec["per_layer"]:
            value = summary[m["name"]]["median"] if m["name"] in summary else 0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name in E2E:
            pool_of = probes + ok if name == "setup_s" else ok
            samples = [j[name] for j in pool_of if name in j]
            if not samples:
                print(f"selbench: no job produced {name}; see {workdir}",
                      file=sys.stderr)
                return 1
            summary[name] = quartiles(samples)
            metrics[name] = {"value": summary[name]["median"],
                             "unit": units[name]}

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    full = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}.get(wl.name),
        "environment": environment(probes + jobs),
        "inputs": [inputs.sizes() for inputs, _ in instances.values()],
        "jobs": [{k: v for k, v in j.items() if k != "trace"}
                 for j in probes + jobs],
        "summary": summary, "absent": absent,
        "run_s": time.monotonic() - run_start, "result": line,
    }
    with open(workdir / "BENCH_pipeline.json", "w") as fh:
        json.dump(full, fh, indent=2)
    for j in probes + jobs:
        for err in j["errors"]:
            print(f"FAILED {j['mode']}{j['index']}: {err}")
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} (n={s['n']})")
    for name, why in absent.items():
        print(f"{name}: absent ({why})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
