"""Output check for one selection result document.

At every workload seed the document must describe a valid greedy run:

* ``budget`` seeds, distinct, each in the candidate pool;
* gains non-increasing (the objective is submodular);
* ``F`` after each step equal to the running sum of the gains, and equal
  to ``gamma*moi/moi_hat + (1-gamma)*edv/edv_hat``;
* ``edv`` after each step equal to a fresh ``hial.objective.edv`` of the
  seed prefix.

At the default workload seed the seed sequence must also equal the
recorded reference exactly, and every ``F``/``moi``/``edv`` trace value must
agree with it within ``REL_TOL``/``ABS_TOL``. ``n_evaluations`` and
``tool_version`` are never compared: a correct optimisation may move them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def load_reference(workload: str) -> dict | None:
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload)


def check_result(doc: dict, *, budget: int, pool, graph, beta: float,
                 gamma: float, reference: dict | None = None) -> list[str]:
    """Return every problem found in ``doc`` (empty when it is correct).

    ``pool`` is the set of candidate node ids, ``graph`` the instance's
    ``hial.Hypergraph`` and ``reference`` the recorded run to match, or
    None when the seed has no reference.
    """
    from hial import objective

    errors = []
    try:
        seeds = [int(s) for s in doc["seeds"]]
        gains = [float(g) for g in doc["gains"]]
        trace = [(int(t["moi"]), float(t["edv"]), float(t["F"]))
                 for t in doc["trace"]]
        params = doc["resolved_params"]
        moi_hat, edv_hat = float(params["moi_hat"]), float(params["edv_hat"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result document: {exc!r}"]
    if not len(seeds) == len(gains) == len(trace) == budget:
        errors.append(f"expected {budget} seeds, gains and trace steps, got "
                      f"{len(seeds)}, {len(gains)}, {len(trace)}")
    if len(set(seeds)) != len(seeds):
        errors.append("seeds are not distinct")
    outside = [s for s in seeds if s not in pool]
    if outside:
        errors.append(f"seeds outside the candidate pool: {outside[:5]}")
    for i in range(1, len(gains)):
        if gains[i] > gains[i - 1] and not _close(gains[i], gains[i - 1]):
            errors.append(f"gain rises at step {i}: {gains[i - 1]!r} -> "
                          f"{gains[i]!r}")
    running = 0.0
    for i, (moi, edv, f) in enumerate(trace[:len(gains)]):
        running += gains[i]
        if not _close(f, running):
            errors.append(f"step {i}: F={f!r} but gains sum to {running!r}")
        blend = gamma * moi / moi_hat + (1.0 - gamma) * edv / edv_hat
        if not _close(f, blend):
            errors.append(f"step {i}: F={f!r} but moi/edv give {blend!r}")
        fresh = objective.edv(graph, seeds[:i + 1], beta)
        if not _close(edv, fresh):
            errors.append(f"step {i}: edv={edv!r} but a fresh evaluation "
                          f"gives {fresh!r}")
    if reference is not None:
        if seeds != reference["seeds"]:
            errors.append(f"seeds differ from the reference: {seeds} != "
                          f"{reference['seeds']}")
        for i, (got, want) in enumerate(zip(trace, reference["trace"])):
            want = (want["moi"], want["edv"], want["F"])
            if got[0] != want[0] or not all(map(_close, got[1:], want[1:])):
                errors.append(f"step {i}: trace (moi, edv, F) {got} differs "
                              f"from the reference {want}")
    return errors
