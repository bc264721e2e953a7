"""Layer-boundary tracer that wraps hial from the outside.

``install`` replaces the module attributes and class attributes listed in
``LAYERS`` with timing wrappers; nothing inside ``hial`` changes. A name
that no longer exists is recorded as absent rather than raising, so the
benchmark keeps running after a later change deletes a layer.

Each wrapped call is a span. Per span name the tracer keeps the call
count, total (inclusive) and self time, the first call's duration and a
few size counters. The first ``RECORD_PER_NAME`` calls of each name whose
caller was itself recorded are also kept as full spans (id, name, parent,
start, end), so nesting can be checked without storing the ~10^6 calls of
the hottest layers. Spans that run directly under ``selector.prepare``
also record how much they raised the process's peak RSS.
"""

from __future__ import annotations

import importlib
import resource
import time

RECORD_PER_NAME = 200
PREPARE = "selector.prepare"


def _nnz(get):
    def measure(stats, counters, args, result):
        counters["nnz"] = counters.get("nnz", 0) + int(get(result))
    return measure


def _measure_elems(stats, counters, args, result):
    counters["elems"] = counters.get("elems", 0) + int(args[1].size)


def _measure_adjacency(stats, counters, args, result):
    counters.setdefault("nnz", int(result[1].size))


def _measure_members(stats, counters, args, result):
    seen = counters.setdefault("unique_ids", set())
    u = int(args[1])
    if u not in seen:
        seen.add(u)
        counters["ball_members_total"] = (
            counters.get("ball_members_total", 0) + int(result.size))


def _measure_round(stats, counters, args, result):
    # a greedy round ends at each CoverageState.add; evaluations before the
    # first add are the initial heap fill
    add = stats.get("objective.add")
    r = add.calls if add is not None else 0
    per_round = counters.setdefault("per_round", [])
    per_round.extend([0] * (r + 1 - len(per_round)))
    per_round[r] += 1


def _measure_select(stats, counters, args, result):
    counters["evals"] = int(result.n_evaluations)
    counters["budget"] = len(result.seeds)


# (target, span name, size counter or None). A target is
# "module:attribute" or "module:Class.attribute".
LAYERS = [
    ("hial.dataio:load_dataset", "dataio.load_dataset", None),
    ("hial.dataio:write_result", "dataio.write_result", None),
    ("hial.selector:prepare", PREPARE, None),
    ("hial.selector:select_lazy", "selector.select_lazy", _measure_select),
    ("hial.selector:normalizers", "selector.normalizers", None),
    ("hial.propagation:build_transition", "propagation.build_transition",
     _nnz(lambda r: r.matrix.nnz)),
    ("hial.propagation:propagate", "propagation.propagate", None),
    ("hial.propagation:influence_columns", "propagation.influence_columns",
     _nnz(lambda r: r.columns.nnz)),
    ("hial.propagation:activated_mask_all", "propagation.activated_mask_all",
     None),
    ("hial.objective:build_activation_sets", "objective.build_activation_sets",
     _nnz(lambda r: r.indices.size)),
    ("hial.objective:build_feature_balls", "objective.build_feature_balls",
     None),
    ("hial.objective:edv", "objective.edv", None),
    ("hial.objective:marginal_gain", "objective.marginal_gain",
     _measure_round),
    ("hial.objective:FeatureBalls.mark_union", "objective.mark_union", None),
    ("hial.objective:FeatureBalls.members", "objective.members",
     _measure_members),
    ("hial.objective:CoverageState.moi_gain", "objective.moi_gain", None),
    ("hial.objective:CoverageState.edv_gain", "objective.edv_gain", None),
    ("hial.objective:CoverageState.add", "objective.add", None),
    ("hial.hypergraph:Hypergraph.adjacency", "hypergraph.adjacency",
     _measure_adjacency),
    ("hial.kernels:count_uncovered_unique", "kernels.count_uncovered_unique",
     _measure_elems),
    ("hial.kernels:mark_covered", "kernels.mark_covered", _measure_elems),
]


class _Stat:
    __slots__ = ("calls", "total", "self_time", "first", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.first = None
        self.counters = {}


class _Frame:
    __slots__ = ("name", "span_id", "child_time")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_time = 0.0


def _resolve(target: str):
    """Return (owner, attribute) for a target, or raise LookupError."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        raise LookupError(f"module {module_name} not importable") from None
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LookupError(f"{module_name} has no {part}")
        owner = getattr(owner, part)
    if not callable(getattr(owner, attr, None)):
        raise LookupError(f"{target} not found")
    return owner, attr


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.rss_delta_kb: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def install(self, layers=LAYERS) -> "Tracer":
        for target, name, measure in layers:
            try:
                owner, attr = _resolve(target)
            except LookupError as exc:
                self.absent[name] = f"not in program ({exc})"
                continue
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name, measure):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = (stat.calls < RECORD_PER_NAME
                      and (parent is None or parent.span_id is not None))
            span_id = None
            if record:
                span_id = self._next_id
                self._next_id += 1
            rss0 = None
            if parent is not None and parent.name == PREPARE:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            frame = _Frame(name, span_id)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame.child_time
                if stat.first is None:
                    stat.first = dt
                if parent is not None:
                    parent.child_time += dt
                if record:
                    self.spans.append((span_id, name, parent and parent.span_id,
                                       t0, t1))
                if rss0 is not None:
                    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    self.rss_delta_kb[name] = (
                        self.rss_delta_kb.get(name, 0) + rss1 - rss0)
            if measure is not None:
                measure(self.stats, stat.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        """JSON-ready snapshot of everything recorded."""
        stats = {}
        for name, s in self.stats.items():
            counters = dict(s.counters)
            if "unique_ids" in counters:
                counters["unique"] = len(counters.pop("unique_ids"))
            stats[name] = {"calls": s.calls, "total": s.total,
                           "self": s.self_time, "first": s.first,
                           "counters": counters}
        return {"stats": stats, "spans": self.spans,
                "rss_delta_kb": self.rss_delta_kb, "absent": self.absent}


# -- per-layer metrics --------------------------------------------------------

def _total(stat, dump):
    return stat["total"]


def _calls(stat, dump):
    return stat["calls"]


def _counter(key, scale=1):
    def value(stat, dump):
        got = stat["counters"].get(key)
        return None if got is None else scale * got
    return value


def _per_round(pick):
    def value(stat, dump):
        per_round = stat["counters"].get("per_round")
        return pick(per_round, dump) if per_round else None
    return value


def _lazy_yield(per_round, dump):
    budget = dump["stats"].get("selector.select_lazy", {}).get(
        "counters", {}).get("budget")
    round_evals = sum(per_round[1:])
    return budget / round_evals if budget and round_evals else None


def _cache_hit_ratio(stat, dump):
    unique = stat["counters"].get("unique")
    return None if unique is None else 1.0 - unique / stat["calls"]


def _rss_delta(span):
    def value(stat, dump):
        kb = dump["rss_delta_kb"].get(span)
        return None if kb is None else kb / 1024.0
    return value


# per-layer metric -> (span it is read from, value of that span's record)
METRICS = {
    "dataio.load_dataset_s": ("dataio.load_dataset", _total),
    "dataio.write_result_s": ("dataio.write_result", _total),
    "hypergraph.adjacency_s": ("hypergraph.adjacency",
                               lambda s, d: s["first"]),
    "hypergraph.adjacency_nnz": ("hypergraph.adjacency", _counter("nnz")),
    "propagation.build_transition_s": ("propagation.build_transition", _total),
    "propagation.transition_nnz": ("propagation.build_transition",
                                   _counter("nnz")),
    "propagation.propagate_s": ("propagation.propagate", _total),
    "propagation.influence_columns_s": ("propagation.influence_columns",
                                        _total),
    "propagation.influence_nnz": ("propagation.influence_columns",
                                  _counter("nnz")),
    "propagation.activated_mask_all_s": ("propagation.activated_mask_all",
                                         _total),
    "selector.prepare_s": (PREPARE, _total),
    "selector.prepare_self_s": (PREPARE, lambda s, d: s["self"]),
    "selector.normalizers_s": ("selector.normalizers", _total),
    "selector.select_lazy_s": ("selector.select_lazy", _total),
    "selector.evals": ("selector.select_lazy", _counter("evals")),
    "selector.heap_fill_evals": ("objective.marginal_gain",
                                 _per_round(lambda r, d: r[0])),
    "selector.round_evals": ("objective.marginal_gain",
                             _per_round(lambda r, d: sum(r[1:]))),
    "selector.evals_per_round_max": ("objective.marginal_gain",
                                     _per_round(lambda r, d: max(r[1:],
                                                                 default=0))),
    "selector.lazy_yield": ("objective.marginal_gain", _per_round(_lazy_yield)),
    "objective.build_activation_sets_s": ("objective.build_activation_sets",
                                          _total),
    "objective.activation_nnz": ("objective.build_activation_sets",
                                 _counter("nnz")),
    "objective.build_feature_balls_s": ("objective.build_feature_balls",
                                        _total),
    "objective.mark_union_s": ("objective.mark_union", _total),
    "objective.edv_s": ("objective.edv", _total),
    "objective.members_calls": ("objective.members", _calls),
    "objective.members_unique": ("objective.members", _counter("unique")),
    "objective.members_s": ("objective.members", _total),
    "objective.ball_members_total": ("objective.members",
                                     _counter("ball_members_total")),
    "objective.ball_cache_hit_ratio": ("objective.members", _cache_hit_ratio),
}
for _op in ("moi_gain", "edv_gain", "add"):
    METRICS[f"objective.{_op}_s"] = (f"objective.{_op}", _total)
    METRICS[f"objective.{_op}.calls"] = (f"objective.{_op}", _calls)
for _k in ("count_uncovered_unique", "mark_covered"):
    _span = f"kernels.{_k}"
    METRICS[f"{_span}_s"] = (_span, _total)
    METRICS[f"{_span}.calls"] = (_span, _calls)
    METRICS[f"{_span}.elems"] = (_span, _counter("elems"))
    # int64 ids read once each: computed from sizes, not measured traffic
    METRICS[f"{_span}.bytes_computed"] = (_span, _counter("elems", 8))
for _span in ("propagation.build_transition", "propagation.propagate",
              "propagation.influence_columns", "propagation.activated_mask_all",
              "objective.build_activation_sets", "objective.build_feature_balls",
              "selector.normalizers"):
    METRICS[f"{_span}.rss_hwm_delta_mb"] = (_span, _rss_delta(_span))


def layer_metrics(dump: dict, names) -> tuple[dict, dict]:
    """Split metric ``names`` into measured values and absent layers.

    Returns ``(values, absent)``: ``values`` maps each measured metric to
    its number; ``absent`` maps every other name to the reason.
    """
    values, absent = {}, {}
    for name in names:
        if name not in METRICS:
            absent[name] = "not a layer metric"
            continue
        span, value_of = METRICS[name]
        stat = dump["stats"].get(span)
        if stat is None:
            absent[name] = dump["absent"].get(span, f"{span} not traced")
        elif not stat["calls"]:
            absent[name] = f"{span} not called"
        else:
            value = value_of(stat, dump)
            if value is None:
                absent[name] = f"{span} gave no value"
            else:
                values[name] = value
    return values, absent
