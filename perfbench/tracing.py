"""Layer-by-layer tracing from outside the engine.

Wrappers replace public engine names where their caller looks them up: the
benchmark's ops for the pipeline entry points, `wordeq.planner` for what
`plan` calls, and the classes for `WordIndex` and `Nfa` methods.  The engine
itself is not modified.

Two passes, so that cheap hot-path counting does not distort the times:
- the span pass records (name, start, end, parent, op id) per wrapped call,
  keeps the spans in memory and writes them out when the run ends; a layer's
  self time is its span's duration less the time its child spans cover;
- the counting pass runs a fixed list of ops with counting wrappers only
  (factor_id and Nfa.step calls, rows materialized and kept, semi-joins,
  cyclic rejects), so its counts repeat exactly for one seed.

A name that a later refactor removes is reported as absent, not fatal.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

from workloads import WORD_KINDS

# Spanned names: (module, attribute, metric).  The attribute may be
# "Class.method".  "perfbench.ops" stands for the benchmark's own op module.
SPANNED = (
    ("wordeq.frontend", "parse_query", "frontend.parse_ms"),
    ("wordeq.frontend", "parse_sercq", "frontend.parse_ms"),
    ("wordeq.frontend", "parse_pattern_literal", "frontend.parse_ms"),
    ("wordeq.planner", "plan", "planner.plan_ms"),
    ("wordeq.planner", "normalize", "planner.normalize_ms"),
    ("wordeq.planner", "decompose_atom_with_constraints", "decompose.atom_decomp_ms"),
    ("wordeq.planner", "is_acyclic_pattern", "decompose.acyclic_decide_ms"),
    ("wordeq.decompose", "is_acyclic_pattern", "decompose.acyclic_decide_ms"),
    ("wordeq.decompose", "find_acyclic_decomposition", "decompose.find_decomp_ms"),
    ("wordeq.planner", "gyo", "model.gyo_ms"),
    ("wordeq.bridge", "is_pseudo_acyclic", "bridge.convert_ms"),
    ("wordeq.bridge", "pseudo_acyclic_to_acyclic_fccq", "bridge.convert_ms"),
    ("wordeq.bridge", "sercq_to_fccq", "bridge.convert_ms"),
    ("wordeq.index", "build_index", "index.build_ms"),
    ("wordeq.index", "WordIndex.all_factor_ids", "index.all_factor_ids_ms"),
    ("wordeq.index", "WordIndex.regex_members", "index.regex_members_ms"),
    ("wordeq.evaluator", "materialize_atom", "evaluator.materialize_ms"),
    ("wordeq.evaluator", "semijoin", "evaluator.semijoin_ms"),
    ("wordeq.evaluator", "full_reduction", "evaluator.reduction_ms"),
    ("wordeq.evaluator", "model_check", "evaluator.model_check_ms"),
    ("wordeq.evaluator", "enumerate_results", "evaluator.walk_ms"),
    ("perfbench.ops", "render", "evaluator.render_ms"),
)

# Per-layer metrics: unit, the ops a value is averaged over, and the
# end-to-end metric and workload it should move.  Scope "word" is check and
# enum ops; "all" is every op of the workload.
LAYER_METRICS = {
    "frontend.parse_ms": ("ms", "all", "plan_ms_p50 on plan"),
    "planner.plan_ms": ("ms", "all", "plan_ms_p50, plan_ms_tail on plan"),
    "planner.normalize_ms": ("ms", "all", "plan_ms_p50, plan_ms_tail on plan"),
    "planner.cyclic_rejects": ("count", "all", "plan_ms_p50, plan_ms_tail on plan"),
    "decompose.atom_decomp_ms": ("ms", "all", "plan_ms_tail on plan"),
    "decompose.acyclic_decide_ms": ("ms", "all", "plan_ms_tail on plan"),
    "decompose.find_decomp_ms": ("ms", "all", "plan_ms_tail on plan"),
    "model.gyo_ms": ("ms", "all", "plan_ms_p50 on plan"),
    "bridge.convert_ms": ("ms", "all", "plan_ms_p50 on plan"),
    "index.build_ms": ("ms", "word", "check_ms_p50 on long"),
    "index.factor_id_calls": ("count", "word", "check_ms_p50 on long"),
    "index.all_factor_ids_ms": ("ms", "word", "first_answer_ms_p50, check_ms_p50 on dense"),
    "index.factors_listed": ("count", "word", "first_answer_ms_p50, check_ms_p50 on dense"),
    "index.regex_members_ms": ("ms", "word", "check_ms_p50 on dense (and a small share on long)"),
    "nfa.step_calls": ("count", "word", "check_ms_p50 on dense (and a small share on long)"),
    "evaluator.materialize_ms": ("ms", "word", "first_answer_ms_p50, check_ms_p50 on dense"),
    "evaluator.rows_materialized": ("count", "word", "first_answer_ms_p50, check_ms_p50 on dense"),
    "evaluator.rows_kept": ("count", "enum", "first_answer_ms_p50 on dense"),
    "evaluator.kept_ratio": ("ratio", "enum", "first_answer_ms_p50 on dense"),
    "evaluator.semijoin_ms": ("ms", "word", "check_ms_p50 on long"),
    "evaluator.semijoin_calls": ("count", "word", "check_ms_p50 on long"),
    "evaluator.reduction_ms": ("ms", "enum", "first_answer_ms_p50 on dense"),
    "evaluator.model_check_ms": ("ms", "check", "check_ms_p50 on dense"),
    "evaluator.walk_ms": ("ms", "enum", "answer_delay_us_p50, enum_ms_p50 on dense"),
    "evaluator.render_ms": ("ms", "enum", "answer_delay_us_p50 on dense"),
    "trace.overhead_ratio": ("ratio", "all", "none: paced traced op time / paced untraced op time"),
}

# Counting-pass metrics and the names they need.
COUNTED = {
    "planner.cyclic_rejects": ("wordeq.planner", "plan"),
    "index.factor_id_calls": ("wordeq.index", "WordIndex.factor_id"),
    "index.factors_listed": ("wordeq.index", "WordIndex.all_factor_ids"),
    "nfa.step_calls": ("wordeq.nfa", "Nfa.step"),
    "evaluator.rows_materialized": ("wordeq.evaluator", "materialize_atom"),
    "evaluator.rows_kept": ("wordeq.evaluator", "full_reduction"),
    "evaluator.kept_ratio": ("wordeq.evaluator", "full_reduction"),
    "evaluator.semijoin_calls": ("wordeq.evaluator", "semijoin"),
}


def in_scope(scope: str, kind: str) -> bool:
    return scope == "all" or kind == scope or (scope == "word" and kind in WORD_KINDS)


class Patcher:
    """Replaces names and puts every original back on `restore`."""

    def __init__(self, ops_module) -> None:
        self.ops_module = ops_module
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing: set[str] = set()

    def _owner(self, module: str, attr: str) -> tuple[Any, str]:
        obj = self.ops_module if module == "perfbench.ops" else importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            obj = getattr(obj, part)
        return obj, name

    def patch(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        try:
            owner, name = self._owner(module, attr)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{attr}")
            return False
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))
        return True

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class Tracer:
    """Span recorder.  Spans are only recorded while an op is open, so the
    benchmark's own checking between ops leaves no trace."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id: Optional[int] = None

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name(name), time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Span each resumption of the returned generator: the time the
        consumer waits for the next item."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spanned():
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            return spanned()
        return wrapper

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)


def install_spans(patcher: Patcher, tracer: Tracer) -> dict[str, str]:
    """Patch every spanned name; returns span name -> metric."""
    metric_of: dict[str, str] = {}
    for module, attr, metric in SPANNED:
        name = f"{module}.{attr}"
        wrap = tracer.wrap_generator if attr == "enumerate_results" else tracer.wrap
        if patcher.patch(module, attr, lambda fn, n=name, w=wrap: w(n, fn)):
            metric_of[name] = metric
    return metric_of


def install_counters(patcher: Patcher, engine) -> dict[str, int]:
    """Counting wrappers; returns the running totals they add to."""
    totals: dict[str, int] = defaultdict(int)

    def calls(key: str) -> Callable[[Callable], Callable]:
        def make(fn):
            def wrapper(*args, **kwargs):
                totals[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def sized(key: str, size: Callable[[Any], int]) -> Callable[[Callable], Callable]:
        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                totals[key] += size(out)
                return out
            return wrapper
        return make

    def rejects(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except engine.model.CyclicQueryError:
                totals["planner.cyclic_rejects"] += 1
                raise
        return wrapper

    patcher.patch("wordeq.planner", "plan", rejects)
    patcher.patch("wordeq.index", "WordIndex.factor_id", calls("index.factor_id_calls"))
    patcher.patch("wordeq.index", "WordIndex.all_factor_ids", sized("index.factors_listed", len))
    patcher.patch("wordeq.nfa", "Nfa.step", calls("nfa.step_calls"))
    patcher.patch("wordeq.evaluator", "materialize_atom",
                  sized("evaluator.rows_materialized", lambda rel: len(rel.rows)))
    patcher.patch("wordeq.evaluator", "full_reduction",
                  sized("evaluator.rows_kept", lambda rels: sum(len(r.rows) for r in rels)))
    patcher.patch("wordeq.evaluator", "semijoin", calls("evaluator.semijoin_calls"))
    return totals


def count_pass(engine, ops_module, specs: list, run_op: Callable) -> tuple[dict, set[str], list]:
    """Run `specs` once under counting wrappers.  Returns the counts per op
    kind, the names that could not be patched, and the finished ops."""
    patcher = Patcher(ops_module)
    totals = install_counters(patcher, engine)
    by_kind: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    done = []
    try:
        for spec in specs:
            before = dict(totals)
            done.append(run_op(engine, spec))
            for key, value in totals.items():
                by_kind[spec.kind][key] += value - before.get(key, 0)
    finally:
        patcher.restore()
    return by_kind, patcher.missing, done


def scope_counts(kinds: list[str]) -> dict[str, int]:
    return {scope: sum(in_scope(scope, k) for k in kinds) for scope in ("all", "word", "check", "enum")}


def span_metrics(tracer: Tracer, metric_of: dict[str, str], kinds: list[str]) -> dict[str, float]:
    """Mean self time per op, in ms, of each layer metric over its scope."""
    own = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        metric = metric_of.get(tracer.names[s[0]])
        if metric is not None:
            total[metric] += t
    n = scope_counts(kinds)
    out = {}
    for metric in set(metric_of.values()):
        scope = LAYER_METRICS[metric][1]
        out[metric] = 1000 * total[metric] / n[scope] if n[scope] else 0.0
    return out


def count_metrics(by_kind: dict, missing: set[str], kinds: list[str]) -> dict[str, float]:
    """Mean count per op over each metric's scope; kept_ratio is rows kept
    over rows materialized, both over enum ops."""
    n = scope_counts(kinds)
    out = {}
    for metric, (module, attr) in COUNTED.items():
        if f"{module}.{attr}" in missing:
            continue
        if metric == "evaluator.kept_ratio":
            enum = by_kind.get("enum", {})
            base = enum.get("evaluator.rows_materialized", 0)
            out[metric] = enum.get("evaluator.rows_kept", 0) / base if base else 0.0
            continue
        scope = LAYER_METRICS[metric][1]
        total = sum(c.get(metric, 0) for kind, c in by_kind.items() if in_scope(scope, kind))
        out[metric] = total / n[scope] if n[scope] else 0.0
    return out
