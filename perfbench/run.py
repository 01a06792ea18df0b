#!/usr/bin/env python3
"""wordeq benchmark: one seeded workload, closed loop, correctness-checked.

    python3 perfbench/run.py --workload dense|long|plan --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from ./src.  One client
in this one process sends the next op when the previous one has finished
(closed loop, no threads).  Every op's output is compared with an
engine-free reference after its clock stops.

--trace 0 measures the end-to-end metrics with tracing off.  Times are paced:
wall time scaled by the host's speed, which a fixed kernel measures next to
every op (see pace.py).  --trace 1 runs the same ops untraced, then with
spans, then a fixed list of ops with counters, and reports the per-layer
metrics (see tracing.py).  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import pace
import reference
from workloads import PLAN_KINDS, WHY, digest, generate, pass_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Op time of one pass over each workload's mix on the reference machine (a
# 2-vCPU VM); the timed run does round(--seconds / this) passes.
PASS_SECONDS = {"dense": 9.0, "long": 2.7, "plan": 2.4}
# Ops in the counting pass: a fixed prefix of the workload's op list.
COUNT_OPS = {"dense": 12, "long": 30, "plan": 36}
# Warm-up op for set-up time: the smallest op of this kind and family.
WARMUP = {"dense": ("check", "square"), "long": ("check", "copy"), "plan": ("plan", "tree")}
SETUP_PROBES = 7
# Pace kernel runs between two set-up probes.
SETUP_TICKS = 5

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def smoothed_percentile(values: list[float], pct: int) -> float:
    """A percentile, smoothed: the mean of the sorted values whose rank lies
    within 5 points of `pct` (at least one value).  Op times of a mixed
    workload lie in clusters with gaps between them, and a plain percentile
    jumps across a gap when one op near it moves."""
    ordered = sorted(values)
    n = len(ordered)
    lo = n * max(0, pct - 5) // 100
    hi = max(lo + 1, -(-n * min(100, pct + 5) // 100))
    return statistics.fmean(ordered[lo:hi])


def tail_pct(n: int) -> int:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def warmup_spec(workload: str, specs):
    kind, family = WARMUP[workload]
    return min((s for s in specs if s.kind == kind and s.family == family), key=lambda s: s.size)


# --- set-up time -----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child process: import wordeq and run one warm-up op, timed from before
    the import.  Input generation happens first and is not timed."""
    warm = warmup_spec(workload, generate(workload, seed))
    start = time.perf_counter()
    import ops
    eng = ops.Engine()
    done = ops.run_op(eng, warm)
    elapsed = time.perf_counter() - start
    if done.error is not None:
        print(done.error, file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, paced) set-up seconds of fresh processes, one after another;
    the first only warms the bytecode and file caches and is dropped.  The
    pace kernel runs in this process before and after each probe: in the
    fresh process it would time the growth of a new heap as well."""
    samples = []
    for _ in range(SETUP_TICKS):  # untimed: the first ticks also grow this heap
        pace.tick()
    ticks = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ticks.append([pace.tick() for _ in range(SETUP_TICKS)])
        if i:
            wall = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            host = statistics.median(ticks[-2] + ticks[-1])
            samples.append((wall, wall * pace.REFERENCE_SECONDS / host))
    return samples


# --- the closed loop ---------------------------------------------------------------


class Checker:
    """Compares finished ops with their references; references are computed
    on first use and kept."""

    def __init__(self, eng, ops_module) -> None:
        self.eng = eng
        self.ops = ops_module
        self.refs: dict[int, object] = {}
        self.failures: list[tuple[object, str]] = []
        self.unchecked = 0

    def __call__(self, index: int, done) -> bool:
        if index not in self.refs:
            self.refs[index] = reference.reference_for(done.spec)
        problem, unchecked = self.ops.check_op(self.eng, done, self.refs[index])
        self.unchecked += unchecked
        if problem is not None:
            self.failures.append((done.spec, problem))
        return problem is None


def closed_loop(eng, ops_module, specs, check: Checker, n_ops: int, stop_after: float,
                tracer=None) -> list:
    """Run the first `n_ops` ops of the cycled op list back to back, or fewer
    once `stop_after` seconds of op time are spent.  The pace kernel runs
    after each op and sets each op's pace factor."""
    done = []
    ticks = []
    spent = 0.0
    i = 0
    while i < n_ops and spent < stop_after:
        spec = specs[i % len(specs)]
        if tracer is not None:
            tracer.op_id = i
            idx = tracer.open(f"op.{spec.kind}")
        t = ops_module.run_op(eng, spec)
        if tracer is not None:
            tracer.close(idx)
            tracer.op_id = None
        ticks.append(pace.tick())
        spent += t.seconds
        t.ok = check(i % len(specs), t)
        done.append(t)
        i += 1
    for t, factor in zip(done, pace.paces(ticks)):
        t.pace = factor
    return done


# --- metrics -----------------------------------------------------------------------


def latency_lines(done: list) -> list[tuple[str, float, str, int]]:
    """The per-kind end-to-end metrics as (name, value, unit, samples)."""
    out = []

    def add(name: str, unit: str, values: list[float]) -> None:
        if values:
            pct = tail_pct(len(values))
            out.append((f"{name}_p50", statistics.median(values), unit, len(values)))
            out.append((f"{name}_tail", percentile(values, pct), f"{unit} (p{pct})", len(values)))

    ok = [t for t in done if t.ok]
    add("check_ms", "ms", [t.paced_ms for t in ok if t.spec.kind == "check"])
    add("enum_ms", "ms", [t.paced_ms for t in ok if t.spec.kind == "enum"])
    add("first_answer_ms", "ms", [1000 * (t.answer_times[0] - t.start) * t.pace
                                  for t in ok if t.spec.kind == "enum" and t.answer_times])
    gaps = [1e6 * (b - a) * t.pace for t in ok if t.spec.kind == "enum"
            for a, b in zip(t.answer_times, t.answer_times[1:])]
    add("answer_delay_us", "us", gaps)
    add("plan_ms", "ms", [t.paced_ms for t in ok if t.spec.kind in PLAN_KINDS])
    return out


def growth_lines(done: list) -> list[str]:
    """Median op latency per size, and the log-log slope per (kind, family)."""
    by: dict[tuple[str, str], dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for t in done:
        if t.ok:
            by[(t.spec.kind, t.spec.family)][t.spec.size].append(t.paced_ms)
    lines = []
    for (kind, family), sizes in sorted(by.items()):
        points = sorted((n, statistics.median(v)) for n, v in sizes.items())
        cells = "  ".join(f"{n}:{ms:.2f}" for n, ms in points)
        slope = "-"
        usable = [(math.log(n), math.log(ms)) for n, ms in points if n > 0 and ms > 0]
        if len(usable) >= 2:
            mx = statistics.fmean(x for x, _ in usable)
            my = statistics.fmean(y for _, y in usable)
            sxx = sum((x - mx) ** 2 for x, _ in usable)
            if sxx > 0:
                slope = f"{sum((x - mx) * (y - my) for x, y in usable) / sxx:.2f}"
        lines.append(f"  {kind:<8} {family:<13} slope {slope:>5}   size:median_ms  {cells}")
    return lines


def report_failures(check: Checker) -> None:
    for spec, problem in check.failures[:20]:
        word = spec.word if len(spec.word) <= 80 else f"{spec.word[:80]}... (|w|={len(spec.word)})"
        print(f"  MISMATCH {spec.kind} {spec.family}: {problem}\n    query: {spec.text}\n    word:  {word}")
    if len(check.failures) > 20:
        print(f"  ... and {len(check.failures) - 20} more")


def cli_checks(eng, ops_module, specs, check: Checker) -> list[str]:
    """CLI parity on the first op of each kind, untimed."""
    problems = []
    seen = set()
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for i, spec in enumerate(specs):
            if spec.kind in seen:
                continue
            seen.add(spec.kind)
            t = ops_module.run_op(eng, spec)
            t.ok = check(i, t)
            problem = ops_module.cli_parity(eng, spec, t, Path(tmp) / spec.kind)
            if problem is not None:
                problems.append(problem)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("dense", "long", "plan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wordeq" / "__init__.py").is_file():
        print(f"error: no engine sources at {ROOT / 'src' / 'wordeq'}; run from a wordeq checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import ops
    import tracing

    specs = generate(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(specs)} ops generated, "
          f"inputs digest {digest(specs)}")
    print(f"  why: {WHY[args.workload]}")
    print("  load: closed loop, 1 client, 1 process, no threads")
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    eng = ops.Engine()
    RESULTS.mkdir(exist_ok=True)
    check = Checker(eng, ops)
    ops.run_op(eng, warmup_spec(args.workload, specs))
    parity = cli_checks(eng, ops, specs, check)
    for problem in parity:
        print(f"  CLI PARITY: {problem}")

    if args.trace == 0:
        # A fixed number of whole passes, sized to take about --seconds here,
        # so every run measures the same amount of the same mix; a program
        # slower than 3x that stops early.
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        n_ops = passes * pass_length(args.workload, specs)
        done = closed_loop(eng, ops, specs, check, n_ops, 3 * args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = [t.paced_ms for t in done if t.ok]
        wall = [1000 * t.seconds for t in done if t.ok]
        pct = tail_pct(n_ops)
        metrics = {
            "setup_s": statistics.median(paced for _, paced in setup),
            "op_ms_p50": smoothed_percentile(times, 50) if times else 0.0,
            "op_ms_tail": smoothed_percentile(times, pct) if times else 0.0,
            "ops_per_s": len(times) / (sum(times) / 1000) if times else 0.0,
            "peak_rss_mb": rss_mb,
        }
        attempted = len(done)
        failed = sum(not t.ok for t in done)
        print(f"end-to-end ({len(times)} ops ok of {attempted}, tail = p{pct}, "
              f"setup over {len(setup)} fresh processes):")
        for name, value in metrics.items():
            print(f"  {name:<24} {value:12.4f} {END_TO_END_UNITS[name]}")
        if wall:
            print(f"  unpaced: op_ms_p50 {smoothed_percentile(wall, 50):.4f} ms, setup_s "
                  f"{statistics.median(w for w, _ in setup):.4f} s; host pace median "
                  f"{statistics.median(t.pace for t in done):.4f} (pace.py)")
        for name, value, unit, n in latency_lines(done):
            print(f"  {name:<24} {value:12.4f} {unit}   n={n}")
        print(f"  {'error_rate':<24} {failed / attempted:12.4f} ratio   "
              f"({failed} of {attempted}; {check.unchecked} cyclic verdicts unchecked)")
        print("growth (informational):")
        for line in growth_lines(done):
            print(line)
        out_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        plain = closed_loop(eng, ops, specs, check, len(specs) * 100, args.seconds / 2)
        tracer = tracing.Tracer()
        patcher = tracing.Patcher(ops)
        metric_of = tracing.install_spans(patcher, tracer)
        try:
            traced = closed_loop(eng, ops, specs, check, len(plain), math.inf, tracer=tracer)
        finally:
            patcher.restore()
        span_missing = set(patcher.missing)
        tracer.write(RESULTS / f"spans-{args.workload}-{args.seed}.json")
        counted_specs = specs[:COUNT_OPS[args.workload]]
        by_kind, count_missing, counted = tracing.count_pass(eng, ops, counted_specs, ops.run_op)
        for i, t in enumerate(counted):
            t.ok = check(i, t)
        layer = tracing.span_metrics(tracer, metric_of, [t.spec.kind for t in traced])
        layer.update(tracing.count_metrics(by_kind, count_missing, [s.kind for s in counted_specs]))
        layer["trace.overhead_ratio"] = (sum(t.paced_ms for t in traced)
                                         / sum(t.paced_ms for t in plain))
        done = plain + traced + counted
        attempted = len(done)
        failed = sum(not t.ok for t in done)
        print(f"per-layer ({len(traced)} traced ops, {len(tracer.spans)} spans; counts over "
              f"{len(counted_specs)} fixed ops; _ms = self time per op):")
        for name, (unit, scope, moves) in tracing.LAYER_METRICS.items():
            if name in layer:
                print(f"  {name:<28} {layer[name]:14.4f} {unit:<6} per {scope} op; moves {moves}")
            else:
                print(f"  {name:<28} {'absent':>14}        public name not found")
        for name in sorted(span_missing | count_missing):
            print(f"  missing public name: {name}")
        print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted})")
        out_metrics = {k: {"value": layer[k], "unit": unit}
                       for k, (unit, _, _) in tracing.LAYER_METRICS.items() if k in layer}

    report_failures(check)
    failed += len(parity)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out_metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
