"""Self-tests of the benchmark itself (not of the engine).

    PYTHONPATH=src python3 -m pytest -q perfbench

- the engine-free references agree with `oracle.brute_evaluate` on every
  word over {a, b} up to a small length;
- the families the plan workload treats as acyclic by construction are;
- the checks reject wrong answers;
- each workload, run twice at reduced length, repeats its input digest and
  its exact per-layer counts;
- a public name that has gone missing is reported, not fatal;
- smoothed percentiles and pace factors are computed as documented;
- BENCHMARK.json names exactly the metrics and workloads the run reports.
"""
from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import (DENSE_QUERIES, GENERATORS, LONG_QUERIES, OpSpec,  # noqa: E402
                       block_pattern, generate)

from wordeq.frontend import parse_query  # noqa: E402
from wordeq.model import Alphabet, Variable  # noqa: E402
from wordeq.oracle import brute_acyclic, brute_evaluate  # noqa: E402

AB = Alphabet(("a", "b"))
QUERIES = {family: text for family, (text, _) in DENSE_QUERIES.items()} | LONG_QUERIES


def words_up_to(n: int):
    for k in range(n + 1):
        for letters in itertools.product("ab", repeat=k):
            yield "".join(letters)


def reference_answers(family: str, w: str) -> set[tuple[str, ...]]:
    ref = reference.word_reference(OpSpec("enum", family, len(w), QUERIES[family], w))
    candidates = itertools.product(sorted(reference.factors(w)), repeat=len(ref.head))
    found = {t for t in candidates if ref.member(t)}
    assert len(found) == ref.total, (family, w)
    return found


@pytest.mark.parametrize("family", sorted(QUERIES))
def test_reference_matches_oracle(family):
    q = parse_query(QUERIES[family], AB)
    max_len = 5 if family == "join" else 6
    for w in words_up_to(max_len):
        assert reference_answers(family, w) == brute_evaluate(q, w), (family, w)


@pytest.mark.parametrize("m", [2, 3])
def test_block_families_are_acyclic(m):
    from wordeq.oracle import bracketing_is_acyclic
    from wordeq.model import bracketing_pattern

    names = [f"x{i}" for i in range(1, m + 1)]
    for length in range(m, 121, m):
        pat = tuple(Variable(v) for v in block_pattern(names, length))
        b = reference.block_bracketing(pat, m)
        assert bracketing_pattern(b) == pat
        assert bracketing_is_acyclic(b), length
        if length <= 8:
            assert brute_acyclic(pat), length


def test_checks_reject_wrong_answers():
    w = "abaab"
    spec = OpSpec("enum", "xyz", len(w), QUERIES["xyz"], w)
    ref = reference.word_reference(spec)
    right = []
    for x, y, z in sorted(reference_answers("xyz", w)):
        obj = {v: {"word": s, "span": reference.canonical_span(w, s)}
               for v, s in zip("xyz", (x, y, z))}
        right.append(json.dumps(obj))
    assert reference.check_word_op(spec, ref, right) is None
    assert reference.check_word_op(spec, ref, right[1:]) is not None
    assert reference.check_word_op(spec, ref, right[:-1] + right[:1]) is not None
    moved = json.loads(right[-1])
    moved["x"]["span"] = [moved["x"]["span"][0] + 1, moved["x"]["span"][1] + 1]
    assert reference.check_word_op(spec, ref, right[:-1] + [json.dumps(moved)]) is not None
    check = OpSpec("check", "copy", 4, QUERIES["copy"], "abab")
    assert reference.check_word_op(check, reference.word_reference(check), False) is not None


def _traced_run(workload: str, seed: int) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.5", "--trace", "1"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split("inputs digest ")[1] for line in lines if "inputs digest" in line)
    return digest, json.loads(lines[-1])


EXACT = ("planner.cyclic_rejects", "index.factor_id_calls", "nfa.step_calls",
         "evaluator.rows_materialized", "evaluator.rows_kept")


@pytest.mark.parametrize("workload", ["dense", "long", "plan"])
def test_exact_counts_repeat(workload):
    first_digest, first = _traced_run(workload, 7)
    second_digest, second = _traced_run(workload, 7)
    assert first_digest == second_digest
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


def test_missing_public_name_is_reported():
    import ops

    patcher = tracing.Patcher(ops)
    try:
        assert not patcher.patch("wordeq.evaluator", "no_such_function", lambda fn: fn)
        assert not patcher.patch("wordeq.no_such_module", "plan", lambda fn: fn)
    finally:
        patcher.restore()
    assert patcher.missing == {"wordeq.evaluator.no_such_function", "wordeq.no_such_module.plan"}
    missing = {"wordeq.nfa.Nfa.step"}
    counts = tracing.count_metrics({}, missing, ["check"])
    assert "nfa.step_calls" not in counts and "index.factor_id_calls" in counts


def test_smoothed_percentile_and_pace():
    import pace
    import run

    values = [float(v) for v in range(100, 0, -1)]
    assert run.smoothed_percentile(values, 50) == 50.5     # mean of 46..55
    assert run.smoothed_percentile(values, 95) == 95.5     # mean of 91..100
    assert run.smoothed_percentile([3.0], 90) == 3.0
    ref = pace.REFERENCE_SECONDS
    assert pace.paces([ref, ref, 10 * ref, ref, ref]) == [1.0] * 5
    assert pace.paces([2 * ref] * 3) == [0.5] * 3
    assert pace.tick() > 0


def test_benchmark_json_matches_the_run():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(GENERATORS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (unit, _, _) in tracing.LAYER_METRICS.items()]
