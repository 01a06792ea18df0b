"""The benchmark's unit of work, one op, as the CLI runs it.

Each op is the library pipeline behind one `wordeq` command:
- check:   parse_query -> build_index -> plan -> model_check   (`wordeq check`)
- enum:    the same into enumerate_results, each answer rendered with
           ResultTuple.to_json_obj + json.dumps                 (`wordeq enum --json [--limit N]`)
- plan:    parse_query -> plan -> explain + skeleton           (`wordeq plan`)
- pattern: parse_pattern_literal -> terminal_free_core -> is_acyclic_pattern
           or find_acyclic_decomposition                       (`wordeq pattern acyclic|decompose`)
- convert: parse_sercq -> sercq2fc (plain or --acyclic) -> print_query, then
           the plan op on the printed query                    (`wordeq convert ... | wordeq plan`)

Engine functions are looked up through their module at call time, so the
tracer can patch them where this code (the caller) finds them.
`cli_parity` runs the real `wordeq.cli.main` on the same inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import reference
from workloads import ALPHABET, WORD_KINDS, OpSpec


class Engine:
    """The wordeq modules; constructing one imports the package."""

    def __init__(self) -> None:
        import wordeq.bridge
        import wordeq.cli
        import wordeq.decompose
        import wordeq.evaluator
        import wordeq.frontend
        import wordeq.index
        import wordeq.model
        import wordeq.nfa
        import wordeq.planner

        self.bridge = wordeq.bridge
        self.cli = wordeq.cli
        self.decompose = wordeq.decompose
        self.evaluator = wordeq.evaluator
        self.frontend = wordeq.frontend
        self.index = wordeq.index
        self.model = wordeq.model
        self.nfa = wordeq.nfa
        self.planner = wordeq.planner


@dataclass
class PlanOutput:
    verdict: str                   # "acyclic" or "cyclic"
    text: str                      # what the CLI prints on stdout
    certificate: Any = None        # Plan or TwoFcCq behind an acyclic verdict
    pattern: tuple = ()            # the terminal-free core of a pattern op


def render(result, ix) -> str:
    return json.dumps(result.to_json_obj(ix))


def _check(eng: Engine, spec: OpSpec, stamps: list[float]):
    alphabet = eng.model.Alphabet(tuple(ALPHABET))
    query = eng.frontend.parse_query(spec.text, alphabet)
    ix = eng.index.build_index(spec.word, alphabet)
    try:
        p = eng.planner.plan(query)
    except eng.model.CyclicQueryError:
        return "cyclic"
    return eng.evaluator.model_check(p, ix)


def _enum(eng: Engine, spec: OpSpec, stamps: list[float]):
    alphabet = eng.model.Alphabet(tuple(ALPHABET))
    query = eng.frontend.parse_query(spec.text, alphabet)
    ix = eng.index.build_index(spec.word, alphabet)
    try:
        p = eng.planner.plan(query)
    except eng.model.CyclicQueryError:
        return "cyclic"
    out: list[str] = []
    for result in eng.evaluator.enumerate_results(p, ix):
        if spec.limit is not None and len(out) >= spec.limit:
            break
        out.append(render(result, ix))
        stamps.append(time.perf_counter())
    return out


def _plan_text(eng: Engine, text: str, alphabet) -> PlanOutput:
    query = eng.frontend.parse_query(text, alphabet)
    try:
        p = eng.planner.plan(query)
    except eng.model.CyclicQueryError:
        return PlanOutput("cyclic", "")
    sk = eng.planner.skeleton_of(p)
    shown = p.explain() + "\nskeleton edges: " + " ".join(f"{a}-{b}" for a, b in sk.edges)
    return PlanOutput("acyclic", shown, p)


def _plan(eng: Engine, spec: OpSpec, stamps: list[float]):
    return _plan_text(eng, spec.text, eng.model.Alphabet(tuple(ALPHABET)))


def _pattern(eng: Engine, spec: OpSpec, stamps: list[float]):
    alphabet = eng.model.Alphabet(tuple(ALPHABET))
    pat = eng.frontend.parse_pattern_literal(spec.text, alphabet)
    core, blocks = eng.decompose.terminal_free_core(pat)
    if spec.mode == "acyclic":
        verdict = "acyclic" if eng.decompose.is_acyclic_pattern(core) else "cyclic"
        return PlanOutput(verdict, verdict, pattern=core)
    two = eng.decompose.find_acyclic_decomposition(core, eng.model.UNIVERSE)
    if two is None:
        return PlanOutput("cyclic", "cyclic", pattern=core)
    lines = [str(eq) for eq in two.equations] + [f"{z} in /{b}/" for z, b in blocks.items()]
    return PlanOutput("acyclic", "\n".join(lines), two, core)


def _convert(eng: Engine, spec: OpSpec, stamps: list[float]):
    alphabet = eng.model.Alphabet(tuple(ALPHABET))
    sercq = eng.frontend.parse_sercq(spec.text, alphabet)
    if spec.mode == "acyclic":
        if not eng.bridge.is_pseudo_acyclic(sercq):
            return PlanOutput("not pseudo-acyclic", "")
        query = eng.bridge.pseudo_acyclic_to_acyclic_fccq(sercq)
    else:
        query = eng.bridge.sercq_to_fccq(sercq)
    return _plan_text(eng, eng.frontend.print_query(query, alphabet), alphabet)


OPS: dict[str, Callable] = {"check": _check, "enum": _enum, "plan": _plan,
                            "pattern": _pattern, "convert": _convert}


@dataclass
class Timed:
    spec: OpSpec
    start: float
    end: float
    answer_times: list[float]
    output: Any = None
    error: Optional[str] = None     # unexpected exception, as text
    ok: bool = False                # set once checked against the reference
    pace: float = 1.0               # host-speed factor of a timed run (pace.py)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def paced_ms(self) -> float:
        return 1000 * self.seconds * self.pace


def run_op(eng: Engine, spec: OpSpec) -> Timed:
    """Run one op in the closed loop; only the op itself is timed."""
    stamps: list[float] = []
    start = time.perf_counter()
    try:
        out = OPS[spec.kind](eng, spec, stamps)
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        end = time.perf_counter()
        return Timed(spec, start, end, stamps, error=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    return Timed(spec, start, end, stamps, out)


# --- correctness -----------------------------------------------------------------


def check_op(eng: Engine, t: Timed, ref) -> tuple[Optional[str], bool]:
    """(mismatch or None, verdict unchecked) for one finished op."""
    if t.error is not None:
        return t.error, False
    spec = t.spec
    if spec.kind in WORD_KINDS:
        if t.output == "cyclic":
            return "CyclicQueryError on a query the reference says is acyclic", False
        return reference.check_word_op(spec, ref, t.output), False
    out: PlanOutput = t.output
    if out.verdict not in ("acyclic", "cyclic"):
        return f"{spec.kind} op answered {out.verdict!r}", False

    def certify() -> Optional[str]:
        if spec.kind == "pattern":
            two = out.certificate
            if two is None:
                two = eng.decompose.find_acyclic_decomposition(out.pattern, eng.model.UNIVERSE)
                if two is None:
                    return "is_acyclic_pattern says acyclic but no decomposition exists"
            return reference.check_two_certificate(two, out.pattern)
        return reference.check_plan_certificate(out.certificate)

    return reference.check_plan_op(ref, out.verdict, certify)


# --- CLI parity --------------------------------------------------------------------


def _cli(eng: Engine, argv: list[str]) -> str:
    """stdout of `wordeq <argv>`, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        eng.cli.main(argv)
    return out.getvalue()


def cli_parity(eng: Engine, spec: OpSpec, t: Timed, workdir: Path) -> Optional[str]:
    """Run `wordeq` on the same input in-process and compare its stdout with
    what the timed op produced.  None when they agree."""
    workdir.mkdir(parents=True, exist_ok=True)
    src = workdir / "input.txt"
    src.write_text(spec.text + "\n", encoding="utf-8")
    common = ["--alphabet", ALPHABET]
    if spec.kind in WORD_KINDS:
        word = workdir / "word.txt"
        word.write_text(spec.word, encoding="latin-1")
        if spec.kind == "check":
            out = _cli(eng, common + ["check", str(src), str(word)])
            want = ("true" if t.output else "false") + "\n"
        else:
            limit = [] if spec.limit is None else ["--limit", str(spec.limit)]
            out = _cli(eng, common + ["enum", str(src), str(word), "--json"] + limit)
            want = "".join(line + "\n" for line in t.output)
    elif spec.kind == "plan":
        out = _cli(eng, common + ["plan", str(src)])
        want = t.output.text + "\n" if t.output.verdict == "acyclic" else ""
    elif spec.kind == "pattern":
        out = _cli(eng, common + ["pattern", spec.mode, spec.text])
        want = t.output.text + "\n"
    else:
        fcq = workdir / "converted.fcq"
        flags = ["--acyclic"] if spec.mode == "acyclic" else []
        _cli(eng, common + ["convert", "sercq2fc", str(src), str(fcq)] + flags)
        out = _cli(eng, common + ["plan", str(fcq)])
        want = t.output.text + "\n" if t.output.verdict == "acyclic" else ""
    if out != want:
        return f"`wordeq {spec.kind}` printed {out[:200]!r}, the op produced {want[:200]!r}"
    return None
