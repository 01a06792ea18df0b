"""Command-line surface: check, enum, plan, pattern, convert.

Exit codes: 0 success/true/results, 1 false/empty/cyclic (expected negative),
2 usage or parse error, 3 internal invariant violation.  Diagnostics go to
stderr, data to stdout.  The parser and every walk over a parsed regex keep
their own stacks; "error: the input nests too deeply" (exit 2) comes only
from the brute-force oracle, whose pattern matcher recurses once per symbol,
with u expanded into the word.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Iterable, Optional, Sequence

from .bridge import pseudo_acyclic_to_acyclic_fccq, sercq_to_fccq, fccq_to_sercq
from .decompose import (
    find_acyclic_decomposition,
    is_acyclic_pattern,
    k_ary_local_decomposition,
    terminal_free_core,
)
from .evaluator import ResultTuple, brute_results, enumerate_results, model_check
from .frontend import (
    ParseError,
    parse_pattern_literal,
    parse_query,
    parse_sercq,
    print_query,
    print_sercq,
)
from .index import WordIndex, build_index
from .model import (
    Alphabet,
    CyclicQueryError,
    FcCq,
    NotPseudoAcyclicError,
    UNIVERSE,
    WordeqError,
    default_alphabet,
)
from .oracle import brute_evaluate
from .planner import Plan, plan, skeleton_of

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

ORACLE_WORD_LIMIT = 14


def _alphabet_from(arg: Optional[str]) -> Alphabet:
    if arg is None:
        return default_alphabet()
    return Alphabet(tuple(arg))


def _read_word(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("latin-1").rstrip("\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().strip()


def _front_half(args: argparse.Namespace) -> tuple[FcCq, WordIndex, Optional[Plan]]:
    """Read the inputs, index the word and plan the query.  A cyclic query
    gets no plan and is answered by brute force; --require-acyclic refuses
    it instead (the CyclicQueryError reaches `main`)."""
    alphabet = _alphabet_from(args.alphabet)
    query = parse_query(_read_text(args.query), alphabet)
    word = _read_word(args.word)
    ix = build_index(word, alphabet)
    try:
        return query, ix, plan(query)
    except CyclicQueryError as exc:
        if args.require_acyclic:
            raise
        print(f"query is cyclic: {exc.detail}", file=sys.stderr)
        print("warning: falling back to brute-force evaluation", file=sys.stderr)
        if len(word) > ORACLE_WORD_LIMIT:
            print(f"warning: brute-force on a word of length {len(word)} may be very slow",
                  file=sys.stderr)
        return query, ix, None


def _oracle_feasible(word: str) -> bool:
    if len(word) > ORACLE_WORD_LIMIT:
        print(f"warning: word of length {len(word)} exceeds the oracle bound; "
              "skipping the cross-check", file=sys.stderr)
        return False
    return True


def _oracle_agrees(query: FcCq, ix: WordIndex, answers: Iterable[ResultTuple]) -> bool:
    """Compare the engine's answers with brute force, as head word tuples."""
    got = {tuple(r.words(ix)[v.name] for v in query.head) for r in answers}
    if got == brute_evaluate(query, ix.word):
        return True
    print("internal error: engine disagrees with the brute-force oracle", file=sys.stderr)
    return False


def cmd_check(args: argparse.Namespace) -> int:
    query, ix, p = _front_half(args)
    if p is None:
        # Brute force on the Boolean projection stops at the first answer.
        truth = next(brute_results(replace(query, head=()), ix), None) is not None
    else:
        if args.explain:
            print(p.explain(), file=sys.stderr)
        truth = model_check(p, ix)
        # The verdict is the answer set of the query's Boolean projection.
        if (args.oracle and _oracle_feasible(ix.word)
                and not _oracle_agrees(replace(query, head=()), ix, [ResultTuple(())] if truth else [])):
            return EXIT_INTERNAL
    print("true" if truth else "false")
    return EXIT_OK if truth else EXIT_NEGATIVE


def cmd_enum(args: argparse.Namespace) -> int:
    query, ix, p = _front_half(args)
    results: Iterable[ResultTuple] = brute_results(query, ix) if p is None else enumerate_results(p, ix)
    # The cross-check needs every answer; collect them once and print from the list.
    oracle = args.oracle and p is not None and _oracle_feasible(ix.word)
    if oracle:
        results = list(results)
    any_result = False
    # Stop after the limit-th answer; --limit 0 still draws one for the exit code.
    for shown, result in enumerate(results, 1):
        any_result = True
        if args.limit == 0:
            break
        obj = result.to_json_obj(ix)
        print(json.dumps(obj) if args.json else _plain_row(obj))
        if shown == args.limit:
            break
    if oracle and not _oracle_agrees(query, ix, results):
        return EXIT_INTERNAL
    return EXIT_OK if any_result else EXIT_NEGATIVE


def _plain_row(obj: dict) -> str:
    if not obj:
        return "(true)"
    parts = []
    for name, info in obj.items():
        start, end = info["span"]
        parts.append(f"{name}={info['word']!r} @[{start},{end})")
    return "  ".join(parts)


def cmd_plan(args: argparse.Namespace) -> int:
    alphabet = _alphabet_from(args.alphabet)
    query = parse_query(_read_text(args.query), alphabet)
    p = plan(query, prefactor=args.prefactor)
    print(p.explain())
    sk = skeleton_of(p)
    print("skeleton edges:", " ".join(f"{a}-{b}" for a, b in sk.edges))
    return EXIT_OK


def cmd_pattern(args: argparse.Namespace) -> int:
    alphabet = _alphabet_from(args.alphabet)
    pat = parse_pattern_literal(args.pattern, alphabet)
    if not pat:
        print("empty pattern", file=sys.stderr)
        return EXIT_USAGE
    core, blocks = terminal_free_core(pat)
    if args.mode == "acyclic":
        verdict = is_acyclic_pattern(core)
        print("acyclic" if verdict else "cyclic")
        return EXIT_OK if verdict else EXIT_NEGATIVE
    if args.mode == "decompose":
        two = find_acyclic_decomposition(core, UNIVERSE)
        refusal = "cyclic"
    else:
        two = k_ary_local_decomposition(core, args.k, UNIVERSE)
        refusal = f"not {args.k}-ary local"
    if two is None:
        print(refusal)
        return EXIT_NEGATIVE
    print("\n".join(str(eq) for eq in two.equations))
    for z, block in blocks.items():
        print(f"{z} in /{block}/")
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    alphabet = _alphabet_from(args.alphabet)
    text = _read_text(args.infile)
    if args.direction == "sercq2fc":
        sercq = parse_sercq(text, alphabet)
        if args.acyclic:
            try:
                query = pseudo_acyclic_to_acyclic_fccq(sercq)
            except NotPseudoAcyclicError:
                print("input expression is not pseudo-acyclic", file=sys.stderr)
                return EXIT_NEGATIVE
        else:
            query = sercq_to_fccq(sercq)
        out = print_query(query, alphabet)
    else:
        query = parse_query(text, alphabet)
        out = print_sercq(fccq_to_sercq(query, alphabet), alphabet)
    if args.outfile == "-":
        print(out)
    else:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    return EXIT_OK


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wordeq",
                                 description="Evaluate conjunctive queries over word equations.")
    ap.add_argument("--alphabet", help="terminal alphabet (default: a-z)")
    sub = ap.add_subparsers(dest="command", required=True)

    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("query", help=".fcq query file")
    evaluation.add_argument("word", help="input word file ('-' for stdin)")
    evaluation.add_argument("--require-acyclic", action="store_true")
    evaluation.add_argument("--oracle", action="store_true", help="cross-check with brute force")

    p_check = sub.add_parser("check", parents=[evaluation],
                             help="plan a query and model-check it against a word")
    p_check.add_argument("--explain", action="store_true", help="print the plan to stderr")
    p_check.set_defaults(func=cmd_check)

    p_enum = sub.add_parser("enum", parents=[evaluation], help="enumerate results as JSON lines")
    p_enum.add_argument("--limit", type=_count, default=None)
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enum)

    p_plan = sub.add_parser("plan", help="print the evaluation plan for a query")
    p_plan.add_argument("query")
    p_plan.add_argument("--prefactor", action="store_true",
                        help="pre-factor common subpatterns before planning")
    p_plan.set_defaults(func=cmd_plan)

    p_pat = sub.add_parser("pattern", help="pattern acyclicity and decomposition")
    p_pat.add_argument("mode", choices=["acyclic", "decompose", "k-local"])
    p_pat.add_argument("pattern", help="pattern literal, e.g. \"x1x2x1\" or \"'ab'.x.y\"")
    p_pat.add_argument("--k", type=int, default=2)
    p_pat.set_defaults(func=cmd_pattern)

    p_conv = sub.add_parser("convert", help="convert between .sercq and .fcq")
    p_conv.add_argument("direction", choices=["sercq2fc", "fc2sercq"])
    p_conv.add_argument("infile")
    p_conv.add_argument("outfile", nargs="?", default="-")
    p_conv.add_argument("--acyclic", action="store_true",
                        help="use the pseudo-acyclic fast path (sercq2fc only)")
    p_conv.set_defaults(func=cmd_convert)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CyclicQueryError as exc:
        print(f"query is cyclic: {exc.detail}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, WordeqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
