"""Brute-force reference implementations, kept independent of the engine.

These are definitionally direct and deliberately share nothing with the
engine beyond the core model types, the mark-and-absorb join-tree test and
the regex NFA.  All expected values in the test suite come from here.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional

from .model import (
    BLeaf,
    BNode,
    Bracketing,
    FcCq,
    FreshVars,
    Pattern,
    RBind,
    RConcat,
    RLit,
    RegexAst,
    SmallEquation,
    TooLargeError,
    TwoFcCq,
    UNIVERSE,
    Variable,
    bracketing_pattern,
    gyo,
    is_terminal_free,
    regex_fold,
    svars,
    vars_of,
)
from .nfa import thompson


# Longest pattern whose bracketings are enumerated: the Catalan growth
# keeps the exhaustive search desk-sized up to here.
MAX_PATTERN_LENGTH = 12


def factors(w: str) -> list[str]:
    """All distinct factors of w, epsilon included."""
    out = {""}
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            out.add(w[i:j])
    return sorted(out, key=lambda u: (len(u), u))


def match_pattern(p: Pattern, target: str, subst: dict[Variable, str],
                  erasing: bool = True) -> Iterator[dict[Variable, str]]:
    """All extensions of subst mapping the pattern exactly onto target."""

    def rec(idx: int, pos: int, cur: dict[Variable, str]) -> Iterator[dict[Variable, str]]:
        if idx == len(p):
            if pos == len(target):
                yield dict(cur)
            return
        item = p[idx]
        if isinstance(item, str):
            if target.startswith(item, pos):
                yield from rec(idx + 1, pos + 1, cur)
            return
        if item in cur:
            val = cur[item]
            if target.startswith(val, pos):
                yield from rec(idx + 1, pos + len(val), cur)
            return
        lo = 0 if erasing else 1
        for end in range(pos + lo, len(target) + 1):
            cur[item] = target[pos:end]
            yield from rec(idx + 1, end, cur)
            del cur[item]

    yield from rec(0, 0, subst)


def brute_pattern_member(p: Pattern, w: str, erasing: bool = True) -> bool:
    """Does some (erasing or non-erasing) substitution map the pattern to w?"""
    return next(match_pattern(p, w, {}, erasing), None) is not None


def brute_evaluate(q: FcCq, w: str) -> set[tuple[str, ...]]:
    """Direct query semantics: all satisfying substitutions, projected to the
    head and deduplicated at word level.  A Boolean query (empty head) has at
    most the answer (), so the search stops at its first satisfying
    substitution."""
    answers = _brute_answers(q, w)
    return set(islice(answers, 1) if not q.head else answers)


def _brute_answers(q: FcCq, w: str) -> Iterator[tuple[str, ...]]:
    """Head tuple of every satisfying substitution, repeats included."""
    nfas = [(c.var, thompson(c.regex)) for c in q.constraints]
    facs = factors(w)

    def check_constraints(cur: dict[Variable, str]) -> bool:
        for var, nfa in nfas:
            val = w if var.is_universe else cur.get(var)
            if val is not None and not nfa.accepts(val):
                return False
        return True

    def finish(cur: dict[Variable, str]) -> Iterator[tuple[str, ...]]:
        # Variables appearing only in constraints still need values.
        missing = [var for var, _ in nfas if not var.is_universe and var not in cur]
        missing = list(dict.fromkeys(missing))

        def assign(i: int) -> Iterator[tuple[str, ...]]:
            if i == len(missing):
                if check_constraints(cur):
                    yield tuple(cur[v] for v in q.head)
                return
            for f in facs:
                cur[missing[i]] = f
                yield from assign(i + 1)
                del cur[missing[i]]

        yield from assign(0)

    def solve(eq_idx: int, cur: dict[Variable, str]) -> Iterator[tuple[str, ...]]:
        if eq_idx == len(q.equations):
            yield from finish(cur)
            return
        eq = q.equations[eq_idx]
        if eq.lhs.is_universe:
            targets = [w]
        elif eq.lhs in cur:
            targets = [cur[eq.lhs]]
        else:
            targets = facs
        for t in targets:
            added_lhs = eq.lhs not in cur and not eq.lhs.is_universe
            if added_lhs:
                cur[eq.lhs] = t
            for ext in match_pattern(_resolve_universe(eq.rhs, w), t, cur):
                yield from solve(eq_idx + 1, ext)
            if added_lhs:
                del cur[eq.lhs]

    return solve(0, {})


def _resolve_universe(p: Pattern, w: str) -> Pattern:
    # The universe variable on a right-hand side is just the input word.
    out: list = []
    for item in p:
        if isinstance(item, Variable) and item.is_universe:
            out.extend(w)
        else:
            out.append(item)
    return tuple(out)


def all_bracketings(p: Pattern) -> list[Bracketing]:
    """Every binary bracketing of the pattern (Catalan growth)."""
    if len(p) > MAX_PATTERN_LENGTH:
        raise TooLargeError(f"refusing to enumerate bracketings of length {len(p)}")

    items = tuple(p)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> tuple[Bracketing, ...]:
        if j - i == 1:
            item = items[i]
            assert isinstance(item, Variable)
            return (BLeaf(item),)
        out = []
        for m in range(i + 1, j):
            for left in rec(i, m):
                for right in rec(m, j):
                    out.append(BNode((left, right)))
        return tuple(out)

    return list(rec(0, len(items)))


def decompose_bracketing(b: Bracketing, root: Variable = UNIVERSE,
                         fresh: Optional[FreshVars] = None) -> TwoFcCq:
    """Bottom-up replacement of sub-bracketings by introduced variables.

    Equal sub-bracketings share one introduced variable; the outermost node is
    named ``root``.  A single leaf yields the copy equation root = x.
    """
    if fresh is None:
        fresh = FreshVars(v.name for v in vars_of(bracketing_pattern(b)) | {root})
    equations: list[SmallEquation] = []
    memo: dict[tuple[Variable, ...], Variable] = {}

    def descend(node: Bracketing) -> Variable:
        if isinstance(node, BLeaf):
            return node.var
        key = tuple(descend(c) for c in node.children)  # type: ignore[union-attr]
        if key not in memo:
            z = fresh.fresh("z")
            memo[key] = z
            equations.append(SmallEquation(z, key))
        return memo[key]

    if isinstance(b, BLeaf):
        equations.append(SmallEquation(root, (b.var,)))
    else:
        key = tuple(descend(c) for c in b.children)
        equations.append(SmallEquation(root, key))
    return TwoFcCq(head=(), equations=tuple(equations),
                   introduced=frozenset(memo.values()))


def bracketing_is_acyclic(b: Bracketing) -> bool:
    """Decompose the bracketing and run the mark-and-absorb test.  The root
    is the universe variable, which `gyo` drops, so it acts as a constant."""
    return gyo([(eq, eq.variables()) for eq in decompose_bracketing(b).equations]) is not None


def brute_acyclic(p: Pattern) -> bool:
    """True iff some binary bracketing of the pattern is acyclic."""
    if not is_terminal_free(p):
        raise ValueError("brute acyclicity is defined for terminal-free patterns")
    if len(p) == 1:
        return True
    return any(bracketing_is_acyclic(b) for b in all_bracketings(p))


# --- spanner semantics via ref-words -------------------------------------------

OPEN = "open"
CLOSE = "close"


def _marker_ast(node: RegexAst, operands: list[RegexAst]) -> RegexAst:
    """Fold step that rewrites bindings x{g} into (open,x) g (close,x) literal markers."""
    if isinstance(node, RBind):
        (inner,) = operands
        return RConcat(RConcat(RLit((OPEN, node.var.name)), inner), RLit((CLOSE, node.var.name)))
    return type(node)(*operands) if operands else node


SpanTuple = dict[Variable, tuple[int, int]]


def formula_span_tuples(formula: RegexAst, w: str) -> list[SpanTuple]:
    """Ref-word semantics of one formula: insert markers into w in every valid
    interleaving and keep those the marker NFA accepts."""
    variables = sorted(svars(formula), key=lambda v: v.name)
    nfa = thompson(regex_fold(formula, _marker_ast))
    results: list[SpanTuple] = []
    seen: set[tuple] = set()

    def rec(pos: int, opened: dict[str, int], closed: dict[str, int], states) -> None:
        if not states:
            return
        if pos == len(w) and len(closed) == len(variables):
            if nfa.is_accepting(states):
                key = tuple((v.name, opened[v.name], closed[v.name]) for v in variables)
                if key not in seen:
                    seen.add(key)
                    results.append({v: (opened[v.name], closed[v.name]) for v in variables})
        # open a marker
        for v in variables:
            if v.name not in opened:
                opened[v.name] = pos + 1
                rec(pos, opened, closed, nfa.step(states, (OPEN, v.name)))
                del opened[v.name]
        # close a marker
        for v in variables:
            if v.name in opened and v.name not in closed:
                closed[v.name] = pos + 1
                rec(pos, opened, closed, nfa.step(states, (CLOSE, v.name)))
                del closed[v.name]
        # consume the next input symbol
        if pos < len(w):
            rec(pos + 1, opened, closed, nfa.step(states, w[pos]))

    rec(0, {}, {}, nfa.initial())
    return results


def brute_sercq_evaluate(p, w: str) -> set[tuple[tuple[str, int, int], ...]]:
    """Set-theoretic spanner algebra over per-formula ref-word relations.

    Returns tuples of (variable name, start, end) sorted by name, restricted
    to the projection.  The formulas are joined left to right.  Each step
    checks the string equalities whose variables are all bound, then drops
    the variables that neither the projection, a later formula nor an
    equality with a later formula reads, and removes duplicates.  Projection
    commutes with the later joins and selections on the kept variables, so
    the result is that of the full join, but formulas that share no variable
    do not multiply.
    """
    later: set[Variable] = set()
    keep_after: list[set[Variable]] = []
    for formula in reversed(p.formulas):
        keep_after.append(set(p.projection) | later
                          | {x for a, b in p.equalities if a in later or b in later for x in (a, b)})
        later = later | svars(formula)
    keep_after.reverse()
    kept: list[SpanTuple] = [{}]
    for formula, keep in zip(p.formulas, keep_after):
        rel = formula_span_tuples(formula, w)
        nxt: dict[tuple, SpanTuple] = {}
        for left in kept:
            for right in rel:
                if any(left[v] != right[v] for v in left.keys() & right.keys()):
                    continue
                merged = dict(left)
                merged.update(right)
                if any(a in merged and b in merged
                       and w[merged[a][0] - 1:merged[a][1] - 1] != w[merged[b][0] - 1:merged[b][1] - 1]
                       for a, b in p.equalities):
                    continue
                mu = {v: span for v, span in merged.items() if v in keep}
                nxt.setdefault(tuple(sorted((v.name, span) for v, span in mu.items())), mu)
        kept = list(nxt.values())
    out: set[tuple[tuple[str, int, int], ...]] = set()
    proj = sorted(p.projection, key=lambda v: v.name)
    for mu in kept:
        out.add(tuple((v.name, mu[v][0], mu[v][1]) for v in proj))
    return out
