"""Reference answers that do not use the engine, and the checks that compare
each op's output with them.

Word queries are answered by direct Python over the factors of w (and `re`
for the regular constraints).  `oracle.brute_evaluate` is the specification,
but it takes tens of seconds on the 4-atom join at |w| = 32, so the
benchmark's self-test cross-checks these references against it on all short
words and the run itself uses the references.

Plan ops are checked by their verdict and its certificate:
- an "acyclic" verdict must come with a decomposition that expands back to
  the (normalized) pattern and whose join tree `model.verify_join_tree`
  accepts;
- families that are acyclic by construction, and short patterns decided by
  `oracle.brute_acyclic`, fix the expected verdict;
- a "cyclic" verdict on a longer pattern or a random multi-atom query has no
  reference and is counted as unchecked, not as correct.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Optional

from workloads import WORD_KINDS, OpSpec


def factors(w: str) -> set[str]:
    return {w[i:j] for i in range(len(w) + 1) for j in range(i, len(w) + 1)}


@dataclass(frozen=True)
class WordRef:
    """Answers of a word query: head names, how many there are, and a
    membership test over the head's words."""

    head: tuple[str, ...]
    total: int
    member: Callable[[tuple[str, ...]], bool]


_A_ANY = re.compile("a[ab]*")
_A_STAR_B = re.compile("a*b")


def _xyz(w: str) -> WordRef:
    n = len(w)
    return WordRef(("x", "y", "z"), (n + 1) * (n + 2) // 2, lambda t: "".join(t) == w)


def _square(w: str) -> WordRef:
    hits = {f for f in factors(w)
            if _A_ANY.fullmatch(f) and len(f) % 2 == 0 and f[:len(f) // 2] == f[len(f) // 2:]}
    return WordRef(("x",), len(hits), lambda t: t[0] in hits)


def _join(w: str) -> WordRef:
    # x = z1.z2 with x in a(a|b)* and z1 in a+: any factor x starting with a
    # (z1 = 'a'); y = z1.z3: any factor y starting with a.
    starts_a = {f for f in factors(w) if f.startswith("a")}
    return WordRef(("x", "y"), len(starts_a) ** 2,
                   lambda t: t[0] in starts_a and t[1] in starts_a)


def _xyx(w: str) -> WordRef:
    n = len(w)
    ok = any(w[:k] == w[n - k:] for k in range(n // 2 + 1))
    return WordRef((), int(ok), lambda t: ok)


def _conjugate(w: str) -> WordRef:
    ok = any(w[i:] + w[:i] == w for i in range(len(w) + 1))
    return WordRef((), int(ok), lambda t: ok)


def _copy(w: str) -> WordRef:
    h = len(w) // 2
    ok = len(w) % 2 == 0 and w[:h] == w[h:]
    return WordRef(("x",), int(ok), lambda t: t[0] + t[0] == w)


def _prefix_regex(w: str) -> WordRef:
    cuts = [i for i in range(len(w) + 1) if _A_STAR_B.fullmatch(w, 0, i)]
    return WordRef(("x", "y"), len(cuts),
                   lambda t: t[0] + t[1] == w and _A_STAR_B.fullmatch(t[0]) is not None)


WORD_REFERENCES = {
    "xyz": _xyz, "square": _square, "join": _join, "xyx": _xyx,
    "conjugate": _conjugate, "copy": _copy, "prefix_regex": _prefix_regex,
}


def word_reference(spec: OpSpec) -> WordRef:
    return WORD_REFERENCES[spec.family](spec.word)


def canonical_span(w: str, factor: str) -> list[int]:
    """Leftmost occurrence, 1-based and half-open, as the engine renders it."""
    start = w.find(factor) + 1
    return [start, start + len(factor)]


def check_word_op(spec: OpSpec, ref: WordRef, output) -> Optional[str]:
    """None when the op's output matches the reference, else the mismatch."""
    if spec.kind == "check":
        want = ref.total > 0
        return None if output is want else f"check returned {output!r}, reference {want}"
    if not isinstance(output, list):
        return f"enum returned {output!r}"
    want_count = ref.total if spec.limit is None else min(spec.limit, ref.total)
    if len(output) != want_count:
        return f"enum rendered {len(output)} answers, reference {want_count}"
    seen: set[tuple[str, ...]] = set()
    for line in output:
        obj = json.loads(line)
        if tuple(obj) != ref.head:
            return f"answer {line} has keys {list(obj)}, head {list(ref.head)}"
        words = tuple(obj[v]["word"] for v in ref.head)
        for v, s in zip(ref.head, words):
            if obj[v]["span"] != canonical_span(spec.word, s):
                return f"answer {line}: span of {v} is not the leftmost occurrence"
        if words in seen:
            return f"answer {line} repeated"
        seen.add(words)
        if not ref.member(words):
            return f"answer {line} is not an answer of the reference"
    return None


# --- plan ops -------------------------------------------------------------------

ACYCLIC_BY_CONSTRUCTION = {"block2", "block3", "tree", "sercq_pseudo"}


def block_bracketing(pattern: tuple, m: int):
    """An acyclic bracketing of (x1 ... xm)^k, built without the engine:
    z = x1.(x2.( ... xm)), then z.(z.( ... z)).  Every chain atom holds z and
    the block atoms hang off one of them, so the atoms form a join tree."""
    from wordeq.model import BLeaf, BNode

    def right_comb(leaves):
        node = leaves[-1]
        for leaf in reversed(leaves[:-1]):
            node = BNode((leaf, node))
        return node

    block = right_comb([BLeaf(v) for v in pattern[:m]])
    return right_comb([block] * (len(pattern) // m))


@dataclass(frozen=True)
class PlanRef:
    """Expected verdict: True acyclic, False cyclic, None unknown."""

    acyclic: Optional[bool]


def pattern_variables(literal: str) -> tuple:
    """A terminal-free pattern literal (x1y2x1...) as a tuple of variables."""
    from wordeq.model import Variable
    return tuple(Variable(name) for name in re.findall(r"[a-z][0-9]*", literal))


def plan_reference(spec: OpSpec) -> PlanRef:
    if spec.family in ACYCLIC_BY_CONSTRUCTION:
        return PlanRef(True)
    if spec.family == "short":
        from wordeq.oracle import brute_acyclic
        return PlanRef(brute_acyclic(pattern_variables(spec.text)))
    return PlanRef(None)


def reference_for(spec: OpSpec):
    return word_reference(spec) if spec.kind in WORD_KINDS else plan_reference(spec)


def check_two_certificate(two, pattern: tuple) -> Optional[str]:
    """A decomposition of one pattern: expands back to it, and its atoms have
    a join tree."""
    from wordeq.model import UNIVERSE, gyo, verify_join_tree

    if any(len(e.rhs) > 2 for e in two.equations):
        return "certificate has an atom with more than two right-hand items"
    if two.expand(UNIVERSE) != tuple(pattern):
        return "certificate does not expand back to the pattern"
    tree = gyo([(e, e.variables()) for e in two.equations])
    if tree is None or not verify_join_tree(tree):
        return "certificate atoms have no join tree"
    return None


def check_plan_certificate(p) -> Optional[str]:
    """Each normalized equation is the expansion of its group of short atoms,
    and the assembled tree is a join tree."""
    from wordeq.model import RegularConstraint, SmallEquation, TwoFcCq, verify_join_tree

    if not verify_join_tree(p.tree):
        return "plan tree fails verify_join_tree"
    for node in p.tree.nodes:
        if isinstance(node, SmallEquation):
            if len(node.rhs) > 2:
                return f"plan atom {node} has more than two right-hand items"
        elif not isinstance(node, RegularConstraint):
            return f"plan node {node!r} is neither a short equation nor a constraint"
    for eq, group in zip(p.normalized.query.equations, p.atom_groups):
        atoms = tuple(p.tree.nodes[i] for i in group)
        introduced = frozenset(a.lhs for a in atoms) & p.query.introduced
        two = TwoFcCq(head=(), equations=atoms, introduced=introduced)
        if two.expand(eq.lhs) != tuple(eq.rhs):
            return f"atoms of {eq.lhs} do not expand back to its right-hand side"
    return None


def check_plan_op(ref: PlanRef, verdict: str,
                  certify: Callable[[], Optional[str]]) -> tuple[Optional[str], bool]:
    """(mismatch or None, whether the verdict went unchecked)."""
    if verdict == "cyclic":
        if ref.acyclic:
            return "cyclic verdict, reference says acyclic", False
        return None, ref.acyclic is None
    if ref.acyclic is False:
        return "acyclic verdict, reference says cyclic", False
    return certify(), False
