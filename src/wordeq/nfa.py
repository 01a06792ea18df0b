"""Thompson-style NFA construction and subset simulation (no backtracking).

Symbols are arbitrary hashable tokens, so the same machinery runs plain
regexes over characters and marker-extended ref-words.
"""
from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .model import RConcat, REmpty, REpsilon, RLit, RStar, RUnion, RegexAst


class Nfa:
    """Epsilon-NFA with a single start and a single accept state."""

    def __init__(self) -> None:
        self.eps: list[list[int]] = []
        self.sym: list[list[tuple[Hashable, int]]] = []
        self.start = self._state()
        self.accept = self._state()

    def _state(self) -> int:
        self.eps.append([])
        self.sym.append([])
        return len(self.eps) - 1

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        out = set(states)
        stack = list(out)
        while stack:
            s = stack.pop()
            for t in self.eps[s]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def step(self, states: frozenset[int], symbol: Hashable) -> frozenset[int]:
        nxt = {t for s in states for sym, t in self.sym[s] if sym == symbol}
        return self.closure(nxt)

    def initial(self) -> frozenset[int]:
        return self.closure([self.start])

    def accepts(self, word: Sequence[Hashable]) -> bool:
        states = self.initial()
        for ch in word:
            if not states:
                return False
            states = self.step(states, ch)
        return self.accept in states

    def is_accepting(self, states: frozenset[int]) -> bool:
        return self.accept in states


def thompson(ast: RegexAst) -> Nfa:
    """Compile a regex AST into an NFA via the standard construction."""
    nfa = Nfa()
    s, t = _build(nfa, ast)
    nfa.eps[nfa.start].append(s)
    nfa.eps[t].append(nfa.accept)
    return nfa


def _build(nfa: Nfa, node: RegexAst) -> tuple[int, int]:
    """Entry and exit state of the fragment for `node` (module-level rather
    than a recursive closure, which would be a reference cycle).  The parser
    nests concatenations and unions to the left, so their left spine is
    walked with a loop, in the order a recursion would take: the leftmost
    operand first, then each right operand, each node's own states after it."""
    spine = []
    while isinstance(node, (RConcat, RUnion)):
        spine.append(node)
        node = node.left
    s, t = _leaf(nfa, node)
    for node in reversed(spine):
        rs, rt = _build(nfa, node.right)
        if isinstance(node, RConcat):
            nfa.eps[t].append(rs)
            t = rt
        else:
            ls, lt = s, t
            s, t = nfa._state(), nfa._state()
            nfa.eps[s].extend([ls, rs])
            nfa.eps[lt].append(t)
            nfa.eps[rt].append(t)
    return s, t


def _leaf(nfa: Nfa, node: RegexAst) -> tuple[int, int]:
    """Entry and exit state of a node that is not a concatenation or union."""
    if isinstance(node, REmpty):
        return nfa._state(), nfa._state()
    if isinstance(node, REpsilon):
        s, t = nfa._state(), nfa._state()
        nfa.eps[s].append(t)
        return s, t
    if isinstance(node, RLit):
        s, t = nfa._state(), nfa._state()
        nfa.sym[s].append((node.symbol, t))
        return s, t
    if isinstance(node, RStar):
        is_, it = _build(nfa, node.inner)
        s, t = nfa._state(), nfa._state()
        nfa.eps[s].extend([is_, t])
        nfa.eps[it].extend([is_, t])
        return s, t
    raise TypeError(f"unknown regex node {node!r}")
