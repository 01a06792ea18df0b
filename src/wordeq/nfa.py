"""Thompson-style NFA construction and subset simulation (no backtracking).

Symbols are arbitrary hashable tokens, so the same machinery runs plain
regexes over characters and marker-extended ref-words.  The construction is
one fold over the regex (`regex_fold`), so it takes any nesting depth.
"""
from __future__ import annotations

from functools import partial
from typing import Hashable, Iterable, Sequence

from .model import RBind, RConcat, REpsilon, RLit, RStar, RUnion, RegexAst, regex_fold


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
    s, t = regex_fold(ast, partial(_fragment, nfa))
    nfa.eps[nfa.start].append(s)
    nfa.eps[t].append(nfa.accept)
    return nfa


def _fragment(nfa: Nfa, node: RegexAst, operands: list[tuple[int, int]]) -> tuple[int, int]:
    """Entry and exit state of the fragment for `node`, given its operands';
    the empty language is two states with no edge.  The fold makes a node's
    states after its operands', as a recursion would."""
    if isinstance(node, RConcat):
        (ls, lt), (rs, rt) = operands
        nfa.eps[lt].append(rs)
        return ls, rt
    if isinstance(node, RBind):
        raise TypeError(f"unknown regex node {node!r}")
    s, t = nfa._state(), nfa._state()
    if isinstance(node, REpsilon):
        nfa.eps[s].append(t)
    elif isinstance(node, RLit):
        nfa.sym[s].append((node.symbol, t))
    elif isinstance(node, RUnion):
        (ls, lt), (rs, rt) = operands
        nfa.eps[s].extend([ls, rs])
        nfa.eps[lt].append(t)
        nfa.eps[rt].append(t)
    elif isinstance(node, RStar):
        ((is_, it),) = operands
        nfa.eps[s].extend([is_, t])
        nfa.eps[it].extend([is_, t])
    return s, t
