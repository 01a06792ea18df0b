"""Core domain types: alphabets, variables, patterns, equations, queries, trees.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

#: Characters that the query grammar claims for itself.  No alphabet may
#: contain them (``S`` is the sigma macro, ``u`` names the universe variable
#: only in identifier position and stays usable as a terminal).
RESERVED_CHARS = frozenset("'\"#|*()/{}[],:=.+ \t\r\nS\\")

UNIVERSE_NAME = "u"


class WordeqError(Exception):
    """Base class for all errors raised by this package."""


class NotTerminalFreeError(WordeqError):
    pass


class InvalidSpanError(WordeqError):
    pass


class HasConstraintsError(WordeqError):
    pass


class NotPseudoAcyclicError(WordeqError):
    pass


class TooLargeError(WordeqError):
    pass


class CyclicQueryError(WordeqError):
    """Raised by the planner when a query admits no acyclic decomposition."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"cyclic ({stage}): {detail}")
        self.stage = stage
        self.detail = detail


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of terminal symbols (single characters, byte-valued)."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        seen = set()
        for s in self.symbols:
            if len(s) != 1:
                raise ValueError(f"alphabet symbol {s!r} is not a single character")
            if s in RESERVED_CHARS:
                raise ValueError(f"alphabet symbol {s!r} is reserved by the query grammar")
            if s in seen:
                raise ValueError(f"duplicate alphabet symbol {s!r}")
            seen.add(s)
        object.__setattr__(self, "_set", frozenset(self.symbols))

    def __contains__(self, ch: str) -> bool:
        return ch in self._set  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def default_alphabet() -> Alphabet:
    """Lowercase ASCII letters (the CLI default; ``S`` is uppercase, so safe)."""
    return Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class Variable:
    """An interned variable; the universe variable is the one flagged below."""

    name: str
    is_universe: bool = False

    def __post_init__(self):
        if (self.name == UNIVERSE_NAME) != self.is_universe:
            raise ValueError(f"the name {UNIVERSE_NAME!r} is reserved for the universe variable")

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        # The name alone decides the flag (see __post_init__).
        return hash(self.name)


#: The universe variable, always bound to the input word.
UNIVERSE = Variable(UNIVERSE_NAME, True)


class FreshVars:
    """Generates variable names that avoid a set of already-used names."""

    def __init__(self, used: Iterable[str] = ()):
        self._used = set(used)
        self._used.add(UNIVERSE_NAME)
        self._counters: dict[str, int] = {}

    def fresh(self, base: str = "z") -> Variable:
        n = self._counters.get(base, 0)
        while True:
            n += 1
            name = f"{base}{n}"
            if name not in self._used:
                break
        self._counters[base] = n
        self._used.add(name)
        return Variable(name)


# A pattern is a word over terminals and variables; terminals are plain
# one-character strings.
PatternItem = Union[Variable, str]
Pattern = tuple[PatternItem, ...]


def vars_of(p: Pattern) -> set[Variable]:
    """Set of variables occurring in the pattern."""
    return {it for it in p if isinstance(it, Variable)}


def is_terminal_free(p: Pattern) -> bool:
    return all(isinstance(it, Variable) for it in p)


# --- regular expressions ---------------------------------------------------


class RegexAst:
    """Base class for regular-expression syntax nodes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return regex_fold(self, _repr_node)


@dataclass(frozen=True, repr=False)
class REmpty(RegexAst):
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class REpsilon(RegexAst):
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class RLit(RegexAst):
    __slots__ = ("symbol",)
    symbol: str


@dataclass(frozen=True, repr=False)
class RUnion(RegexAst):
    __slots__ = ("left", "right")
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True, repr=False)
class RConcat(RegexAst):
    __slots__ = ("left", "right")
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True, repr=False)
class RStar(RegexAst):
    __slots__ = ("inner",)
    inner: RegexAst


@dataclass(frozen=True, repr=False)
class RBind(RegexAst):
    """Variable binding of regex formulas; only valid inside spanner formulas."""

    __slots__ = ("var", "inner")
    var: "Variable"
    inner: RegexAst


# Every walk over a regex goes through the two helpers below, which keep
# their own stack: the parser nests a literal one level per letter, deeper
# than Python's recursion limit allows.

def _operands(node: RegexAst) -> tuple[RegexAst, ...]:
    """A node's operands, in the order every walk visits them."""
    if isinstance(node, (RConcat, RUnion)):
        return node.left, node.right
    if isinstance(node, (RStar, RBind)):
        return (node.inner,)
    return ()


def regex_nodes(root: RegexAst,
                into: Union[type, tuple[type, ...]] = RegexAst) -> Iterator[RegexAst]:
    """The nodes in pre-order, left operand first, descending only into
    instances of ``into``."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, into):
            stack.extend(reversed(_operands(node)))


T = TypeVar("T")


def regex_fold(root: RegexAst, combine: Callable[[RegexAst, list[T]], T], share: bool = False) -> T:
    """Left-to-right post-order fold: ``combine(node, values)`` gets the
    values of the node's operands, in order, and returns the node's.  With
    ``share``, a node object met again reuses its value; that keeps a pure
    ``combine`` linear on the parser's X+, which holds X twice."""
    values: list[T] = []
    seen: dict[int, T] = {}
    stack: list = [root]   # nodes to visit, and (node, operand count) to combine
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, k = node
        elif share and id(node) in seen:
            values.append(seen[id(node)])
            continue
        else:
            operands = _operands(node)
            if operands:
                stack.append((node, len(operands)))
                stack.extend(reversed(operands))
                continue
            k = 0
        value = combine(node, values[len(values) - k:])
        del values[len(values) - k:]
        values.append(value)
        if share:
            seen[id(node)] = value
    return values[0]


def svars(ast: RegexAst) -> set[Variable]:
    """Spanner variables bound anywhere inside a regex formula."""
    return regex_fold(ast, _bound_in, share=True)


def _bound_in(node: RegexAst, operands: list[set[Variable]]) -> set[Variable]:
    """The variables bound in a node, given those bound in its operands."""
    out = set().union(*operands)
    if isinstance(node, RBind):
        out.add(node.var)
    return out


def binding_ids(ast: RegexAst) -> set[int]:
    """The ids of the node objects in a regex formula that bind a variable,
    themselves or in an operand."""
    ids: set[int] = set()

    def binds(node: RegexAst, operands: list[bool]) -> bool:
        if isinstance(node, RBind) or any(operands):
            ids.add(id(node))
            return True
        return False

    regex_fold(ast, binds, share=True)
    return ids


def _repr_node(node: RegexAst, operands: list[str]) -> str:
    """The dataclass repr of a node, given its operands' reprs."""
    shown = iter(operands)
    fields = [f"{name}={next(shown)}" if name in ("left", "right", "inner")
              else f"{name}={getattr(node, name)!r}" for name in node.__slots__]
    return f"{type(node).__name__}({', '.join(fields)})"


def regex_word(word: str) -> RegexAst:
    """Left-associated concatenation of literal symbols; epsilon if empty."""
    if not word:
        return REpsilon()
    node: RegexAst = RLit(word[0])
    for ch in word[1:]:
        node = RConcat(node, RLit(ch))
    return node


def regex_any_of(symbols: Sequence[str]) -> RegexAst:
    """Left-associated union over the given symbols (the ``S`` macro shape)."""
    if not symbols:
        return REmpty()
    node: RegexAst = RLit(symbols[0])
    for ch in symbols[1:]:
        node = RUnion(node, RLit(ch))
    return node


@dataclass(frozen=True)
class RegularConstraint:
    var: Variable
    regex: RegexAst


# --- queries ----------------------------------------------------------------


@dataclass(frozen=True)
class WordEquation:
    """FC-form word equation: exactly one variable on the left."""

    lhs: Variable
    rhs: Pattern

    def variables(self) -> set[Variable]:
        return {self.lhs} | vars_of(self.rhs)

    def size(self) -> int:
        return 1 + len(self.rhs)


@dataclass(frozen=True)
class FcCq:
    """Conjunctive query over word equations plus regular constraints."""

    head: tuple[Variable, ...]
    equations: tuple[WordEquation, ...]
    constraints: tuple[RegularConstraint, ...] = ()

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for eq in self.equations:
            out |= eq.variables()
        for c in self.constraints:
            out.add(c.var)
        return out

    def validate(self) -> None:
        body_vars = self.variables()
        for v in self.head:
            if v.is_universe:
                raise ValueError("the universe variable may not appear in a query head")
            if v not in body_vars:
                raise ValueError(f"head variable {v} does not occur in the body")


# --- bracketings and small-equation queries ---------------------------------


class Bracketing:
    """A full parenthesisation of a terminal-free pattern."""

    __slots__ = ()


@dataclass(frozen=True)
class BLeaf(Bracketing):
    __slots__ = ("var",)
    var: Variable


@dataclass(frozen=True)
class BNode(Bracketing):
    __slots__ = ("children",)
    children: tuple[Bracketing, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("bracketing nodes need at least two children")


def bracketing_pattern(b: Bracketing) -> Pattern:
    """The flat pattern a bracketing parenthesises."""
    if isinstance(b, BLeaf):
        return (b.var,)
    out: list[PatternItem] = []
    for c in b.children:  # type: ignore[union-attr]
        out.extend(bracketing_pattern(c))
    return tuple(out)


@dataclass(frozen=True)
class SmallEquation:
    """Word equation with a right-hand side of bounded length (1..k)."""

    lhs: Variable
    rhs: tuple[Variable, ...]

    def __post_init__(self):
        if not self.rhs:
            raise ValueError("small equations need a non-empty right-hand side")

    def variables(self) -> set[Variable]:
        return {self.lhs, *self.rhs}

    def __repr__(self) -> str:
        return f"{self.lhs} = {'.'.join(v.name for v in self.rhs)}"


@dataclass(frozen=True)
class TwoFcCq:
    """Query whose equations all have short right-hand sides.

    ``introduced`` holds the fresh variables created by decomposition; each is
    the left-hand side of exactly one equation.
    """

    head: tuple[Variable, ...]
    equations: tuple[SmallEquation, ...]
    constraints: tuple[RegularConstraint, ...] = ()
    introduced: frozenset[Variable] = frozenset()

    def root_equation(self) -> SmallEquation:
        for eq in self.equations:
            if eq.lhs not in self.introduced:
                return eq
        raise ValueError("no root equation (every left-hand side is introduced)")

    def defining(self) -> dict[Variable, SmallEquation]:
        """Map from introduced variable to the single equation defining it."""
        out: dict[Variable, SmallEquation] = {}
        for eq in self.equations:
            if eq.lhs in self.introduced:
                if eq.lhs in out:
                    raise ValueError(f"{eq.lhs} defined twice")
                out[eq.lhs] = eq
        return out

    def expand(self, root: Variable) -> Pattern:
        """Back-substitute introduced variables below ``root``; inverse of decomposition."""
        defs = self.defining()
        root_eqs = [eq for eq in self.equations if eq.lhs == root and root not in self.introduced]
        if len(root_eqs) != 1:
            raise ValueError(f"expected exactly one root equation for {root}")

        # Definitions nest as deep as a pattern is long, so the open right
        # sides are kept on an explicit stack.  With every definition open,
        # one more would repeat one: a variable defined in terms of itself.
        out: list[Variable] = []
        todo = [iter(root_eqs[0].rhs)]
        while todo:
            v = next(todo[-1], None)
            if v is None:
                todo.pop()
            elif v in defs:
                if len(todo) > len(defs):
                    raise ValueError(f"{v} is defined in terms of itself")
                todo.append(iter(defs[v].rhs))
            else:
                out.append(v)
        return tuple(out)


# --- join trees and the mark-and-absorb algorithm ----------------------------


@dataclass(frozen=True)
class JoinTree:
    """Tree over atoms; every variable's occurrences induce a connected subtree."""

    nodes: tuple[object, ...]
    var_sets: tuple[frozenset[Variable], ...]
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def gyo(atoms: Sequence[tuple[object, Iterable[Variable]]]) -> Optional[JoinTree]:
    """Mark-and-absorb acyclicity test; returns a join tree or None if cyclic.

    Tie-breaking is deterministic: each round absorbs the lowest-index
    absorbable node into the lowest-index eligible absorber, then marks every
    variable that one remaining node holds.  Marking cannot break a cover, and
    an absorbed absorber hands its covers on, except to the node it was
    absorbed into; so a node becomes absorbable only when its live set
    shrinks, and a min-heap of nodes to test again finds the next one.
    """
    payloads = tuple(name for name, _ in atoms)
    var_sets = tuple(frozenset(v for v in vs if not v.is_universe) for _, vs in atoms)
    n = len(payloads)
    if n == 0:
        raise ValueError("gyo needs at least one atom")
    if n == 1:
        return JoinTree(payloads, var_sets, ())

    # Names hash faster than variables, and name a variable uniquely.
    live = [{v.name for v in s} for s in var_sets]
    holders: dict[str, set[int]] = defaultdict(set)
    for i, names in enumerate(live):
        for v in names:
            holders[v].add(i)
    alive = [True] * n
    lowest = 0
    to_test = list(range(n))
    edges: list[tuple[int, int]] = []
    lonely = list(holders)   # the first round may mark any variable
    while True:
        # (a) absorb the lowest absorbable node into its lowest absorber.
        j = None
        while to_test and j is None:
            i = heappop(to_test)
            if not alive[i]:
                continue
            mine = live[i]
            if mine:
                rarest = min([holders[v] for v in mine], key=len)
                found = [k for k in rarest if k != i and mine <= live[k]]
                j = min(found) if found else None
            else:
                # An empty live set is covered by every other node.
                j = next((k for k in range(lowest, n) if alive[k] and k != i), None)
        if j is not None:
            edges.append((i, j))
            if len(edges) == n - 1:
                return JoinTree(payloads, var_sets, tuple(edges))
            alive[i] = False
            while not alive[lowest]:
                lowest += 1
            for v in live[i]:
                holders[v].discard(i)
            if lonely is None:
                lonely = live[i]
        elif lonely is None:
            return None
        # (b) mark the variables that one live node holds.
        for v in lonely:
            h = holders[v]
            if len(h) == 1:
                (k,) = h
                del holders[v]
                live[k].discard(v)
                heappush(to_test, k)
        lonely = None


def verify_join_tree(tree: JoinTree) -> bool:
    """Check tree-ness plus the path-connectedness condition for every variable.

    In a tree the nodes holding x induce a forest, connected iff it has one
    edge fewer than nodes: count both per variable.
    """
    n = len(tree.nodes)
    if len(tree.edges) != n - 1:
        return False
    adj = tree.adjacency()
    seen = {0} if n else set()
    stack = [0] if n else []
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return False
    components = Counter(x.name for s in tree.var_sets for x in s)
    for a, b in tree.edges:
        for x in tree.var_sets[a] & tree.var_sets[b]:
            components[x.name] -= 1
    return all(c == 1 for c in components.values())
