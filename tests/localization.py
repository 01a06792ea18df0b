"""The localization characterization of acyclic bracketings.

A binary bracketing is acyclic exactly when the concatenation tree of its
decomposition is x-localized for every variable x.  The engine decides
acyclicity by its own search, so this reference lives beside the tests that
hold the two against each other and against `oracle.bracketing_is_acyclic`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from wordeq.decompose import _expanded
from wordeq.model import BLeaf, Bracketing, SmallEquation, TwoFcCq, UNIVERSE, Variable
from wordeq.oracle import decompose_bracketing


def bracketing_arity(b: Bracketing) -> int:
    if isinstance(b, BLeaf):
        return 2
    return max(len(b.children), *(bracketing_arity(c) for c in b.children))


@dataclass(frozen=True)
class ConcatenationTree:
    """Pruned derivation tree of a decomposition.

    ``children[v]`` lists the (ordered, left to right) children of node ``v``;
    pruned nodes keep their label but have no children.
    """

    labels: tuple[Variable, ...]
    children: tuple[tuple[int, ...], ...]
    root: int = 0

    def parents(self) -> list[Optional[int]]:
        par: list[Optional[int]] = [None] * len(self.labels)
        for v, kids in enumerate(self.children):
            for c in kids:
                par[c] = v
        return par

    def x_parents(self, x: Variable) -> list[int]:
        """Nodes with a child labelled ``x``."""
        return [v for v, kids in enumerate(self.children)
                if any(self.labels[c] == x for c in kids)]

    def is_x_localized(self, x: Variable) -> bool:
        """True iff all nodes on paths between x-parents are x-parents."""
        marked = set(self.x_parents(x))
        if len(marked) <= 1:
            return True
        # The x-parents must induce a connected subtree.
        par = self.parents()
        depth = [0] * len(self.labels)
        order = [self.root]
        for v in order:
            for c in self.children[v]:
                depth[c] = depth[v] + 1
                order.append(c)
        # Connected iff every marked node except the shallowest has its parent
        # marked: following parents from any marked node then reaches it.
        top = min(marked, key=lambda v: depth[v])
        return all(v == top or par[v] in marked for v in marked)

    def is_localized(self) -> bool:
        seen: set[Variable] = set()
        for v, kids in enumerate(self.children):
            for c in kids:
                seen.add(self.labels[c])
        return all(self.is_x_localized(x) for x in seen)


def concat_tree_of(two: TwoFcCq, root_var: Variable) -> ConcatenationTree:
    """Recursive (then pruned) concatenation tree of a decomposition."""
    defs = two.defining()
    root_eq = two.root_equation()
    assert root_eq.lhs == root_var
    labels: list[Variable] = []
    children: list[tuple[int, ...]] = []

    def build(label: Variable, expand: Optional[SmallEquation]) -> int:
        idx = len(labels)
        labels.append(label)
        children.append(())
        if expand is not None:
            children[idx] = tuple(build(v, defs.get(v)) for v in expand.rhs)
        return idx

    build(root_var, root_eq)
    keep = set(_expanded(labels, children))
    live = sorted({0}.union(*(children[v] for v in keep)))
    at = {v: i for i, v in enumerate(live)}
    return ConcatenationTree(
        labels=tuple(labels[v] for v in live),
        children=tuple(tuple(at[c] for c in children[v]) if v in keep else () for v in live),
    )


def is_acyclic_bracketing(b: Bracketing) -> bool:
    """True iff the decomposition of the bracketing is x-localized for every x.

    Only meaningful for binary bracketings: at higher arities localization is
    sufficient but no longer necessary for acyclicity.
    """
    if bracketing_arity(b) > 2:
        raise ValueError("localization characterizes acyclicity for binary bracketings only")
    two = decompose_bracketing(b, UNIVERSE)
    return concat_tree_of(two, UNIVERSE).is_localized()
