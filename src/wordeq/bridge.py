"""Compilation between the spanner formalism (SERCQ) and word-equation queries."""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .model import (
    Alphabet,
    FcCq,
    FreshVars,
    NotPseudoAcyclicError,
    Pattern,
    RBind,
    RConcat,
    REpsilon,
    RLit,
    RStar,
    RegexAst,
    RegularConstraint,
    UNIVERSE,
    Variable,
    WordEquation,
    regex_any_of,
    regex_fold,
    regex_nodes,
)


def svars(ast: RegexAst) -> set[Variable]:
    """Spanner variables bound anywhere inside a regex formula."""
    return {node.var for node in regex_nodes(ast) if isinstance(node, RBind)}


@dataclass(frozen=True)
class SercqAst:
    """Projection plus equality selections over a join of regex formulas."""

    projection: tuple[Variable, ...]
    equalities: tuple[tuple[Variable, Variable], ...]
    formulas: tuple[RegexAst, ...]

    def spanner_vars(self) -> set[Variable]:
        out: set[Variable] = set()
        for f in self.formulas:
            out |= svars(f)
        return out


# --- parse trees for synchronized regex formulas ------------------------------


@dataclass(frozen=True)
class ParseNode:
    """Node of the formula parse tree: 'concat', 'bind' or 'leaf'."""

    kind: str
    expr: RegexAst
    children: tuple["ParseNode", ...] = ()


def build_parse_tree(ast: RegexAst) -> ParseNode:
    """Parse tree with variable-free subexpressions as leaves."""
    return regex_fold(ast, _parse_node) or ParseNode("leaf", ast)


def _parse_node(node: RegexAst, children: list[Optional[ParseNode]]) -> Optional[ParseNode]:
    """The parse node of a node that binds a variable, given its operands';
    None for a variable-free node."""
    if isinstance(node, RBind):
        (inner,) = children
        return ParseNode("bind", node, (inner or ParseNode("leaf", node.inner),))
    if all(child is None for child in children):
        return None
    if isinstance(node, RConcat):
        left, right = children
        return ParseNode("concat", node, (left or ParseNode("leaf", node.left),
                                          right or ParseNode("leaf", node.right)))
    raise ValueError("formula is not synchronized: variables under union or star")


def prefix_var(x: Variable) -> Variable:
    return Variable(f"{x.name}_p")


def content_var(x: Variable) -> Variable:
    return Variable(f"{x.name}_c")


def suffix_var(x: Variable) -> Variable:
    return Variable(f"{x.name}_s")


def sercq_to_fccq(p: SercqAst) -> FcCq:
    """Realize a SERCQ as a word-equation query over prefix/content variables."""
    equations: list[WordEquation] = []
    constraints: list[RegularConstraint] = []
    fresh = FreshVars({f(x).name for x in p.spanner_vars() for f in (prefix_var, content_var)})

    for formula in p.formulas:
        root = build_parse_tree(formula)
        if root.kind == "leaf":
            # Variable-free formula: the whole input word must match it.
            constraints.append(RegularConstraint(UNIVERSE, root.expr))
            continue

        node_var: dict[int, Variable] = {}
        parent: dict[int, tuple[ParseNode, int]] = {}
        order: list[ParseNode] = []
        todo = [root]
        while todo:
            n = todo.pop()
            order.append(n)
            for i, c in enumerate(n.children):
                parent[id(c)] = (n, i)
            todo.extend(reversed(n.children))
        for n in order:
            if n.kind == "bind":
                node_var[id(n)] = content_var(n.expr.var)  # type: ignore[attr-defined]
            else:
                node_var[id(n)] = fresh.fresh("v")

        equations.append(WordEquation(UNIVERSE, (node_var[id(root)],)))
        for n in order:
            v = node_var[id(n)]
            if n.kind == "concat":
                l, r = n.children
                equations.append(WordEquation(v, (node_var[id(l)], node_var[id(r)])))
            elif n.kind == "bind":
                equations.append(WordEquation(v, (node_var[id(n.children[0])],)))
            else:
                constraints.append(RegularConstraint(v, n.expr))

        def prefix_pattern(n: ParseNode) -> Pattern:
            # Concatenation of left-sibling variables along the path to the root.
            cur = n
            parts: list[Variable] = []
            while id(cur) in parent:
                par, idx = parent[id(cur)]
                if par.kind == "concat" and idx == 1:
                    parts.append(node_var[id(par.children[0])])
                cur = par
            return tuple(reversed(parts))

        for n in order:
            if n.kind == "bind":
                x = n.expr.var  # type: ignore[attr-defined]
                equations.append(WordEquation(prefix_var(x), prefix_pattern(n)))

    for x, y in p.equalities:
        equations.append(WordEquation(content_var(x), (content_var(y),)))

    head: list[Variable] = []
    for x in p.projection:
        head.extend([prefix_var(x), content_var(x)])
    return FcCq(tuple(head), tuple(equations), tuple(constraints))


def to_structured_normal_form(q: FcCq) -> FcCq:
    """Equivalent query with the universe variable on every left-hand side
    and absent from every right-hand side."""
    fresh = FreshVars(v.name for v in q.variables() | set(q.head))
    work = list(q.equations)
    constraints = list(q.constraints)
    out: list[WordEquation] = []

    # Step one: eliminate the universe variable from right-hand sides.
    while work:
        eq = work.pop(0)
        split = next((i for i, it in enumerate(eq.rhs)
                      if isinstance(it, Variable) and it.is_universe), None)
        if split is None:
            out.append(eq)
            continue
        before, after = eq.rhs[:split], eq.rhs[split + 1:]
        if not eq.lhs.is_universe:
            work.append(WordEquation(UNIVERSE, (eq.lhs,)))
        z = fresh.fresh("z")
        work.append(WordEquation(z, before))
        work.append(WordEquation(z, after))
        work.append(WordEquation(z, ()))

    # Step two: relocate non-universe left-hand sides behind fresh context.
    anchors: dict[Variable, tuple[Variable, Variable]] = {}
    final: list[WordEquation] = []
    for eq in out:
        if eq.lhs.is_universe:
            final.append(eq)
            continue
        if eq.lhs not in anchors:
            p, s = fresh.fresh(f"p_{eq.lhs.name}"), fresh.fresh(f"s_{eq.lhs.name}")
            anchors[eq.lhs] = (p, s)
            final.append(WordEquation(UNIVERSE, (p, eq.lhs, s)))
        p, s = anchors[eq.lhs]
        final.append(WordEquation(UNIVERSE, (p,) + eq.rhs + (s,)))

    return FcCq(q.head, tuple(final), tuple(constraints))


def fccq_to_sercq(q: FcCq, alphabet: Alphabet) -> SercqAst:
    """Realize a word-equation query as a SERCQ (structured normal form first)."""
    snf = to_structured_normal_form(q)
    sigma_star = RStar(regex_any_of(alphabet.symbols))
    fresh = FreshVars(v.name for v in snf.variables() | set(snf.head))

    formulas: list[RegexAst] = []
    equalities: list[tuple[Variable, Variable]] = []
    bound: set[Variable] = set()

    def bind(x: Variable, inner: RegexAst) -> RegexAst:
        if x not in bound:
            bound.add(x)
            return RBind(x, inner)
        alias = fresh.fresh(x.name + "_")
        equalities.append((x, alias))
        return RBind(alias, inner)

    for eq in snf.equations:
        assert eq.lhs.is_universe
        node: Optional[RegexAst] = None
        for item in eq.rhs:
            piece: RegexAst
            if isinstance(item, Variable):
                piece = bind(item, sigma_star)
            else:
                piece = RLit(item)
            node = piece if node is None else RConcat(node, piece)
        formulas.append(node if node is not None else REpsilon())

    for c in snf.constraints:
        if c.var.is_universe:
            formulas.append(c.regex)
        elif c.var not in bound:
            formulas.append(RConcat(RConcat(sigma_star, bind(c.var, c.regex)), sigma_star))
        else:
            alias = fresh.fresh(c.var.name + "_")
            equalities.append((c.var, alias))
            formulas.append(RConcat(RConcat(sigma_star, RBind(alias, c.regex)), sigma_star))

    return SercqAst(tuple(snf.head), tuple(equalities), tuple(formulas))


# --- the pseudo-acyclic fast path ---------------------------------------------


def _single_binding_shape(formula: RegexAst) -> Optional[tuple[RegexAst, Variable, RegexAst, RegexAst]]:
    """Split a formula of shape before . x{inner} . after; None if not that shape."""
    pieces = [node for node in regex_nodes(formula, RConcat) if not isinstance(node, RConcat)]
    binds = [i for i, piece in enumerate(pieces) if isinstance(piece, RBind)]
    if len(binds) != 1 or sum(isinstance(node, RBind) for node in regex_nodes(formula)) != 1:
        return None
    (i,) = binds

    def rejoin(parts: list[RegexAst]) -> RegexAst:
        return reduce(RConcat, parts) if parts else REpsilon()

    return rejoin(pieces[:i]), pieces[i].var, pieces[i].inner, rejoin(pieces[i + 1:])


def is_pseudo_acyclic(p: SercqAst) -> bool:
    """True iff every formula is variable-free except for one top-level binding."""
    return all(_single_binding_shape(f) is not None for f in p.formulas)


def pseudo_acyclic_to_acyclic_fccq(p: SercqAst) -> FcCq:
    """Acyclic realization of a pseudo-acyclic SERCQ.

    One prefix/content/suffix split per spanner variable, three regular
    constraints per formula, and one content equation per spanning-forest edge
    of the equality graph.
    """
    shapes = []
    for formula in p.formulas:
        shape = _single_binding_shape(formula)
        if shape is None:
            raise NotPseudoAcyclicError("some formula is not of the before.x{inner}.after shape")
        shapes.append(shape)

    equations: list[WordEquation] = []
    constraints: list[RegularConstraint] = []
    # Each formula binds one variable, so the shapes name every spanner variable.
    fresh = FreshVars({f(x).name for _, x, _, _ in shapes
                       for f in (prefix_var, content_var, suffix_var)})

    seen: set[Variable] = set()
    for before, x, inner, after in shapes:
        if x not in seen:
            seen.add(x)
            z = fresh.fresh("z")
            equations.append(WordEquation(UNIVERSE, (prefix_var(x), z)))
            equations.append(WordEquation(z, (content_var(x), suffix_var(x))))
        constraints.append(RegularConstraint(prefix_var(x), before))
        constraints.append(RegularConstraint(content_var(x), inner))
        constraints.append(RegularConstraint(suffix_var(x), after))

    # Spanning forest of the equality graph via union-find, in input order;
    # dropped edges are implied by transitivity.
    root: dict[Variable, Variable] = {}

    def find(v: Variable) -> Variable:
        while root.get(v, v) != v:
            root[v] = root.get(root[v], root[v])
            v = root[v]
        return v

    for x, y in p.equalities:
        rx, ry = find(x), find(y)
        if rx != ry:
            root[rx] = ry
            equations.append(WordEquation(content_var(x), (content_var(y),)))

    head: list[Variable] = []
    for x in p.projection:
        head.extend([prefix_var(x), content_var(x)])
    return FcCq(tuple(head), tuple(equations), tuple(constraints))
