"""Compilation between the spanner formalism (SERCQ) and word-equation queries."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
    RUnion,
    RegexAst,
    RegularConstraint,
    UNIVERSE,
    Variable,
    WordEquation,
    regex_any_of,
)
from .planner import to_structured_normal_form


def svars(ast: RegexAst) -> set[Variable]:
    """Spanner variables bound anywhere inside a regex formula."""
    if isinstance(ast, RBind):
        return {ast.var} | svars(ast.inner)
    if isinstance(ast, (RUnion, RConcat)):
        return svars(ast.left) | svars(ast.right)
    if isinstance(ast, RStar):
        return svars(ast.inner)
    return set()


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
    if isinstance(ast, RConcat) and svars(ast):
        return ParseNode("concat", ast, (build_parse_tree(ast.left), build_parse_tree(ast.right)))
    if isinstance(ast, RBind):
        return ParseNode("bind", ast, (build_parse_tree(ast.inner),))
    if svars(ast):
        raise ValueError("formula is not synchronized: variables under union or star")
    return ParseNode("leaf", ast)


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
    used = {prefix_var(x).name for x in p.spanner_vars()}
    used |= {content_var(x).name for x in p.spanner_vars()}
    fresh = FreshVars(used)

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


def _concat_chain(ast: RegexAst) -> Iterator[RegexAst]:
    if isinstance(ast, RConcat):
        yield from _concat_chain(ast.left)
        yield from _concat_chain(ast.right)
    else:
        yield ast


def _single_binding_shape(formula: RegexAst) -> Optional[tuple[RegexAst, Variable, RegexAst, RegexAst]]:
    """Split a formula of shape before . x{inner} . after; None if not that shape."""
    pieces = list(_concat_chain(formula))
    binds = [i for i, p in enumerate(pieces) if isinstance(p, RBind)]
    if len(binds) != 1:
        return None
    i = binds[0]
    bind_node = pieces[i]
    assert isinstance(bind_node, RBind)
    if svars(bind_node.inner):
        return None
    for j, p in enumerate(pieces):
        if j != i and svars(p):
            return None

    def rejoin(parts: list[RegexAst]) -> RegexAst:
        if not parts:
            return REpsilon()
        node = parts[0]
        for p in parts[1:]:
            node = RConcat(node, p)
        return node

    return rejoin(pieces[:i]), bind_node.var, bind_node.inner, rejoin(pieces[i + 1:])


def is_pseudo_acyclic(p: SercqAst) -> bool:
    """True iff every formula is variable-free except for one top-level binding."""
    return all(_single_binding_shape(f) is not None for f in p.formulas)


def pseudo_acyclic_to_acyclic_fccq(p: SercqAst) -> FcCq:
    """Acyclic realization of a pseudo-acyclic SERCQ.

    One prefix/content/suffix split per spanner variable, three regular
    constraints per formula, and one content equation per spanning-forest edge
    of the equality graph.
    """
    if not is_pseudo_acyclic(p):
        raise NotPseudoAcyclicError("some formula is not of the before.x{inner}.after shape")

    equations: list[WordEquation] = []
    constraints: list[RegularConstraint] = []
    fresh = FreshVars(
        {prefix_var(x).name for x in p.spanner_vars()}
        | {content_var(x).name for x in p.spanner_vars()}
        | {suffix_var(x).name for x in p.spanner_vars()}
    )

    seen: set[Variable] = set()
    for formula in p.formulas:
        shape = _single_binding_shape(formula)
        assert shape is not None
        before, x, inner, after = shape
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
