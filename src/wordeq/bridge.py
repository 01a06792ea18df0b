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
    binding_ids,
    regex_any_of,
    regex_fold,
    regex_nodes,
    svars,
)


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


def prefix_var(x: Variable) -> Variable:
    return Variable(f"{x.name}_p")


def content_var(x: Variable) -> Variable:
    return Variable(f"{x.name}_c")


def suffix_var(x: Variable) -> Variable:
    return Variable(f"{x.name}_s")


def sercq_to_fccq(p: SercqAst) -> FcCq:
    """Realize a SERCQ as a word-equation query over prefix/content variables.

    Each formula's parse tree has its bindings and the concatenations above
    them as inner nodes, and its variable-free subexpressions as leaves.
    Every parse node is named in pre-order (a binding by its content
    variable, any other by a fresh v) and equals the concatenation of its
    children; a leaf is constrained by its subexpression, and a binding's
    prefix variable is the concatenation of the left siblings on its path
    to the root.
    """
    equations: list[WordEquation] = []
    constraints: list[RegularConstraint] = []
    fresh = FreshVars({f(x).name for x in p.spanner_vars() for f in (prefix_var, content_var)})

    for formula in p.formulas:
        binding = binding_ids(formula)
        if id(formula) not in binding:
            # Variable-free formula: the whole input word must match it.
            constraints.append(RegularConstraint(UNIVERSE, formula))
            continue
        # A node object may recur (X+ holds X twice), so the walk numbers
        # positions, not objects.  An equation is a row [left side, operands]
        # whose operands are replaced by their variables as the walk meets
        # them; a position carries its left siblings up to its parent's row.
        rows: list[list] = [[UNIVERSE, formula]]
        prefixes: list[WordEquation] = []
        stack: list[tuple[RegexAst, tuple[Variable, ...], list, int]] = [(formula, (), rows[0], 1)]
        while stack:
            node, left, row, i = stack.pop()
            left += tuple(row[1:i])
            var = content_var(node.var) if isinstance(node, RBind) else fresh.fresh("v")
            row[i] = var
            if id(node) not in binding:
                constraints.append(RegularConstraint(var, node))
                continue
            if isinstance(node, RBind):
                prefixes.append(WordEquation(prefix_var(node.var), left))
                row = [var, node.inner]
            elif isinstance(node, RConcat):
                row = [var, node.left, node.right]
            else:
                raise ValueError("formula is not synchronized: variables under union or star")
            rows.append(row)
            stack.extend((row[k], left, row, k) for k in range(len(row) - 1, 0, -1))
        equations.extend(WordEquation(row[0], tuple(row[1:])) for row in rows)
        equations.extend(prefixes)

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
    if len(binds) != 1 or regex_fold(formula, _binding_count, share=True) != 1:
        return None
    (i,) = binds

    def rejoin(parts: list[RegexAst]) -> RegexAst:
        return reduce(RConcat, parts) if parts else REpsilon()

    return rejoin(pieces[:i]), pieces[i].var, pieces[i].inner, rejoin(pieces[i + 1:])


def _binding_count(node: RegexAst, operands: list[int]) -> int:
    """The bindings in a node, given its operands' counts: a shared operand
    counts once per occurrence."""
    return sum(operands) + isinstance(node, RBind)


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
