"""Whole-query pipeline: normalization, weak join tree, cyclicity prechecks,
per-atom constrained decomposition, and final join-tree assembly."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, starmap
from typing import Optional

from .decompose import decompose_atom_with_constraints, is_acyclic_pattern, terminal_free_core
from .model import (
    CyclicQueryError,
    FcCq,
    FreshVars,
    JoinTree,
    Pattern,
    REpsilon,
    RegularConstraint,
    SmallEquation,
    TwoFcCq,
    UNIVERSE,
    Variable,
    WordEquation,
    gyo,
    is_terminal_free,
    regex_word,
    verify_join_tree,
)


@dataclass(frozen=True)
class NormalizedQuery:
    """Equivalent query whose equations all have terminal-free right sides
    that avoid the left side and the universe variable, pairwise distinct.

    Epsilon requirements surface as regular constraints (x in //) instead of
    empty right-hand sides; ``trace`` records the rewrites for explanation.
    """

    query: FcCq
    trace: tuple[str, ...]
    epsilon_vars: frozenset[Variable]


def _shown(p: Pattern) -> str:
    return ".".join(it.name if isinstance(it, Variable) else repr(it) for it in p) or "''"


def _implied_copy(equations: list[WordEquation]) -> Optional[int]:
    """Index of the first copy `x = y` whose sides earlier copies already
    equate, else None."""
    root: dict[Variable, Variable] = {}

    def find(x: Variable) -> Variable:
        while x in root:
            x = root[x]
        return x

    for idx, eq in enumerate(equations):
        if len(eq.rhs) == 1:
            a, b = find(eq.lhs), find(eq.rhs[0])  # type: ignore[arg-type]
            if a == b:
                return idx
            root[a] = b
    return None


def normalize(q: FcCq) -> NormalizedQuery:
    """Rewrite to normalized form; the result is equivalent on all words."""
    fresh = FreshVars(v.name for v in q.variables() | set(q.head))
    equations = list(q.equations)
    constraints = list(q.constraints)
    trace: list[str] = []
    eps_vars: set[Variable] = set()

    def add_eps(v: Variable) -> None:
        if v not in eps_vars:
            eps_vars.add(v)
            constraints.append(RegularConstraint(v, REpsilon()))

    # Terminal blocks become fresh variables pinned by regular constraints.
    for idx, eq in enumerate(equations):
        if is_terminal_free(eq.rhs):
            continue
        core, blocks = terminal_free_core(eq.rhs, fresh)
        constraints.extend(RegularConstraint(z, regex_word(block)) for z, block in blocks.items())
        equations[idx] = WordEquation(eq.lhs, core)
        trace.append(f"terminal blocks of {eq.lhs} = {_shown(eq.rhs)} replaced by fresh variables")

    def swallow(eq: WordEquation) -> WordEquation:
        # The universe variable on the right pins the left side to the word;
        # occurring twice or more (|x| >= 2|w|), it makes the word epsilon.
        if eq.rhs.count(UNIVERSE) >= 2:
            add_eps(UNIVERSE)
        for v in eq.rhs:
            if not v.is_universe:
                add_eps(v)
        trace.append(f"{eq.lhs} swallows the whole word; rewritten with u on the left")
        return WordEquation(UNIVERSE, (eq.lhs,))

    # Per-equation rules, in order.  None of their rewrites lets one of them
    # apply again: `x = z_fresh` and `u = x` (x is not u) are left alone.
    ruled: list[WordEquation] = []
    for eq in equations:
        repeats = eq.rhs.count(eq.lhs)
        if len(eq.rhs) == 0:
            # Empty right side pins the left side to epsilon.
            add_eps(eq.lhs)
            trace.append(f"{eq.lhs} = '' recorded as an epsilon constraint")
        elif not repeats:
            ruled.append(swallow(eq) if UNIVERSE in eq.rhs else eq)
        else:
            # Left side occurring on the right forces the remainder to
            # epsilon; occurring twice or more (|x| >= 2|x|), it is epsilon
            # itself.
            if repeats >= 2:
                add_eps(eq.lhs)
                trace.append(f"{eq.lhs} occurs {repeats} times on its own right side; "
                             f"it and the remainder forced to epsilon")
            else:
                ruled.append(WordEquation(eq.lhs, (fresh.fresh("z"),)))
                trace.append(f"{eq.lhs} occurs on both sides; remainder forced to epsilon")
            for v in eq.rhs:
                if v != eq.lhs:
                    add_eps(v)
    equations = ruled

    # Duplicate right sides: the later equation becomes a copy of the first.
    # A copy moves only to the left side of an earlier equation with the same
    # right side, so it can come back only round a cycle of copies; such a
    # cycle is dropped, and the scan starts again, before any copy moves.
    seen: dict[tuple, int] = {}
    idx = 0
    while idx < len(equations):
        eq = equations[idx]
        key = tuple(eq.rhs)
        if key not in seen:
            seen[key] = idx
            idx += 1
        elif (first := equations[seen[key]]).lhs == eq.lhs:
            equations.pop(idx)
            trace.append(f"dropped duplicate atom {eq.lhs} = {_shown(eq.rhs)}")
        elif len(key) == 1 and (cycle := _implied_copy(equations)) is not None:
            # A copy closing a cycle of copies is implied by the others;
            # left in, copies would be passed round the cycle forever.
            implied = equations.pop(cycle)
            trace.append(f"dropped copy {implied.lhs} = {_shown(implied.rhs)}, "
                         f"implied by other copies")
            seen.clear()
            idx = 0
        else:
            trace.append(f"{eq.lhs} = {_shown(eq.rhs)} duplicates {first.lhs}; now a copy")
            copy = WordEquation(eq.lhs, (first.lhs,))
            equations[idx] = swallow(copy) if first.lhs == UNIVERSE else copy

    out = FcCq(q.head, tuple(equations), tuple(constraints))
    return NormalizedQuery(out, tuple(trace), frozenset(eps_vars))


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


# --- weak join trees and prechecks ---------------------------------------------


def weak_join_tree(nq: NormalizedQuery) -> Optional[JoinTree]:
    """Mark-and-absorb over whole equations; constraints attach later."""
    eqs = nq.query.equations
    if not eqs:
        return JoinTree((), (), ())
    return gyo([(eq, eq.variables()) for eq in eqs])


def cyclicity_prechecks(nq: NormalizedQuery, weak: Optional[JoinTree]) -> Optional[str]:
    """Reasons the query is definitely cyclic by rules 1, 3 and 4, or None;
    ``plan`` decides rule 2 (a cyclic right side) by each atom's search.

    Atoms on the weak-tree path between two atoms hold all they share, so an
    offending pair has an offending edge: only then are all pairs scanned.
    """
    if weak is None:
        return "rule 1: no weak join tree exists"
    eqs = nq.query.equations

    def offends(i: int, j: int) -> Optional[str]:
        shared = weak.var_sets[i] & weak.var_sets[j]
        if len(shared) > 3:
            return (f"rule 3: atoms {i} and {j} share {len(shared)} variables "
                    f"({', '.join(sorted(v.name for v in shared))})")
        if len(shared) == 3 and (eqs[i].size() > 3 or eqs[j].size() > 3):
            return f"rule 4: atoms {i} and {j} share 3 variables but one is longer than an atom"
        return None

    if not any(starmap(offends, weak.edges)):
        return None
    return next(filter(None, starmap(offends, combinations(range(len(eqs)), 2))))


# --- the full plan ---------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """Decomposed query, its join tree, and bookkeeping for explanation."""

    query: TwoFcCq
    tree: JoinTree
    normalized: NormalizedQuery
    weak_tree: JoinTree
    atom_groups: tuple[tuple[int, ...], ...]   # node indices per original equation

    def explain(self) -> str:
        lines = ["normalized query:"]
        for eq in self.normalized.query.equations:
            lines.append(f"  {eq.lhs} = {_shown(eq.rhs)}")
        for c in self.normalized.query.constraints:
            lines.append(f"  {c.var} in /.../")
        if self.normalized.trace:
            lines.append("rewrites:")
            lines.extend(f"  {t}" for t in self.normalized.trace)
        lines.append("decomposed atoms:")
        for node in self.tree.nodes:
            lines.append(f"  {node}")
        lines.append("join tree edges (shared variables):")
        for a, b in self.tree.edges:
            shared = sorted(v.name for v in self.tree.var_sets[a] & self.tree.var_sets[b])
            lines.append(f"  [{a}] -- [{b}]   {{{', '.join(shared)}}}")
        return "\n".join(lines)


def plan(q: FcCq, prefactor: bool = False) -> Plan:
    """Decide acyclicity and assemble the evaluation plan.

    Raises CyclicQueryError (with the failing stage) when no acyclic
    decomposition exists.
    """
    if prefactor:
        q = prefactor_common_subpatterns(q)
    nq = normalize(q)
    weak = weak_join_tree(nq)
    reason = cyclicity_prechecks(nq, weak)
    if weak is None:
        raise CyclicQueryError("weak-join-tree", reason)

    eqs = nq.query.equations
    fresh = FreshVars(v.name for v in nq.query.variables() | set(nq.query.head))

    incident: dict[int, list[frozenset[Variable]]] = {i: [] for i in range(len(eqs))}
    for a, b in weak.edges:
        label = weak.var_sets[a] & weak.var_sets[b]
        incident[a].append(label)
        incident[b].append(label)

    # One search per atom finds its decomposition and decides rule 2: a
    # decomposition proves the right side acyclic, and pairs only narrow the
    # search, so a failed search without pairs proves it cyclic.  An atom
    # sharing three variables stays verbatim; rule 4 bounds its size.
    decomposed: list[TwoFcCq] = []
    stuck: Optional[str] = None
    for i, eq in enumerate(eqs):
        pairs = {l for l in incident[i] if len(l) == 2}
        verbatim = any(len(l) == 3 for l in incident[i])
        if verbatim:
            psi = TwoFcCq(head=(), equations=(SmallEquation(eq.lhs, eq.rhs),),
                          introduced=frozenset()) if len(eq.rhs) <= 2 else None
        else:
            psi = decompose_atom_with_constraints(eq, pairs, fresh)
        if psi is not None:
            decomposed.append(psi)
        elif not (pairs or verbatim) or not is_acyclic_pattern(eq.rhs):
            raise CyclicQueryError(
                "precheck", f"rule 2: right side of {eq.lhs} = {_shown(eq.rhs)} is a cyclic pattern")
        elif stuck is None:
            stuck = (f"atom {eq.lhs} = {_shown(eq.rhs)} admits no acyclic decomposition "
                     f"covering {sorted(sorted(v.name for v in p) for p in pairs)}")
    if reason is not None:
        raise CyclicQueryError("precheck", reason)
    if stuck is not None:
        raise CyclicQueryError("atom-decomposition", stuck)

    # Per-atom join trees, then cross edges along the weak tree (the skeleton).
    nodes: list[object] = []
    node_vars: list[frozenset[Variable]] = []
    edges: list[tuple[int, int]] = []
    groups: list[tuple[int, ...]] = []
    for psi in decomposed:
        sub = gyo([(e, e.variables()) for e in psi.equations])
        assert sub is not None, "per-atom decomposition lost acyclicity"
        base = len(nodes)
        for e in psi.equations:
            nodes.append(e)
            node_vars.append(frozenset(v for v in e.variables() if not v.is_universe))
        edges.extend((base + a, base + b) for a, b in sub.edges)
        groups.append(tuple(range(base, len(nodes))))

    def anchor(group: tuple[int, ...], needed: frozenset[Variable]) -> int:
        for idx in group:
            if needed <= node_vars[idx]:
                return idx
        raise AssertionError(f"no atom covers {set(needed)}")

    for a, b in weak.edges:
        label = weak.var_sets[a] & weak.var_sets[b]
        edges.append((anchor(groups[a], label), anchor(groups[b], label)))

    # Regular constraints are unary: hang each off the first equation node
    # containing its variable, chaining constraints on variables no equation
    # mentions.
    equation_nodes = len(nodes)
    placed_constraint: dict[Variable, int] = {}
    for c in nq.query.constraints:
        idx = len(nodes)
        nodes.append(c)
        node_vars.append(frozenset() if c.var.is_universe else frozenset([c.var]))
        target: Optional[int] = None
        if not c.var.is_universe:
            target = next((i for i in range(equation_nodes) if c.var in node_vars[i]),
                          placed_constraint.get(c.var))
            placed_constraint.setdefault(c.var, idx)
        if target is None:
            target = 0 if idx > 0 else None
        if target is not None:
            edges.append((target, idx))

    tree = JoinTree(tuple(nodes), tuple(node_vars), tuple(edges))
    assert verify_join_tree(tree), "assembled tree violates the join-tree condition"

    small_eqs = tuple(e for psi in decomposed for e in psi.equations)
    introduced = frozenset().union(*(psi.introduced for psi in decomposed)) if decomposed else frozenset()
    query = TwoFcCq(head=nq.query.head, equations=small_eqs,
                    constraints=nq.query.constraints, introduced=introduced)
    return Plan(query=query, tree=tree, normalized=nq, weak_tree=weak, atom_groups=tuple(groups))


def skeleton_of(p: Plan) -> JoinTree:
    """The plan's join tree contracted to one node per atom: the weak join
    tree, with each edge as a (min, max) pair, in sorted order."""
    weak = p.weak_tree
    return JoinTree(nodes=weak.nodes, var_sets=weak.var_sets,
                    edges=tuple(sorted((min(a, b), max(a, b)) for a, b in weak.edges)))


def prefactor_common_subpatterns(q: FcCq) -> FcCq:
    """Optional rewrite: name maximal common subpatterns shared by two atoms.

    Off by default; it changes which queries pass the prechecks.
    """
    fresh = FreshVars(v.name for v in q.variables() | set(q.head))
    equations = list(q.equations)
    while True:
        best: Optional[tuple[Variable, ...]] = None
        counts: dict[tuple[Variable, ...], set[int]] = {}
        for idx, eq in enumerate(equations):
            rhs = eq.rhs
            if not all(isinstance(v, Variable) for v in rhs):
                continue
            for i in range(len(rhs)):
                for j in range(i + 2, len(rhs) + 1):
                    counts.setdefault(tuple(rhs[i:j]), set()).add(idx)  # type: ignore[arg-type]
        for seq, owners in counts.items():
            if len(owners) >= 2 and (best is None or len(seq) > len(best)):
                best = seq
        if best is None:
            return FcCq(q.head, tuple(equations), q.constraints)
        z = fresh.fresh("w")

        def replace(rhs: Pattern) -> Pattern:
            out: list = []
            i = 0
            while i < len(rhs):
                if tuple(rhs[i:i + len(best)]) == best:
                    out.append(z)
                    i += len(best)
                else:
                    out.append(rhs[i])
                    i += 1
            return tuple(out)

        equations = [WordEquation(eq.lhs, replace(eq.rhs)) for eq in equations]
        equations.append(WordEquation(z, best))
