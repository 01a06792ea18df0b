"""Materialized per-atom relations over factor ids, semi-join reduction over
the plan's join tree, and the enumeration phase, a walk that looks rows up in
per-node indexes (Yannakakis 1981, "Algorithms for acyclic database schemes").

The planner's normal form is the contract: a node is a regular constraint, a
copy `z = x`, a square `z = x.x` or a binary `z = x.y`, with `u` only on the
left and the left side not on the right.  `materialize_atom` raises
ValueError on any other equation.  `_rows` dispatches once on the shape
(grounded or not) and yields its schema and rows; a grounded one (`u` on the
left) is over its right side alone.  `_project` then builds the relation,
the one place a generated relation is built.

Each node's relation is generated already projected onto the variables it
keeps: the head (none for `check`) and those it shares with a join-tree
neighbour, the only ones a semi-join or the walk reads.  A binary equation
that keeps at most one of its variables is generated without its cuts: a
kept left side is every factor with a cut, a kept right side with a free
left side is every factor (`x = x.epsilon`), a grounded `u = x.y` keeps the
n + 1 prefixes as x, and with nothing kept the relation is `{()}`.  So
`check` of `x = y.z` builds one row, not ~n^3/6.

Relations are generated from the join tree's most selective node outward, in
BFS order, each child only for the ids its parent's rows allow, so dangling
tuples are mostly never built.  An inner node is semi-joined with its parent
before its children are generated; a leaf is not.  Then the semi-join passes
reduce them:
`model_check` runs the bottom-up pass, `full_reduction` both."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Optional

from .index import WordIndex
from .model import (
    Alphabet,
    CyclicQueryError,
    FcCq,
    HasConstraintsError,
    JoinTree,
    RegularConstraint,
    SmallEquation,
    Variable,
)
from .oracle import brute_evaluate
from .planner import Plan, plan


@dataclass(frozen=True)
class Relation:
    """Set of rows over an ordered schema of variables (factor ids)."""

    schema: tuple[Variable, ...]
    rows: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.rows and set(map(len, self.rows)) != {len(self.schema)}:
            raise ValueError("row arity does not match the schema")


@dataclass(frozen=True)
class ResultTuple:
    """One answer: head variables mapped to factor ids (canonical spans)."""

    assignment: tuple[tuple[Variable, int], ...]

    def words(self, ix: WordIndex) -> dict[str, str]:
        return {v.name: ix.word_of(f) for v, f in self.assignment}

    def to_json_obj(self, ix: WordIndex) -> dict:
        out = {}
        for v, f in self.assignment:
            start, end = ix.occurrence(f)
            out[v.name] = {"word": ix.word[start:end], "span": [start + 1, end + 1]}
        return out


def _values(positions: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A row's values at `positions`, as a tuple for any number of them."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


def _project(schema: tuple[Variable, ...], rows: Iterable[tuple[int, ...]],
             keep: AbstractSet[Variable]) -> Relation:
    """The relation of `rows` over `schema`, projected onto `keep`: the one
    place a generated relation is built."""
    cols = [i for i, x in enumerate(schema) if x in keep]
    if len(cols) == len(schema):
        return Relation(schema, frozenset(rows))
    return Relation(tuple(schema[i] for i in cols), frozenset(map(_values(cols), rows)))


def _prefix_walk(table: list[list[int]], xs: AbstractSet[int],
                 lengths: set[int]) -> Iterator[tuple[int, int, int]]:
    """(z, x, y) with z = x.y for every occurrence of an x in `xs` (whose
    lengths are `lengths`), extended by each factor that follows it."""
    n = len(table) - 1
    for i, row in enumerate(table):
        for length in lengths:
            if length <= n - i and row[length] in xs:
                yield from zip(row[length:], repeat(row[length]), table[i + length])


def _suffix_walk(table: list[list[int]], ys: AbstractSet[int],
                 lengths: set[int]) -> Iterator[tuple[int, int, int]]:
    """(z, x, y) with z = x.y for every occurrence of a y in `ys`, extended
    by each factor that precedes it: the mirror of `_prefix_walk`."""
    n = len(table) - 1
    for p, row in enumerate(table):
        for length in lengths:
            if length <= n - p and row[length] in ys:
                y, end = row[length], p + length
                for s in range(p + 1):
                    at = table[s]
                    yield at[end - s], at[p - s], y


def _rows(ix: WordIndex, atom, allowed: dict[Variable, AbstractSet[int]],
          keep: AbstractSet[Variable]) -> tuple[tuple[Variable, ...], Iterable[tuple[int, ...]]]:
    """The schema of an atom in the planner's normal form and its rows,
    generated inside `allowed` as `materialize_atom` describes.  A binary
    equation keeping at most one variable other than `u` yields only that
    column wherever no cut is needed to find it."""
    wid = ix.whole_word_id()
    if isinstance(atom, RegularConstraint):
        if atom.var.is_universe:
            return (), [()] if ix.regex_members(atom.regex, {wid}) else []
        return (atom.var,), zip(ix.regex_members(atom.regex, allowed.get(atom.var)))
    z, x, y = atom.lhs, atom.rhs[0], atom.rhs[-1]
    if len(atom.rhs) == 1:
        if z.is_universe:
            return (x,), [(wid,)]
        ids = allowed.get(z, allowed.get(x))
        return (z, x), ((f, f) for f in (ix.all_factor_ids() if ids is None else ids))
    square = x == y
    if z.is_universe and square:
        # u = x.x: the word's middle cut.
        root = ix.square_root(wid)
        return (x,), [] if root is None else [(root,)]
    kept = [t for t in dict.fromkeys((z, x, y)) if t in keep and not t.is_universe]
    if not kept:
        # epsilon satisfies z = x.y, and x = w, y = epsilon satisfies u = x.y.
        return (), [()] if all(allowed.values()) else []
    if z.is_universe:
        if kept == [x]:
            # The prefix of length k is its own leftmost occurrence, id k.
            ids = allowed.get(x)
            prefixes = range(ix.n + 1)
            return (x,), zip(prefixes if ids is None else [k for k in prefixes if k in ids])
        # All the word's cuts; the suffixes' leftmost starts alone would take
        # a Z-function pass.
        return (x, y), ix.splits(wid)
    zs = allowed.get(z)
    if kept == [z]:
        # Every factor has a cut; a square only the middle one.
        ids = ix.all_factor_ids() if zs is None else zs
        return (z,), zip([f for f in ids if ix.square_root(f) is not None] if square else ids)
    if len(kept) == 1 and not square:
        # z = x.epsilon or z = epsilon.y: every factor.
        ids = allowed.get(kept[0])
        return (kept[0],), zip(ix.all_factor_ids() if ids is None else ids)
    table = ix.factor_table()       # a square's roots, too, are then two lookups
    if square:
        # z = x.x: only the middle cut can give equal halves.
        roots = ((f, ix.square_root(f)) for f in (ix.all_factor_ids() if zs is None else zs))
        return (z, x), (row for row in roots if row[1] is not None)
    if zs is None:
        for side, walk in ((x, _prefix_walk), (y, _suffix_walk)):
            ids = allowed.get(side)
            if ids is not None:
                lengths = {end - start for start, end in map(ix.occurrence, ids)}
                return (z, x, y), walk(table, ids, lengths)
    return (z, x, y), ((f, *cut) for f in (ix.all_factor_ids() if zs is None else zs)
                       for cut in ix.splits(f))


def materialize_atom(ix: WordIndex, atom,
                     allowed: Optional[dict[Variable, AbstractSet[int]]] = None,
                     keep: Optional[AbstractSet[Variable]] = None) -> Relation:
    """Relation of one atom in the planner's normal form: a regular
    constraint (the factors it accepts), a copy `z = x` (the diagonal), a
    square `z = x.x` (each factor cut at its middle) or a binary `z = x.y`
    (every cut).  `u` may stand only on the left; a grounded atom's rows are
    over its right side: `u = x` and `u = x.x` yield `(x,)`.  Any other
    equation raises ValueError.

    `allowed` maps variables to the ids a neighbour's rows allow them.  The
    relation then keeps every row inside it and may omit rows outside it:
    only allowed left sides are cut, and with a free left side the table is
    walked from the allowed occurrences of one right-side variable.

    The relation is projected onto those of its variables in `keep`, by
    default all of them."""
    if isinstance(atom, SmallEquation) and (
            len(atom.rhs) > 2 or atom.lhs in atom.rhs or any(x.is_universe for x in atom.rhs)):
        raise ValueError(f"{atom} is outside the planner's normal form: z = x or z = x.y, "
                         "u only on the left, z not on the right")
    if keep is None:
        keep = {atom.var} if isinstance(atom, RegularConstraint) else atom.variables()
    return _project(*_rows(ix, atom, allowed or {}, keep), keep)


def semijoin(r: Relation, s: Relation) -> Relation:
    """Rows of r whose shared-variable projection appears in s."""
    shared = [v for v in s.schema if v in r.schema]
    if not shared:
        return r if s.rows else Relation(r.schema, frozenset())
    r_key = itemgetter(*(r.schema.index(v) for v in shared))
    # With two or more columns, all shared, the rows of s are the keys.
    keys = s.rows if len(shared) == len(s.schema) > 1 else set(
        map(itemgetter(*(s.schema.index(v) for v in shared)), s.rows))
    return Relation(r.schema, frozenset(row for row in r.rows if r_key(row) in keys))


def _orientation(tree: JoinTree, root: int = 0) -> tuple[list[int], list[list[int]], list[Optional[int]]]:
    """BFS order, children lists and parent pointers for a rooted traversal."""
    adj = tree.adjacency()
    order = [root]
    parent: list[Optional[int]] = [None] * len(tree.nodes)
    seen = {root}
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    children: list[list[int]] = [[] for _ in tree.nodes]
    for v in order[1:]:
        children[parent[v]].append(v)  # type: ignore[index]
    return order, children, parent


def _root(tree: JoinTree, ix: WordIndex, sized: dict[int, Relation],
          keeps: list[set[Variable]]) -> int:
    """The most selective node: the first grounded equation, else the regular
    constraint with the fewest members, else node 0.  The constraints sized
    here keep their relations in `sized`, so no regex runs twice."""
    for i, node in enumerate(tree.nodes):
        if isinstance(node, SmallEquation) and node.lhs.is_universe:
            return i
    for i, node in enumerate(tree.nodes):
        if isinstance(node, RegularConstraint) and not node.var.is_universe:
            sized[i] = materialize_atom(ix, node, keep=keeps[i])
    return min(sized, key=lambda i: len(sized[i].rows), default=0)


def _materialize_tree(tree: JoinTree, ix: WordIndex, head: tuple[Variable, ...]
                      ) -> tuple[list[Relation], list[int], list[list[int]], list[Optional[int]]]:
    """Relations in BFS order from the most selective node, each projected
    onto `head` and the variables it shares with a join-tree neighbour (sound
    by the join-tree property: a variable two nodes share is kept on the path
    between them) and generated only for the ids its parent's relation
    allows; with the tree's orientation from that root.  A node with children
    is semi-joined with its parent before they are generated from it, so rows
    its generation let through (a grounded or pre-sized node, or one sharing
    two variables with its parent) never widen theirs; a leaf is left to the
    semi-join passes."""
    adj = tree.adjacency()
    keeps = [set(head).union(*(tree.var_sets[w] for w in adj[v])) for v in range(len(tree.nodes))]
    sized: dict[int, Relation] = {}
    order, children, parent = _orientation(tree, _root(tree, ix, sized, keeps))
    rels: list[Relation] = [None] * len(tree.nodes)  # type: ignore[list-item]
    for v in order:
        p = parent[v]
        rel = sized.get(v)
        if rel is None:
            node = tree.nodes[v]
            # A grounded equation's rows are the word's cuts whatever its parent allows.
            grounded = isinstance(node, SmallEquation) and node.lhs.is_universe
            allowed = None if p is None or grounded else {
                x: {row[i] for row in rels[p].rows}
                for i, x in enumerate(rels[p].schema) if x in tree.var_sets[v]}
            rel = materialize_atom(ix, node, allowed, keeps[v])
        rels[v] = rel if p is None or not children[v] else semijoin(rel, rels[p])
    return rels, order, children, parent


def _bottom_up(rels: list[Relation], order: list[int], children: list[list[int]]) -> None:
    for v in reversed(order):
        for c in children[v]:
            rels[v] = semijoin(rels[v], rels[c])


def _top_down(rels: list[Relation], order: list[int], parent: list[Optional[int]]) -> None:
    for v in order:
        p = parent[v]
        if p is not None:
            rels[v] = semijoin(rels[v], rels[p])


def model_check(plan: Plan, ix: WordIndex) -> bool:
    """Bottom-up semi-join pass; true iff the root keeps at least one tuple."""
    rels, order, children, _ = _materialize_tree(plan.tree, ix, ())
    _bottom_up(rels, order, children)
    return bool(rels[order[0]].rows)


def full_reduction(plan: Plan, ix: WordIndex) -> list[Relation]:
    """Bottom-up then top-down semi-joins: no dangling tuples remain."""
    rels, order, children, parent = _materialize_tree(plan.tree, ix, plan.query.head)
    _bottom_up(rels, order, children)
    _top_down(rels, order, parent)
    return rels


# Module-level, not a closure: a closure that calls itself is a reference cycle.
def _walk(steps: list, at: int, binding: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if at == len(steps):
        yield binding
        return
    key, index = steps[at]
    for new in index[key(binding)]:
        yield from _walk(steps, at + 1, binding + new)


def enumerate_results(plan: Plan, ix: WordIndex) -> Iterator[ResultTuple]:
    """Yannakakis' enumeration phase.  Each fully reduced relation, already
    projected onto the head and the variables it shares with a join-tree
    neighbour, is indexed, in BFS order from node 0, on those it shares with
    its parent (a relation with none bound is stored as it is), and freed.
    The walk extends a flat binding by the rows it looks up: every lookup
    finds some; a node with no new variable is skipped.  `seen` drops repeated answers (ids are canonical per word), the
    one part of the delay that is not constant: a head that is not
    free-connex, like `(x, y)` of `x = z1.z2, y = z1.z3`, repeats answers."""
    rels = full_reduction(plan, ix)
    if not all(rel.rows for rel in rels):
        return
    head = plan.query.head
    slot: dict[Variable, int] = {}
    steps: list[tuple[Callable, dict]] = []
    for v in _orientation(plan.tree)[0]:
        schema = rels[v].schema
        bound = [i for i, x in enumerate(schema) if x in slot]
        new = [i for i, x in enumerate(schema) if x not in slot]
        if new:
            if not bound:  # the rows are the values
                index: dict = {(): rels[v].rows}
            else:
                key, value, index = _values(bound), _values(new), {}
                for row in rels[v].rows:
                    index.setdefault(key(row), set()).add(value(row))
            steps.append((_values([slot[schema[i]] for i in bound]), index))
            slot.update({schema[i]: len(slot) + k for k, i in enumerate(new)})
        rels[v] = None  # type: ignore[call-overload]
    read_head = _values([slot[x] for x in head])
    seen: set[tuple[int, ...]] = set()
    for binding in _walk(steps, 0, ()):
        answer = read_head(binding)
        if answer not in seen:
            seen.add(answer)
            yield ResultTuple(tuple(zip(head, answer)))


def brute_results(q: FcCq, ix: WordIndex) -> Iterator[ResultTuple]:
    """The cyclic fallback: brute-force answers in sorted word order, each
    head word mapped to its canonical factor id (every answer word is a
    factor of the input, so the lookup always finds one)."""
    for row in sorted(brute_evaluate(q, ix.word)):
        yield ResultTuple(tuple((v, ix.id_of_word(w)) for v, w in zip(q.head, row)))


def check_universality(q: FcCq, alphabet: Alphabet) -> bool:
    """A Boolean constraint-free query accepts every word iff it accepts the
    empty word and some single letter.

    Membership on the two candidate words runs through the engine when the
    query is acyclic, through brute force otherwise.
    """
    if q.head:
        raise ValueError("universality is defined for Boolean queries")
    if q.constraints:
        raise HasConstraintsError("universality shortcut only applies without regular constraints")
    try:
        p: Optional[Plan] = plan(q)
    except CyclicQueryError:
        p = None

    def member(w: str) -> bool:
        ix = WordIndex(w)
        if p is None:
            return next(brute_results(q, ix), None) is not None
        return model_check(p, ix)

    return member("") and any(member(a) for a in alphabet)
