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
n + 1 prefixes as x or the n + 1 suffixes as y, and with nothing kept the
relation is `{()}`.  So `check` of `x = y.z` builds one row, not ~n^3/6.
A regular constraint that keeps no variable is decided by its first member,
so `check` of `x in /(a|b)*/` lists no factor.

Relations are generated from the join tree's most selective node outward, in
BFS order, each child only for the ids its parent's rows allow, so dangling
tuples are mostly never built.  A binary child `z = x.y` that shares z and
one or both of x and y with its parent is generated from the parent's rows
instead (Yannakakis: generate only what the semi-join keeps): two of its
variables fix the third, so each distinct parent value yields at most one
row, found with one `startswith`.  So `u = x.y.x`, planned as the grounded
root `u = x.z1` and the child `z1 = y.x`, builds O(n) rows and no factor
table.  A child sharing x and y alone finds z with one `str.find` over the
word per parent value, so it is generated that way only under a parent of at
most n + 1 rows; a larger parent was cut from the factor table, and cutting
the child's allowed z with list reads is then faster.
An inner node not generated from its parent's rows is semi-joined with them
before its children are generated; a leaf is not.  Then the semi-join
passes reduce them: `model_check` runs the bottom-up pass, `full_reduction`
both.  A semi-join first checks in one pass, which stops at the first row
to go, whether any row goes; one that removes none returns its input.

Enumeration walks the reduced relations with `map` and `chain`, so no
Python frame runs per binding.  A head that fixes every variable the walk
binds, through the equations' functional dependencies, streams its answers
with no dedupe set; any other head keeps one (`enumerate_results`)."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, repeat, tee
from operator import attrgetter, itemgetter
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


class ResultTuple(tuple):
    """One answer: the (head variable, factor id) pairs themselves, each id
    naming its factor's leftmost occurrence (`WordIndex.occurrence`).  A
    tuple, so the walk builds answers with no Python-level constructor."""

    __slots__ = ()

    def words(self, ix: WordIndex) -> dict[str, str]:
        return {v.name: ix.word_of(f) for v, f in self}

    def to_json_obj(self, ix: WordIndex) -> dict:
        word, stride = ix.word, ix.n + 1
        out = {}
        for v, f in self:
            start, length = divmod(f, stride)
            end = start + length
            out[v.name] = {"word": word[start:end], "span": [start + 1, end + 1]}
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


def _pinned_rows(ix: WordIndex, z: Variable, x: Variable, y: Variable, parent: Relation,
                 keep: AbstractSet[Variable]) -> tuple[tuple[Variable, ...], list[tuple[int, ...]]]:
    """The rows of `z = x.y` that join with `parent`, which holds two or all
    three of its variables, generated from the parent's distinct values of
    them: two fix the third, so each value yields at most one row.  With z
    and x fixed, y is the rest of z if z starts with x; with z and y, the
    mirror case; with x and y, z is the two words joined, if it occurs.  The
    third id is computed only when it is kept or needed to find the row."""
    pinned = [t for t in (z, x, y) if t in parent.schema]
    values = set(map(_values([parent.schema.index(t) for t in pinned]), parent.rows))
    word_of = ix.word_of
    if len(pinned) == 3:
        return (z, x, y), [r for r in values if word_of(r[0]) == word_of(r[1]) + word_of(r[2])]
    if z not in pinned:
        rows = ((ix.id_of_word(word_of(a) + word_of(b)), a, b) for a, b in values)
        return (z, x, y), [r for r in rows if r[0] is not None]
    prefix = x in pinned        # else z ends with y, and x is the rest
    rest = y if prefix else x
    out = []
    for fid, part in values:
        start, end = ix.occurrence(fid)
        p_start, p_end = ix.occurrence(part)
        if p_end - p_start > end - start:
            continue
        cut = start + p_end - p_start if prefix else end - p_end + p_start
        if not ix.occurs_at(part, start if prefix else cut):
            continue
        if rest not in keep:
            out.append((fid, part))
        elif prefix:
            out.append((fid, part, ix.factor_at(cut, end)))
        else:
            out.append((fid, ix.factor_at(start, cut), part))
    return (z, x, y) if rest in keep else tuple(pinned), out


def _pins(ix: WordIndex, atom, parent: Relation) -> bool:
    """Whether `materialize_atom` generates `atom` from `parent`'s rows: a
    binary `z = x.y`, not grounded and not a square, that shares z and one
    or both of x and y with it, or x and y alone with a parent of at most
    n + 1 rows (see the module docstring)."""
    if not isinstance(atom, SmallEquation) or len(atom.rhs) != 2:
        return False
    z, (x, y) = atom.lhs, atom.rhs
    shared = {z, x, y}.intersection(parent.schema)
    if z.is_universe or x == y or len(shared) < 2:
        return False
    return z in shared or len(parent.rows) <= ix.n + 1


def _rows(ix: WordIndex, atom, allowed: dict[Variable, AbstractSet[int]],
          keep: AbstractSet[Variable]) -> tuple[tuple[Variable, ...], Iterable[tuple[int, ...]]]:
    """The schema of an atom in the planner's normal form and its rows,
    generated inside `allowed` as `materialize_atom` describes.  A binary
    equation keeping at most one variable other than `u` yields only that
    column wherever no cut is needed to find it."""
    wid = ix.whole_word_id()
    if isinstance(atom, RegularConstraint):
        var = atom.var
        ids = {wid} if var.is_universe else allowed.get(var)
        if var.is_universe or var not in keep:
            # No column is kept: the first member found decides the node.
            return (), [()] if ix.has_member(atom.regex, ids) else []
        return (var,), zip(ix.regex_members(atom.regex, ids))
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
        if kept == [x, y]:
            return (x, y), ix.splits(wid)
        # One column: the prefix of length k is its own leftmost occurrence,
        # id k; the suffixes' ids are read off their leftmost starts.
        (side,) = kept
        ids = allowed.get(side)
        fids = range(ix.n + 1) if side == x else ix.suffix_ids()
        return (side,), zip(fids if ids is None else [f for f in fids if f in ids])
    zs = allowed.get(z)
    if kept == [z]:
        # Every factor has a cut; a square only the middle one.
        ids = ix.all_factor_ids() if zs is None else zs
        return (z,), zip([f for f in ids if ix.square_root(f) is not None] if square else ids)
    if len(kept) == 1 and not square:
        # z = x.epsilon or z = epsilon.y: every factor.
        ids = allowed.get(kept[0])
        return (kept[0],), zip(ix.all_factor_ids() if ids is None else ids)
    if square:
        # z = x.x: only the middle cut can give equal halves.
        roots = ((f, ix.square_root(f)) for f in (ix.all_factor_ids() if zs is None else zs))
        return (z, x), (row for row in roots if row[1] is not None)
    if zs is None:
        for side, walk in ((x, _prefix_walk), (y, _suffix_walk)):
            ids = allowed.get(side)
            if ids is not None:
                lengths = {end - start for start, end in map(ix.occurrence, ids)}
                return (z, x, y), walk(ix.factor_table(), ids, lengths)
    return (z, x, y), ((f, *cut) for f in (ix.all_factor_ids() if zs is None else zs)
                       for cut in ix.splits(f))


def materialize_atom(ix: WordIndex, atom,
                     allowed: Optional[dict[Variable, AbstractSet[int]]] = None,
                     keep: Optional[AbstractSet[Variable]] = None,
                     parent: Optional[Relation] = None) -> Relation:
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

    `parent`, the relation of a join-tree neighbour, is given instead of
    `allowed`.  A binary `z = x.y` that shares two or more variables with
    it (as `_pins` says) is generated from its rows: the relation is then
    exactly the atom's full one semi-joined with `parent`, with at most one
    row per parent row.  Any other atom is generated inside the ids the
    parent's columns allow.

    The relation is projected onto those of its variables in `keep`, by
    default all of them."""
    if isinstance(atom, SmallEquation) and (
            len(atom.rhs) > 2 or atom.lhs in atom.rhs or any(x.is_universe for x in atom.rhs)):
        raise ValueError(f"{atom} is outside the planner's normal form: z = x or z = x.y, "
                         "u only on the left, z not on the right")
    names = {atom.var} if isinstance(atom, RegularConstraint) else atom.variables()
    if keep is None:
        keep = names
    if parent is None:
        return _project(*_rows(ix, atom, allowed or {}, keep), keep)
    if allowed is not None:
        raise ValueError("give materialize_atom `allowed` or `parent`, not both")
    if _pins(ix, atom, parent):
        return _project(*_pinned_rows(ix, atom.lhs, *atom.rhs, parent, keep), keep)
    allowed = {x: set(map(itemgetter(i), parent.rows))
               for i, x in enumerate(parent.schema) if x in names}
    return _project(*_rows(ix, atom, allowed, keep), keep)


def semijoin(r: Relation, s: Relation) -> Relation:
    """Rows of r whose shared-variable projection appears in s; r itself
    when no row goes."""
    shared = [v for v in s.schema if v in r.schema]
    if not shared:
        return r if s.rows else Relation(r.schema, frozenset())
    if len(shared) == len(r.schema) > 1 and len(s.rows) < len(r.rows):
        # With two or more columns, all shared, the rows of r are their own
        # keys: read the fewer rows of s in r's order and intersect.
        in_r_order = itemgetter(*map(s.schema.index, r.schema))
        return Relation(r.schema, r.rows & frozenset(map(in_r_order, s.rows)))
    r_key = itemgetter(*(r.schema.index(v) for v in shared))
    # With two or more columns, all shared, the rows of s are the keys.
    keys = s.rows if len(shared) == len(s.schema) > 1 else set(
        map(itemgetter(*(s.schema.index(v) for v in shared)), s.rows))
    # One pass that stops at the first row to go; a semi-join that removes
    # nothing builds no relation.
    if keys.issuperset(map(r_key, r.rows)):
        return r
    hits = map(keys.__contains__, map(r_key, r.rows))
    return Relation(r.schema, frozenset(compress(r.rows, hits)))


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
    allows, or from its rows for a binary node that `_pins` to it; with the
    tree's orientation from that root.  A node with children that was not
    generated from its parent's rows is semi-joined with them before its
    children are generated from it, so rows its generation let through (a
    grounded or pre-sized node, or one whose parent allows each shared
    variable's ids but not their combination) never widen theirs; a leaf is
    left to the semi-join passes."""
    keeps = _keeps(tree, head)
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
            rel = materialize_atom(ix, node, keep=keeps[v],
                                   parent=None if p is None or grounded else rels[p])
        # A node generated from its parent's rows already equals its semi-join with them.
        done = p is None or not children[v] or _pins(ix, tree.nodes[v], rels[p])
        rels[v] = rel if done else semijoin(rel, rels[p])
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


def _keeps(tree: JoinTree, head: tuple[Variable, ...]) -> list[set[Variable]]:
    """Per node, the variables its relation keeps, besides those outside its
    atom: the head and every variable of a join-tree neighbour."""
    adj = tree.adjacency()
    return [set(head).union(*(tree.var_sets[w] for w in adj[v])) for v in range(len(tree.nodes))]


def head_fixes_binding(p: Plan) -> bool:
    """Whether the head fixes every variable the walk binds, so that two
    distinct bindings cannot give one answer.  The head is closed under each
    equation's functional dependencies (Carmeli & Kroell 2018, "Enumeration
    complexity of conjunctive queries with functional dependencies"): all but
    one variable of `z = x.y`, `z = x.x` or `z = x` fix the last, and `u` is
    the word.  The walk binds the head and the variables join-tree neighbours
    share."""
    tree, head = p.tree, p.query.head
    equations = [frozenset(x for x in atom.variables() if not x.is_universe)
                 for atom in tree.nodes if isinstance(atom, SmallEquation)]
    fixed = set(head)
    grew = True
    while grew:
        grew = False
        for names in equations:
            free = names - fixed
            if len(free) == 1:
                fixed |= free
                grew = True
    bound = set().union(*map(set.intersection, _keeps(tree, head), tree.var_sets))
    return bound <= fixed


def _extend(bindings: Iterator[tuple[int, ...]], key: Optional[Callable], index
            ) -> Iterator[tuple[int, ...]]:
    """Each binding followed by every value `index` holds under its `key`
    (all of `index` with no key), built by `map` and `chain` in C: no Python
    frame per binding."""
    if key is None:
        return chain.from_iterable(map(map, map(attrgetter("__add__"), bindings), repeat(index)))
    bindings, keyed = tee(bindings)
    return chain.from_iterable(map(map, map(attrgetter("__add__"), bindings),
                                   map(index.__getitem__, map(key, keyed))))


def _unseen(answers: Iterable) -> Iterator:
    """`answers` with repeats dropped."""
    seen = set()
    for answer in answers:
        if answer not in seen:
            seen.add(answer)
            yield answer


def enumerate_results(plan: Plan, ix: WordIndex) -> Iterator[ResultTuple]:
    """Yannakakis' enumeration phase.  Each fully reduced relation, already
    projected onto the head and the variables it shares with a join-tree
    neighbour, is indexed, in BFS order from node 0, on those it shares with
    its parent (a relation with none bound is taken as it is), and freed.
    Rows are distinct, so the values under one key are too, and each is a
    list.  The walk, built once, extends a flat binding by the values it
    looks up, with `map` and `chain` in C: every lookup finds some; a node
    with no new variable is skipped.

    A Boolean query has one answer once every relation keeps a row.  When
    the head fixes every variable the walk binds (`head_fixes_binding`), the
    answers are distinct and stream out with no state.  Otherwise a `seen`
    set drops repeated answers (ids are canonical per word): a head that is
    not free-connex, like `(x, y)` of `x = z1.z2, y = z1.z3`, repeats
    answers, and `seen` grows with them."""
    rels = full_reduction(plan, ix)
    if not all(rel.rows for rel in rels):
        return
    head = plan.query.head
    if not head:
        yield ResultTuple(())
        return
    slot: dict[Variable, int] = {}
    walk: Optional[Iterator[tuple[int, ...]]] = None
    for v in _orientation(plan.tree)[0]:
        schema, rows = rels[v].schema, rels[v].rows
        rels[v] = None  # type: ignore[call-overload]
        bound = [i for i, x in enumerate(schema) if x in slot]
        new = [i for i, x in enumerate(schema) if x not in slot]
        if not new:
            continue
        if walk is None:            # nothing bound yet: the rows are the bindings
            walk = iter(rows)
        elif not bound:
            walk = _extend(walk, None, rows)
        else:
            index = defaultdict(list)
            for key, value in zip(map(itemgetter(*bound), rows), map(_values(new), rows)):
                index[key].append(value)
            walk = _extend(walk, itemgetter(*(slot[schema[i]] for i in bound)), index)
        slot.update({schema[i]: len(slot) + k for k, i in enumerate(new)})
    answers = map(itemgetter(*(slot[x] for x in head)), walk)
    if not head_fixes_binding(plan):
        answers = _unseen(answers)
    # One head variable: itemgetter reads a bare id, so pair it and wrap it.
    pairs = zip(zip(repeat(head[0]), answers)) if len(head) == 1 else map(zip, repeat(head), answers)
    yield from map(ResultTuple, pairs)


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
