from __future__ import annotations

import gc
import json
import random
from dataclasses import replace
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import AB, all_words, random_fccq, random_fccq_wide, v
from wordeq.evaluator import (
    Relation,
    brute_results,
    check_universality,
    enumerate_results,
    full_reduction,
    head_fixes_binding,
    materialize_atom,
    model_check,
    semijoin,
)
from wordeq.frontend import parse_query
from wordeq.index import build_index
from wordeq.model import (
    CyclicQueryError,
    HasConstraintsError,
    RConcat,
    REmpty,
    RegularConstraint,
    SmallEquation,
    UNIVERSE,
    WordEquation,
    gyo,
    regex_fold,
)
from wordeq.nfa import thompson
from wordeq.oracle import brute_evaluate
from wordeq.planner import plan


class TestMaterialize:
    def test_universe_splits(self):
        ix = build_index("aa")
        rel = materialize_atom(ix, SmallEquation(UNIVERSE, (v("x"), v("y"))))
        got = {(ix.word_of(a), ix.word_of(b)) for a, b in rel.rows}
        assert got == {("", "aa"), ("a", "a"), ("aa", "")}

    def test_empty_constraint(self):
        ix = build_index("abab")
        rel = materialize_atom(ix, RegularConstraint(v("x"), REmpty()))
        assert rel.rows == frozenset()

    def test_repeated_variable_squares(self):
        ix = build_index("abab")
        rel = materialize_atom(ix, SmallEquation(v("z"), (v("x"), v("x"))))
        got = {(ix.word_of(a), ix.word_of(b)) for a, b in rel.rows}
        assert got == {("", ""), ("abab", "ab")}

    def test_copy_diagonal(self):
        ix = build_index("ab")
        rel = materialize_atom(ix, SmallEquation(v("p"), (v("q"),)))
        assert rel.schema == (v("p"), v("q"))
        assert all(a == b for a, b in rel.rows)
        assert len(rel.rows) == 4

    def test_matches_brute_triples(self):
        ix = build_index("aabba")
        rel = materialize_atom(ix, SmallEquation(v("z"), (v("x"), v("y"))))
        facs = {ix.word_of(f) for f in ix.all_factor_ids()}
        expected = {(z, x, y) for z in facs for x in facs for y in facs if x + y == z}
        got = {tuple(ix.word_of(f) for f in row) for row in rel.rows}
        assert got == expected


def slow_relation(ix, atom) -> Relation:
    """Reference relation of one atom: every span of the word (not only
    leftmost ones), every cut with empty parts allowed, one validated
    `factor_id` per part."""
    w, n = ix.word, ix.n

    def fid(i: int, j: int) -> int:
        return ix.factor_id(i, j)

    spans = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
    wid = fid(1, n + 1)
    if isinstance(atom, RegularConstraint):
        nfa = thompson(atom.regex)
        if atom.var.is_universe:
            return Relation((), frozenset({()} if nfa.accepts(w) else ()))
        return Relation((atom.var,), frozenset((fid(i, j),) for i, j in spans
                                               if nfa.accepts(w[i - 1:j - 1])))
    positions = (atom.lhs, *atom.rhs)
    schema = tuple(dict.fromkeys(x for x in positions if not x.is_universe))
    rows = set()
    for s, e in ([(1, n + 1)] if atom.lhs.is_universe else spans):
        for cuts in combinations_with_replacement(range(s, e + 1), len(atom.rhs) - 1):
            bounds = (s, *cuts, e)
            values = [fid(s, e)] + [fid(a, b) for a, b in zip(bounds, bounds[1:])]
            binding: dict = {}
            if all(value == wid if x.is_universe else binding.setdefault(x, value) == value
                   for x, value in zip(positions, values)):
                rows.add(tuple(binding[x] for x in schema))
    return Relation(schema, frozenset(rows))


def reference_atoms(ab) -> list:
    """Every atom shape `plan` emits (see `test_plan_nodes_are_in_normal_form`
    in test_planner.py), grounded and not."""
    from wordeq.frontend import parse_regex
    x, y, z = v("x"), v("y"), v("z")
    return [
        SmallEquation(z, (x, y)),
        SmallEquation(x, (y, y)),
        SmallEquation(UNIVERSE, (x, y)),
        SmallEquation(UNIVERSE, (x, x)),
        SmallEquation(x, (y,)),
        SmallEquation(UNIVERSE, (x,)),
        RegularConstraint(UNIVERSE, parse_regex("(ab)*(a|'')", ab)),
        RegularConstraint(x, parse_regex("a(a|b)*", ab)),
    ]


class TestMaterializeReference:
    def test_every_atom_shape_on_short_words(self, ab):
        atoms = reference_atoms(ab)
        for w in all_words("ab", 7):
            for atom in atoms:
                ix = build_index(w)
                got = materialize_atom(ix, atom)
                assert got == slow_relation(ix, atom), (w, atom)

    @pytest.mark.parametrize("lhs, rhs", [
        ("x", "x y"), ("x", "u u"), ("x", "x x"), ("x", "u"), ("x", "y u"),
        ("z", "x y x"), ("u", "x y z"),
    ])
    def test_shapes_plan_never_emits_raise(self, lhs, rhs):
        """A left side on its own right side, `u` on a right side and right
        sides longer than two are outside the planner's normal form."""
        ix = build_index("abab")
        atom = SmallEquation(v(lhs), tuple(v(x) for x in rhs.split()))
        with pytest.raises(ValueError):
            materialize_atom(ix, atom)
        with pytest.raises(ValueError):
            materialize_atom(ix, atom, {}, set())

    def test_wrong_arity_raises(self):
        x, y = v("x"), v("y")
        with pytest.raises(ValueError):
            Relation((x, y), frozenset({(1, 2), (3,)}))
        with pytest.raises(ValueError):
            Relation((x,), frozenset({(1, 2)}))
        with pytest.raises(ValueError):
            Relation((), frozenset({(1,)}))
        assert Relation((x, y), frozenset()).rows == frozenset()
        assert Relation((), frozenset({()})).rows == frozenset({()})


def within(rel: Relation, allowed: dict) -> Relation:
    """The rows of rel whose values all lie inside `allowed`."""
    for x, ids in allowed.items():
        rel = semijoin(rel, Relation((x,), frozenset((i,) for i in ids)))
    return rel


def project(rel: Relation, keep) -> Relation:
    """rel cut down to the columns of the variables in `keep`."""
    cols = [i for i, x in enumerate(rel.schema) if x in keep]
    return Relation(tuple(rel.schema[i] for i in cols),
                    frozenset(tuple(row[i] for i in cols) for row in rel.rows))


def atom_variables(atom) -> list:
    return sorted((atom.variables() if isinstance(atom, SmallEquation) else {atom.var})
                  - {UNIVERSE}, key=str)


JOIN = "ans(x,y) :- x = z1.z2, y = z1.z3, x in /a(a|b)*/, z1 in /a+/"


class TestRestrictedMaterialize:
    def test_keeps_every_allowed_row(self, ab):
        """Restricted generation returns rows of the full relation only, and
        every one of them inside the allowed ids, whichever of the atom's
        variables are restricted."""
        rng = random.Random(12)
        atoms = reference_atoms(ab)
        for w in all_words("ab", 6):
            for atom in atoms:
                ix = build_index(w)
                full = materialize_atom(ix, atom)
                ids = ix.all_factor_ids()
                names = atom_variables(atom)
                for mask in range(1 << len(names)):
                    allowed = {x: set(rng.sample(ids, rng.randint(0, len(ids))))
                               for k, x in enumerate(names) if mask >> k & 1}
                    got = materialize_atom(ix, atom, allowed)
                    assert got.schema == full.schema
                    assert got.rows <= full.rows, (w, atom, allowed)
                    assert within(got, allowed) == within(full, allowed), (w, atom, allowed)

    @pytest.mark.parametrize("atom, at", [
        ("z = x.y", "z"), ("z = x.y", "x"), ("z = x.y", "y"),
        ("x = y.y", "x"), ("x = y", "x"), ("x = y", "y"),
    ])
    def test_one_restricted_variable_builds_no_other_row(self, atom, at):
        """A restriction on one variable is applied while generating, not
        after: no row outside it is built (the full relation of z = x.y has
        ~n^3/6 rows)."""
        rng = random.Random(2)
        w = "".join(rng.choice("ab") for _ in range(64))
        ix = build_index(w)
        lhs, rhs = atom.split(" = ")
        eq = SmallEquation(v(lhs), tuple(v(x) for x in rhs.split(".")))
        allowed = {v(at): {ix.id_of_word(f) for f in ("", "a", "ab")}}
        rel = materialize_atom(ix, eq, allowed)
        assert rel.rows and rel == within(rel, allowed)

    def test_each_relation_is_its_full_one_cut_by_the_parent(self):
        """Each node holds its full relation projected onto the variables it
        keeps, the head and those it shares with a join-tree neighbour: the
        root that projection, every other node a part of it that keeps at
        least the rows its parent's relation joins with."""
        from wordeq.evaluator import _materialize_tree
        rng = random.Random(23)
        done = 0
        while done < 40:
            q = random_fccq_wide(rng) if done % 2 else random_fccq(rng, max_atoms=3, max_rhs=3)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            done += 1
            adj = p.tree.adjacency()
            for w, head in product(("", "ab", "aab", "abab"), ((), p.query.head)):
                ix = build_index(w)
                rels, order, children, parent = _materialize_tree(p.tree, ix, head)
                for node in order:
                    keep = set(head).union(*(p.tree.var_sets[k] for k in adj[node]))
                    full = project(materialize_atom(ix, p.tree.nodes[node]), keep)
                    up = parent[node]
                    if up is None:
                        assert rels[node] == full, (q, w)
                    elif children[node]:
                        assert rels[node] == semijoin(full, rels[up]), (q, w)
                    else:
                        assert rels[node].schema == full.schema, (q, w)
                        assert semijoin(full, rels[up]).rows <= rels[node].rows <= full.rows, (q, w)

    def test_root_choice(self, ab):
        from wordeq.evaluator import _materialize_tree
        ix = build_index("aabab")
        grounded = plan(parse_query("ans(x) :- x = y.z, u = x.y, x in /a*/", ab))
        order = _materialize_tree(grounded.tree, ix, ())[1]
        assert grounded.tree.nodes[order[0]].lhs.is_universe
        p = plan(parse_query(JOIN, ab))
        order = _materialize_tree(p.tree, ix, ())[1]
        assert p.tree.nodes[order[0]].var == v("z1")   # /a+/ has fewer members than /a(a|b)*/

    @pytest.mark.parametrize("text, root", [
        ("ans(x) :- x = y.y, x in /a(a|b)*/", "x = y.y"),
        ("ans(x) :- x in /aa/, z = x.y, x = y.y", "x = y.y"),
        ("ans(x) :- x = y.y, u = z.x", "u = z.x"),
    ])
    def test_free_square_is_the_root(self, ab, text, root):
        """A square has fewer than 2n rows, so it is the root after a
        grounded equation and before any constraint, however few members
        that has."""
        from wordeq.evaluator import _materialize_tree
        p = plan(parse_query(text, ab))
        order = _materialize_tree(p.tree, build_index("aababbabab"), ())[1]
        assert str(p.tree.nodes[order[0]]) == root

    @pytest.mark.parametrize("text, unrestricted", [
        (JOIN, [True, True]),
        # Behind a grounded root a constraint checks only the ids it is given.
        ("ans(x,y) :- u = x.y, x in /a*b/", [False]),
        # Below a free square it checks only the word's squares.
        ("ans(x) :- x = y.y, x in /a(a|b)*/", [False]),
    ])
    def test_each_regex_runs_once(self, ab, monkeypatch, text, unrestricted):
        from wordeq.index import WordIndex
        calls = []
        members = WordIndex.regex_members

        def counted(self, regex, among=None):
            calls.append(among is None)
            return members(self, regex, among)

        monkeypatch.setattr(WordIndex, "regex_members", counted)
        assert model_check(plan(parse_query(text, ab)), build_index("aababb"))
        assert calls == unrestricted

    @staticmethod
    def _rows_materialized(monkeypatch, run) -> int:
        from wordeq import evaluator
        rows = []
        original = evaluator.materialize_atom

        def counted(*args, **kwargs):
            rel = original(*args, **kwargs)
            rows.append(len(rel.rows))
            return rel

        monkeypatch.setattr(evaluator, "materialize_atom", counted)
        run()
        return sum(rows)

    def test_join_rows_stay_quadratic(self, ab, monkeypatch):
        """The join query on 200 letters materializes fewer than 20 n^2 rows,
        not the ~n^3/6 of expanding every factor at every cut."""
        n = 200
        rng = random.Random(1)
        w = "".join(rng.choice("ab") for _ in range(n))
        p = plan(parse_query(JOIN, ab))
        rows = self._rows_materialized(monkeypatch, lambda: model_check(p, build_index(w)))
        assert 0 < rows < 20 * n * n

    def test_square_rows_stay_linear(self, ab, monkeypatch):
        """The free square is the root and lists the word's distinct
        squares, fewer than 2n; the constraint below checks only those.  So
        200 letters materialize at most 4n + 2 rows, not the members of the
        constraint, about half the word's factors."""
        n = 200
        rng = random.Random(1)
        w = "".join(rng.choice("ab") for _ in range(n))
        p = plan(parse_query("ans(x) :- x = y.y, x in /a(a|b)*/", ab))
        rows = self._rows_materialized(monkeypatch, lambda: list(enumerate_results(p, build_index(w))))
        assert 0 < rows <= 4 * n + 2

    @pytest.mark.parametrize("text", [
        "ans() :- u = x.y.x, y = a.b, a in /b/",
        "ans(a) :- u = x.y.x, y = a.b",
    ])
    def test_grandchild_rows_stay_quadratic(self, ab, monkeypatch, text):
        """`z1 = y.x` shares two variables with its grounded parent
        `u = x.z1`, so it is generated from the parent's n + 1 rows: one row
        for each prefix x that is also a suffix (a border of the word).  Its
        child `y = a.b` is cut only at the few middles y those leave, so 200
        letters materialize fewer than 10 n rows, not the ~n^2/2 of cutting
        every allowed z1 or the ~n^3/6 of cutting every factor."""
        n = 200
        rng = random.Random(1)
        w = "".join(rng.choice("ab") for _ in range(n))
        p = plan(parse_query(text, ab))
        rows = self._rows_materialized(monkeypatch, lambda: list(enumerate_results(p, build_index(w))))
        assert 0 < rows < 10 * n


class TestPinnedMaterialize:
    """A binary `z = x.y` that shares two or three variables with its parent
    is generated from the parent's rows."""

    XYZ = (v("x"), v("y"), v("z"))

    @pytest.mark.parametrize("pins", ["zx", "zy", "xy", "zxy"])
    def test_is_the_full_relation_semijoined_with_the_parent(self, pins):
        """For every `keep`, the relation is the atom's full relation
        semi-joined with the parent and projected onto `keep`; when `keep`
        holds the shared variables, as in a join tree, that is the projected
        full relation semi-joined with the parent.  The parent holds a random
        part of the values that match, random ids that mostly do not, and a
        column the atom lacks, in at most n + 1 rows when it holds x and y
        alone.  Every other word has its factor table built
        first, so both the list reads and the string compares are checked."""
        rng = random.Random(len(pins) * 10 + ord(pins[-1]))
        atom = SmallEquation(v("z"), (v("x"), v("y")))
        names = tuple(v(t) for t in pins)
        for k, w in enumerate(all_words("ab", 7)):
            full = materialize_atom(build_index(w), atom)
            ids = build_index(w).all_factor_ids()
            matching = sorted(project(full, names).rows)
            values = rng.sample(matching, rng.randint(0, len(matching)))
            values += [tuple(rng.choice(ids) for _ in names) for _ in range(3)]
            rows = sorted({(*row, rng.choice(ids)) for row in values for _ in range(rng.randint(1, 2))})
            if pins == "xy":    # x and y alone pin only under a parent of at most n + 1 rows
                rows = rng.sample(rows, min(len(rows), len(w) + 1))
            parent = Relation((*names, v("q")), frozenset(rows))
            ix = build_index(w)
            if k % 2:
                ix.factor_table()
            for mask in range(1 << 3):
                keep = {x for i, x in enumerate(self.XYZ) if mask >> i & 1}
                got = materialize_atom(ix, atom, keep=keep, parent=parent)
                assert got == project(semijoin(full, parent), keep), (w, pins, keep)
                if set(names) <= keep:
                    assert got == semijoin(materialize_atom(ix, atom, keep=keep), parent), (w, keep)

    def test_other_atoms_read_the_parent_as_allowed_ids(self, ab):
        """Every other atom shape, and a binary atom sharing one variable
        with the parent, is generated exactly as with `allowed` holding each
        of its variables' ids in the parent's rows.  `allowed` and `parent`
        together are refused."""
        rng = random.Random(5)
        atoms = reference_atoms(ab)
        x, y, z = self.XYZ
        for w in all_words("ab", 5):
            ids = build_index(w).all_factor_ids()
            for atom in atoms:
                names = atom_variables(atom)
                schema = (x, v("q")) if atom == SmallEquation(z, (x, y)) else (*names, v("q"))
                parent = Relation(schema, frozenset(
                    tuple(rng.choice(ids) for _ in schema) for _ in range(rng.randint(0, 4))))
                allowed = {name: {row[i] for row in parent.rows}
                           for i, name in enumerate(schema) if name in names}
                for keep in (set(), set(names)):
                    ix = build_index(w)
                    alone = materialize_atom(ix, atom, allowed, keep)
                    assert materialize_atom(ix, atom, keep=keep, parent=parent) == alone, (w, atom)
                with pytest.raises(ValueError):
                    materialize_atom(ix, atom, allowed, parent=parent)

    @pytest.mark.parametrize("text, pinned, large", [
        ("ans() :- u = x.y, w = y.x", True, False),     # x, y under the root's n + 1 cuts
        ("ans() :- z = x.y, w = y.x", False, None),     # x, y under the root's ~n^3/6 cuts
        ("ans() :- w = x.y, x = y.z", True, True),      # z, x under ~n^3/6 cuts
        ("ans() :- w = y.x, x = z.y", True, True),      # z, y under ~n^3/6 cuts
    ])
    def test_x_and_y_alone_pin_only_under_few_rows(self, ab, monkeypatch, text, pinned, large):
        """In the join tree a child sharing z with its parent is generated
        from the parent's rows whatever their number; one sharing x and y
        alone only under a parent of at most n + 1 rows, since a larger
        parent was cut from the factor table, and its child's allowed z are
        cut."""
        from wordeq import evaluator
        calls = []
        original = evaluator._pinned_rows

        def counted(*args):
            calls.append(args[4])
            return original(*args)

        monkeypatch.setattr(evaluator, "_pinned_rows", counted)
        rng = random.Random(4)
        w = "".join(rng.choice("ab") for _ in range(40))
        assert model_check(plan(parse_query(text, ab)), build_index(w))
        assert bool(calls) == pinned
        assert all((len(parent.rows) > len(w) + 1) == large for parent in calls)

    def test_border_query_builds_no_factor_table(self, ab, monkeypatch):
        """`check` and `enum` of `u = x.y.x` on 4000 letters read the root's
        n + 1 cuts and test each with one `startswith`; the ~n^2/2 factor
        table, which cutting every allowed z1 of `z1 = y.x` needs, is never
        built.  The answers are the word's borders x with their middles y."""
        from wordeq.index import WordIndex

        def no_table(self):
            raise AssertionError("the factor table was built")

        monkeypatch.setattr(WordIndex, "factor_table", no_table)
        rng = random.Random(0)
        w = "".join(rng.choice("ab") for _ in range(4000))
        assert model_check(plan(parse_query("ans() :- u = x.y.x", ab)), build_index(w))
        ix = build_index(w)
        got = {(r.words(ix)["x"], r.words(ix)["y"])
               for r in enumerate_results(plan(parse_query("ans(x,y) :- u = x.y.x", ab)), ix)}
        n = len(w)
        assert got == {(w[:k], w[k:n - k]) for k in range(n // 2 + 1) if w[:k] == w[n - k:]}
        assert len(got) == 3


class TestProjectedMaterialize:
    def test_each_projection_is_the_full_relation_projected(self, ab):
        """With `keep`, every atom shape yields its full relation projected
        onto the kept variables, whether generated without cuts or cut and
        then projected.  With `allowed` as well, it lies between the
        projection of the full rows inside the allowed ids and the projected
        full relation, and it is exact on those rows when only kept
        variables are restricted, as in a join tree."""
        rng = random.Random(31)
        atoms = reference_atoms(ab)
        for w in all_words("ab", 6):
            ix = build_index(w)
            ids = ix.all_factor_ids()
            for atom in atoms:
                full = materialize_atom(ix, atom)
                names = atom_variables(atom)
                for mask in range(1 << len(names)):
                    keep = {x for k, x in enumerate(names) if mask >> k & 1}
                    projected = project(full, keep)
                    assert materialize_atom(ix, atom, keep=keep) == projected, (w, atom, keep)
                    allowed = {x: set(rng.sample(ids, rng.randint(0, len(ids))))
                               for x in names if rng.random() < 0.5}
                    at = (w, atom, keep, allowed)
                    got = materialize_atom(ix, atom, allowed, keep)
                    assert project(within(full, allowed), keep).rows <= got.rows <= projected.rows, at
                    on_kept = {x: s for x, s in allowed.items() if x in keep}
                    got = materialize_atom(ix, atom, on_kept, keep)
                    assert within(got, on_kept) == within(projected, on_kept), at

    @pytest.mark.parametrize("atom, keep", [
        ("z = x.y", ""), ("z = x.y", "z"), ("z = x.y", "x"), ("z = x.y", "y"),
        ("z = y.y", ""), ("z = y.y", "z"), ("u = x.y", ""), ("u = x.y", "x"),
    ])
    def test_shortcuts_cut_no_factor(self, monkeypatch, atom, keep):
        """A binary atom that keeps at most its left side or one right-side
        variable is generated without a cut: no split, no whole-word cuts
        and no suffix pass."""
        from wordeq import index
        ix = build_index("abaababa")
        lhs, rhs = atom.split(" = ")
        eq = SmallEquation(v(lhs), tuple(v(x) for x in rhs.split(".")))
        expected = project(materialize_atom(ix, eq), {v(x) for x in keep})

        def cut(*args):
            raise AssertionError("a factor was cut")

        monkeypatch.setattr(index.WordIndex, "splits", cut)
        monkeypatch.setattr(index, "_suffix_runs", cut)
        assert materialize_atom(build_index(ix.word), eq, keep={v(x) for x in keep}) == expected

    def test_grounded_suffixes_cut_no_factor(self, monkeypatch):
        """`u = x.y` keeping only y yields the n + 1 suffix ids, read off
        their leftmost starts, with no cut; inside `allowed` it keeps every
        allowed one."""
        from wordeq import index
        ix = build_index("abaababa")
        eq = SmallEquation(v("u"), (v("x"), v("y")))
        expected = project(materialize_atom(ix, eq), {v("y")})

        def cut(*args):
            raise AssertionError("a factor was cut")

        monkeypatch.setattr(index.WordIndex, "splits", cut)
        rel = materialize_atom(build_index(ix.word), eq, keep={v("y")})
        assert rel == expected and len(rel.rows) == ix.n + 1
        allowed = {fid for (fid,) in expected.rows if fid % 2}
        rel = materialize_atom(build_index(ix.word), eq, {v("y"): allowed}, keep={v("y")})
        assert {fid for (fid,) in rel.rows} == allowed

    @pytest.mark.parametrize("text, enum", [
        ("ans(x) :- x = y.z", False), ("ans(x) :- x = y.z", True), ("ans(x,y,z) :- x = y.z", False),
    ])
    def test_free_concatenation_rows_stay_quadratic(self, ab, monkeypatch, text, enum):
        """`check` and `enum` of a free concatenation that keeps at most x on
        64 letters build at most n^2/2 + 1 rows, the distinct factors, not
        the ~n^3/6 cuts."""
        from wordeq import evaluator
        n = 64
        rng = random.Random(4)
        w = "".join(rng.choice("ab") for _ in range(n))
        rows = []
        original = evaluator.materialize_atom

        def counted(*args, **kwargs):
            rel = original(*args, **kwargs)
            rows.append(len(rel.rows))
            return rel

        monkeypatch.setattr(evaluator, "materialize_atom", counted)
        q, ix = parse_query(text, ab), build_index(w)
        if enum:
            answers = {r.words(ix)["x"] for r in enumerate_results(plan(q), ix)}
            assert answers == {x for (x,) in brute_evaluate(q, w)}
        else:
            assert model_check(plan(q), ix)
        assert 0 < sum(rows) <= n * n // 2 + 1


class TestSemijoin:
    def test_golden_tables(self):
        x, y, z = v("x"), v("y"), v("z")
        r = Relation((x, y), frozenset({(1, 2), (3, 4), (1, 4), (2, 1)}))
        s = Relation((y, z), frozenset({(3, 5), (2, 2), (4, 5)}))
        assert semijoin(r, s).rows == frozenset({(1, 2), (3, 4), (1, 4)})

    def test_right_side_all_shared_in_another_order(self):
        """When every column of s is shared, its rows are the keys, read
        in s's column order."""
        x, y, z = v("x"), v("y"), v("z")
        r = Relation((x, y, z), frozenset({(1, 2, 3), (2, 1, 3), (1, 2, 4), (2, 5, 4)}))
        s = Relation((z, x), frozenset({(3, 1), (4, 2)}))
        assert semijoin(r, s).rows == frozenset({(1, 2, 3), (2, 5, 4)})

    @given(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=9),
           st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), max_size=9),
           st.sampled_from(["xy", "yx", "yzx", "zxy"]))
    @settings(max_examples=200)
    def test_left_side_all_shared(self, rows_r, rows_s, names):
        """When every column of r is shared, the result is the same whether
        s or r has fewer rows, in any column order of s."""
        r = Relation((v("x"), v("y")), frozenset(rows_r))
        s = Relation(tuple(map(v, names)), frozenset(row[:len(names)] for row in rows_s))
        x, y = s.schema.index(v("x")), s.schema.index(v("y"))
        keys = {(row[x], row[y]) for row in s.rows}
        assert semijoin(r, s).rows == {row for row in r.rows if row in keys}

    def test_empty_right(self):
        r = Relation((v("x"),), frozenset({(1,)}))
        s = Relation((v("x"),), frozenset())
        assert semijoin(r, s).rows == frozenset()

    def test_disjoint_schemas(self):
        r = Relation((v("x"),), frozenset({(1,)}))
        s = Relation((v("y"),), frozenset({(9,)}))
        assert semijoin(r, s).rows == r.rows
        assert semijoin(r, Relation((v("y"),), frozenset())).rows == frozenset()

    def test_no_row_goes_returns_the_input(self):
        """A semi-join that removes nothing returns r itself, whether the
        keys are read off s or, with every column of r shared, r's rows are
        their own keys; the intersect branch, taken when s has fewer rows
        than r, always removes some."""
        x, y, z = v("x"), v("y"), v("z")
        r = Relation((x, y), frozenset({(1, 2), (3, 4)}))
        assert semijoin(r, Relation((y, z), frozenset({(2, 5), (4, 6), (7, 7)}))) is r
        assert semijoin(r, Relation((y, x), frozenset({(2, 1), (4, 3), (9, 9)}))) is r
        assert semijoin(r, Relation((y, x), frozenset({(2, 1), (4, 3)}))) is r
        assert semijoin(r, Relation((z, y, x), frozenset({(0, 2, 1), (5, 4, 3)}))) is r
        kept = semijoin(r, Relation((y, x), frozenset({(2, 1)})))
        assert kept.rows == frozenset({(1, 2)})
        removed = semijoin(r, Relation((y, z), frozenset({(2, 5)})))
        assert removed is not r and removed.rows == frozenset({(1, 2)})

    @given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
           st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
    @settings(max_examples=120)
    def test_monotone_and_idempotent(self, rows_r, rows_s):
        r = Relation((v("x"), v("y")), frozenset(rows_r))
        s = Relation((v("y"), v("z")), frozenset(rows_s))
        once = semijoin(r, s)
        assert once.rows <= r.rows
        assert semijoin(once, s).rows == once.rows


class TestModelCheck:
    def test_square_membership(self):
        # The query's pattern core is cyclic, so membership runs on an
        # equivalent acyclic encoding handled by the planner pipeline only at
        # the CLI; here the single-equation plan route must agree with brute
        # force on an acyclic sibling query.
        q = parse_query("ans() :- u = x.x", AB)
        p = plan(q)
        assert model_check(p, build_index("abab"))
        assert not model_check(p, build_index("aba"))

    def test_less_than_language(self):
        # a^n b a^m with n < m, written with an acyclic single equation.
        q = parse_query("ans() :- u = x.z1.z.x, z1 in /b/, z in /a+/, x in /a*/", AB)
        p = plan(q)
        for w, expect in [("abaa", True), ("aba", False), ("ba", True), ("ab", False)]:
            assert model_check(p, build_index(w)) == expect, w
            assert bool(brute_evaluate(q, w)) == expect, w

    def test_less_than_two_atom_form_is_cyclic(self):
        # The two-equation phrasing of the same language is planner-cyclic;
        # it is answered through the brute-force route instead.
        q = parse_query("ans() :- u = x.'b'.y, y = z.x, y in /a+/, z in /a+/", AB)
        with pytest.raises(CyclicQueryError):
            plan(q)
        assert brute_evaluate(q, "abaa")
        assert not brute_evaluate(q, "aba")

    def test_empty_atom_relation(self):
        q = parse_query("ans() :- u = x.y, x in /#/", AB)
        p = plan(q)
        assert not model_check(p, build_index("ab"))

    def test_constraint_alone_stops_at_its_first_member(self, ab, monkeypatch):
        """`check` keeps no variable of a lone constraint, so the first member
        the scan yields decides it: no member set, no factor list and no
        factor table, on a 4000-letter word."""
        from wordeq.index import WordIndex

        def listed(self, *args):
            raise AssertionError("factors were listed")

        for name in ("regex_members", "all_factor_ids", "factor_table"):
            monkeypatch.setattr(WordIndex, name, listed)
        rng = random.Random(0)
        w = "".join(rng.choice("ab") for _ in range(4000))
        for text, expect in [("(a|b)*", True), ("b+a", True), ("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", False)]:
            p = plan(parse_query(f"ans(x) :- x in /{text}/", ab))
            assert model_check(p, build_index(w)) == expect, text

    def test_agrees_with_enumerate(self):
        rng = random.Random(3)
        done = 0
        while done < 30:
            q = random_fccq(rng, max_atoms=2, max_rhs=3, max_constraints=1)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            done += 1
            for w in ["", "a", "ba", "aab"]:
                ix = build_index(w)
                assert model_check(p, ix) == (next(enumerate_results(p, ix), None) is not None)


JOIN = "ans(x,y) :- x = z1.z2, y = z1.z3, x in /a(a|b)*/, z1 in /a+/"


class TestEnumerate:
    def test_square_root(self):
        q = parse_query("ans(x) :- u = x.x", AB)
        p = plan(q)
        ix = build_index("abab")
        assert [r.words(ix) for r in enumerate_results(p, ix)] == [{"x": "ab"}]

    def test_boolean_query_empty_tuple(self):
        q = parse_query("ans() :- u = x.y", AB)
        p = plan(q)
        out = list(enumerate_results(p, build_index("a")))
        assert len(out) == 1 and tuple(out[0]) == ()

    @pytest.mark.parametrize("text", ["ans() :- x = y.z, v = w.w", "ans() :- u = x.x"])
    def test_boolean_query_projected_to_empty_schema(self, text):
        """Every relation keeps no variable (none is in the head or shared
        with a neighbour): the walk has no lookup, yet yields one `()` exactly
        when the query holds."""
        q = parse_query(text, AB)
        p = plan(q)
        for w in ["", "a", "aba", "abab"]:
            out = [tuple(r) for r in enumerate_results(p, build_index(w))]
            assert out == ([()] if brute_evaluate(q, w) else []), w

    def test_prefixes(self):
        q = parse_query("ans(x) :- u = x.y", AB)
        p = plan(q)
        ix = build_index("aaa")
        got = sorted(r.words(ix)["x"] for r in enumerate_results(p, ix))
        assert got == ["", "a", "aa", "aaa"]

    def test_all_splits_of_a_long_word(self):
        rng = random.Random(60)
        w = "".join(rng.choice("ab") for _ in range(60))
        p = plan(parse_query("ans(x,y,z) :- u = x.y.z", AB))
        answers = [tuple(r) for r in enumerate_results(p, build_index(w))]
        assert len(answers) == len(set(answers)) == 61 * 62 // 2

    @pytest.mark.parametrize("text", ["ans(x) :- x = y.z", JOIN, "ans(x,y) :- x = z.z, y = w.w"])
    def test_projection_drops_local_variables(self, text):
        """y and z in `x = y.z`, z2 and z3 in the join, z and w in the two
        squares, are neither in the head nor shared with a neighbour:
        projection drops them.  The squares share no variable, so the walk
        extends each binding by every row of the second."""
        q = parse_query(text, AB)
        p = plan(q)
        for w in all_words("ab", 4):
            ix = build_index(w)
            got = {tuple(r.words(ix)[h.name] for h in q.head) for r in enumerate_results(p, ix)}
            assert got == brute_evaluate(q, w), w

    @pytest.mark.parametrize("text", [JOIN, "ans(x,y,z) :- u = x.y.z"])
    def test_enumeration_leaves_no_reference_cycles(self, text):
        """Enumeration frees its relations and indexes by reference counting
        alone, whether drained or closed early after a `--limit`-style break."""
        p = plan(parse_query(text, AB))
        ix = build_index("aabab")
        gc.collect()
        gc.disable()
        try:
            assert list(enumerate_results(p, ix))
            assert gc.collect() == 0
            answers = enumerate_results(p, ix)
            for shown, _ in enumerate(answers, 1):
                if shown == 2:
                    break
            answers.close()
            del answers
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_duplicates(self):
        rng = random.Random(8)
        done = 0
        while done < 25:
            q = random_fccq(rng, max_atoms=2, max_rhs=4, max_constraints=1)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            done += 1
            ix = build_index("abab")
            seen = []
            for r in enumerate_results(p, ix):
                assert tuple(r) not in seen
                seen.append(tuple(r))

    def test_no_dangling_after_full_reduction(self):
        rng = random.Random(15)
        done = 0
        while done < 20:
            q = random_fccq(rng, max_atoms=2, max_rhs=3, max_constraints=1)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            done += 1
            ix = build_index("abb")
            rels = full_reduction(p, ix)
            # Every surviving tuple must extend to a full join result.
            from wordeq.evaluator import _orientation
            orderv, children, _ = _orientation(p.tree)

            def assemble(node, binding):
                rel = rels[node]
                for row in rel.rows:
                    if all(binding.get(x, row[i]) == row[i] for i, x in enumerate(rel.schema)):
                        b2 = dict(binding)
                        b2.update(zip(rel.schema, row))
                        yield from descend(children[node], 0, b2, [(node, row)])

            def descend(kids, at, binding, support):
                if at == len(kids):
                    yield binding, support
                    return
                for b2, sup2 in assemble(kids[at], binding):
                    yield from descend(kids, at + 1, b2, support + sup2)

            used = [set() for _ in rels]
            for _, support in assemble(orderv[0], {}):
                for node, row in support:
                    used[node].add(row)
            for i, rel in enumerate(rels):
                assert rel.rows == frozenset(used[i]), f"dangling tuples at node {i}"


class TestHeadFixesBinding:
    @pytest.mark.parametrize("text, fixes", [
        ("ans(x,y,z) :- u = x.y.z", True),
        ("ans(x,y) :- x = y.z", True),
        (JOIN, False),
        ("ans() :- u = x.y, u = y.x", False),
    ])
    def test_decision(self, text, fixes):
        """The head, closed under the equations' functional dependencies,
        covers every variable the walk binds: z1 of `u = x.z1` is fixed by
        u and x, z of `x = y.z` by x and y; z1 of the join and x, y of the
        conjugate query are fixed by nothing."""
        assert head_fixes_binding(plan(parse_query(text, AB))) is fixes

    def test_answers_without_a_dedupe_set(self, monkeypatch):
        """Seeded `random_fccq` queries whose head fixes the binding give
        their answers with no dedupe set, each once, and they are the
        oracle's; the other queries keep the set."""
        from wordeq import evaluator

        def no_dedupe(answers):
            raise AssertionError("a dedupe set on a head that fixes the binding")

        rng = random.Random(23)
        paths = {True: 0, False: 0}
        for _ in range(80):
            q = random_fccq(rng, max_atoms=2, max_rhs=4, max_constraints=1)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            if not q.head:
                continue
            fixes = head_fixes_binding(p)
            paths[fixes] += 1
            with monkeypatch.context() as patch:
                if fixes:
                    patch.setattr(evaluator, "_unseen", no_dedupe)
                for w in all_words("ab", 4):
                    ix = build_index(w)
                    answers = [tuple(r.words(ix)[h.name] for h in q.head)
                               for r in enumerate_results(p, ix)]
                    assert len(answers) == len(set(answers)), (q, w)
                    assert set(answers) == brute_evaluate(q, w), (q, w)
        assert min(paths.values()) >= 10, paths


class TestUniversality:
    def test_sigma_star(self):
        assert check_universality(parse_query("ans() :- u = x", AB), AB)

    def test_requires_epsilon(self):
        assert not check_universality(parse_query("ans() :- u = 'a'.x", AB), AB)

    def test_constraints_rejected(self):
        q = parse_query("ans() :- u = x, x in /a*/", AB)
        with pytest.raises(HasConstraintsError):
            check_universality(q, AB)

    def test_one_in_three_flavor(self):
        # Satisfiable instance: (y1 or y2 or y3) with exactly-one semantics,
        # encoded with truth variables split over the word.
        sat = parse_query(
            "ans() :- u = t1.f1, u = t2.f2, u = t3.f3, u = c1, c1 = t1.t2.t3", AB)
        assert check_universality(sat, AB)
        # Unsatisfiable: a clause must take exactly one of t1, f1 while both
        # sides of the split are also forced.
        unsat = parse_query(
            "ans() :- u = t1.f1, u = c1, c1 = t1.t1.f1, u = c2, c2 = f1.f1.t1", AB)
        brute_is_empty = not brute_evaluate(unsat, "a")
        assert check_universality(unsat, AB) == (not brute_is_empty)

    def test_agrees_with_sweep(self):
        rng = random.Random(19)
        words = all_words("ab", 4)
        for _ in range(40):
            q = random_fccq(rng, max_atoms=2, max_rhs=3, max_constraints=0)
            q = type(q)((), q.equations, ())
            expected = all(brute_evaluate(q, w) for w in words)
            assert check_universality(q, AB) == expected


def check_k_ambiguous_bounded(q, k: int, max_len: int, alphabet) -> bool:
    """No word of length <= max_len yields more than k head assignments: a
    bounded refutation search, True when no counterexample is found."""
    words = [""]
    for w in words:
        if len(brute_evaluate(q, w)) > k:
            return False
        if len(w) < max_len:
            words.extend(w + a for a in alphabet)
    return True


class TestKAmbiguity:
    def test_intersecting_regexes_ambiguous(self):
        q = parse_query("ans(x) :- x = x1, x2 in /(a|b)*/, x2 in /a*/", AB)
        assert not check_k_ambiguous_bounded(q, 1, 3, AB)

    def test_empty_intersection_unambiguous(self):
        q = parse_query("ans(x) :- x = x1, x2 in /a/, x2 in /b/", AB)
        for k in (0, 1, 2):
            assert check_k_ambiguous_bounded(q, k, 3, AB)

    def test_prefix_query_not_1_ambiguous(self):
        q = parse_query("ans(x) :- u = x.y", AB)
        assert not check_k_ambiguous_bounded(q, 1, 2, AB)
        assert check_k_ambiguous_bounded(q, 3, 2, AB)


class TestJoinTreeFor:
    def test_kary_membership(self):
        from wordeq.decompose import k_ary_local_decomposition
        from conftest import pat
        two = k_ary_local_decomposition(pat("x1 x2 x3 x4 x2 x4 x1 x2 x5 x5 x1 x2"), 4)
        assert two is not None
        tree = gyo([(eq, eq.variables()) for eq in two.equations])
        assert tree is not None


class TestWidenedDifferential:
    def test_engine_matches_oracle(self):
        """plan + model_check / enumerate_results equal brute_evaluate on the
        shapes only `random_fccq_wide` emits, with and without pre-factoring;
        the fallback's answers equal the engine's, spans included."""
        rng = random.Random(0)
        words = all_words("ab", 3)
        shapes = {"u on a right side": 0, "empty right side": 0, "self-repeat": 0,
                  "constraint-only variable": 0, "constraint on u": 0}
        for _ in range(300):
            q = random_fccq_wide(rng)
            eq_vars = set().union(*(eq.variables() for eq in q.equations))
            shapes["u on a right side"] += any(UNIVERSE in eq.rhs for eq in q.equations)
            shapes["empty right side"] += any(not eq.rhs for eq in q.equations)
            shapes["self-repeat"] += any(not eq.lhs.is_universe and eq.lhs in eq.rhs
                                         for eq in q.equations)
            shapes["constraint-only variable"] += any(c.var not in eq_vars for c in q.constraints)
            shapes["constraint on u"] += any(c.var.is_universe for c in q.constraints)
            for prefactor in (False, True):
                try:
                    p = plan(q, prefactor=prefactor)
                except CyclicQueryError:
                    continue
                for w in words:
                    ix = build_index(w)
                    expected = brute_evaluate(q, w)
                    answers = list(enumerate_results(p, ix))
                    got = {tuple(r.words(ix)[h.name] for h in q.head) for r in answers}
                    assert got == expected, (q, prefactor, w)
                    assert model_check(p, ix) == bool(expected), (q, prefactor, w)
                    rendered = sorted(json.dumps(r.to_json_obj(ix)) for r in answers)
                    assert rendered == sorted(json.dumps(r.to_json_obj(ix))
                                              for r in brute_results(q, ix)), (q, prefactor, w)
        assert all(shapes.values()), shapes


SQUARE_QUERIES = [
    "ans(x) :- x = y.y, x in /a(a|b)*/",
    "ans(x) :- x = y.y",
    "ans(x,y) :- x = y.y",
    "ans(y) :- x = y.y",
    "ans() :- x = y.y, x in /a(a|b)*b/",
    "ans(x) :- x = y.y, y in /ab*/",
    "ans(x,z) :- x = y.y, z = x.x",
    "ans(x) :- x = y.y, y = z.z",
    "ans(y,z) :- x = y.y, x = z.z",
    "ans(x,w) :- x = y.y, w = x.z",
    "ans(x,y) :- x = y.y, u = z.x",
    "ans(x,z) :- x = y.y, z = y.y.y",
    "ans(y) :- x = y.y, x in /(ab)*/, y in /a(a|b)*/",
]


class TestSquares:
    def test_engine_matches_oracle(self, ab):
        """Square queries, most of them rooted at the free square, equal
        `brute_evaluate` on every word of at most 7 letters."""
        for text in SQUARE_QUERIES:
            q = parse_query(text, ab)
            p = plan(q)
            for w in all_words("ab", 7):
                expected = brute_evaluate(q, w)
                assert TestReversal.answers(p, w) == expected, (text, w)
                assert model_check(p, build_index(w)) == bool(expected), (text, w)


class TestRootInvariance:
    """Metamorphic: the answers do not depend on the node `_root` picks, and
    `check` agrees with `enum` under every root."""

    def test_every_root_gives_the_same_answers(self, ab, monkeypatch):
        from wordeq import evaluator
        rng = random.Random(17)
        queries = [parse_query(text, ab) for text in SQUARE_QUERIES]
        while len(queries) < 120:
            queries.append(random_fccq(rng) if len(queries) % 2 else random_fccq_wide(rng))
        seen = {"cyclic": 0, "empty": 0, "answers": 0}
        for q in queries:
            try:
                p = plan(q)
            except CyclicQueryError:
                seen["cyclic"] += 1
                continue
            n = rng.randint(8, 60)
            w = rng.choice(["".join(rng.choice("ab") for _ in range(n)), ("ab" * n)[:n], "a" * n, ("aab" * n)[:n]])
            expected = TestReversal.answers(p, w)
            for root in range(len(p.tree.nodes)):
                monkeypatch.setattr(evaluator, "_root", lambda *args, root=root: root)
                assert TestReversal.answers(p, w) == expected, (q, w, root)
                assert model_check(p, build_index(w)) == bool(expected), (q, w, root)
            monkeypatch.undo()
            seen["answers" if expected else "empty"] += 1
        assert min(seen.values()) >= 10, seen


def reversed_query(text: str) -> str:
    """The query with every right side reversed (its equations only)."""
    head, body = text.split(" :- ")
    atoms = []
    for atom in body.split(", "):
        lhs, rhs = atom.split(" = ")
        atoms.append(f"{lhs} = {'.'.join(reversed(rhs.split('.')))}")
    return f"{head} :- {', '.join(atoms)}"


class TestReversal:
    """Metamorphic checks on words too long for the oracle (Chen, Cheung &
    Yiu 1998): reversing the word and every right side reverses each answer
    word, and `check` agrees with `enum`.  Each query but the last meets a
    child that shares two variables with its parent, generated from the
    parent's rows; its reverse often meets another path.  `u = x.x.y.x`
    pins a child's left side and prefix, its reverse `u = x.y.x.x` the left
    side and suffix; `u = x.x.y` pins a prefix, and its reverse has a square
    child instead; `u = x.y.z.x` pins an inner node; `u = x.y, w = y.x`
    pins both right-side variables of w = y.x."""

    QUERIES = [
        ("ans(x,y) :- u = x.y.x", 120),
        ("ans(x,y) :- u = x.x.y", 120),
        ("ans(x,y) :- u = y.x.y", 120),
        ("ans(x,y) :- u = x.x.y.x", 120),
        ("ans(x,y,z) :- u = x.y.z.x", 120),
        ("ans(x,y) :- u = x.y, w = y.x", 120),
        # The free root z = x.y is cut at every cut of every factor, ~n^3/6
        # rows, so w = y.x is cut at its allowed ids instead.
        ("ans(x,y) :- z = x.y, w = y.x", 57),
    ]

    @staticmethod
    def words() -> list[str]:
        rng = random.Random(3)
        out = []
        for n in (20, 57, 120):
            out += ["".join(rng.choice("ab") for _ in range(n)), ("ab" * n)[:n], "a" * n]
        return out

    @staticmethod
    def answers(p, w: str) -> set[tuple[str, ...]]:
        ix = build_index(w)
        return {tuple(r.words(ix)[h.name] for h in p.query.head) for r in enumerate_results(p, ix)}

    @pytest.mark.parametrize("text, max_len", QUERIES)
    def test_reversed_word_and_query_reverse_the_answers(self, ab, text, max_len):
        forward = plan(parse_query(text, ab))
        backward = plan(parse_query(reversed_query(text), ab))
        boolean = plan(parse_query("ans() :- " + text.split(" :- ")[1], ab))
        for w in (w for w in self.words() if len(w) <= max_len):
            got = self.answers(forward, w)
            reversed_answers = {tuple(s[::-1] for s in a) for a in got}
            assert self.answers(backward, w[::-1]) == reversed_answers, (text, w)
            assert model_check(boolean, build_index(w)) == bool(got), (text, w)
            assert model_check(forward, build_index(w)) == bool(got), (text, w)

    @staticmethod
    def mirrored(q):
        """The query with every right side and every regex reversed."""
        def combine(node, operands):
            if isinstance(node, RConcat):
                return RConcat(operands[1], operands[0])
            return type(node)(*operands) if operands else node

        return replace(q, equations=tuple(WordEquation(eq.lhs, eq.rhs[::-1]) for eq in q.equations),
                       constraints=tuple(RegularConstraint(c.var, regex_fold(c.regex, combine))
                                         for c in q.constraints))

    def test_generated_queries(self):
        """The same checks on generated queries, each on one seeded word of
        8-60 letters; the reversed query must plan iff the query does."""
        rng = random.Random(5)
        seen = {"cyclic": 0, "empty": 0, "answers": 0}
        for k in range(300):
            q = random_fccq(rng) if k % 2 else random_fccq_wide(rng)
            try:
                forward = plan(q)
            except CyclicQueryError:
                with pytest.raises(CyclicQueryError):
                    plan(self.mirrored(q))
                seen["cyclic"] += 1
                continue
            backward = plan(self.mirrored(q))
            n = rng.randint(8, 60)
            w = rng.choice(["".join(rng.choice("ab") for _ in range(n)), ("ab" * n)[:n], "a" * n, ("aab" * n)[:n]])
            got = self.answers(forward, w)
            assert self.answers(backward, w[::-1]) == {tuple(s[::-1] for s in a) for a in got}, (q, w)
            assert model_check(forward, build_index(w)) == bool(got), (q, w)
            assert model_check(backward, build_index(w[::-1])) == bool(got), (q, w)
            seen["answers" if got else "empty"] += 1
        assert min(seen.values()) >= 30, seen
