from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import random
from typing import Iterable, Optional, Sequence

from conftest import pat, random_fccq, random_fccq_wide, v
from wordeq.model import (
    Alphabet,
    CyclicQueryError,
    Pattern,
    UNIVERSE,
    Variable,
    default_alphabet,
    gyo,
    vars_of,
    verify_join_tree,
    JoinTree,
)


class TestVariable:
    def test_hash_is_the_name_hash(self):
        # The name decides the universe flag, so hashing the name alone is
        # consistent with equality.
        assert hash(Variable("x")) == hash("x")
        assert hash(UNIVERSE) == hash(UNIVERSE.name)
        assert {Variable("x"): 1}[Variable("x")] == 1
        assert Variable("x") != Variable("y")
        with pytest.raises(ValueError):
            Variable(UNIVERSE.name)


class TestVarsOf:
    def test_mixed_terminals_and_variables(self):
        # ab x ba x y x
        p = ("a", "b", v("x"), "b", "a", v("x"), v("y"), v("x"))
        assert vars_of(p) == {v("x"), v("y")}

    def test_empty(self):
        assert vars_of(()) == set()

    def test_terminal_only(self):
        assert vars_of(tuple("abba")) == set()


class UnboundVariableError(Exception):
    """A pattern variable that the substitution does not bind."""


def apply_substitution(p: Pattern, subst: dict[Variable, str]) -> str:
    """Morphic image of the pattern: terminals fixed, variables replaced."""
    out: list[str] = []
    for it in p:
        if isinstance(it, Variable):
            if it not in subst:
                raise UnboundVariableError(f"variable {it} not bound by the substitution")
            out.append(subst[it])
        else:
            out.append(it)
    return "".join(out)


class TestApplySubstitution:
    def test_known_morphic_image(self):
        p = ("a", "b", v("x"), "b", "a", v("x"), v("y"), v("x"))
        assert apply_substitution(p, {v("x"): "aa", v("y"): ""}) == "abaabaaaaa"

    def test_epsilon(self):
        assert apply_substitution((v("x"),), {v("x"): ""}) == ""

    def test_doubling(self):
        assert apply_substitution((v("x"), v("x")), {v("x"): "ab"}) == "abab"

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            apply_substitution((v("x"),), {})

    @given(st.lists(st.sampled_from(["a", "b", "x", "y"]), max_size=8),
           st.lists(st.sampled_from(["a", "b", "x", "y"]), max_size=8),
           st.text(alphabet="ab", max_size=4), st.text(alphabet="ab", max_size=4))
    def test_morphism(self, left, right, wx, wy):
        subst = {v("x"): wx, v("y"): wy}
        mk = lambda items: tuple(v(i) if i in ("x", "y") else i for i in items)
        p, q = mk(left), mk(right)
        assert apply_substitution(p + q, subst) == \
            apply_substitution(p, subst) + apply_substitution(q, subst)


class TestGyo:
    def test_acyclic_triangle_free(self):
        t = gyo([("R", pat("x y")), ("S", pat("y z")), ("T", pat("z y"))])
        assert t is not None
        assert verify_join_tree(t)
        assert len(t.edges) == 2

    def test_cyclic_triangle(self):
        assert gyo([("R'", pat("x y")), ("S'", pat("y z")), ("T'", pat("z x"))]) is None

    def test_single_node(self):
        t = gyo([("R", pat("x"))])
        assert t is not None and t.edges == ()

    def test_universe_is_constant(self):
        # Two atoms sharing only u must still form a tree.
        t = gyo([("A", {UNIVERSE, v("x")}), ("B", {UNIVERSE, v("y")}),
                 ("C", {v("x"), v("y")})])
        assert t is not None and verify_join_tree(t)

    def test_deterministic(self):
        atoms = [("A", pat("x y")), ("B", pat("y z")), ("C", pat("z"))]
        t1, t2 = gyo(atoms), gyo(atoms)
        assert t1 is not None and t1.edges == t2.edges


class TestVerifyJoinTree:
    def test_broken_chain(self):
        # R(x,y) - S(y,z) - T(z,x): the path between the x-nodes misses x.
        nodes = ("R", "S", "T")
        var_sets = (frozenset(pat("x y")), frozenset(pat("y z")), frozenset(pat("z x")))
        t = JoinTree(nodes, var_sets, ((0, 1), (1, 2)))
        assert not verify_join_tree(t)

    def test_single(self):
        t = JoinTree(("R",), (frozenset(pat("x y")),), ())
        assert verify_join_tree(t)

    def test_gyo_output_always_verifies(self):
        import random
        rng = random.Random(11)
        pool = [v(c) for c in "wxyz"]
        for _ in range(300):
            atoms = []
            for i in range(rng.randint(1, 5)):
                k = rng.randint(1, 3)
                atoms.append((f"R{i}", {rng.choice(pool) for _ in range(k)}))
            t = gyo(atoms)
            if t is not None:
                assert verify_join_tree(t)


# --- the mark-and-absorb reference -------------------------------------------------
# The first mark-and-absorb and join-tree check, which rescan every pair of
# nodes each round and every node per variable.  `oracle.bracketing_is_acyclic`
# runs `model.gyo`, so these keep the oracle honest too.


def reference_gyo(atoms: Sequence[tuple[object, Iterable[Variable]]]) -> Optional[JoinTree]:
    """Mark-and-absorb acyclicity test; returns a join tree or None if cyclic.

    Tie-breaking is deterministic: the lowest-index absorbable node is
    absorbed into the lowest-index eligible absorber.
    """
    payloads = tuple(name for name, _ in atoms)
    var_sets = tuple(frozenset(v for v in vs if not v.is_universe) for _, vs in atoms)
    n = len(payloads)
    if n == 0:
        raise ValueError("gyo needs at least one atom")

    unmarked_nodes = set(range(n))
    marked_vars: set[Variable] = set()
    edges: list[tuple[int, int]] = []

    def live(i: int) -> frozenset[Variable]:
        return var_sets[i] - marked_vars

    while True:
        changed = False
        # (a) absorb one node whose live variables are covered by another.
        for i in sorted(unmarked_nodes):
            absorber = None
            for j in sorted(unmarked_nodes):
                if i != j and live(i) <= live(j):
                    absorber = j
                    break
            if absorber is not None:
                edges.append((i, absorber))
                unmarked_nodes.remove(i)
                changed = True
                break
        # (b) mark variables occurring in exactly one unmarked node.
        counts: dict[Variable, int] = {}
        for i in unmarked_nodes:
            for v in live(i):
                counts[v] = counts.get(v, 0) + 1
        for v, c in counts.items():
            if c == 1:
                marked_vars.add(v)
                changed = True
        if not changed:
            break

    if len(unmarked_nodes) == 1:
        return JoinTree(payloads, var_sets, tuple(edges))
    return None


def reference_verify_join_tree(tree: JoinTree) -> bool:
    """Check tree-ness plus the path-connectedness condition for every variable."""
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
    all_vars = set().union(*tree.var_sets) if tree.var_sets else set()
    for x in all_vars:
        holders = [i for i in range(n) if x in tree.var_sets[i]]
        if len(holders) <= 1:
            continue
        # Occurrences of x must induce a connected subgraph.
        comp = {holders[0]}
        stack = [holders[0]]
        hold = set(holders)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in hold and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != hold:
            return False
    return True


def random_hypergraph(rng: random.Random) -> list[tuple[int, set[Variable]]]:
    """1-16 atoms over at most 12 variables, `u` among them: empty atoms,
    copies of earlier atoms, atoms grown from an earlier one (which keeps
    many of them acyclic) and arbitrary ones."""
    pool = [UNIVERSE] + [Variable(f"x{k}") for k in range(1, rng.randint(1, 12))]
    atoms: list[tuple[int, set[Variable]]] = []
    for i in range(rng.randint(1, 16)):
        roll = rng.random()
        if roll < 0.08:
            vs: set[Variable] = set()
        elif roll < 0.16 and atoms:
            vs = set(rng.choice(atoms)[1])
        elif roll < 0.5 and atoms:
            base = sorted(rng.choice(atoms)[1], key=str)
            vs = set(rng.sample(base, rng.randint(0, len(base))))
            vs |= {rng.choice(pool) for _ in range(rng.randint(0, 2))}
        else:
            vs = {rng.choice(pool) for _ in range(rng.randint(1, 4))}
        atoms.append((i, vs))
    return atoms


def random_tree(rng: random.Random, var_sets: tuple[frozenset[Variable], ...]) -> JoinTree:
    """A random tree over the nodes, edges shuffled and randomly oriented,
    then often broken: a self-loop, an edge dropped, added, repeated or
    moved (which can disconnect it)."""
    n = len(var_sets)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    roll = rng.random()
    if roll < 0.1 and edges:
        k = rng.randrange(len(edges))
        edges[k] = (edges[k][0], edges[k][0])
    elif roll < 0.2 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif roll < 0.3:
        edges.append((rng.randrange(n), rng.randrange(n)))
    elif roll < 0.4 and edges:
        edges.append(rng.choice(edges))
    elif roll < 0.5 and edges:
        k = rng.randrange(len(edges))
        edges[k] = (rng.randrange(n), rng.randrange(n))
    return JoinTree(tuple(range(n)), var_sets, tuple(edges))


class TestAgainstReference:
    def test_random_hypergraphs(self):
        rng = random.Random(5)
        acyclic = cyclic = 0
        for _ in range(20_000):
            atoms = random_hypergraph(rng)
            got, expected = gyo(atoms), reference_gyo(atoms)
            assert (got is None) == (expected is None), atoms
            if got is None:
                cyclic += 1
            else:
                acyclic += 1
                assert got.edges == expected.edges, atoms
                assert got.var_sets == expected.var_sets
        assert acyclic > 10_000 and cyclic > 3_000

    def test_planned_trees(self, monkeypatch):
        """The weak tree and every per-atom tree the planner builds."""
        import wordeq.planner as planner
        from wordeq.planner import plan
        calls = []

        def both(atoms):
            atoms = list(atoms)
            got, expected = gyo(atoms), reference_gyo(atoms)
            assert (None if got is None else got.edges) == \
                (None if expected is None else expected.edges), atoms
            calls.append(len(atoms))
            return got

        monkeypatch.setattr(planner, "gyo", both)
        rng = random.Random(19)
        for k in range(600):
            q = random_fccq(rng, max_atoms=8) if k % 2 else random_fccq_wide(rng)
            try:
                plan(q)
            except CyclicQueryError:
                pass
        assert len(calls) > 1000 and max(calls) >= 8

    def test_verify_verdicts(self):
        rng = random.Random(23)
        verdicts = {True: 0, False: 0}
        for _ in range(20_000):
            atoms = random_hypergraph(rng)
            found = gyo(atoms)
            if found is not None and rng.random() < 0.5:
                tree = found
            else:
                var_sets = tuple(frozenset(vs) - {UNIVERSE} for _, vs in atoms)
                tree = random_tree(rng, var_sets)
            expected = reference_verify_join_tree(tree)
            assert verify_join_tree(tree) == expected, tree
            verdicts[expected] += 1
        assert min(verdicts.values()) > 5_000


class TestAlphabet:
    def test_default_excludes_reserved(self):
        a = default_alphabet()
        assert "S" not in a and "'" not in a and "a" in a

    def test_rejects_metacharacters(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "*"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_universe_name_guard(self):
        with pytest.raises(ValueError):
            Variable("u")  # must use the UNIVERSE singleton
        assert UNIVERSE.is_universe
