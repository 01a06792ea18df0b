from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import pat, v
from wordeq.model import (
    Alphabet,
    UNIVERSE,
    UnboundVariableError,
    Variable,
    apply_substitution,
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
