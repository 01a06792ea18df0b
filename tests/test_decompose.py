from __future__ import annotations

import hashlib
import itertools
import random
import sys

import pytest

from conftest import alpha_equivalent, canonical_patterns, pat, two_from_text, v
from wordeq.decompose import (
    _Intervals,
    _solve_binary,
    concat_tree_of,
    constrained_acyclic_bracketing,
    decompose_atom_with_constraints,
    decompose_bracketing,
    find_acyclic_decomposition,
    is_acyclic_bracketing,
    is_acyclic_pattern,
    k_ary_local_decomposition,
    terminal_free_core,
)
from wordeq.model import (
    BLeaf,
    BNode,
    NotTerminalFreeError,
    UNIVERSE,
    Variable,
    WordEquation,
    gyo,
)
from wordeq.oracle import all_bracketings, bracketing_is_acyclic, brute_acyclic


def L(name: str) -> BLeaf:
    return BLeaf(v(name))


def N(*children) -> BNode:
    return BNode(tuple(children))


def spelled(two) -> tuple:
    """The pattern a decomposition rooted at `u` spells, expanded with an
    explicit stack."""
    defs = {**two.defining(), UNIVERSE: two.root_equation()}
    leaves, todo = [], [UNIVERSE]
    while todo:
        x = todo.pop()
        if x in defs:
            todo.extend(reversed(defs[x].rhs))
        else:
            leaves.append(x)
    return tuple(leaves)


def assert_valid_decomposition(two, root, pattern):
    assert two.expand(root) == pattern
    assert gyo([(eq, eq.variables()) for eq in two.equations]) is not None


class TestIsAcyclicPattern:
    def test_known_cyclic(self):
        assert not is_acyclic_pattern(pat("x1 x2 x1 x3 x1"))

    def test_known_acyclic(self):
        assert is_acyclic_pattern(pat("x1 x2 x3 x1"))

    def test_single_variable(self):
        assert is_acyclic_pattern(pat("x"))

    def test_terminals_rejected(self):
        with pytest.raises(NotTerminalFreeError):
            is_acyclic_pattern((v("x"), "a"))

    def test_matches_brute_small(self):
        for p in canonical_patterns(6, 3):
            assert is_acyclic_pattern(p) == brute_acyclic(p), p

    def test_matches_brute_random_len8(self):
        rng = random.Random(23)
        pool = [Variable(f"x{i}") for i in range(1, 5)]
        seen = {}
        for _ in range(250):
            p = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
            if p not in seen:
                seen[p] = brute_acyclic(p)
            assert is_acyclic_pattern(p) == seen[p], p


    def test_every_interval_gets_its_factors_own_verdict(self):
        # The search decides each factor once, at the first interval that
        # spells it; every interval must get the verdict of its factor alone.
        rng = random.Random(41)
        pool = [Variable(f"x{i}") for i in range(1, 5)]
        for _ in range(200):
            m = rng.randint(1, 4)
            p = tuple(rng.choice(pool[:m]) for _ in range(rng.randint(1, 12)))
            deriv = _solve_binary(_Intervals(p))
            for i in range(1, len(p) + 1):
                for k in range(i, len(p) + 1):
                    assert deriv.acyclic(i, k) == is_acyclic_pattern(p[i - 1:k]), (p, i, k)


def _shown(found) -> str:
    if found is None:
        return "-"
    if isinstance(found, BLeaf):
        return found.var.name
    if isinstance(found, BNode):
        return "(" + " ".join(_shown(c) for c in found.children) + ")"
    return "; ".join(str(eq) for eq in found.equations)


class TestGoldenOutputs:
    # sha256 of the text below as printed by the search that checked every
    # split of every interval; the per-factor search must print it unchanged.
    DIGEST = "5fdd6e3a410ae073dd56ca1f60644b8a499361f251057f56f0a0223221a3a5dc"

    def test_search_outputs_unchanged(self):
        lines = []
        for p in canonical_patterns(7, 4):
            xs = sorted(set(p), key=lambda x: x.name)
            parts = [".".join(x.name for x in p), _shown(find_acyclic_decomposition(p)),
                     _shown(k_ary_local_decomposition(p, 2)), _shown(k_ary_local_decomposition(p, 3))]
            parts += [_shown(constrained_acyclic_bracketing(p, [frozenset(c)]))
                      for c in itertools.combinations(xs, 2)]
            lines.append(" | ".join(parts))
        text = "\n".join(lines) + "\n"
        assert len(lines) == 976
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestBracketings:
    def test_shared_repeat_localized(self):
        # ((x1.x2).(x1.x2)) shares one introduced variable and is acyclic.
        assert is_acyclic_bracketing(N(N(L("x1"), L("x2")), N(L("x1"), L("x2"))))

    def test_left_deep_not_x2_localized(self):
        assert not is_acyclic_bracketing(N(N(N(L("x1"), L("x2")), L("x1")), L("x2")))

    def test_part2_bracketings(self):
        assert is_acyclic_bracketing(N(N(L("x1"), N(L("x2"), L("x3"))), L("x1")))
        assert not is_acyclic_bracketing(N(N(L("x1"), L("x2")), N(L("x3"), L("x1"))))

    def test_localization_equals_gyo_exhaustively(self):
        for p in canonical_patterns(6, 3):
            for b in all_bracketings(p):
                assert is_acyclic_bracketing(b) == bracketing_is_acyclic(b), (p, b)


class TestDecomposeBracketing:
    def test_shared_subbracketing_golden(self):
        b = N(N(N(L("x1"), L("x2")), L("x1")), N(L("x1"), L("x2")))
        two = decompose_bracketing(b, UNIVERSE)
        expected = two_from_text("""
            z1 = x1.x2
            z2 = z1.x1
            u = z2.z1
        """, introduced="z1 z2")
        assert alpha_equivalent(two, expected)
        assert_valid_decomposition(two, UNIVERSE, pat("x1 x2 x1 x1 x2"))

    def test_four_ary_golden(self):
        b = N(
            N(
                N(L("x1"), L("x2"), L("x3")),
                N(L("x4"), L("x2"), L("x4")),
                N(L("x1"), L("x2")),
                N(L("x5"), L("x5")),
            ),
            N(L("x1"), L("x2")),
        )
        two = decompose_bracketing(b, UNIVERSE)
        expected = two_from_text("""
            z1 = x1.x2.x3
            z2 = x4.x2.x4
            z3 = x1.x2
            z4 = x5.x5
            z5 = z1.z2.z3.z4
            u = z5.z3
        """, introduced="z1 z2 z3 z4 z5")
        assert alpha_equivalent(two, expected)

    def test_single_leaf_copy(self):
        two = decompose_bracketing(L("x"), v("r"))
        assert [(eq.lhs, eq.rhs) for eq in two.equations] == [(v("r"), (v("x"),))]


class TestFindDecomposition:
    def test_acyclic_witness(self):
        two = find_acyclic_decomposition(pat("x1 x2 x3 x1"), UNIVERSE)
        assert two is not None
        assert_valid_decomposition(two, UNIVERSE, pat("x1 x2 x3 x1"))

    def test_cyclic_returns_none(self):
        assert find_acyclic_decomposition(pat("x1 x2 x1 x3 x1"), UNIVERSE) is None

    def test_example_decomp_pattern(self):
        two = find_acyclic_decomposition(pat("x1 x2 x1 x1 x2"), UNIVERSE)
        assert two is not None
        assert_valid_decomposition(two, UNIVERSE, pat("x1 x2 x1 x1 x2"))

    def test_deeper_than_the_recursion_limit(self):
        # x1^n nests n deep: the search's bracketing is built and walked
        # with explicit stacks, and k-local at k = 2 is the same search.
        p = (v("x1"),) * (sys.getrecursionlimit() + 100)
        for two in (find_acyclic_decomposition(p, UNIVERSE), k_ary_local_decomposition(p, 2)):
            assert two is not None
            assert spelled(two) == p

    def test_always_sound(self):
        for p in canonical_patterns(7, 3):
            two = find_acyclic_decomposition(p, UNIVERSE)
            assert (two is not None) == is_acyclic_pattern(p)
            if two is not None:
                assert_valid_decomposition(two, UNIVERSE, p)


class TestConstrainedBracketings:
    def test_adjacent_pair(self):
        b = constrained_acyclic_bracketing(pat("x y"), [frozenset({v("x"), v("y")})])
        assert b == N(L("x"), L("y"))

    def test_impossible_pair(self):
        assert constrained_acyclic_bracketing(
            pat("x z y"), [frozenset({v("x"), v("y")})]) is None

    def test_pair_then_rest(self):
        b = constrained_acyclic_bracketing(pat("x y z"), [frozenset({v("x"), v("y")})])
        assert b == N(N(L("x"), L("y")), L("z"))

    def test_missing_variable_impossible(self):
        assert constrained_acyclic_bracketing(
            pat("x y"), [frozenset({v("x"), v("q")})]) is None

    def test_matches_exhaustive_search(self):
        # Constrained search agrees with filtering all bracketings by hand.
        rng = random.Random(3)
        pool = [Variable(f"x{i}") for i in range(1, 4)]

        def has_adjacent(b, x, y) -> bool:
            if isinstance(b, BLeaf):
                return False
            kids = b.children
            if len(kids) == 2 and all(isinstance(c, BLeaf) for c in kids):
                if {kids[0].var, kids[1].var} == {x, y}:
                    return True
            return any(has_adjacent(c, x, y) for c in kids)

        for _ in range(150):
            p = tuple(rng.choice(pool) for _ in range(rng.randint(2, 6)))
            xs = sorted(set(p), key=lambda q: q.name)
            if len(xs) < 2:
                continue
            x, y = rng.sample(xs, 2)
            c = frozenset({x, y})
            got = constrained_acyclic_bracketing(p, [c])
            expected = any(bracketing_is_acyclic(b) and has_adjacent(b, x, y)
                           for b in all_bracketings(p))
            assert (got is not None) == expected, (p, x, y)
            if got is not None:
                assert has_adjacent(got, x, y)
                assert bracketing_is_acyclic(got)


class TestAtomDecomposition:
    def test_lhs_pair_prefix_suffix(self):
        eq = WordEquation(v("z"), pat("y x1 x2 y"))
        two = decompose_atom_with_constraints(eq, [frozenset({v("z"), v("y")})])
        assert two is not None
        root = two.root_equation()
        assert root.lhs == v("z") and v("y") in root.rhs
        assert_valid_decomposition(two, v("z"), pat("y x1 x2 y"))

    def test_lhs_pair_blocked(self):
        eq = WordEquation(v("z"), pat("x1 y x2"))
        assert decompose_atom_with_constraints(eq, [frozenset({v("z"), v("y")})]) is None

    def test_unconstrained(self):
        eq = WordEquation(v("z"), pat("x1 x2"))
        two = decompose_atom_with_constraints(eq, [])
        assert two is not None and len(two.equations) == 1

    def test_overlapping_pairs_impossible(self):
        eq = WordEquation(v("z"), pat("x1 x2 x3"))
        pairs = [frozenset({v("x1"), v("x2")}), frozenset({v("x1"), v("x3")})]
        assert decompose_atom_with_constraints(eq, pairs) is None

    def test_pair_coverage_invariant(self):
        rng = random.Random(17)
        pool = [Variable(f"x{i}") for i in range(1, 4)]
        for _ in range(200):
            rhs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
            lhs = v("z")
            candidates = sorted(set(rhs) | {lhs}, key=lambda q: q.name)
            x, y = rng.sample(candidates, 2) if len(candidates) >= 2 else (lhs, rhs[0])
            pairs = [frozenset({x, y})] if x != y else []
            two = decompose_atom_with_constraints(WordEquation(lhs, rhs), pairs)
            if two is None:
                continue
            assert_valid_decomposition(two, lhs, rhs)
            for c in pairs:
                assert any(c <= atom.variables() for atom in two.equations)


    def test_matches_find_on_every_acyclic_pattern(self):
        # Without pairs the planner's route is find's route: equal factors
        # share a variable even where the search brackets them differently.
        r = v("r")
        for p in canonical_patterns(7, 4):
            if not is_acyclic_pattern(p):
                continue
            two = decompose_atom_with_constraints(WordEquation(r, p), [])
            assert two is not None, p
            assert_valid_decomposition(two, r, p)
            assert alpha_equivalent(two, find_acyclic_decomposition(p, r)), p


class TestKary:
    def test_k2_equals_binary(self):
        for p in canonical_patterns(6, 3):
            assert (k_ary_local_decomposition(p, 2) is None) == \
                (find_acyclic_decomposition(p) is None)

    def test_kfold_pattern_with_k4(self):
        p = pat("x1 x2 x3 x4 x2 x4 x1 x2 x5 x5 x1 x2")
        two = k_ary_local_decomposition(p, 4)
        assert two is not None
        assert two.expand(UNIVERSE) == p
        assert all(len(eq.rhs) <= 4 for eq in two.equations)
        assert gyo([(eq, eq.variables()) for eq in two.equations]) is not None

    def test_short_patterns_trivial(self):
        for k in (2, 3, 4):
            for p in [pat("x"), pat("x y"), pat("x y z")[:k]]:
                assert k_ary_local_decomposition(p, k) is not None

    def test_3ary_witness_acyclic_but_not_localized(self):
        # ((x3.x3).((x3.x3).x2).(x1.((x3.x3).x2)))
        inner = N(N(L("x3"), L("x3")), L("x2"))
        b = N(N(L("x3"), L("x3")), inner, N(L("x1"), inner))
        two = decompose_bracketing(b, UNIVERSE)
        expected = two_from_text("""
            z1 = x3.x3
            z2 = z1.x2
            z3 = x1.z2
            u = z1.z2.z3
        """, introduced="z1 z2 z3")
        assert alpha_equivalent(two, expected)
        assert gyo([(eq, eq.variables()) for eq in two.equations]) is not None
        assert not concat_tree_of(two, UNIVERSE).is_localized()

    def test_backtracking_regression(self):
        # The greedy, commit-first derivation dead-ends on this pattern at
        # k = 4 even though the fixed point reaches the full interval.
        p = pat("x4 x1 x1 x4 x4 x4 x2 x1")
        for k in (3, 4):
            two = k_ary_local_decomposition(p, k)
            assert two is not None, k
            assert two.expand(UNIVERSE) == p
            assert gyo([(eq, eq.variables()) for eq in two.equations]) is not None

    def test_k_monotone(self):
        # A localized decomposition at arity k is one at k+1 as well.
        import random
        rng = random.Random(71)
        pool = [Variable(f"x{i}") for i in range(1, 5)]
        for _ in range(250):
            p = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
            results = [k_ary_local_decomposition(p, k) is not None for k in (2, 3, 4)]
            assert results == sorted(results), p

    def test_deeper_than_the_recursion_limit(self):
        # At k = 3 the first tuple of x1^n is (x1, x1^(n-1)), so the
        # derivation nests n deep; it runs on an explicit stack.
        p = (v("x1"),) * 150
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            two = k_ary_local_decomposition(p, 3)
        finally:
            sys.setrecursionlimit(limit)
        assert two is not None
        assert spelled(two) == p

    def test_outputs_beyond_the_golden_set(self):
        # sha256 of the k = 3 and k = 4 outputs below as printed by the
        # search that tried every composition of every interval; the golden
        # test stops at length 7, these patterns run from 8 to 12.
        rng = random.Random(12)
        lines = []
        for _ in range(120):
            pool = [Variable(f"x{i}") for i in range(1, rng.randint(1, 4) + 1)]
            p = tuple(rng.choice(pool) for _ in range(rng.randint(8, 12)))
            lines.append(" | ".join([".".join(x.name for x in p), _shown(k_ary_local_decomposition(p, 3)),
                                     _shown(k_ary_local_decomposition(p, 4))]))
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "051088e9e330f936f07971283ac8004b8d1246338c2633ec5292123ca0149ce3"

    def test_localized_output_only(self):
        # Whenever the k-ary engine answers, its decomposition is localized
        # (hence acyclic); it may reject some acyclic patterns for k >= 3.
        rng = random.Random(9)
        pool = [Variable(f"x{i}") for i in range(1, 4)]
        for _ in range(120):
            p = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
            two = k_ary_local_decomposition(p, 3)
            if two is not None:
                assert two.expand(UNIVERSE) == p
                assert gyo([(eq, eq.variables()) for eq in two.equations]) is not None
                assert concat_tree_of(two, UNIVERSE).is_localized()


class TestTerminalFreeCore:
    def test_blocks_replaced(self):
        p = ("a", "b", v("x"), "b", "a", v("x"), v("y"), v("x"))
        core, blocks = terminal_free_core(p)
        assert len(core) == 8 - 4 + 2
        words = sorted(blocks.values())
        assert words == ["ab", "ba"]
        assert core[1] == v("x") and core[3] == v("x")

    def test_terminal_free_unchanged(self):
        p = pat("x y")
        core, blocks = terminal_free_core(p)
        assert core == p and blocks == {}

    def test_all_terminal(self):
        core, blocks = terminal_free_core(tuple("abc"))
        assert len(core) == 1 and list(blocks.values()) == ["abc"]
