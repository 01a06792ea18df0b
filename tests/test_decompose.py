from __future__ import annotations

import hashlib
import itertools
import random
import sys

import pytest

from conftest import alpha_equivalent, canonical_patterns, pat, two_from_text, v
from localization import concat_tree_of, is_acyclic_bracketing
from wordeq.decompose import (
    _choose_split,
    _Intervals,
    _solve_binary,
    _solve_kary,
    constrained_acyclic_bracketing,
    decompose_atom_with_constraints,
    find_acyclic_decomposition,
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
from wordeq.oracle import all_bracketings, bracketing_is_acyclic, brute_acyclic, decompose_bracketing


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


class TrieIntervals:
    """Reference factor ids and variable masks of all intervals, flat lists
    indexed by ``i * (n + 1) + j`` for [i..j], filled one interval at a time
    as the search once did: a factor's id is a node of the trie of all
    factors, the factor one symbol shorter extended by its last symbol."""

    def __init__(self, pat):
        self.pat = tuple(pat)
        n = self.n = len(pat)
        w = n + 1
        number = {}
        self.codes = codes = [number.setdefault(x, len(number)) for x in pat]
        self.fid = fid = [-1] * (w * w)
        self.mask = mask = [0] * (w * w)
        trie = {}
        symbols = len(number)
        for i in range(1, n + 1):
            m = 0
            f = -1
            for j in range(i, n + 1):
                c = codes[j - 1]
                m |= 1 << c
                mask[i * w + j] = m
                f = trie.setdefault((f + 1) * symbols + c, len(trie))
                fid[i * w + j] = f
        self.factors = len(trie)


def pair_ok(ref, partner, i, j, k) -> bool:
    """The pair rule of the constrained search on reference masks: a length-2
    seed is a required pair or two unpaired variables, and a paired single
    variable is concatenated only to a part over exactly its pair."""
    w = ref.n + 1
    a, b = partner[ref.codes[i - 1]], partner[ref.codes[k - 1]]
    if i + 1 == k:
        return a == b == 0 or a == ref.mask[i * w + k]
    if i == j:
        return a == 0 or a == ref.mask[(j + 1) * w + k]
    if j + 1 == k:
        return b == 0 or b == ref.mask[i * w + j]
    return True


def eager_splits(ref, partner=None) -> list[int]:
    """The reference split sets, per reference factor id: bit ``a`` of
    ``splits[f]`` is set when cutting factor ``f`` after its ``a``-th symbol
    is an edge.  Every interval is visited, in length order, and every
    candidate split of the first interval spelling a factor is checked,
    none left for later."""
    n = ref.n
    w = n + 1
    fid, mask = ref.fid, ref.mask
    splits = [-1] * ref.factors
    start = [0] * (n + 1)
    end = [0] * (n + 1)
    for i in range(1, n + 1):
        splits[fid[i * w + i]] = 0
        start[i] = 1 << i
        end[i] = 1 << (i - 1)
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            k = i + length - 1
            at = i * w
            f = fid[at + k]
            s = splits[f]
            if s < 0:
                s = 0
                candidates = start[i] & end[k]
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    j = low.bit_length() - 1
                    la, lb = j + 1 - i, k - j
                    lf, rf = fid[at + j], fid[(j + 1) * w + k]
                    if (lf == rf or mask[at + j] & mask[(j + 1) * w + k] == 0
                            or lb < la and (splits[lf] >> lb & 1 and fid[at + i + lb - 1] == rf
                                            or splits[lf] >> (la - lb) & 1
                                            and fid[(j + 1 - lb) * w + j] == rf)
                            or la < lb and (splits[rf] >> la & 1 and fid[(j + 1) * w + j + la] == lf
                                            or splits[rf] >> (lb - la) & 1
                                            and fid[(k + 1 - la) * w + k] == lf)):
                        if partner is None or pair_ok(ref, partner, i, j, k):
                            s |= 1 << la
                splits[f] = s
            if s:
                start[i] |= 1 << k
                end[k] |= 1 << (i - 1)
    return splits


def split_corpus():
    """Patterns, each with no pairs and with the partner masks of one random
    pair: every pattern of up to 7 symbols over 4 variables, seeded random
    patterns of up to 40 symbols and block patterns of up to 60.  Each comes
    with the search's intervals and the reference ones."""
    rng = random.Random(67)
    pool = [Variable(f"x{i}") for i in range(1, 6)]
    patterns = list(canonical_patterns(7, 4))
    for _ in range(40):
        m = rng.randint(1, 5)
        patterns.append(tuple(rng.choice(pool[:m]) for _ in range(rng.randint(1, 40))))
    for _ in range(30):
        block = rng.sample(pool, rng.randint(1, 4))
        length = rng.randint(1, 60)
        patterns.append(tuple(block * (length // len(block) + 1))[:length])
    for p in patterns:
        ivs, ref = _Intervals(p), TrieIntervals(p)
        yield ivs, ref, None
        xs = sorted(set(p), key=lambda x: x.name)
        if len(xs) >= 2:
            pair = rng.sample(xs, 2)
            code = dict(zip(p, ivs.codes))
            partner = [0] * len(code)
            for x in pair:
                partner[code[x]] = sum(1 << code[y] for y in pair)
            yield ivs, ref, partner


def first_intervals(ref):
    """The first interval [i..k] spelling each factor, by reference id."""
    w = ref.n + 1
    at = {}
    for i in range(1, ref.n + 1):
        for k in range(i, ref.n + 1):
            at.setdefault(ref.fid[i * w + k], (i, k))
    return at


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


class TestFactorIds:
    def test_ids_are_leftmost_keys(self):
        # Two intervals share an id iff they spell the same factor (the
        # reference trie ids say which do), and each id is the key
        # start * (n + 1) + length of the factor's leftmost occurrence.
        for ivs, ref, partner in split_corpus():
            if partner is not None:
                continue
            p, n = ivs.pat, ivs.n
            w = n + 1
            to_ref, from_ref, leftmost = {}, {}, {}
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    f, g = ivs.fid[i * w + j], ref.fid[i * w + j]
                    assert to_ref.setdefault(f, g) == g and from_ref.setdefault(g, f) == f, (p, i, j)
                    assert f == leftmost.setdefault(p[i - 1:j], (i - 1) * w + j - i + 1), (p, i, j)
            assert len(to_ref) == ref.factors


class TestLazySplits:
    def test_every_split_bit_matches_the_eager_search(self):
        # Up to the length where the pass stopped, every factor's first
        # split is the eager search's lowest one.  Past it no factor has a
        # split in the eager search either, and none is acyclic.
        for ivs, ref, partner in split_corpus():
            splits = eager_splits(ref, partner)
            deriv = _solve_binary(ivs, partner)
            assert 1 <= deriv.reached <= max(ivs.n, 1)
            w = ivs.n + 1
            for g, (i, k) in first_intervals(ref).items():
                s, f = splits[g], ivs.fid[i * w + k]
                if k - i + 1 <= deriv.reached:
                    lowest = (s & -s).bit_length() - 1 if s else 0
                    assert deriv.first.get(f, 0) == lowest, (ivs.pat, partner, i, k)
                else:
                    assert s == 0 and not deriv.acyclic(i, k), (ivs.pat, partner, i, k)
                for a in range(1, k - i + 1):
                    assert deriv.split(i, k, a) == bool(s >> a & 1), (ivs.pat, partner, i, k, a)

    def test_long_random_patterns_match_the_eager_search(self):
        # Random patterns have short acyclic factors only, so the pass stops
        # early on the long ones; a block pattern with one symbol changed
        # has long acyclic factors, so it stops late or not at all.  Each
        # verdict must be the eager search's.
        rng = random.Random(29)
        pool = [Variable(f"x{i}") for i in range(1, 6)]
        verdicts, stopped = [], 0
        for t in range(90):
            xs = pool[:3 + t % 3]
            if t % 3 == 2:
                block = rng.sample(xs, rng.randint(1, len(xs)))
                p = list(block * 200)[:rng.randint(1, 200)]
                p[rng.randrange(len(p))] = rng.choice(xs)
                p = tuple(p)
            else:
                p = tuple(rng.choice(xs) for _ in range(rng.randint(1, 200 if t % 3 else 16)))
            ref = TrieIntervals(p)
            eager = eager_splits(ref)[ref.fid[2 * ref.n + 1]] > 0 or len(p) == 1
            deriv = _solve_binary(_Intervals(p))
            assert is_acyclic_pattern(p) == deriv.acyclic(1, len(p)) == eager, p
            verdicts.append(eager)
            stopped += deriv.reached < len(p)
        assert stopped >= 20 and verdicts.count(True) >= 20

    def test_bracketing_takes_the_first_split_and_its_first_witness(self):
        # The rule the bracketing relies on: every edge has a witness among
        # its children's eager splits, so the first split of a factor is the
        # one taken, and its witness is the first matching split of a child.
        for ivs, ref, partner in split_corpus():
            splits = eager_splits(ref, partner)
            deriv = _solve_binary(ivs, partner)
            w = ivs.n + 1
            fid, mask = ref.fid, ref.mask

            def points(i, k):
                s = splits[fid[i * w + k]]
                return [i + a - 1 for a in range(1, k - i + 1) if s >> a & 1]

            def witness(i, j, k):
                lf, rf = fid[i * w + j], fid[(j + 1) * w + k]
                if lf == rf or mask[i * w + j] & mask[(j + 1) * w + k] == 0:
                    return None
                for x in points(i, j):
                    if fid[i * w + x] == rf or fid[(x + 1) * w + j] == rf:
                        return "left", x
                for x in points(j + 1, k):
                    if lf == fid[(j + 1) * w + x] or lf == fid[(x + 1) * w + k]:
                        return "right", x
                raise AssertionError(f"edge without a witness: {ivs.pat} [{i}..{j}][{j + 1}..{k}]")

            for i, k in first_intervals(ref).values():
                js = points(i, k)
                if js:
                    assert _choose_split(deriv, i, k) == (js[0], witness(i, js[0], k)), (ivs.pat, i, k)
                for j in js:
                    assert _choose_split(deriv, i, k, forced=j) == (j, witness(i, j, k)), (ivs.pat, i, j, k)

    def test_deeper_than_the_recursion_limit(self):
        # (x1x2x3)^k asks for split bits beyond each factor's first one: the
        # scan, the bits it asks for on demand and the bracketing all run
        # without recursion, under the interpreter's own limit.
        limit = sys.getrecursionlimit()
        p = pat("x1 x2 x3") * (limit // 3 + 20)
        assert is_acyclic_pattern(p)
        two = find_acyclic_decomposition(p, UNIVERSE)
        assert two is not None and spelled(two) == p
        assert sys.getrecursionlimit() == limit


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


class TestPartnerRuleDigest:
    # sha256 of the text below as printed when the partner case of
    # decompose_atom_with_constraints was still built in four branches: every
    # right side of 1-6 symbols over y, x1, x2 with left side z, under every
    # set of at most two pairs of its variables.  Introduced names are sorted,
    # so the text does not depend on the hash seed.
    DIGEST = "caf7b48f265cffc1c4d8afa9db0ce94afbe2286b91b5aac8b6dfd7e1cd040d8c"

    def test_atom_outputs_unchanged(self):
        z = v("z")
        lines = []
        for length in range(1, 7):
            for rhs in itertools.product(pat("y x1 x2"), repeat=length):
                eq = WordEquation(z, rhs)
                names = sorted(x.name for x in eq.variables())
                for r in range(3):
                    for chosen in itertools.combinations(itertools.combinations(names, 2), r):
                        two = decompose_atom_with_constraints(eq, [frozenset(map(v, c)) for c in chosen])
                        intro = "" if two is None else " ".join(sorted(x.name for x in two.introduced))
                        lines.append(f"{'.'.join(x.name for x in rhs)} | {' '.join('.'.join(c) for c in chosen)}"
                                     f" | {_shown(two)} | {intro}")
        text = "\n".join(lines) + "\n"
        assert len(lines) == 18534
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

    def test_short_right_sides_stay_verbatim(self):
        # The one bracketing of a one- or two-symbol right side, under any
        # pairs of the equation's variables.
        xy = pat("x y")
        for lhs in (v("z"), UNIVERSE):
            for rhs in [*itertools.product(xy, repeat=1), *itertools.product(xy, repeat=2)]:
                eq = WordEquation(lhs, rhs)
                (b,) = all_bracketings(rhs)
                want = decompose_bracketing(b, lhs)
                pairs = [frozenset(c) for c in itertools.combinations(sorted(eq.variables(), key=str), 2)]
                for r in range(len(pairs) + 1):
                    for chosen in itertools.combinations(pairs, r):
                        assert decompose_atom_with_constraints(eq, chosen) == want, (eq, chosen)

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


    def test_partner_in_a_longer_core_is_refused(self):
        # y pairs with z and with x1, but x1.x2 is no single variable to sit
        # next to the nested y's.
        eq = WordEquation(v("z"), pat("y x1 x2"))
        assert decompose_atom_with_constraints(
            eq, [frozenset({v("z"), v("y")}), frozenset({v("y"), v("x1")})]) is None

    def test_all_partner_right_side_nests(self):
        two = decompose_atom_with_constraints(WordEquation(v("z"), pat("y y y")), [frozenset({v("z"), v("y")})])
        assert _shown(two) == "z1 = y.y; z = y.z1"

    def test_partner_wraps_a_one_variable_core(self):
        eq = WordEquation(v("z"), pat("y x1 y"))
        two = decompose_atom_with_constraints(
            eq, [frozenset({v("z"), v("y")}), frozenset({v("y"), v("x1")})])
        assert _shown(two) == "z1 = y.x1; z = z1.y"

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
        assert bracketing_is_acyclic(b)
        triangle = N(N(L("x1"), L("x2")), N(L("x2"), L("x3")), N(L("x3"), L("x1")))
        assert not bracketing_is_acyclic(triangle)

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

    def test_state_is_kept_per_factor(self):
        # The k-ary fixed point keys its tuples and masks by factor id, the
        # leftmost key of each factor: every factor has a list of tuples,
        # and every localized one its variables as a mask.
        rng = random.Random(31)
        pool = [Variable(f"x{i}") for i in range(1, 5)]
        for _ in range(80):
            p = tuple(rng.choice(pool[:rng.randint(1, 4)]) for _ in range(rng.randint(1, 12)))
            ivs = _Intervals(p)
            deriv = _solve_kary(ivs, 3)
            w = ivs.n + 1
            ids = {ivs.fid[i * w + k] for i in range(1, w) for k in range(i, w)}
            assert set(deriv.tuples) == ids, p
            code = dict(zip(p, ivs.codes))
            for f, found in deriv.tuples.items():
                i, length = f // w + 1, f % w
                assert ivs.fid[i * w + i + length - 1] == f, (p, f)
                if found or length == 1:
                    assert deriv.masks[f] == sum(1 << code[x] for x in set(p[i - 1:i - 1 + length])), (p, f)
                for t in found:
                    assert all(u in deriv.leaves or deriv.tuples[u] for u in t), (p, f, t)

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
