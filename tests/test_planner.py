from __future__ import annotations

import gc
import hashlib
import itertools
import random

import pytest

from conftest import AB, all_words, random_fccq, random_fccq_wide, v
from wordeq.bridge import pseudo_acyclic_to_acyclic_fccq, sercq_to_fccq, to_structured_normal_form
from wordeq.evaluator import enumerate_results, model_check
from wordeq.frontend import parse_query
from wordeq.index import build_index
from wordeq.model import (
    CyclicQueryError,
    FcCq,
    FreshVars,
    REpsilon,
    RegularConstraint,
    SmallEquation,
    UNIVERSE,
    Variable,
    WordEquation,
    gyo,
    verify_join_tree,
)
from wordeq.oracle import all_bracketings, brute_evaluate, decompose_bracketing
from wordeq.planner import (
    NormalizedQuery,
    cyclicity_prechecks,
    normalize,
    plan,
    prefactor_common_subpatterns,
    skeleton_of,
    weak_join_tree,
)


def is_normalized(nq: NormalizedQuery) -> bool:
    eqs = nq.query.equations
    seen = set()
    for eq in eqs:
        if not eq.rhs or not all(isinstance(x, Variable) for x in eq.rhs):
            return False
        if eq.lhs in set(eq.rhs):
            return False
        if any(x.is_universe for x in eq.rhs):
            return False
        if tuple(eq.rhs) in seen:
            return False
        seen.add(tuple(eq.rhs))
    return True


def joint_acyclic_oracle(nq: NormalizedQuery) -> bool:
    """Exhaustive search over all per-atom bracketing combinations."""
    eqs = nq.query.equations
    if not eqs:
        return True
    options = []
    for i, eq in enumerate(eqs):
        fresh = FreshVars([])
        decs = []
        for b in all_bracketings(eq.rhs):
            f = FreshVars([])
            local = decompose_bracketing(b, eq.lhs, FreshVars([f"seen{i}"]))
            # Re-namespace introduced variables per atom.
            ren = {z: Variable(f"i{i}_{z.name}") for z in local.introduced}
            eqs2 = [type(e)(ren.get(e.lhs, e.lhs), tuple(ren.get(r, r) for r in e.rhs))
                    for e in local.equations]
            decs.append(eqs2)
        options.append(decs)
    for combo in itertools.product(*options):
        atoms = [(id(e), e.variables()) for part in combo for e in part]
        if gyo(atoms) is not None:
            return True
    return False


class TestNormalize:
    def test_universe_and_duplicate_rewrites(self):
        x1, x2, x3, x4 = (v(f"x{i}") for i in range(1, 5))
        q = FcCq((x1, x3, x4), (
            WordEquation(x1, (x2, UNIVERSE, x2)),
            WordEquation(x4, (x4,)),
            WordEquation(x3, ("a", "a", "b")),
        ))
        nq = normalize(q)
        assert is_normalized(nq)
        shapes = {(eq.lhs.name, len(eq.rhs)) for eq in nq.query.equations}
        assert ("u", 1) in shapes          # u = x1
        assert ("x4", 1) in shapes         # x4 = fresh
        assert ("x3", 1) in shapes         # x3 = fresh, pinned to aab
        assert v("x2") in nq.epsilon_vars
        assert any(isinstance(c.regex, REpsilon) and c.var == v("x2")
                   for c in nq.query.constraints)

    def test_already_normalized_stable(self):
        q = parse_query("ans() :- u = x.y, x = z.y", AB)
        nq = normalize(q)
        assert is_normalized(nq)
        assert [(eq.lhs, eq.rhs) for eq in nq.query.equations] == \
            [(eq.lhs, eq.rhs) for eq in q.equations]

    def test_duplicate_rhs_with_universe_owner(self):
        q = parse_query("ans() :- u = x.y, z = x.y", AB)
        nq = normalize(q)
        assert is_normalized(nq)
        # The duplicate becomes a copy; the copy keeps u off the right side.
        assert {(eq.lhs.name, tuple(r.name for r in eq.rhs)) for eq in nq.query.equations} == \
            {("u", ("x", "y")), ("u", ("z",))}

    @pytest.mark.parametrize("text", [
        "ans() :- z = x, x = z, u = z",
        "ans(a) :- a = b, b = c, c = a, u = a",
        "ans(x,y) :- x = y, y = x, z = y, w = x",
    ])
    def test_cycle_of_copies(self, text):
        """Copies that form a cycle normalize: the copy closing the cycle is
        dropped as implied by the others, and the answers stay the same."""
        nq = normalize(parse_query(text, AB))
        assert is_normalized(nq)
        assert any(t.endswith("implied by other copies") for t in nq.trace)
        agrees_with_oracle(text)

    def test_semantic_preservation(self):
        rng = random.Random(31)
        words = all_words("ab", 6)
        for _ in range(60):
            q = random_fccq(rng, max_atoms=2, max_rhs=4, max_constraints=1)
            nq = normalize(q)
            assert is_normalized(nq)
            for w in rng.sample(words, 12):
                assert brute_evaluate(q, w) == brute_evaluate(nq.query, w), (q, w)



def agrees_with_oracle(text: str, max_len: int = 3) -> None:
    """Planned model checking and enumeration match brute force on every
    word over ab up to max_len."""
    q = parse_query(text, AB)
    p = plan(q)
    for w in all_words("ab", max_len):
        ix = build_index(w, AB)
        expected = brute_evaluate(q, w)
        assert model_check(p, ix) == bool(expected), (text, w)
        got = {tuple(r.words(ix)[x.name] for x in q.head) for r in enumerate_results(p, ix)}
        assert got == expected, (text, w)


class TestRepeatedVariables:
    """A variable repeated on a right side pins lengths: twice the left side
    makes the left side epsilon, twice u makes the word epsilon."""

    def test_left_side_twice_on_its_right_side(self):
        agrees_with_oracle("ans() :- x = x.x, x in /a/")

    def test_left_side_twice_with_others(self):
        agrees_with_oracle("ans(x, y) :- x = x.y.x")

    def test_universe_twice_on_its_own_right_side(self):
        agrees_with_oracle("ans() :- u = u.u")

    def test_universe_twice_on_a_right_side(self):
        agrees_with_oracle("ans() :- x = u.u")

    def test_left_side_once_keeps_its_word(self):
        agrees_with_oracle("ans(x) :- x = y.x.z")

    def test_equal_factors_bracketed_apart(self):
        # The search brackets the two x1.x1.x2 factors differently; they must
        # still share one introduced variable for the plan to stay acyclic.
        agrees_with_oracle("ans() :- u = x1.x1.x2.x1.x1.x2.x2", max_len=4)


class TestStructuredNormalForm:
    def test_relocation(self):
        q = parse_query("ans() :- x = y.z", AB)
        snf = to_structured_normal_form(q)
        assert all(eq.lhs.is_universe for eq in snf.equations)
        assert all(not any(t.is_universe for t in eq.rhs if isinstance(t, Variable))
                   for eq in snf.equations)
        sets = {tuple(t.name if isinstance(t, Variable) else t for t in eq.rhs)
                for eq in snf.equations}
        assert any("x" in s for s in sets) and any("y" in s and "z" in s for s in sets)

    def test_universe_lhs_unchanged(self):
        q = parse_query("ans() :- u = x.y", AB)
        snf = to_structured_normal_form(q)
        assert [(eq.lhs, eq.rhs) for eq in snf.equations] == \
            [(eq.lhs, eq.rhs) for eq in q.equations]

    def test_universe_on_rhs(self):
        q = FcCq((), (WordEquation(v("x"), (v("y"), UNIVERSE, v("z"))),))
        snf = to_structured_normal_form(q)
        assert all(eq.lhs.is_universe for eq in snf.equations)

    def test_semantics(self):
        rng = random.Random(5)
        for _ in range(40):
            q = random_fccq(rng, max_atoms=2, max_rhs=3, max_constraints=1)
            snf = to_structured_normal_form(q)
            for w in ["", "a", "ab", "aba", "bb"]:
                assert brute_evaluate(q, w) == brute_evaluate(snf, w)


class TestWeakJoinTree:
    def test_example_query(self):
        from wordeq.model import default_alphabet
        q = parse_query("ans(x,y) :- x = z1.z2, y = z1.z3, x in /s/, z1 in /w/",
                        default_alphabet())
        nq = normalize(q)
        t = weak_join_tree(nq)
        assert t is not None and len(t.nodes) == 2 and len(t.edges) == 1

    def test_triangle_is_weakly_cyclic(self):
        q = parse_query("ans() :- x = p.q, y = q.r, z = r.p", AB)
        assert weak_join_tree(normalize(q)) is None

    def test_sat_star_is_weakly_acyclic(self):
        # One-in-three style star: every clause atom shares with u-atoms only.
        q = parse_query("ans() :- u = x.y, u = c1, c1 = x.y.x", AB)
        assert weak_join_tree(normalize(q)) is not None


class TestPrechecks:
    def test_rule3_shared_four(self):
        q = parse_query("ans() :- x = y2.y3.y4.y5, z = y5.y4.y3.y2", AB)
        nq = normalize(q)
        reason = cyclicity_prechecks(nq, weak_join_tree(nq))
        assert reason is not None and reason.startswith("rule 3")

    def test_rule2_cyclic_rhs(self):
        # Rule 2 comes from the atom's own search in plan, not the prechecks.
        q = parse_query("ans() :- u = x1.x2.x1.x3.x1", AB)
        nq = normalize(q)
        assert cyclicity_prechecks(nq, weak_join_tree(nq)) is None
        with pytest.raises(CyclicQueryError) as exc:
            plan(q)
        assert exc.value.stage == "precheck"
        assert exc.value.detail == "rule 2: right side of u = x1.x2.x1.x3.x1 is a cyclic pattern"

    @pytest.mark.parametrize("text, stage, rule", [
        ("x = p.q, y = q.r, z = r.p, u = x1.x2.x1.x3.x1", "weak-join-tree", "rule 1"),
        ("x = y2.y3.y4.y5, z = y5.y4.y3.y2, u = x1.x2.x1.x3.x1", "precheck", "rule 2"),
        ("x1 = y1.y2.y3, x2 = y1.y4.y3, u = w1.w2.w1.w3.w1", "precheck", "rule 2"),
        ("x1 = y1.y2.y3, x2 = y1.y4.y3, x = a2.a3.a4.a5, z = a5.a4.a3.a2", "precheck", "rule 3"),
        ("x1 = y1.y2.y3, x2 = y1.y4.y3", "atom-decomposition", "atom x1"),
    ])
    def test_reasons_in_rule_order(self, text, stage, rule):
        with pytest.raises(CyclicQueryError) as exc:
            plan(parse_query(f"ans() :- {text}", AB))
        assert exc.value.stage == stage and exc.value.detail.startswith(rule)

    def test_atoms_sharing_three_variables_stay_whole(self):
        p = plan(parse_query("ans() :- z = x.y, z = y.x", AB))
        assert [repr(n) for n in p.tree.nodes] == ["z = x.y", "z = y.x"]
        assert p.tree.edges == ((0, 1),)

    def test_rule4_longer_atom_sharing_three_variables(self):
        with pytest.raises(CyclicQueryError) as exc:
            plan(parse_query("ans() :- z = x.y.x.y, z = y.x", AB))
        assert exc.value.stage == "precheck"
        assert exc.value.detail == "rule 4: atoms 0 and 1 share 3 variables but one is longer than an atom"

    def test_one_search_per_atom(self, monkeypatch):
        import wordeq.decompose as decompose
        calls = []
        search = decompose._solve_binary

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(decompose, "_solve_binary", counted)
        plan(parse_query("ans() :- u = x.y.x.z, v = w.w.q", AB))
        assert len(calls) == 2

    def test_lvdecomp_passes(self):
        q = parse_query("ans() :- x1 = y1.y2.y3, x2 = y2.y3.y3.y4", AB)
        nq = normalize(q)
        assert cyclicity_prechecks(nq, weak_join_tree(nq)) is None

    def test_single_atom_ok(self):
        q = parse_query("ans() :- u = x.y.z", AB)
        nq = normalize(q)
        assert cyclicity_prechecks(nq, weak_join_tree(nq)) is None


class TestPlan:
    def test_not_acyclic_example(self):
        q = parse_query("ans() :- x1 = y1.y2.y3, x2 = y1.y4.y3", AB)
        with pytest.raises(CyclicQueryError):
            plan(q)

    def test_skeleton_tree_example(self):
        q = parse_query("ans() :- x1 = x2.x3.x2, x2 = x4.x4.x5", AB)
        p = plan(q)
        sk = skeleton_of(p)
        assert len(sk.nodes) == 2 and sk.edges == ((0, 1),)
        assert verify_join_tree(sk)

    def test_lvdecomp_example(self):
        q = parse_query("ans() :- x1 = y1.y2.y3, x2 = y2.y3.y3.y4", AB)
        p = plan(q)
        sk = skeleton_of(p)
        assert len(sk.nodes) == 2 and sk.edges == ((0, 1),)

    @pytest.mark.parametrize("text", [
        "ans(x,y) :- x = z1.z2, y = z1.z3, x in /a(a|b)*/, z1 in /a+/",
        "ans() :- u = x1.x2.x3.x1.x2.x3.x1.x2.x3",
        "ans() :- x = y1.y2.y3, z = y1.y2.y4",
    ])
    def test_plan_leaves_no_reference_cycles(self, text):
        """Planning frees its search tables by reference counting alone."""
        q = parse_query(text, AB)
        gc.collect()
        gc.disable()
        try:
            plan(q)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_plan_nodes_are_in_normal_form(self):
        """Every node `plan` emits is a regular constraint, a copy `z = x` or
        a binary `z = x.y` (x may equal y), with no `u` on the right and the
        left side not on the right: the only shapes `materialize_atom`
        evaluates.  Checked on both random generators, with and without
        pre-factoring, and on the SERCQ conversions."""
        from test_bridge import random_sercq
        rng = random.Random(13)
        queries = [random_fccq(rng, max_atoms=6) for _ in range(300)]
        queries += [random_fccq_wide(rng) for _ in range(300)]
        for k in range(80):
            sercq = random_sercq(rng, pseudo=k % 2 == 1)
            queries.append(sercq_to_fccq(sercq))
            if k % 2:
                queries.append(pseudo_acyclic_to_acyclic_fccq(sercq))
        planned = 0
        for q in queries:
            for prefactor in (False, True):
                try:
                    p = plan(q, prefactor=prefactor)
                except CyclicQueryError:
                    continue
                planned += 1
                for node in p.tree.nodes:
                    if isinstance(node, RegularConstraint):
                        continue
                    assert isinstance(node, SmallEquation), (q, node)
                    assert len(node.rhs) in (1, 2), (q, node)
                    assert UNIVERSE not in node.rhs and node.lhs not in node.rhs, (q, node)
        assert planned >= 600

    def test_soundness_random(self):
        rng = random.Random(77)
        planned = 0
        while planned < 80:
            q = random_fccq(rng)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            planned += 1
            assert verify_join_tree(p.tree)
            # Each atom's equations form a connected subtree.
            adj = p.tree.adjacency()
            for group in p.atom_groups:
                seen = {group[0]}
                stack = [group[0]]
                inside = set(group)
                while stack:
                    n = stack.pop()
                    for m in adj[n]:
                        if m in inside and m not in seen:
                            seen.add(m)
                            stack.append(m)
                assert seen == inside
            # Cross edges realize exactly the shared variables of their atoms.
            owner = {}
            for gi, group in enumerate(p.atom_groups):
                for n in group:
                    owner[n] = gi
            eqs = p.normalized.query.equations
            for a, b in p.tree.edges:
                if a in owner and b in owner and owner[a] != owner[b]:
                    ga, gb = owner[a], owner[b]
                    expected = ({x for x in eqs[ga].variables() if not x.is_universe}
                                & {x for x in eqs[gb].variables() if not x.is_universe})
                    got = p.tree.var_sets[a] & p.tree.var_sets[b]
                    assert got == expected

    def test_completeness_exhaustive_two_atoms(self):
        # Every two-atom query over three right-side variables with sides of
        # length one to three, against the joint-bracketing oracle.
        ys = [Variable(n) for n in ("y1", "y2", "y3")]
        lhss = [UNIVERSE, Variable("q1")]
        rhs_options = []
        for ln in (1, 2, 3):
            rhs_options.extend(itertools.product(ys, repeat=ln))
        atoms = [(l, r) for l in lhss for r in rhs_options]
        for (l1, r1), (l2, r2) in itertools.product(atoms, atoms):
            if r1 == r2:
                continue
            q = FcCq((), (WordEquation(l1, r1), WordEquation(l2, r2)))
            expected = joint_acyclic_oracle(normalize(q))
            try:
                plan(q)
                got = True
            except CyclicQueryError:
                got = False
            assert got == expected, (l1, r1, l2, r2)

    def test_completeness_vs_joint_oracle(self):
        rng = random.Random(13)
        checked = 0
        agree_cyclic = 0
        while checked < 120:
            q = random_fccq(rng, max_atoms=3, max_rhs=4, max_constraints=0,
                            var_pool=("x", "y", "z"))
            nq = normalize(q)
            if any(len(eq.rhs) > 5 for eq in nq.query.equations):
                continue
            checked += 1
            expected = joint_acyclic_oracle(nq)
            try:
                plan(q)
                got = True
            except CyclicQueryError:
                got = False
            assert got == expected, (q, expected)
            agree_cyclic += not expected
        assert agree_cyclic > 5  # the sample includes genuinely cyclic queries

    def test_plan_results_match_oracle(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            q = random_fccq(rng, max_atoms=2, max_rhs=3, max_constraints=1)
            try:
                p = plan(q)
            except CyclicQueryError:
                continue
            done += 1
            # The decomposed query read back as a plain query must agree too.
            decomposed = FcCq(
                p.query.head,
                tuple(WordEquation(e.lhs, tuple(e.rhs)) for e in p.query.equations),
                p.query.constraints,
            )
            for w in ["", "a", "ab", "aab", "abab"]:
                ix = build_index(w)
                expected = brute_evaluate(q, w)
                got = {tuple(r.words(ix)[h.name] for h in q.head)
                       for r in enumerate_results(p, ix)}
                assert got == expected, (q, w)
                assert brute_evaluate(decomposed, w) == expected, (q, w)


class TestConstraintOnlyQueries:
    def test_single_universe_constraint(self):
        q = parse_query("ans() :- u in /a*/", AB)
        p = plan(q)
        from wordeq.evaluator import model_check
        assert model_check(p, build_index("aaa"))
        assert not model_check(p, build_index("ab"))

    def test_two_constraints_same_variable(self):
        q = parse_query("ans(x) :- x in /a*/, x in /b*/", AB)
        p = plan(q)
        assert verify_join_tree(p.tree)
        ix = build_index("ab")
        got = {r.words(ix)["x"] for r in enumerate_results(p, ix)}
        assert got == {""}

    def test_mixed_floating_constraints(self):
        q = parse_query("ans() :- x in /a+/, y in /b+/", AB)
        p = plan(q)
        assert verify_join_tree(p.tree)
        from wordeq.evaluator import model_check
        assert model_check(p, build_index("ab"))
        assert not model_check(p, build_index("aa"))


class TestPrefactor:
    def test_shared_block_factored(self):
        q = parse_query("ans() :- x1 = y1.y2.y3.y4.y5, x2 = y6.y2.y3.y4.y5", AB)
        with pytest.raises(CyclicQueryError):
            plan(q)
        p = plan(q, prefactor=True)
        assert verify_join_tree(p.tree)

    def test_semantics_preserved(self):
        q = parse_query("ans(y2) :- x1 = y1.y2.y3.y4.y5, x2 = y6.y2.y3.y4.y5", AB)
        q2 = prefactor_common_subpatterns(q)
        for w in ["", "a", "ab", "aab"]:
            assert brute_evaluate(q, w) == brute_evaluate(q2, w)


def _tree_query(rng: random.Random, atoms: int, reuse: float) -> str:
    """A concatenation tree of `atoms` equations under `u`; with reuse > 0
    some right-hand slots name an earlier variable, which may make the query
    cyclic or break rules 3 and 4."""
    count = 0
    frontier, used, eqs = ["u"], [], []
    for _ in range(atoms):
        lhs = frontier.pop(rng.randrange(len(frontier))) if frontier else rng.choice(used)
        rhs = []
        for _ in range(rng.choice((2, 2, 3, 4))):
            if used and rng.random() < reuse:
                rhs.append(rng.choice(used))
            else:
                count += 1
                used.append(f"x{count}")
                frontier.append(f"x{count}")
                rhs.append(f"x{count}")
        if rng.random() < 0.15:
            rhs.insert(rng.randrange(len(rhs) + 1), "'a'")
        eqs.append(f"{lhs} = {'.'.join(rhs)}")
    return f"ans({','.join(used[:2])}) :- " + ", ".join(eqs)


def golden_plan_queries() -> list[FcCq]:
    """The multi-atom queries whose plan output `TestGoldenPlans` pins."""
    fixtures = [
        "x = y2.y3.y4.y5, z = y5.y4.y3.y2",
        "x1 = y1.y2.y3, x2 = y1.y4.y3, x = a2.a3.a4.a5, z = a5.a4.a3.a2",
        "x1 = y1.y2.y3.y4, x2 = y1.y2.y3.y5",
        "x1 = y1.y2.y3, x2 = y1.y2.y3.y5",
        "x1 = y1.y2.y3, x2 = y1.y4.y3",
        "x = p.q, y = q.r, z = r.p",
        "x1 = x2.x3.x2, x2 = x4.x4.x5",
        "x1 = y1.y2.y3, x2 = y2.y3.y3.y4",
        # Atoms 0 and 1 share four variables, but the weak tree joins each
        # of them to atom 2 only: the first offending pair is not an edge.
        "x0 = a.b.c.d.e, x1 = a.b.c.d.f, x2 = a.b.c.d.e.f",
        # The same with three shared variables and atoms longer than three.
        "x0 = a.b.c.e.g, x1 = a.b.c.f.h, x2 = a.b.c.e.f.g.h",
    ]
    queries = [parse_query(f"ans() :- {text}", AB) for text in fixtures]
    rng = random.Random(2024)
    while len(queries) < 300:
        roll = len(queries) % 3
        if roll == 0:
            q = random_fccq(rng, max_atoms=8, var_pool=("x", "y", "z", "v", "w", "t"))
        elif roll == 1:
            q = random_fccq_wide(rng)
        else:
            q = parse_query(_tree_query(rng, rng.randint(2, 24), rng.choice((0.0, 0.1, 0.3))), AB)
        if len(q.equations) >= 2:
            queries.append(q)
    return queries


class TestGoldenPlans:
    # sha256 of the text below as printed by the planner whose
    # mark-and-absorb rescanned every pair of nodes each round; faster
    # bookkeeping must print it unchanged.
    DIGEST = "12ea732c7a3f471601b505fc903a836c4c72a23e1fd1a648ec4111ef5cbd2c37"

    def test_plan_outputs_unchanged(self):
        parts = []
        for k, q in enumerate(golden_plan_queries()):
            try:
                p = plan(q)
            except CyclicQueryError as exc:
                parts.append(f"{k}: {exc.stage}: {exc.detail}")
                continue
            edges = " ".join(f"{a}-{b}" for a, b in skeleton_of(p).edges)
            parts.append(f"{k}:\n{p.explain()}\nskeleton edges: {edges}")
        text = "\n".join(parts) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


def golden_normalize_queries() -> list[FcCq]:
    """About 3000 queries for the `normalize` digest: multi-atom
    `random_fccq`, `random_fccq_wide`, and queries whose right sides are
    three short patterns or single variables, so that duplicates, copies of
    `u`, and cycles of copies are common."""
    fixtures = [
        "ans() :- z = x, x = z, u = z",
        "ans(a) :- a = b, b = c, c = a, u = a",
        "ans(x,y) :- x = y, y = x, z = y, w = x",
        "ans() :- u = x.y, z = x.y, w = x.y, w = z",
    ]
    queries = [parse_query(text, AB) for text in fixtures]
    pool = [Variable(n) for n in ("x", "y", "z", "v", "w")]
    x, y, z = pool[:3]
    shapes = [(x, y), (y, z, x), (x, x)]
    rng = random.Random(7)
    while len(queries) < 3000:
        roll = len(queries) % 3
        if roll == 0:
            queries.append(random_fccq(rng, max_atoms=rng.choice((6, 8)),
                                       var_pool=("x", "y", "z", "v", "w", "t")))
        elif roll == 1:
            queries.append(random_fccq_wide(rng))
        else:
            equations = []
            for _ in range(rng.randint(2, 8)):
                lhs = UNIVERSE if rng.random() < 0.3 else rng.choice(pool)
                rhs = rng.choice(shapes) if rng.random() < 0.5 else (rng.choice(pool),)
                equations.append(WordEquation(lhs, rhs))
            queries.append(FcCq((), tuple(equations)))
    return queries


def normalize_text(queries: list[FcCq]) -> str:
    """Each query's normalized equations, trace and epsilon set."""
    parts = []
    for k, q in enumerate(queries):
        nq = normalize(q)
        eqs = ", ".join(f"{eq.lhs.name} = {'.'.join(r.name for r in eq.rhs)}"
                        for eq in nq.query.equations)
        eps = " ".join(sorted(x.name for x in nq.epsilon_vars))
        parts.append("\n".join([f"{k}: {eqs}", *nq.trace, f"epsilon: {eps}"]))
    return "\n".join(parts) + "\n"


class TestGoldenNormalize:
    # sha256 of `normalize_text` as printed by the normalization that
    # restarted from the first equation after every rewrite; the ordered
    # passes must print it unchanged.
    DIGEST = "0b1aae17f09b4d12d3331c785ccb6e72dceca5749ed79250565a579857fd45a4"

    def test_normalize_outputs_unchanged(self):
        text = normalize_text(golden_normalize_queries())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
