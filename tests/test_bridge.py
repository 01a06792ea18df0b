from __future__ import annotations

import gc
import hashlib
import random

import pytest

from conftest import AB, all_words, random_fccq_wide, v
from wordeq.bridge import (
    SercqAst,
    fccq_to_sercq,
    is_pseudo_acyclic,
    pseudo_acyclic_to_acyclic_fccq,
    sercq_to_fccq,
)
from wordeq.evaluator import enumerate_results
from wordeq.frontend import parse_query, parse_regex, parse_sercq, print_query, print_sercq
from wordeq import model
from wordeq.index import build_index
from wordeq.model import CyclicQueryError, NotPseudoAcyclicError, RBind, RConcat, RStar, RUnion
from wordeq.oracle import brute_evaluate, brute_sercq_evaluate
from wordeq.planner import plan


def formula(text: str, alphabet=AB):
    return parse_regex(text, alphabet, allow_bindings=True)


def engine_words(q, w):
    """Engine evaluation (planner route, brute force if cyclic)."""
    try:
        p = plan(q)
    except CyclicQueryError:
        return brute_evaluate(q, w)
    ix = build_index(w)
    return {tuple(r.words(ix)[h.name] for h in q.head) for r in enumerate_results(p, ix)}


def spans_to_prefix_content(p: SercqAst, w: str) -> set[tuple[str, ...]]:
    """Spanner results encoded as interleaved (prefix, content) word pairs in
    projection-name order, matching the realization head layout."""
    proj = sorted(p.projection, key=lambda x: x.name)
    out = set()
    for tup in brute_sercq_evaluate(p, w):
        by_name = {name: (i, j) for name, i, j in tup}
        row = []
        for x in proj:
            i, j = by_name[x.name]
            row.extend([w[:i - 1], w[i - 1:j - 1]])
        out.add(tuple(row))
    return out


def realization_words(q, w) -> set[tuple[str, ...]]:
    """Engine results reordered to sorted-projection layout."""
    return sorted_layout(q, engine_words(q, w))


def sorted_layout(q, res) -> set[tuple[str, ...]]:
    """Rows over the realization head reordered to sorted-projection layout."""
    names = [h.name for h in q.head]
    # Head is built as x_p, x_c per projected variable, in projection order;
    # reorder to sorted-name order for comparison.
    pairs = [(names[i], names[i + 1]) for i in range(0, len(names), 2)]
    order = sorted(range(len(pairs)), key=lambda k: pairs[k][0])
    out = set()
    for row in res:
        t = []
        for k in order:
            t.extend([row[2 * k], row[2 * k + 1]])
        out.add(tuple(t))
    return out


class TestSercqToFccq:
    def test_ten_atom_golden(self):
        g = formula("(S*.(x{S+}.'a')).S*")
        p = SercqAst((v("x"),), (), (g,))
        q = sercq_to_fccq(p)
        assert len(q.equations) + len(q.constraints) == 10
        assert len(q.head) == 2
        # One universe anchor, three concatenation equations, two copy
        # equations (content and prefix), four regular constraints.
        assert sum(1 for eq in q.equations if eq.lhs.is_universe) == 1
        assert sum(1 for eq in q.equations if len(eq.rhs) == 2) == 3
        assert len(q.constraints) == 4

    def test_variable_free_formula(self):
        p = SercqAst((), (), (formula("'ab'"),))
        q = sercq_to_fccq(p)
        assert q.equations == ()
        assert len(q.constraints) == 1 and q.constraints[0].var.is_universe

    @pytest.mark.parametrize("text", [
        "pi{x1} eq{x1,y2} ( 'a'*.x1{S+}.('a'|'b') join S.x2{'ab'}.''.y2{'b'+} )",
        "pi{} ( x{y{'a'*}.S} join 'ab' )",
    ])
    def test_conversion_leaves_no_reference_cycles(self, text):
        """Parsing, converting and printing free their trees by reference
        counting alone."""
        sercq = parse_sercq(text, AB)
        query = sercq_to_fccq(sercq)
        gc.collect()
        gc.disable()
        try:
            for step in (lambda: parse_sercq(text, AB), lambda: sercq_to_fccq(sercq),
                         lambda: print_query(query, AB)):
                step()
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_realization_semantics(self):
        cases = [
            SercqAst((v("x"),), (), (formula("(S*.(x{S+}.'a')).S*"),)),
            SercqAst((v("x1"),), ((v("x1"), v("x2")),),
                     (formula("S*.x1{S+}.'a'.S*"), formula("S*.x2{S+}.'b'.S*"))),
            SercqAst((v("x"), v("y")), (), (formula("x{'a'*}.y{'b'*}"),)),
        ]
        for p in cases:
            q = sercq_to_fccq(p)
            for w in ["", "a", "ab", "ba", "aab", "abab"]:
                assert realization_words(q, w) == spans_to_prefix_content(p, w), (p, w)

    def test_random_round_trip(self):
        rng = random.Random(4)
        for _ in range(30):
            p = random_sercq(rng)
            q = sercq_to_fccq(p)
            for w in ["", "a", "ba", "abab"]:
                assert realization_words(q, w) == spans_to_prefix_content(p, w), (p, w)

    def test_random_through_the_planner(self):
        """Realizations of random SERCQs, plain and pseudo-acyclic, planned
        with and without pre-factoring and enumerated, on every word over
        {a, b} up to length 3."""
        rng = random.Random(7)
        words = all_words("ab", 3)
        planned = 0
        for k in range(40):
            p = random_sercq(rng, pseudo=k % 2 == 1)
            q = sercq_to_fccq(p)
            for prefactor in (False, True):
                try:
                    pln = plan(q, prefactor=prefactor)
                except CyclicQueryError:
                    continue
                planned += 1
                for w in words:
                    ix = build_index(w)
                    got = {tuple(r.words(ix)[h.name] for h in q.head)
                           for r in enumerate_results(pln, ix)}
                    assert sorted_layout(q, got) == spans_to_prefix_content(p, w), (p, prefactor, w)
        assert planned >= 60

    def test_nested_and_boundary_bindings(self):
        cases = [
            SercqAst((v("x"), v("y")), (), (formula("'a'.x{'b'.y{S*}.'b'}.'a'"),)),
            SercqAst((v("x"), v("y")), (), (formula("x{y{'ab'}}"),)),
            SercqAst((v("x"),), (), (formula("x{S*}.'b'"),)),
            SercqAst((v("x"),), (), (formula("'b'.x{S*}"),)),
            SercqAst((v("x"), v("y")), (), (formula("x{S*}.y{S*}"),)),
            SercqAst((v("x1"),), ((v("x1"), v("x2")),),
                     (formula("x1{'a'*}.S*"), formula("S*.x2{'a'*}"))),
            SercqAst((), (), (formula("''"),)),
        ]
        for p in cases:
            q = sercq_to_fccq(p)
            for w in ["", "a", "b", "ab", "ba", "bab", "abba"]:
                assert realization_words(q, w) == spans_to_prefix_content(p, w), (p, w)


def random_sercq(rng: random.Random, pseudo: bool = False) -> SercqAst:
    def small_regex() -> str:
        return rng.choice(["'a'", "'b'", "S", "'ab'", "('a'|'b')", "'a'*", "S*", "'b'+", "''"])

    n_formulas = rng.randint(1, 3)
    formulas = []
    bound = []
    for i in range(1, n_formulas + 1):
        x = f"x{i}"
        bound.append(v(x))
        if pseudo or rng.random() < 0.7:
            text = f"{small_regex()}.{x}{{{small_regex()}}}.{small_regex()}"
        else:
            text = f"{small_regex()}.{x}{{{small_regex()}}}.{small_regex()}.y{i}{{{small_regex()}}}"
            bound.append(v(f"y{i}"))
        formulas.append(formula(text))
    eqs = []
    for _ in range(rng.randint(0, 2)):
        if len(bound) >= 2:
            a, b = rng.sample(bound, 2)
            eqs.append((a, b))
    proj = tuple(sorted(rng.sample(bound, rng.randint(0, min(2, len(bound)))),
                        key=lambda q: q.name))
    return SercqAst(proj, tuple(eqs), tuple(formulas))


class TestRealizationDigest:
    # sha256 of the realizations below as built through the parse-tree layer
    # that the one-walk realization replaced.
    DIGEST = "fbd390e1804d87d35ead22a014f59b76f83964fb37757f5a1b56c354aaf706ea"

    def test_golden_digest(self):
        rng = random.Random(27)
        lines = []
        sercqs = [random_sercq(rng, pseudo=k % 2 == 1) for k in range(600)]
        sercqs += [fccq_to_sercq(random_fccq_wide(rng), AB) for _ in range(400)]
        # Operand objects that recur: a binding twice, a shared variable-free
        # piece around it, X+ around a binding, and a binding under a union.
        x, y = RBind(v("x"), formula("S*")), RBind(v("y"), formula("'ab'"))
        sigma = formula("S*")
        for f in (RConcat(x, x), RConcat(RConcat(sigma, y), RConcat(sigma, sigma)),
                  RConcat(y, RStar(y)), RConcat(RUnion(x, sigma), y), RConcat(sigma, sigma)):
            sercqs.append(SercqAst((v("y"),), (), (f, RConcat(sigma, y))))
        for s in sercqs:
            lines.append(print_sercq(s, AB))
            for realize in (sercq_to_fccq, pseudo_acyclic_to_acyclic_fccq):
                try:
                    lines.append(print_query(realize(s)))
                except (ValueError, NotPseudoAcyclicError) as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST


class TestSharedOperands:
    def test_each_operand_read_once(self, monkeypatch):
        # The parser builds X+ as X.X* around one X object, so "a" and 12
        # pluses unfold to a tree of 2^12 leaves; every walk over the formula
        # reads each object's operands once.
        text = "pi{x} ( x{'a'}.a" + "+" * 12 + " )"
        calls = 0
        operands = model._operands

        def counted(node):
            nonlocal calls
            calls += 1
            return operands(node)

        monkeypatch.setattr(model, "_operands", counted)
        p = parse_sercq(text, AB)
        sercq_to_fccq(p)
        pseudo_acyclic_to_acyclic_fccq(p)
        assert calls < 20 * len(text)


def spanner_words(s: SercqAst, head, w: str) -> set[tuple[str, ...]]:
    """Word contents of the spanner's tuples, in head order."""
    out = set()
    for tup in brute_sercq_evaluate(s, w):
        contents = {name: w[i - 1:j - 1] for name, i, j in tup}
        out.add(tuple(contents[h.name] for h in head))
    return out


class TestFccqToSercq:
    def test_repeat_binding_with_equality(self):
        q = parse_query("ans(x) :- u = x.'a'.x", AB)
        s = fccq_to_sercq(q, AB)
        assert len(s.formulas) == 1
        assert len(s.equalities) == 1
        assert s.equalities[0][0] == v("x")

    def test_constraint_only_query(self):
        q = parse_query("ans(x) :- x in /a*/", AB)
        s = fccq_to_sercq(q, AB)
        assert len(s.formulas) >= 1

    def test_semantics_on_small_words(self):
        rng = random.Random(21)
        texts = [
            "ans() :- u = x.'a'.x",
            "ans(x) :- u = x.y, x in /a*/",
            "ans(x,y) :- u = x.y.x",
            "ans() :- u = x.y, u = y.x",
            "ans(x) :- u = 'b'.x",
        ]
        for text in texts:
            q = parse_query(text, AB)
            s = fccq_to_sercq(q, AB)
            for w in ["", "a", "b", "ab", "aba", "abab"]:
                assert spanner_words(s, q.head, w) == brute_evaluate(q, w), (text, w)

    def test_widened_generator(self):
        """The shapes only `random_fccq_wide` emits (`u` on a right side,
        empty right sides, a left side repeated on its own right side,
        constraint-only variables, constraints on `u`) keep their meaning, on
        every word over {a, b} up to length 3."""
        rng = random.Random(0)
        words = all_words("ab", 3)
        for _ in range(80):
            q = random_fccq_wide(rng)
            s = fccq_to_sercq(q, AB)
            for w in words:
                assert spanner_words(s, q.head, w) == brute_evaluate(q, w), (q, w)

    def test_double_conversion_preserves_semantics(self):
        texts = ["ans(x) :- u = x.y", "ans() :- u = x.'a'.x"]
        for text in texts:
            q = parse_query(text, AB)
            s = fccq_to_sercq(q, AB)
            q2 = sercq_to_fccq(s)
            for w in ["", "a", "ab", "ba", "aab"]:
                expected = brute_evaluate(q, w)
                back = engine_words(q2, w)
                # q2's head carries prefix/content pairs per original head var.
                projected = {tuple(row[2 * k + 1] for k in range(len(q.head)))
                             for row in back}
                assert projected == expected, (text, w)


class TestPseudoAcyclic:
    def test_shapes(self):
        assert is_pseudo_acyclic(parse_sercq("pi{x} ( S*.x{'a'+}.S* )", AB))
        assert is_pseudo_acyclic(parse_sercq("pi{x} ( x{'a'} )", AB))
        assert not is_pseudo_acyclic(
            parse_sercq("pi{x} ( S*.x{'a'}.S*.y{'b'}.S* )", AB))

    def test_error_on_bad_input(self):
        p = parse_sercq("pi{x} ( S*.x{'a'}.S*.y{'b'}.S* )", AB)
        with pytest.raises(NotPseudoAcyclicError):
            pseudo_acyclic_to_acyclic_fccq(p)

    def test_output_planner_acyclic(self):
        rng = random.Random(6)
        for _ in range(25):
            p = random_sercq(rng, pseudo=True)
            q = pseudo_acyclic_to_acyclic_fccq(p)
            plan(q)  # must not raise

    def test_equality_cycle_collapses(self):
        p = parse_sercq(
            "pi{x1} eq{x1,x2} eq{x2,x3} eq{x1,x3} "
            "( 'a'*.x1{S}.S* join S*.x2{S}.S* join S*.x3{S}.'b'* )", AB)
        q = pseudo_acyclic_to_acyclic_fccq(p)
        # Only two equality equations survive (spanning forest of a triangle).
        copies = [eq for eq in q.equations if len(eq.rhs) == 1]
        assert len(copies) == 2
        for w in ["", "a", "ab", "ba", "aab", "abb"]:
            assert realization_words(q, w) == spans_to_prefix_content(p, w), w

    def test_realization_semantics(self):
        rng = random.Random(14)
        for _ in range(20):
            p = random_sercq(rng, pseudo=True)
            q = pseudo_acyclic_to_acyclic_fccq(p)
            for w in ["", "ab", "aab", "bba"]:
                assert realization_words(q, w) == spans_to_prefix_content(p, w), (p, w)
