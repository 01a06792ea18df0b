from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import v
from wordeq.bridge import svars
from wordeq.frontend import (
    NotFunctionalError,
    NotSynchronizedError,
    ParseError,
    parse_pattern_literal,
    parse_query,
    parse_regex,
    parse_sercq,
    print_pattern,
    print_query,
    print_regex,
    print_sercq,
)
from wordeq.model import (
    Alphabet,
    FcCq,
    RConcat,
    REmpty,
    REpsilon,
    RLit,
    RStar,
    RUnion,
    RegularConstraint,
    UNIVERSE,
    WordEquation,
    default_alphabet,
)

ALPHA = default_alphabet()


class TestParseQuery:
    def test_two_equations_two_constraints(self):
        q = parse_query("ans(x,y) :- x = z1.z2, y = z1.z3, x in /s/, z1 in /w/", ALPHA)
        assert len(q.equations) == 2 and len(q.constraints) == 2
        assert q.head == (v("x"), v("y"))
        assert q.equations[0] == WordEquation(v("x"), (v("z1"), v("z2")))

    def test_boolean_query_with_terminals(self):
        q = parse_query("ans() :- u = x.'a'.x", ALPHA)
        assert q.head == ()
        assert q.equations[0].lhs.is_universe
        assert q.equations[0].rhs == (v("x"), "a", v("x"))

    def test_syntax_error_has_span(self):
        with pytest.raises(ParseError) as err:
            parse_query("ans() :- u = ", ALPHA)
        assert err.value.span.start <= len("ans() :- u = ")

    def test_epsilon_rhs(self):
        q = parse_query("ans() :- u = ''", ALPHA)
        assert q.equations[0].rhs == ()

    def test_literal_outside_alphabet(self):
        with pytest.raises(ParseError):
            parse_query("ans() :- u = 'a'", Alphabet(("b",)))

    def test_universe_not_in_head(self):
        with pytest.raises(ParseError):
            parse_query("ans(u) :- u = x", ALPHA)

    def test_head_var_must_occur(self):
        with pytest.raises(ParseError):
            parse_query("ans(q) :- u = x", ALPHA)

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError):
            parse_query("ans() :- in = x", ALPHA)


class TestRegexSyntax:
    def test_tokens(self):
        assert parse_regex("#", ALPHA) == REmpty()
        assert parse_regex("''", ALPHA) == REpsilon()
        assert parse_regex("a", ALPHA) == RLit("a")
        assert parse_regex("a|b", ALPHA) == RUnion(RLit("a"), RLit("b"))
        assert parse_regex("ab", ALPHA) == RConcat(RLit("a"), RLit("b"))
        assert parse_regex("a*", ALPHA) == RStar(RLit("a"))
        assert parse_regex("a+", ALPHA) == RConcat(RLit("a"), RStar(RLit("a")))

    def test_quoted_and_dots(self):
        assert parse_regex("'ab'", ALPHA) == parse_regex("a.b", ALPHA)

    def test_sigma_macro(self):
        two = Alphabet(("a", "b"))
        assert parse_regex("S", two) == RUnion(RLit("a"), RLit("b"))

    def test_binding_rejected_outside_sercq(self):
        with pytest.raises(ParseError):
            parse_regex("x{a}", ALPHA, allow_bindings=False)


def regex_ast_strategy():
    leaf = st.sampled_from([REmpty(), REpsilon(), RLit("a"), RLit("b"), RLit("c")])
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: RUnion(*p)),
            st.tuples(kids, kids).map(lambda p: RConcat(*p)),
            kids.map(RStar),
        ),
        max_leaves=12,
    )


class TestRoundTrips:
    @given(regex_ast_strategy())
    @settings(max_examples=300)
    def test_regex_print_parse_identity(self, ast):
        assert parse_regex(print_regex(ast, ALPHA), ALPHA) == ast

    def test_query_round_trip_examples(self):
        for text in [
            "ans(x,y) :- x = z1.z2, y = z1.z3, x in /s/, z1 in /w/",
            "ans() :- u = x.'a'.x",
            "ans() :- u = ''",
            "ans(x) :- u = x.y, x in /(a|b)*/",
            "ans() :- u = 'ab'.x.'ba'.x.y.x",
        ]:
            q = parse_query(text, ALPHA)
            assert parse_query(print_query(q, ALPHA), ALPHA) == q
        # Terminal runs print as one literal each, also next to variables
        # named like the fresh block variables t1, t2.
        t1, t2 = v("t1"), v("t2")
        for p, text in [
            (("a", "b", t1, "a", t2, "b"), "'ab'.t1.'a'.t2.'b'"),
            ((t1, "b", "a", t2, t1), "t1.'ba'.t2.t1"),
            ((t2, t1), "t2.t1"),
            (("a", "b", "b"), "'abb'"),
            ((), "''"),
        ]:
            assert print_pattern(p) == text, p

    @given(st.lists(st.sampled_from(["x", "y", "z", "a", "b"]), min_size=0, max_size=6),
           st.booleans())
    def test_query_round_trip_generated(self, items, use_head):
        rhs = tuple(v(i) if i in ("x", "y", "z") else i for i in items)
        head = (v("x"),) if (use_head and v("x") in rhs) else ()
        q = FcCq(head, (WordEquation(UNIVERSE, rhs),),
                 (RegularConstraint(v("x"), RLit("a")),) if v("x") in rhs else ())
        assert parse_query(print_query(q, ALPHA), ALPHA) == q

    def test_sercq_round_trip(self):
        two = Alphabet(("a", "b"))
        text = "pi{x1} eq{x1,x2} ( S*.x1{S+}.'a'.S* join S*.x2{S+}.'b'.S* )"
        p = parse_sercq(text, two)
        assert parse_sercq(print_sercq(p, two), two) == p


class TestParseSercq:
    def test_example_shape(self):
        two = Alphabet(("a", "b"))
        p = parse_sercq("pi{x1} eq{x1,x2} ( S*.x1{S+}.'a'.S* join S*.x2{S+}.'b'.S* )", two)
        assert [q.name for q in p.projection] == ["x1"]
        assert p.equalities == ((v("x1"), v("x2")),)
        assert len(p.formulas) == 2
        assert svars(p.formulas[0]) == {v("x1")}

    def test_binding_under_union_not_synchronized(self):
        with pytest.raises(NotSynchronizedError):
            parse_sercq("pi{} ( (x{'a'}|'b') )", ALPHA)

    def test_binding_under_star_not_functional(self):
        with pytest.raises(NotFunctionalError):
            parse_sercq("pi{} ( (x{'a'})* )", ALPHA)

    def test_double_binding_not_functional(self):
        with pytest.raises(NotFunctionalError):
            parse_sercq("pi{} ( x{'a'}.x{'b'} )", ALPHA)

    def test_boolean(self):
        p = parse_sercq("pi{} ('a')", ALPHA)
        assert p.projection == () and len(p.formulas) == 1

    def test_unknown_projection_var(self):
        with pytest.raises(ParseError):
            parse_sercq("pi{y} ( x{'a'} )", ALPHA)


class TestPatternLiteral:
    def test_compact_form(self):
        p = parse_pattern_literal("x1x2x1x3x1", ALPHA)
        assert p == tuple(v(n) for n in ["x1", "x2", "x1", "x3", "x1"])

    def test_spaced_form(self):
        assert parse_pattern_literal("x1 x2 x1 x1 x2", ALPHA) == \
            tuple(v(n) for n in ["x1", "x2", "x1", "x1", "x2"])

    def test_terminals(self):
        assert parse_pattern_literal("'ab'.x.'ba'", ALPHA) == ("a", "b", v("x"), "b", "a")

    def test_universe_rejected(self):
        with pytest.raises(ParseError):
            parse_pattern_literal("u", ALPHA)
