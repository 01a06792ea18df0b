from __future__ import annotations

import hashlib
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_fccq_wide, v
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
    RBind,
    RConcat,
    REmpty,
    REpsilon,
    RLit,
    RStar,
    RUnion,
    RegularConstraint,
    UNIVERSE,
    Variable,
    WordEquation,
    default_alphabet,
    regex_any_of,
    regex_word,
)
from wordeq.nfa import thompson

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


ABC = Alphabet(("a", "b", "c"))


def random_regex(rng: random.Random, depth: int, binds: bool):
    """A seeded regex about ``depth`` deep: every node kind, the S macro,
    literal words, and both shapes that print as X+."""
    if depth <= 0 or rng.random() < 0.2:
        kind = rng.randrange(5)
        if kind == 0:
            return REmpty()
        if kind == 1:
            return REpsilon()
        if kind == 2:
            return regex_any_of(ABC.symbols)
        if kind == 3:
            return regex_word("".join(rng.choice("abc") for _ in range(rng.randrange(2, 5))))
        return RLit(rng.choice("abc"))
    kind = rng.randrange(6 if binds else 5)
    if kind == 0:
        return RUnion(random_regex(rng, depth - 1, binds), random_regex(rng, depth - 1, binds))
    if kind == 1:
        return RConcat(random_regex(rng, depth - 1, binds), random_regex(rng, depth - 1, binds))
    if kind == 2:
        return RStar(random_regex(rng, depth - 1, binds))
    if kind == 3:
        # X.X*, with X shared as the parser builds it, or rebuilt equal.
        seed = rng.random()
        inner = random_regex(random.Random(seed), depth - 2, binds)
        again = inner if rng.random() < 0.5 else random_regex(random.Random(seed), depth - 2, binds)
        return RConcat(inner, RStar(again))
    if kind == 4:
        return RConcat(RUnion(RLit("a"), random_regex(rng, depth - 1, binds)),
                       RStar(random_regex(rng, depth - 1, binds)))
    return RBind(Variable(rng.choice(["x", "y1", "z_2"])), random_regex(rng, depth - 1, binds))


class TestRegexWalks:
    # sha256 of the text below as written by the recursive walkers that the
    # explicit-stack traversal replaced: the NFA builder, the dataclass repr
    # and the printer.
    DIGEST = "c612c903aa5faf54ddb1934721c76ab1c9f4534f8af2d9e3a3b60dcfd6077fce"

    def test_golden_digest(self):
        rng = random.Random(26)
        lines = []
        for k in range(3000):
            binds = k % 3 == 0
            r = random_regex(rng, rng.randrange(1, 8), binds)
            lines.append(repr(r))
            lines.append(repr(RegularConstraint(Variable("x"), r)))
            lines.append(print_regex(r))
            lines.append(print_regex(r, ABC))
            lines.append(print_regex(r, ABC, quote_literals=True))
            if not binds:
                nfa = thompson(r)
                lines.append(repr((nfa.eps, nfa.sym, nfa.start, nfa.accept)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST

    def test_deeper_than_the_recursion_limit(self):
        # Trees are compared by repr: the dataclass __eq__ still recurses.
        word = "ab" * 2500
        concat, union = regex_word(word), regex_any_of(word)
        concat_repr, union_repr = repr(concat), repr(union)
        assert concat_repr.startswith("RConcat(left=" * 4999 + "RLit(symbol='a'), right=")
        assert union_repr == "RUnion(left=" * 4999 + "RLit(symbol='a')" + "".join(
            f", right=RLit(symbol={ch!r}))" for ch in word[1:])
        assert print_regex(concat) == word
        assert print_regex(union, ABC) == "|".join(word)
        assert repr(parse_regex(print_regex(concat, ABC, True), ABC)) == concat_repr
        assert repr(parse_regex(print_regex(union, ABC), ABC)) == union_repr
        x = Variable("x")
        bound = RConcat(RBind(x, RLit("a")), concat)
        for ch in word:
            bound = RConcat(bound, RLit(ch))
        assert svars(bound) == {x}
        assert thompson(concat).accepts(word) and not thompson(concat).accepts(word[:-1])
        assert thompson(union).accepts("b") and not thompson(union).accepts("ab")

    def test_shared_operand_printed_once(self):
        # The parser builds X+ as X.X* around one X object, so "a" and 40
        # pluses unfold to a tree of 2^40 leaves; the printer visits each
        # object once.
        text = "a" + "+" * 40
        assert print_regex(parse_regex(text, ALPHA)) == "(" * 39 + "a" + "+)" * 39 + "+"


def parse_outcome(parse, text: str) -> str:
    """The AST's repr, or the parse error's class, message and span."""
    try:
        return repr(parse(text))
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc.message} {exc.span.start} {exc.span.end}"


def perturbed(rng: random.Random, text: str) -> list[str]:
    """The text, with one seeded character deleted, and with one inserted."""
    i, j = rng.randrange(len(text)), rng.randrange(len(text) + 1)
    return [text, text[:i] + text[i + 1:], text[:j] + rng.choice(" ab.d(|)*+{}'#Sx_1/,") + text[j:]]


class TestParseOutcomes:
    # sha256 of the outcomes below as read by the recursive-descent parser
    # that the one-loop parser replaced.
    DIGEST = "e728dc7dcfa015cb306443a05c4129619765d383acf28f2cd50b2d083b166ae9"

    def test_golden_digest(self):
        rng = random.Random(27)
        lines = []
        for k in range(600):
            r = random_regex(rng, rng.randrange(1, 7), k % 2 == 0)
            for text in (print_regex(r), print_regex(r, ABC), print_regex(r, ABC, True)):
                for t in perturbed(rng, text):
                    lines.append(parse_outcome(partial(parse_regex, alphabet=ABC), t))
                    lines.append(parse_outcome(
                        partial(parse_regex, alphabet=ABC, allow_bindings=True), t))
        for _ in range(300):
            formulas = [random_regex(rng, 3, True) for _ in range(rng.randrange(1, 3))]
            names = sorted(x.name for f in formulas for x in svars(f))
            text = " ".join([f"pi{{{', '.join(names)}}}"] + [f"eq{{{a},{b}}}" for a, b in
                                                             zip(names, names[1:])])
            text += " ( " + " join ".join(print_regex(f, ABC, True) for f in formulas) + " )"
            for t in perturbed(rng, text):
                lines.append(parse_outcome(partial(parse_sercq, alphabet=ABC), t))
        for _ in range(300):
            for t in perturbed(rng, print_query(random_fccq_wide(rng), ABC)):
                lines.append(parse_outcome(partial(parse_query, alphabet=ABC), t))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST


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
