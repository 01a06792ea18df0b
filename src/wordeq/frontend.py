"""Concrete textual syntax: parsing and printing of queries, patterns,
regexes and SERCQ expressions.

Query grammar (the stable on-disk .fcq format)::

    query  := "ans(" [var ("," var)*] ")" ":-" atom ("," atom)*
    atom   := var "=" concat | var "in" "/" regex "/"
    concat := term ("." term)* | "''"
    term   := var | "'" literal "'"

``u`` denotes the universe variable.  Regexes use ``#`` for the empty
language, ``''`` for epsilon, ``|`` for union, implicit (or ``.``)
concatenation, postfix ``*`` and ``+``, and the macros ``S`` / ``S+`` for the
whole alphabet.  The .sercq format is::

    sercq := "pi{" [var ("," var)*] "}" ("eq{" var "," var "}")* "(" formula ("join" formula)* ")"

where formulas extend regexes with bindings ``x{ regex }``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Iterator, Optional

from .bridge import SercqAst
from .model import (
    Alphabet,
    FcCq,
    Pattern,
    PatternItem,
    RBind,
    RConcat,
    REmpty,
    RLit,
    RStar,
    RUnion,
    RegexAst,
    RegularConstraint,
    UNIVERSE,
    UNIVERSE_NAME,
    Variable,
    WordEquation,
    WordeqError,
    binding_ids,
    regex_any_of,
    regex_fold,
    regex_nodes,
    regex_word,
)

KEYWORDS = {"ans", "in", "pi", "eq", "join", "S"}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("source span start exceeds end")


class ParseError(WordeqError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


class NotSynchronizedError(ParseError):
    pass


class NotFunctionalError(ParseError):
    pass


_SPACE = re.compile(r"[ \t\r\n]*")
_WORD = re.compile(r"\w*")  # in a str pattern, \w is str.isalnum() or "_"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def span(self, start: Optional[int] = None) -> SourceSpan:
        s = self.pos if start is None else start
        return SourceSpan(s, min(self.pos + 1, len(self.text)))

    def error(self, message: str, start: Optional[int] = None) -> ParseError:
        return ParseError(message, self.span(start))

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def try_literal(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.try_literal(token):
            raise self.error(f"expected {token!r}")

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        if not (self.peek().isalpha() or self.peek() == "_"):
            raise self.error("expected an identifier")
        self.pos = _WORD.match(self.text, start).end()
        return self.text[start:self.pos], start

    def terminals(self, alphabet: Alphabet) -> str:
        """A quoted block of terminals, each checked against the alphabet."""
        self.skip_ws()
        start = self.pos
        self.expect("'")
        end = self.text.find("'", self.pos)
        if end < 0:
            raise self.error("unterminated quoted literal", start)
        word = self.text[self.pos:end]
        for i, ch in enumerate(word, self.pos):
            if ch not in alphabet:
                raise ParseError(f"symbol {ch!r} is outside the alphabet", SourceSpan(i, i + 1))
        self.pos = end + 1
        return word


def _variable(name: str, start: int) -> Variable:
    if name in KEYWORDS and name != UNIVERSE_NAME:
        raise ParseError(f"{name!r} is a reserved word", SourceSpan(start, start + len(name)))
    if name == UNIVERSE_NAME:
        return UNIVERSE
    return Variable(name)


def _names(sc: _Scanner, opener: str, closer: str) -> Iterator[tuple[str, int]]:
    """The identifiers, with their starts, of a bracketed comma-separated list."""
    sc.expect(opener)
    sc.skip_ws()
    if sc.peek() != closer:
        while True:
            yield sc.ident()
            if not sc.try_literal(","):
                break
    sc.expect(closer)


def _at_join_keyword(sc: _Scanner) -> bool:
    """Whether the scanner stands at the word 'join', which separates .sercq
    formulas."""
    text, pos = sc.text, sc.pos
    if not text.startswith("join", pos):
        return False
    after = text[pos + 4:pos + 5]
    before = text[pos - 1] if pos > 0 else ""
    return not after.isalnum() and not before.isalnum()


# --- regexes -----------------------------------------------------------------

_NOT_AN_ATOM = set("|)}/*+.")


def _parse_regex(sc: _Scanner, alphabet: Alphabet, allow_bindings: bool) -> RegexAst:
    """Read a union of concatenations of postfixed atoms, up to the first
    character that cannot continue it.

    One loop with a stack of the groups left open: a parenthesis, or a
    binding ``x{``, with the union read so far around it and the
    concatenation it is part of.  A letter's identifier run is scanned once,
    to see whether a ``{`` follows; the letters after it in the run are then
    known to be plain.
    """
    text = sc.text
    groups: list[tuple[str, Optional[Variable], Optional[RegexAst], Optional[RegexAst]]] = []
    union: Optional[RegexAst] = None    # the alternatives read so far, in this group
    concat: Optional[RegexAst] = None   # the alternative being read
    plain_until = 0
    while True:
        sc.skip_ws()
        start = sc.pos
        ch = text[start:start + 1]
        if ch == ".":
            sc.pos += 1
            continue
        if ch and ch not in _NOT_AN_ATOM and not (allow_bindings and _at_join_keyword(sc)):
            group = None
            if ch == "(":
                group, sc.pos = (")", None), start + 1
            elif ch.isalpha() and ch != "S" and start >= plain_until:
                plain_until = _WORD.match(text, start).end()
                if text.startswith("{", plain_until):
                    if not allow_bindings:
                        raise ParseError("variable bindings are not allowed here",
                                         SourceSpan(start, plain_until + 1))
                    group = ("}", _variable(text[start:plain_until], start))
                    sc.pos = plain_until + 1
            if group:
                groups.append((*group, union, concat))
                union = concat = None
                continue
            if ch == "#":
                sc.pos += 1
                node: RegexAst = REmpty()
            elif ch == "'":
                node = regex_word(sc.terminals(alphabet))
            elif ch == "S":
                sc.pos += 1
                node = regex_any_of(alphabet.symbols)
            elif ch in alphabet:
                sc.pos += 1
                node = RLit(ch)
            else:
                raise sc.error(f"unexpected character {ch!r} in regex")
        else:
            if concat is None:
                raise sc.error("expected a regex")
            union = concat if union is None else RUnion(union, concat)
            concat = None
            if sc.try_literal("|"):
                continue
            if not groups:
                return union
            closer, var, outer, concat = groups.pop()
            sc.expect(closer)
            node = union if var is None else RBind(var, union)
            union = outer
        while True:
            sc.skip_ws()
            ch = sc.peek()
            if ch == "*":
                node = RStar(node)
            elif ch == "+":
                node = RConcat(node, RStar(node))
            else:
                break
            sc.pos += 1
        concat = node if concat is None else RConcat(concat, node)


def parse_regex(text: str, alphabet: Alphabet, allow_bindings: bool = False) -> RegexAst:
    sc = _Scanner(text)
    node = _parse_regex(sc, alphabet, allow_bindings)
    sc.skip_ws()
    if not sc.eof():
        raise sc.error("trailing input after regex")
    return node


# --- queries -----------------------------------------------------------------


def _parse_concat(sc: _Scanner, alphabet: Alphabet) -> Pattern:
    items: list[PatternItem] = []
    while True:
        sc.skip_ws()
        if sc.peek() == "'":
            items.extend(sc.terminals(alphabet))
        else:
            name, start = sc.ident()
            items.append(_variable(name, start))
        if not sc.try_literal("."):
            break
    return tuple(items)


def parse_query(text: str, alphabet: Alphabet) -> FcCq:
    """Parse the .fcq query syntax into a query AST."""
    sc = _Scanner(text)
    sc.skip_ws()
    kw, kstart = sc.ident()
    if kw != "ans":
        raise ParseError("queries start with 'ans'", SourceSpan(kstart, kstart + len(kw)))
    head: list[Variable] = []
    for name, start in _names(sc, "(", ")"):
        v = _variable(name, start)
        if v.is_universe:
            raise ParseError("the universe variable cannot be in the head",
                             SourceSpan(start, start + len(name)))
        head.append(v)
    sc.expect(":-")

    equations: list[WordEquation] = []
    constraints: list[RegularConstraint] = []
    while True:
        name, start = sc.ident()
        var = _variable(name, start)
        sc.skip_ws()
        if sc.try_literal("="):
            equations.append(WordEquation(var, _parse_concat(sc, alphabet)))
        else:
            kw2, k2start = sc.ident()
            if kw2 != "in":
                raise ParseError("expected '=' or 'in'", SourceSpan(k2start, k2start + len(kw2)))
            sc.expect("/")
            regex = _parse_regex(sc, alphabet, allow_bindings=False)
            sc.expect("/")
            constraints.append(RegularConstraint(var, regex))
        if not sc.try_literal(","):
            break
    sc.skip_ws()
    if not sc.eof():
        raise sc.error("trailing input after query")

    q = FcCq(tuple(head), tuple(equations), tuple(constraints))
    try:
        q.validate()
    except ValueError as exc:
        raise ParseError(str(exc), SourceSpan(0, len(text))) from exc
    return q


def parse_pattern_literal(text: str, alphabet: Alphabet) -> Pattern:
    """Pattern literals for the CLI: quoted terminal blocks and short variable
    names (one letter plus digits), with optional dot or space separators, so
    that x1x2x1 reads as three occurrences."""
    items: list[PatternItem] = []
    sc = _Scanner(text)
    while True:
        sc.skip_ws()
        while sc.peek() == ".":
            sc.pos += 1
            sc.skip_ws()
        if sc.eof():
            break
        if sc.peek() == "'":
            items.extend(sc.terminals(alphabet))
            continue
        start = sc.pos
        ch = sc.peek()
        if not ch.isalpha():
            raise sc.error(f"unexpected character {ch!r} in pattern")
        sc.pos += 1
        while not sc.eof() and sc.peek().isdigit():
            sc.pos += 1
        name = sc.text[start:sc.pos]
        if name == UNIVERSE_NAME:
            raise ParseError("the universe variable cannot occur in a pattern literal",
                             SourceSpan(start, sc.pos))
        items.append(Variable(name))
    return tuple(items)


# --- SERCQs --------------------------------------------------------------------


def _validate_formula(formula: RegexAst, text_span: SourceSpan) -> None:
    """Reject bindings under a union or a star, and variables bound twice."""
    binding = binding_ids(formula)
    bound: set[Variable] = set()
    for node in regex_nodes(formula, (RConcat, RBind)):
        if isinstance(node, RUnion) and id(node) in binding:
            raise NotSynchronizedError("variable binding under a union", text_span)
        if isinstance(node, RStar) and id(node) in binding:
            raise NotFunctionalError("variable binding under a star", text_span)
        if isinstance(node, RBind):
            if node.var in bound:
                raise NotFunctionalError(f"variable {node.var} bound twice in one formula",
                                         text_span)
            bound.add(node.var)


def parse_sercq(text: str, alphabet: Alphabet) -> SercqAst:
    """Parse the .sercq syntax into a spanner expression."""
    sc = _Scanner(text)
    sc.expect("pi")
    projection = [_variable(name, start) for name, start in _names(sc, "{", "}")]

    equalities: list[tuple[Variable, Variable]] = []
    while True:
        sc.skip_ws()
        if not sc.text.startswith("eq", sc.pos):
            break
        sc.expect("eq")
        sc.expect("{")
        n1, s1 = sc.ident()
        sc.expect(",")
        n2, s2 = sc.ident()
        sc.expect("}")
        equalities.append((_variable(n1, s1), _variable(n2, s2)))

    sc.expect("(")
    formulas: list[RegexAst] = []
    while True:
        fstart = sc.pos
        formula = _parse_regex(sc, alphabet, allow_bindings=True)
        _validate_formula(formula, SourceSpan(fstart, sc.pos))
        formulas.append(formula)
        sc.skip_ws()
        if not _at_join_keyword(sc):
            break
        sc.pos += 4
    sc.expect(")")
    sc.skip_ws()
    if not sc.eof():
        raise sc.error("trailing input after expression")

    ast = SercqAst(tuple(projection), tuple(equalities), tuple(formulas))
    all_vars = ast.spanner_vars()
    for v in projection:
        if v not in all_vars:
            raise ParseError(f"projected variable {v} is not bound by any formula",
                             SourceSpan(0, len(text)))
    for a, b in equalities:
        for v in (a, b):
            if v not in all_vars:
                raise ParseError(f"equality variable {v} is not bound by any formula",
                                 SourceSpan(0, len(text)))
    return ast


# --- printing ------------------------------------------------------------------


def print_regex(ast: RegexAst, alphabet: Optional[Alphabet] = None,
                quote_literals: bool = False) -> str:
    """Canonical regex text; parse_regex(print_regex(r)) == r structurally.

    With ``quote_literals`` (the .sercq style) literals are quoted and
    concatenations dotted, which keeps them apart from binding identifiers.
    """
    sigma = regex_any_of(alphabet.symbols) if alphabet is not None else None
    return regex_fold(ast, partial(_printed, sigma, quote_literals), share=True)[0]


def _printed(sigma: Optional[RegexAst], quote_literals: bool, node: RegexAst,
             operands: list[tuple[str, int]]) -> tuple[str, int]:
    """Text and precedence (1 union, 2 concatenation, 3 atom) of a node,
    given its operands'."""
    if sigma is not None and node == sigma:
        return "S", 3
    if isinstance(node, RUnion):
        (left, _), (right, _) = operands
        return f"{left}|({right})" if isinstance(node.right, RUnion) else f"{left}|{right}", 1
    if isinstance(node, RConcat):
        left, right = operands
        # X.X* prints as X+, as the parser reads it.  The printer is
        # injective, so equal texts mean equal trees, and comparing texts
        # does not recurse as a comparison of trees would.
        if isinstance(node.right, RStar) and right[0] == _tight(left, 3) + "*":
            return _tight(left, 3) + "+", 2
        return _tight(left, 2) + ("." if quote_literals else "") + _tight(right, 3), 2
    if isinstance(node, RStar):
        return _tight(operands[0], 3) + "*", 3
    if isinstance(node, RBind):
        return f"{node.var.name}{{{operands[0][0]}}}", 3
    if isinstance(node, RLit):
        return (f"'{node.symbol}'" if quote_literals else node.symbol), 3
    return ("#" if isinstance(node, REmpty) else "''"), 3


def _tight(printed: tuple[str, int], precedence: int) -> str:
    """The text, in parentheses if it binds looser than ``precedence``."""
    text, own = printed
    return text if own >= precedence else f"({text})"


def print_pattern(p: Pattern) -> str:
    parts: list[str] = []
    for is_var, run in groupby(p, lambda item: isinstance(item, Variable)):
        if is_var:
            parts.extend(x.name for x in run)
        else:
            parts.append("'" + "".join(run) + "'")
    return ".".join(parts) or "''"


def print_query(q: FcCq, alphabet: Optional[Alphabet] = None) -> str:
    """Round-trips: parse_query(print_query(q)) is structurally equal to q."""
    atoms = [f"{eq.lhs.name} = {print_pattern(eq.rhs)}" for eq in q.equations]
    atoms += [f"{c.var.name} in /{print_regex(c.regex, alphabet)}/" for c in q.constraints]
    head = ",".join(v.name for v in q.head)
    return f"ans({head}) :- " + ", ".join(atoms)


def print_sercq(p: SercqAst, alphabet: Optional[Alphabet] = None) -> str:
    parts = ["pi{" + ",".join(v.name for v in p.projection) + "}"]
    for a, b in p.equalities:
        parts.append(f"eq{{{a.name},{b.name}}}")
    formulas = " join ".join(print_regex(f, alphabet, quote_literals=True)
                             for f in p.formulas)
    parts.append(f"( {formulas} )")
    return " ".join(parts)
