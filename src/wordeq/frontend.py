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

from dataclasses import dataclass
from typing import Optional

from .bridge import SercqAst, svars
from .decompose import terminal_free_core
from .model import (
    Alphabet,
    FcCq,
    Pattern,
    PatternItem,
    RBind,
    RConcat,
    REmpty,
    REpsilon,
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
    regex_any_of,
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
        while not self.eof() and self.text[self.pos] in " \t\r\n":
            self.pos += 1

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
        if self.eof() or not (self.peek().isalpha() or self.peek() == "_"):
            raise self.error("expected an identifier")
        while not self.eof() and (self.peek().isalnum() or self.peek() == "_"):
            self.pos += 1
        return self.text[start:self.pos], start

    def quoted(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        self.expect("'")
        end = self.text.find("'", self.pos)
        if end < 0:
            raise self.error("unterminated quoted literal", start)
        word = self.text[self.pos:end]
        self.pos = end + 1
        return word, start


def _variable(name: str, start: int) -> Variable:
    if name in KEYWORDS and name != UNIVERSE_NAME:
        raise ParseError(f"{name!r} is a reserved word", SourceSpan(start, start + len(name)))
    if name == UNIVERSE_NAME:
        return UNIVERSE
    return Variable(name)


def _check_terminals(word: str, alphabet: Alphabet, start: int) -> None:
    for i, ch in enumerate(word):
        if ch not in alphabet:
            raise ParseError(f"symbol {ch!r} is outside the alphabet",
                             SourceSpan(start + i, start + i + 1))


# --- regexes -----------------------------------------------------------------

_REGEX_STOP = set("|)}/")


class _RegexParser:
    def __init__(self, sc: _Scanner, alphabet: Alphabet, allow_bindings: bool):
        self.sc = sc
        self.alphabet = alphabet
        self.allow_bindings = allow_bindings

    def parse_union(self) -> RegexAst:
        node = self.parse_concat()
        while self.sc.try_literal("|"):
            node = RUnion(node, self.parse_concat())
        return node

    def _at_atom(self) -> bool:
        self.sc.skip_ws()
        ch = self.sc.peek()
        return bool(ch) and ch not in _REGEX_STOP and ch not in "*+."

    def parse_concat(self) -> RegexAst:
        node: Optional[RegexAst] = None
        while True:
            self.sc.skip_ws()
            if self.sc.peek() == ".":
                self.sc.pos += 1
                continue
            if not self._at_atom():
                break
            if self._at_join_keyword():
                break
            piece = self.parse_repeat()
            node = piece if node is None else RConcat(node, piece)
        if node is None:
            raise self.sc.error("expected a regex")
        return node

    def _at_join_keyword(self) -> bool:
        # 'join' is a keyword only in .sercq formula position.
        if not self.allow_bindings:
            return False
        sc = self.sc
        if not sc.text.startswith("join", sc.pos):
            return False
        end = sc.pos + 4
        after = sc.text[end] if end < len(sc.text) else ""
        before = sc.text[sc.pos - 1] if sc.pos > 0 else ""
        return (not after.isalnum()) and (not before.isalnum())

    def parse_repeat(self) -> RegexAst:
        node = self.parse_atom()
        while True:
            self.sc.skip_ws()
            if self.sc.peek() == "*":
                self.sc.pos += 1
                node = RStar(node)
            elif self.sc.peek() == "+":
                self.sc.pos += 1
                node = RConcat(node, RStar(node))
            else:
                return node

    def parse_atom(self) -> RegexAst:
        sc = self.sc
        sc.skip_ws()
        start = sc.pos
        ch = sc.peek()
        if ch == "#":
            sc.pos += 1
            return REmpty()
        if ch == "'":
            word, qstart = sc.quoted()
            _check_terminals(word, self.alphabet, qstart + 1)
            return regex_word(word)
        if ch == "(":
            sc.pos += 1
            node = self.parse_union()
            sc.expect(")")
            return node
        if ch == "S":
            sc.pos += 1
            return regex_any_of(self.alphabet.symbols)
        if ch.isalpha():
            # Either a binding "x1{...}" or a plain literal character.
            save = sc.pos
            name, istart = sc.ident()
            if sc.peek() == "{" and len(name) >= 1 and name[0].isalpha():
                if not self.allow_bindings:
                    raise sc.error("variable bindings are not allowed here", istart)
                var = _variable(name, istart)
                sc.expect("{")
                inner = self.parse_union()
                sc.expect("}")
                return RBind(var, inner)
            sc.pos = save
        if ch and ch in self.alphabet:
            sc.pos += 1
            return RLit(ch)
        raise sc.error(f"unexpected character {ch!r} in regex" if ch else "unexpected end of regex",
                       start)


def parse_regex(text: str, alphabet: Alphabet, allow_bindings: bool = False) -> RegexAst:
    sc = _Scanner(text)
    node = _RegexParser(sc, alphabet, allow_bindings).parse_union()
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
            word, qstart = sc.quoted()
            _check_terminals(word, alphabet, qstart + 1)
            items.extend(word)
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
    sc.expect("(")
    head: list[Variable] = []
    sc.skip_ws()
    if sc.peek() != ")":
        while True:
            name, start = sc.ident()
            v = _variable(name, start)
            if v.is_universe:
                raise ParseError("the universe variable cannot be in the head",
                                 SourceSpan(start, start + len(name)))
            head.append(v)
            if not sc.try_literal(","):
                break
    sc.expect(")")
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
            regex = _RegexParser(sc, alphabet, allow_bindings=False).parse_union()
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
            word, qstart = sc.quoted()
            _check_terminals(word, alphabet, qstart + 1)
            items.extend(word)
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


# Module-level, not a closure: a closure that calls itself is a reference cycle.
def _validate_formula(node: RegexAst, text_span: SourceSpan, bound: list[Variable]) -> None:
    """Reject bindings under a union or a star, and variables bound twice;
    ``bound`` collects the variables bound so far in the formula."""
    if isinstance(node, RUnion):
        if svars(node.left) or svars(node.right):
            raise NotSynchronizedError("variable binding under a union", text_span)
        return
    if isinstance(node, RStar):
        if svars(node.inner):
            raise NotFunctionalError("variable binding under a star", text_span)
        return
    if isinstance(node, RBind):
        if node.var in bound:
            raise NotFunctionalError(f"variable {node.var} bound twice in one formula",
                                     text_span)
        bound.append(node.var)
        _validate_formula(node.inner, text_span, bound)
        return
    if isinstance(node, RConcat):
        _validate_formula(node.left, text_span, bound)
        _validate_formula(node.right, text_span, bound)


def parse_sercq(text: str, alphabet: Alphabet) -> SercqAst:
    """Parse the .sercq syntax into a spanner expression."""
    sc = _Scanner(text)
    sc.expect("pi")
    sc.expect("{")
    projection: list[Variable] = []
    sc.skip_ws()
    if sc.peek() != "}":
        while True:
            name, start = sc.ident()
            projection.append(_variable(name, start))
            if not sc.try_literal(","):
                break
    sc.expect("}")

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
        formula = _RegexParser(sc, alphabet, allow_bindings=True).parse_union()
        _validate_formula(formula, SourceSpan(fstart, sc.pos), [])
        formulas.append(formula)
        sc.skip_ws()
        if sc.text.startswith("join", sc.pos):
            sc.pos += 4
            continue
        break
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
    return _printed(ast, sigma, quote_literals)


def _precedence(node: RegexAst, sigma: Optional[RegexAst]) -> int:
    if sigma is not None and node == sigma:
        return 3  # prints as the atomic macro S
    if isinstance(node, RUnion):
        return 1
    if isinstance(node, RConcat):
        return 2
    return 3


# Module-level, not a closure: a closure that calls itself is a reference cycle.
def _printed(node: RegexAst, sigma: Optional[RegexAst], quote_literals: bool) -> str:
    if sigma is not None and node == sigma:
        return "S"
    if isinstance(node, REmpty):
        return "#"
    if isinstance(node, REpsilon):
        return "''"
    if isinstance(node, RLit):
        return f"'{node.symbol}'" if quote_literals else node.symbol
    if isinstance(node, RBind):
        return f"{node.var.name}{{{_printed(node.inner, sigma, quote_literals)}}}"
    if isinstance(node, RStar):
        body = _printed(node.inner, sigma, quote_literals)
        if _precedence(node.inner, sigma) < 3:
            body = f"({body})"
        return body + "*"
    if isinstance(node, RConcat):
        # X.X* prints as X+ (the parser expands + the same way).
        if isinstance(node.right, RStar) and node.right.inner == node.left:
            body = _printed(node.left, sigma, quote_literals)
            if _precedence(node.left, sigma) < 3:
                body = f"({body})"
            return body + "+"
        left = _printed(node.left, sigma, quote_literals)
        if _precedence(node.left, sigma) < 2:
            left = f"({left})"
        right = _printed(node.right, sigma, quote_literals)
        if _precedence(node.right, sigma) < 3:
            right = f"({right})"
        return left + ("." if quote_literals else "") + right
    if isinstance(node, RUnion):
        left = _printed(node.left, sigma, quote_literals)
        right = _printed(node.right, sigma, quote_literals)
        if isinstance(node.right, RUnion):
            right = f"({right})"
        return f"{left}|{right}"
    raise TypeError(f"unknown regex node {node!r}")


def print_pattern(p: Pattern) -> str:
    core, blocks = terminal_free_core(p)
    return ".".join(f"'{blocks[x]}'" if x in blocks else x.name for x in core) or "''"


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
