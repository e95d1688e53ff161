"""A recursive-descent parser for the Datalog dialect used in the paper.

Grammar (whitespace and ``%``-to-end-of-line comments ignored)::

    program  := (rule)*
    rule     := literal ( ":-" literal ("," literal)* )? "."
    literal  := predicate ( "(" term ("," term)* ")" )?
    term     := variable | integer | atom | string | compound | list
    compound := functor "(" term ("," term)* ")"
    list     := "[" "]" | "[" term ("," term)* ("|" term)? "]"

Variables start with an uppercase letter or ``_``; a bare ``_`` is an
anonymous variable and each occurrence parses to a fresh variable.
Atoms/predicates start with a lowercase letter and may contain
alphanumerics, ``_``, and the generated-name characters ``@``/``~``
so transformed programs can be round-tripped through text.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.datalog.literals import Literal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import (
    Constant,
    NIL,
    Term,
    Variable,
    fresh_variable,
    make_list,
)


class ParseError(ValueError):
    """Raised on malformed input, with line/column context."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


_PUNCT = {":-", "(", ")", "[", "]", "|", ",", ".", "?"}


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i):
            tokens.append(_Token("punct", ":-", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[]|,.?":
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while j < n and text[j] != "'":
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated quoted atom", line, col)
            tokens.append(_Token("qatom", "".join(buf), line, col))
            last = text.rfind("\n", i, j)
            if last < 0:
                col += j + 1 - i
            else:  # the atom holds a newline: restart the column after it
                line += text.count("\n", i, j)
                col = j + 1 - last
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_@~#"):
                j += 1
            word = text[i:j]
            if word[0].isupper() or word[0] == "_":
                tokens.append(_Token("var", word, line, col))
            else:
                tokens.append(_Token("atom", word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers -------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    # -- grammar -------------------------------------------------------

    def program(self) -> Program:
        rules: List[Rule] = []
        while self.peek().kind != "eof":
            rules.append(self.rule())
        return Program(rules)

    def rule(self) -> Rule:
        head = self.literal()
        body: List[Literal] = []
        if self.at_punct(":-"):
            self.next()
            body.append(self.literal())
            while self.at_punct(","):
                self.next()
                body.append(self.literal())
        self.expect("punct", ".")
        return Rule(head, body)

    def literal(self) -> Literal:
        tok = self.next()
        if tok.kind not in ("atom", "qatom"):
            raise ParseError(f"expected predicate, found {tok.text!r}", tok.line, tok.column)
        predicate = tok.text
        args: List[Term] = []
        if self.at_punct("("):
            self.next()
            args.append(self.term())
            while self.at_punct(","):
                self.next()
                args.append(self.term())
            self.expect("punct", ")")
        return Literal(predicate, args)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            if tok.text == "_":
                return fresh_variable("ANON")
            return Variable(tok.text)
        if tok.kind == "int":
            self.next()
            return Constant(int(tok.text))
        if tok.kind == "qatom":
            self.next()
            return Constant(tok.text)
        if tok.kind == "atom":
            self.next()
            if self.at_punct("("):
                from repro.datalog.terms import Compound

                self.next()
                args = [self.term()]
                while self.at_punct(","):
                    self.next()
                    args.append(self.term())
                self.expect("punct", ")")
                return Compound(tok.text, args)
            return Constant(tok.text)
        if tok.kind == "punct" and tok.text == "[":
            return self.list_term()
        raise ParseError(f"expected term, found {tok.text!r}", tok.line, tok.column)

    def list_term(self) -> Term:
        self.expect("punct", "[")
        if self.at_punct("]"):
            self.next()
            return NIL
        elements = [self.term()]
        while self.at_punct(","):
            self.next()
            elements.append(self.term())
        tail: Term = NIL
        if self.at_punct("|"):
            self.next()
            tail = self.term()
        self.expect("punct", "]")
        return make_list(elements, tail)


def parse_program(text: str) -> Program:
    """Parse a whole program (a sequence of rules and facts)."""
    return _Parser(text).program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule, e.g. ``"t(X, Y) :- e(X, Y)."``."""
    parser = _Parser(text)
    rule = parser.rule()
    if parser.peek().kind != "eof":
        tok = parser.peek()
        raise ParseError("trailing input after rule", tok.line, tok.column)
    return rule


def parse_literal(text: str) -> Literal:
    """Parse a single literal, e.g. ``"t(5, Y)"``."""
    parser = _Parser(text)
    literal = parser.literal()
    if parser.at_punct(".") or parser.at_punct("?"):
        parser.next()
    if parser.peek().kind != "eof":
        tok = parser.peek()
        raise ParseError("trailing input after literal", tok.line, tok.column)
    return literal


def parse_term(text: str) -> Term:
    """Parse a single term, e.g. ``"[a, b | T]"``."""
    parser = _Parser(text)
    term = parser.term()
    if parser.peek().kind != "eof":
        tok = parser.peek()
        raise ParseError("trailing input after term", tok.line, tok.column)
    return term


def parse_query(text: str) -> Literal:
    """Parse a query literal; a trailing ``?`` or ``.`` is accepted.

    The paper writes queries as ``t(5, Y)?``; this helper accepts that
    form and returns the goal literal.
    """
    return parse_literal(text)
