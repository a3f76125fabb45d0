"""Tokenizer, parser and evaluator for the bracket expression language used
by the command line.  The canonical printer, ``print_canonical``, lives in
:mod:`starnambu.phase` beside the values it prints; it is importable from
here too.

Grammar (whitespace-insensitive):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom
    atom   := NUMBER | "i" | "hbar" | name | call | "(" expr ")"
    name   := IDENT ("[" INT ("," INT)* "]")?
    call   := FN "(" expr ("," expr)* ")"
    NUMBER := INT ("/" INT)?

FN is one of star, pb, mb, nb, qnb, jordan, res4, diff, divh, h0.  "/" is
exact division (the right factor must be an invertible, momentum-free
expression); it also lets the canonical coefficient form ((A)+(B)*s)/(D)
round-trip through the parser.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .brackets import (jordan, moyal, nambu_jacobian, phase_algebra, poisson,
                       qnb, resolve_qnb4, star)
from .errors import ArityError, DomainError, ExprSyntaxError, UnknownName
from .models import Model, fab
from .phase import PhaseExpr, print_canonical  # noqa: F401 (re-exported)

FUNCTIONS = ("star", "pb", "mb", "nb", "qnb", "jordan", "res4", "diff",
             "divh", "h0")

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*/(),\[\]])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int

    @property
    def span(self) -> Tuple[int, int]:
        return (self.pos, self.pos + len(self.text))


def tokenize(text: str) -> List[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}",
                                  (pos, pos + 1))
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(Token("end", "", len(text)))
    return out


@dataclass(frozen=True)
class AstNode:
    kind: str
    span: Tuple[int, int]
    value: Optional[Fraction] = None
    base: Optional[str] = None
    indices: Tuple[int, ...] = ()
    children: Tuple["AstNode", ...] = ()
    fn: Optional[str] = None


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str, expected: Tuple[str, ...]) -> Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == text:
            return self.advance()
        raise ExprSyntaxError(
            f"expected {' or '.join(repr(e) for e in expected)}",
            tok.span, expected)

    def parse_expr(self) -> AstNode:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                kind = "add" if tok.text == "+" else "sub"
                node = AstNode(kind, (node.span[0], rhs.span[1]),
                               children=(node, rhs))
            else:
                return node

    def parse_term(self) -> AstNode:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "*/":
                self.advance()
                rhs = self.parse_factor()
                kind = "mul" if tok.text == "*" else "div"
                node = AstNode(kind, (node.span[0], rhs.span[1]),
                               children=(node, rhs))
            else:
                return node

    def parse_factor(self) -> AstNode:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            inner = self.parse_factor()
            return AstNode("neg", (tok.pos, inner.span[1]), children=(inner,))
        return self.parse_atom()

    def parse_atom(self) -> AstNode:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if "/" in tok.text:
                num, den = tok.text.split("/")
                if int(den) == 0:
                    raise ExprSyntaxError("zero denominator in literal",
                                          tok.span, ("NUMBER",))
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(tok.text))
            return AstNode("number", tok.span, value=value)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                return AstNode("imag", tok.span)
            if tok.text == "hbar":
                return AstNode("hbar", tok.span)
            nxt = self.peek()
            if tok.text in FUNCTIONS and nxt.kind == "sym" and nxt.text == "(":
                self.advance()
                args = [self.parse_expr()]
                while True:
                    sep = self.peek()
                    if sep.kind == "sym" and sep.text == ",":
                        self.advance()
                        args.append(self.parse_expr())
                        continue
                    close = self.expect(")", (")", ","))
                    return AstNode("call", (tok.pos, close.span[1]),
                                   fn=tok.text, children=tuple(args))
            indices: Tuple[int, ...] = ()
            if nxt.kind == "sym" and nxt.text == "[":
                self.advance()
                idx = []
                while True:
                    num = self.peek()
                    if num.kind != "number" or "/" in num.text:
                        raise ExprSyntaxError("expected an integer index",
                                              num.span, ("INT",))
                    self.advance()
                    idx.append(int(num.text))
                    sep = self.peek()
                    if sep.kind == "sym" and sep.text == ",":
                        self.advance()
                        continue
                    close = self.expect("]", ("]", ","))
                    indices = tuple(idx)
                    return AstNode("name", (tok.pos, close.span[1]),
                                   base=tok.text, indices=indices)
            return AstNode("name", tok.span, base=tok.text)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            close = self.expect(")", (")",))
            return AstNode("group", (tok.pos, close.span[1]), children=(inner,))
        raise ExprSyntaxError(
            "expected a number, name, call, or parenthesized expression",
            tok.span, ("NUMBER", "IDENT", "(",))


def parse(text: str) -> AstNode:
    parser = _Parser(tokenize(text))
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply",
                              (0, len(text)), ())
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError("unexpected trailing input", tail.span, ("end",))
    return node


_COMPACT_VAR = re.compile(r"^([xpQ])(\d+)$")
_LETTER_VARS = {"x": ("x", 1), "y": ("x", 2), "z": ("x", 3),
                "px": ("p", 1), "py": ("p", 2), "pz": ("p", 3)}


def _decode_var(base: str, indices: Tuple[int, ...]):
    """(kind, a) when the name is coordinate ("x") or momentum ("p") number
    a, 1-based and not range-checked: x[i], Q[i], p[i], x1, Q1, p1 and the
    letter names; None for any other name."""
    if len(indices) == 1 and base in ("x", "p", "Q"):
        return ("p" if base == "p" else "x", indices[0])
    if indices:
        return None
    m = _COMPACT_VAR.match(base)
    if m:
        return ("p" if m.group(1) == "p" else "x", int(m.group(2)))
    return _LETTER_VARS.get(base)


@dataclass
class Binding:
    """Name resolution context: a model and/or extra named expressions."""

    model: Optional[Model] = None
    dimension: Optional[int] = None
    extra: Dict[str, PhaseExpr] = field(default_factory=dict)

    def __post_init__(self):
        for name in self.extra:
            if name in FUNCTIONS or name in ("i", "hbar"):
                raise DomainError(f"binding name {name!r} shadows a reserved word")
        if self.dimension is None:
            if self.model is not None:
                self.dimension = self.model.n
            elif self.extra:
                self.dimension = next(iter(self.extra.values())).n
            else:
                raise DomainError("binding needs a model, dimension, or names")

    @property
    def n(self) -> int:
        return self.dimension

    def resolve(self, base: str, indices: Tuple[int, ...], span) -> PhaseExpr:
        n = self.dimension
        key = base + "".join(str(i) for i in indices)
        if key in self.extra:
            return self.extra[key]
        var = _decode_var(base, indices)
        if var is not None:
            kind, a = var
            if 1 <= a <= n:
                return (PhaseExpr.coord(n, a - 1) if kind == "x"
                        else PhaseExpr.momentum(n, a - 1))
            if indices:  # x[i] out of range; x4 or z may still be a charge
                raise UnknownName(key, span)
        if not indices:
            if base == "s":
                return PhaseExpr.radical_s(n)
            if base == "w":
                return PhaseExpr.w_function(n)
        if self.model is not None:
            if base in ("fab", "fabC") and len(indices) == 2:
                variant = "cartesian" if base == "fab" else "chiral"
                return fab(self.model, indices[0], indices[1], variant)
            if key in self.model.charges:
                return self.model.charges[key]
        raise UnknownName(key, span)


def _as_var(node: AstNode, binding: Binding):
    """Interpret a name node as a differentiation variable."""
    if node.kind != "name":
        raise ArityError("diff needs a coordinate or momentum name")
    var = _decode_var(node.base, node.indices)
    if var is None:
        raise ArityError(f"cannot differentiate with respect to {node.base!r}")
    return (var[0], var[1] - 1)


_BINARY = {"add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv}


def evaluate_ast(node: AstNode, binding: Binding) -> PhaseExpr:
    n = binding.dimension
    kind = node.kind
    if kind == "number":
        return PhaseExpr.const(n, node.value)
    if kind == "imag":
        return PhaseExpr.const(n, (0, 1, 1))
    if kind == "hbar":
        return PhaseExpr.hbar(n)
    if kind == "name":
        return binding.resolve(node.base, node.indices, node.span)
    if kind == "group":
        return evaluate_ast(node.children[0], binding)
    if kind == "neg":
        return -evaluate_ast(node.children[0], binding)
    if kind in _BINARY:
        # a + b + c parses left-nested: walk the left spine in a loop so a
        # long chain does not recurse once per operator
        spine = []
        while node.kind in _BINARY:
            spine.append(node)
            node = node.children[0]
        acc = evaluate_ast(node, binding)
        for op in reversed(spine):
            acc = _BINARY[op.kind](acc, evaluate_ast(op.children[1], binding))
        return acc
    if kind == "call":
        return _call(node, binding)
    raise DomainError(f"unhandled node kind {kind!r}")


def _call(node: AstNode, binding: Binding) -> PhaseExpr:
    fn = node.fn
    args = node.children
    n = binding.dimension

    def need(count: int):
        if len(args) != count:
            noun = "argument" if count == 1 else "arguments"
            raise ArityError(f"{fn} takes exactly {count} {noun}")

    if fn == "diff":
        need(2)
        target = evaluate_ast(args[0], binding)
        kind, index = _as_var(args[1], binding)
        if not 0 <= index < n:
            raise ArityError(f"variable index out of range for dimension {n}")
        return target.diff_x(index) if kind == "x" else target.diff_p(index)
    if fn == "divh":
        need(2)
        target = evaluate_ast(args[0], binding)
        power = args[1]
        if power.kind != "number" or power.value.denominator != 1 or power.value < 0:
            raise ArityError("divh needs a non-negative integer power")
        return target.divide_exact_hbar(int(power.value))
    if fn == "h0":
        need(1)
        return evaluate_ast(args[0], binding).subst_hbar_zero()
    values = [evaluate_ast(a, binding) for a in args]
    if fn == "star":
        need(2)
        return star(values[0], values[1])
    if fn == "pb":
        need(2)
        return poisson(values[0], values[1])
    if fn == "mb":
        need(2)
        return moyal(values[0], values[1])
    if fn == "nb":
        if len(values) != 2 * n:
            raise ArityError(f"nb takes exactly {2 * n} arguments in dimension {n}")
        return nambu_jacobian(values)
    if fn == "res4":
        need(4)
        return resolve_qnb4(*values, phase_algebra(n))
    if fn == "qnb":
        return qnb(values, phase_algebra(n)).value
    if fn == "jordan":
        return jordan(values, phase_algebra(n)).value
    raise DomainError(f"unknown function {fn!r}")


def evaluate(text: str, binding: Binding) -> PhaseExpr:
    return evaluate_ast(parse(text), binding)
