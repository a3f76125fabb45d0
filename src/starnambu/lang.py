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
    INT    := [0-9]+

FN is one of star, pb, mb, nb, qnb, jordan, res4, diff, divh, h0.  Digits
are ASCII only.  "/" is exact division (the right factor must be an
invertible, momentum-free expression); it also lets the canonical
coefficient form ((A)+(B)*s)/(D) round-trip through the parser.  Unary
minus, parentheses and calls nest at most 64 levels (MAX_NESTING); deeper
input is the syntax error "expression nested too deeply".
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .brackets import (jordan, moyal, nambu_jacobian, phase_algebra, poisson,
                       qnb, resolve_qnb4, star)
from .errors import ArityError, DomainError, ExprSyntaxError, UnknownName
from .models import Model, fab
from .phase import PhaseExpr, print_canonical  # noqa: F401 (re-exported)

FUNCTIONS = ("star", "pb", "mb", "nb", "qnb", "jordan", "res4", "diff",
             "divh", "h0")

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*/(),\[\]])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str
    text: str
    span: Tuple[int, int]


def tokenize(text: str) -> List[Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}",
                                  m.span())
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), m.span()))
    out.append(Token("end", "", (len(text), len(text))))
    return out


class AstNode(NamedTuple):
    kind: str
    span: Tuple[int, int]
    value: Optional[Fraction] = None
    base: Optional[str] = None
    indices: Tuple[int, ...] = ()
    children: Tuple["AstNode", ...] = ()
    fn: Optional[str] = None


_SUMS, _PRODUCTS = {"+": "add", "-": "sub"}, {"*": "mul", "/": "div"}
MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def take(self, symbols) -> Optional[Token]:
        """The next token, consumed, when it is one of the symbols."""
        tok = self.tokens[self.i]
        if tok.kind == "sym" and tok.text in symbols:
            self.i += 1
            return tok
        return None

    def chain(self, operand, ops: Dict[str, str]) -> AstNode:
        """operand (op operand)*, nested to the left; ops maps each operator
        symbol to its node kind."""
        node = operand()
        while True:
            tok = self.take(ops)
            if tok is None:
                return node
            rhs = operand()
            node = AstNode(ops[tok.text], (node.span[0], rhs.span[1]),
                           children=(node, rhs))

    def expect(self, close: str, expected: Tuple[str, ...]) -> Token:
        tok = self.take(close)
        if tok is None:
            tok = self.tokens[self.i]
            raise ExprSyntaxError(
                f"expected {' or '.join(repr(e) for e in expected)}",
                tok.span, expected)
        return tok

    def listed(self, item, close: str):
        """item ("," item)* close: the items and the closing token."""
        items = [item()]
        while self.take(","):
            items.append(item())
        return tuple(items), self.expect(close, (close, ","))

    def nested(self, inner, *args):
        """inner(*args) one level down; past MAX_NESTING levels it fails as
        Python's recursion limit does, and parse reports both alike."""
        if self.depth == MAX_NESTING:
            raise RecursionError(f"more than {MAX_NESTING} nesting levels")
        self.depth += 1
        node = inner(*args)
        self.depth -= 1
        return node

    def expr(self) -> AstNode:
        return self.chain(self.term, _SUMS)

    def term(self) -> AstNode:
        return self.chain(self.factor, _PRODUCTS)

    def index(self) -> int:
        tok = self.tokens[self.i]
        if tok.kind != "number" or "/" in tok.text:
            raise ExprSyntaxError("expected an integer index", tok.span,
                                  ("INT",))
        self.i += 1
        return int(tok.text)

    def factor(self) -> AstNode:
        kind, text, span = self.tokens[self.i]
        if self.take("-"):
            inner = self.nested(self.factor)
            return AstNode("neg", (span[0], inner.span[1]), children=(inner,))
        if self.take("("):
            inner = self.nested(self.expr)
            close = self.expect(")", (")",))
            return AstNode("group", (span[0], close.span[1]),
                           children=(inner,))
        self.i += 1
        if kind == "number":
            num, _, den = text.partition("/")
            if den and int(den) == 0:
                raise ExprSyntaxError("zero denominator in literal",
                                      span, ("NUMBER",))
            return AstNode("number", span,
                           value=Fraction(int(num), int(den or 1)))
        if kind == "ident":
            if text == "i":
                return AstNode("imag", span)
            if text == "hbar":
                return AstNode("hbar", span)
            if text in FUNCTIONS and self.take("("):
                args, close = self.nested(self.listed, self.expr, ")")
                return AstNode("call", (span[0], close.span[1]), fn=text,
                               children=args)
            if self.take("["):
                indices, close = self.listed(self.index, "]")
                return AstNode("name", (span[0], close.span[1]), base=text,
                               indices=indices)
            return AstNode("name", span, base=text)
        raise ExprSyntaxError(
            "expected a number, name, call, or parenthesized expression",
            span, ("NUMBER", "IDENT", "("))


def parse(text: str) -> AstNode:
    parser = _Parser(tokenize(text))
    try:
        node = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply",
                              (0, len(text)), ())
    tail = parser.tokens[parser.i]
    if tail.kind != "end":
        raise ExprSyntaxError("unexpected trailing input", tail.span, ("end",))
    return node


_COMPACT_VAR = re.compile(r"^([xpQ])([0-9]+)$")
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
    """Name resolution context: a model and/or extra named expressions.

    The dimension defaults to the model's, else to the first extra value's.
    A dimension below 1, or a model or extra value of another dimension, is
    a DomainError.
    """

    model: Optional[Model] = None
    dimension: Optional[int] = None
    extra: Dict[str, PhaseExpr] = field(default_factory=dict)

    def __post_init__(self):
        model = self.model
        dims = [(f"model {model.name}", model.n)] if model else []
        for name, value in self.extra.items():
            if name in FUNCTIONS or name in ("i", "hbar"):
                raise DomainError(f"binding name {name!r} shadows a reserved word")
            dims.append((f"binding name {name!r}", value.n))
        if self.dimension is None:
            if not dims:
                raise DomainError("binding needs a model, dimension, or names")
            self.dimension = dims[0][1]
        if self.dimension < 1:
            raise DomainError(f"binding dimension {self.dimension} is below 1")
        for what, n in dims:
            if n != self.dimension:
                raise DomainError(
                    f"{what} has dimension {n}, not {self.dimension}")

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


_BINARY = {"add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv}


def evaluate_ast(node: AstNode, binding: Binding) -> PhaseExpr:
    n, kind = binding.dimension, node.kind
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


_ARITY = {"diff": 2, "divh": 2, "h0": 1, "star": 2, "pb": 2, "mb": 2,
          "res4": 4}
# these check their arity first; the others evaluate their arguments first
_ARITY_FIRST = ("diff", "divh", "h0")


def _call(node: AstNode, binding: Binding) -> PhaseExpr:
    fn, args, n = node.fn, node.children, binding.dimension
    values = ([] if fn in _ARITY_FIRST
              else [evaluate_ast(a, binding) for a in args])
    count = _ARITY.get(fn, len(args))
    if len(args) != count:
        noun = "argument" if count == 1 else "arguments"
        raise ArityError(f"{fn} takes exactly {count} {noun}")
    # built per call, so that rebinding these module names (as perfbench's
    # tracer does) takes effect
    pair = {"star": star, "pb": poisson, "mb": moyal}.get(fn)
    if pair is not None:
        return pair(*values)
    if fn == "res4":
        return resolve_qnb4(*values, phase_algebra(n))
    if fn == "nb":
        if len(values) != 2 * n:
            raise ArityError(f"nb takes exactly {2 * n} arguments in dimension {n}")
        return nambu_jacobian(values)
    if fn == "qnb":
        return qnb(values, phase_algebra(n)).value
    if fn == "jordan":
        return jordan(values, phase_algebra(n)).value
    if fn not in _ARITY_FIRST:
        raise DomainError(f"unknown function {fn!r}")
    target = evaluate_ast(args[0], binding)
    if fn == "h0":
        return target.subst_hbar_zero()
    arg = args[1]
    if fn == "divh":
        if arg.kind != "number" or arg.value.denominator != 1 or arg.value < 0:
            raise ArityError("divh needs a non-negative integer power")
        return target.divide_exact_hbar(int(arg.value))
    if arg.kind != "name":
        raise ArityError("diff needs a coordinate or momentum name")
    var = _decode_var(arg.base, arg.indices)
    if var is None:
        raise ArityError(f"cannot differentiate with respect to {arg.base!r}")
    kind, a = var
    if not 1 <= a <= n:
        raise ArityError(f"variable index out of range for dimension {n}")
    return target.diff_x(a - 1) if kind == "x" else target.diff_p(a - 1)


def evaluate(text: str, binding: Binding) -> PhaseExpr:
    return evaluate_ast(parse(text), binding)
