"""Seeded generator of the eval-stream expressions.

``generate(seed, count)`` is a pure function of its arguments: it uses only
its own ``random.Random(seed)`` and imports nothing from ``starnambu``, so
the program under test receives only the generated text.  Charge names are
spelled out here for the same reason; they are the bundled models' charges.

Rational operands ``(poly)/(denominator)`` go only into the two-argument
forms, at most one per form.  Inside a 3-entry ``qnb``/``jordan`` or a
``nb`` they make a single expression take seconds (see README.md, "Known
exclusions"), and two in one bracket can print a million characters, so
one draw would set the length of a whole pass.
"""

from __future__ import annotations

import random
from typing import List, Tuple

CHARGES = {
    "sphere:2": ("P1", "P2", "L12"),
    "sphere:3": ("P1", "P2", "P3", "L12", "L13", "L23"),
    "sphere:4": ("P1", "P2", "P3", "P4", "L12", "L13", "L14", "L23", "L24",
                 "L34"),
    "chiral-s3": ("R1", "R2", "R3", "Lch1", "Lch2", "Lch3", "I1", "I2", "I3",
                  "A1", "A2", "A3"),
    "gnomonic-s3": ("J1", "J2", "J3"),
}
MODELS = tuple(CHARGES)
DIMENSION = {"sphere:2": 2, "sphere:3": 3, "sphere:4": 4, "chiral-s3": 3,
             "gnomonic-s3": 3}
DENOMINATORS = ("x1", "(x1 - x2)", "(1 + x1*x1)", "(2*x1)")
COEFFICIENTS = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "i", "-i")
# Shares are exact per block of draws (see _Deck): forms per 100; one
# rational operand in 3 of every 10 two-argument forms; charges and
# polynomials 9 to 8 among the other operands.
FORMS = (("mb", 22), ("pb", 18), ("star", 18), ("diff", 7), ("h0mb", 6),
         ("divh", 6), ("sum", 6), ("nb", 7), ("qnb", 5), ("jordan", 5))
RATIONAL = ((True, 3), (False, 7))
OPERANDS = (("charge", 9), ("poly", 8))


class _Deck:
    """Draws from shuffled copies of a block, one copy after another.

    Every block of draws holds the block's exact shares, so the mix of
    forms, models and operand kinds does not vary from seed to seed; the
    seed still picks the order and every operand.
    """

    def __init__(self, rng: random.Random, weighted):
        self.rng = rng
        self.block = [item for item, weight in weighted for _ in range(weight)]
        self.items: list = []

    def draw(self):
        if not self.items:
            self.items = list(self.block)
            self.rng.shuffle(self.items)
        return self.items.pop()


class _Draws:
    def __init__(self, seed: int):
        self.rng = rng = random.Random(f"eval-stream:{seed}")
        self.shape = _Deck(rng, [((model, form), weight) for model in MODELS
                                 for form, weight in FORMS])
        self.rational = _Deck(rng, RATIONAL)
        self.operand = _Deck(rng, OPERANDS)


def _poly(rng: random.Random, n: int) -> str:
    """A small random polynomial in x, p, s, hbar and i: at most three
    terms, each of degree at most two in the x's and p's together."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(COEFFICIENTS)]
        for _ in range(rng.randint(0, 2)):
            factors.append(f"{rng.choice('xp')}{rng.randint(1, n)}")
        if rng.random() < 0.3:
            factors.append("s")
        if rng.random() < 0.15:
            factors.append("hbar")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _operand(d: _Draws, model: str) -> str:
    if d.operand.draw() == "charge":
        return d.rng.choice(CHARGES[model])
    return f"({_poly(d.rng, DIMENSION[model])})"


def _rational(d: _Draws, model: str) -> str:
    return f"({_poly(d.rng, DIMENSION[model])})/{d.rng.choice(DENOMINATORS)}"


def _pair(d: _Draws, model: str) -> Tuple[str, str]:
    """Operands of a two-argument form, at most one of them rational."""
    if not d.rational.draw():
        return _operand(d, model), _operand(d, model)
    plain, rational = _operand(d, model), _rational(d, model)
    return (rational, plain) if d.rng.random() < 0.5 else (plain, rational)


def _bracket(d: _Draws, model: str) -> str:
    a, b = _pair(d, model)
    return f"{d.rng.choice(('mb', 'pb', 'star'))}({a},{b})"


def _expression(d: _Draws, model: str, form: str) -> str:
    n = DIMENSION[model]
    if form in ("mb", "pb", "star"):
        a, b = _pair(d, model)
        return f"{form}({a},{b})"
    if form == "diff":
        var = f"{d.rng.choice('xp')}{d.rng.randint(1, n)}"
        target = (_rational(d, model) if d.rational.draw()
                  else _operand(d, model))
        return f"diff({target},{var})"
    if form == "h0mb":
        a, b = _pair(d, model)
        return f"h0(mb({a},{b}))"
    if form == "divh":
        a, b = _pair(d, model)
        return f"divh(mb({a},{b}) - pb({a},{b}),2)"
    if form == "sum":
        return f"{_bracket(d, model)} + {_bracket(d, model)}"
    count = 2 * n if form == "nb" else 3
    args = [_operand(d, model) for _ in range(count)]
    return f"{form}({','.join(args)})"


def generate(seed: int, count: int) -> List[Tuple[str, str]]:
    """The pass's ``(model, expression)`` list for this seed."""
    d = _Draws(seed)
    out = []
    for _ in range(count):
        model, form = d.shape.draw()
        out.append((model, _expression(d, model, form)))
    return out
