import random
import string
from fractions import Fraction

import pytest

from starnambu import (ArityError, DomainError, ExprSyntaxError, PhaseExpr,
                       UnknownName)
from starnambu.lang import Binding, evaluate, parse, print_canonical
from starnambu.models import get_model
from tests.test_phase import rand_expr


class TestParse:
    def test_bracket_call(self):
        node = parse("pb(L[1,2], P[1])")
        assert node.kind == "call" and node.fn == "pb"
        assert node.children[0].kind == "name"
        assert node.children[0].base == "L"
        assert node.children[0].indices == (1, 2)
        assert node.children[1].indices == (1,)

    def test_mixed_expression(self):
        node = parse("star(x[1], p[1]) - x[1]*p[1]")
        assert node.kind == "sub"
        assert node.children[0].fn == "star"
        assert node.children[1].kind == "mul"

    def test_error_span_unclosed(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("qnb(f, Lx, Ly")
        assert err.value.span[0] == len("qnb(f, Lx, Ly")
        assert set(err.value.expected) & {")", ","}

    def test_error_span_bad_char(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x[1] $ 2")
        assert err.value.span == (5, 6)

    def test_trailing_tokens(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 2")

    def test_numbers(self):
        assert parse("3/4").value == Fraction(3, 4)
        assert parse("12").value == Fraction(12)

    def test_totality_fuzz(self):
        rng = random.Random(71)
        alphabet = string.ascii_letters + string.digits + "+-*/()[], ."
        for _ in range(300):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 25)))
            try:
                parse(text)
            except ExprSyntaxError as exc:
                lo, hi = exc.span
                assert 0 <= lo <= hi <= len(text) + 1

    def test_totality_pathological(self):
        with pytest.raises(ExprSyntaxError):
            parse("1/0")
        with pytest.raises(ExprSyntaxError):
            parse("(" * 5000 + "1" + ")" * 5000)
        with pytest.raises(ExprSyntaxError):
            parse("")

    def test_every_rule_tree_pinned(self):
        def shape(node):
            return (node.kind, node.span, node.value, node.base, node.indices,
                    node.fn, tuple(shape(c) for c in node.children))

        got = shape(parse("-qnb(x[1], 3/4*p1, (hbar - i)) / L[1,2] + s"))
        hbar = ("hbar", (20, 24), None, None, (), None, ())
        imag = ("imag", (27, 28), None, None, (), None, ())
        sub = ("sub", (20, 28), None, None, (), None, (hbar, imag))
        mul = ("mul", (11, 17), None, None, (), None, (
            ("number", (11, 14), Fraction(3, 4), None, (), None, ()),
            ("name", (15, 17), None, "p1", (), None, ())))
        call = ("call", (1, 30), None, None, (), "qnb", (
            ("name", (5, 9), None, "x", (1,), None, ()),
            mul,
            ("group", (19, 29), None, None, (), None, (sub,))))
        div = ("div", (0, 39), None, None, (), None, (
            ("neg", (0, 30), None, None, (), None, (call,)),
            ("name", (33, 39), None, "L", (1, 2), None, ())))
        assert got == ("add", (0, 43), None, None, (), None, (
            div, ("name", (42, 43), None, "s", (), None, ())))

    @pytest.mark.parametrize("text, message, span, expected", [
        ("x[1] $ 2", "unexpected character '$'", (5, 6), ()),
        ("qnb(f, Lx, Ly", "expected ')' or ','", (13, 13), (")", ",")),
        ("pb(x1 x2)", "expected ')' or ','", (6, 8), (")", ",")),
        ("L[1, 2", "expected ']' or ','", (6, 6), ("]", ",")),
        ("(1 + 2", "expected ')'", (6, 6), (")",)),
        ("x[1/2]", "expected an integer index", (2, 5), ("INT",)),
        ("x[]", "expected an integer index", (2, 3), ("INT",)),
        ("1/0", "zero denominator in literal", (0, 3), ("NUMBER",)),
        ("x1 +", "expected a number, name, call, or parenthesized expression",
         (4, 4), ("NUMBER", "IDENT", "(")),
        ("h0()", "expected a number, name, call, or parenthesized expression",
         (3, 4), ("NUMBER", "IDENT", "(")),
        ("1 2", "unexpected trailing input", (2, 3), ("end",)),
        ("f(1)", "unexpected trailing input", (1, 2), ("end",)),
        ("1 2 $", "unexpected character '$'", (4, 5), ()),
        ("(" * 5000 + "1" + ")" * 5000, "expression nested too deeply",
         (0, 10001), ()),
    ], ids=["bad-char", "call-close", "call-comma", "index-close",
            "group-close", "fraction-index", "empty-index", "zero-denominator",
            "missing-atom", "empty-call", "trailing", "trailing-call",
            "bad-char-wins", "too-deep"])
    def test_syntax_error_pinned(self, text, message, span, expected):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert (err.value.message, err.value.span, err.value.expected) == (
            message, span, expected)

    @pytest.mark.parametrize("opening, closing", [
        ("-", ""), ("(", ")"), ("h0(", ")")], ids=["minus", "paren", "call"])
    def test_nesting_limit_pinned(self, opening, closing):
        # a stated limit, not whatever Python's stack leaves at the call site
        parse(opening * 64 + "x1" + closing * 64)
        text = opening * 65 + "x1" + closing * 65
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert (err.value.message, err.value.span, err.value.expected) == (
            "expression nested too deeply", (0, len(text)), ())

    @pytest.mark.parametrize("text, pos", [
        ("\u0663*x1", 0),        # ARABIC-INDIC DIGIT THREE
        ("x[\u0662]", 2),        # ARABIC-INDIC DIGIT TWO
        ("\uff11/\uff12", 0),    # FULLWIDTH DIGIT ONE, TWO
    ])
    def test_numbers_are_ascii_digits(self, text, pos):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.message == f"unexpected character {text[pos]!r}"
        assert err.value.span == (pos, pos + 1)


class TestEvaluate:
    def test_precedence(self):
        b = Binding(dimension=2)
        assert evaluate("1 - 2*3", b).equals(PhaseExpr.const(2, -5))
        assert evaluate("-2*3", b).equals(PhaseExpr.const(2, -6))
        assert evaluate("(1+2)*3", b).equals(PhaseExpr.const(2, 9))
        assert evaluate("2*3+1", b).equals(PhaseExpr.const(2, 7))
        assert evaluate("i*i", b).equals(PhaseExpr.const(2, -1))

    def test_model_names(self):
        m = get_model("sphere:2")
        b = Binding(model=m)
        assert evaluate("mb(Lx,Ly)", b).equals(m.charge("Lz"))
        assert evaluate("h0(Hqm)", b).equals(m.charge("H"))
        assert evaluate("divh(qnb(x[1],p[1]),1)", b).equals(PhaseExpr.one(2))
        assert evaluate("mb(Lx,Hqm)", b).is_zero()
        assert evaluate("L[1,2]", b).equals(m.charge("Lz"))

    def test_builtin_names(self):
        b = Binding(dimension=2)
        one = PhaseExpr.one(2)
        s = PhaseExpr.radical_s(2)
        assert evaluate("s*s + x1*x1 + x2*x2", b).equals(one)
        assert evaluate("w*(1+s)", b).equals(one)
        assert evaluate("x[2] - y", b).is_zero()
        assert evaluate("p[1] - px", b).is_zero()

    def test_division(self):
        b = Binding(dimension=2)
        one = PhaseExpr.one(2)
        # (1+s)(1-s) = 1 - s^2 = q^2
        assert evaluate("(x1*x1 + x2*x2)/(1+s)/(1-s)", b).equals(one)
        assert evaluate("(1 - x1*x1 - x2*x2)/(s*s)", b).equals(one)

    def test_diff(self):
        b = Binding(dimension=2)
        got = evaluate("diff(x[1]*p[1], p[1])", b)
        assert got.equals(PhaseExpr.coord(2, 0))
        got = evaluate("diff(s, x[1])", b)
        x = PhaseExpr.coord(2, 0)
        y = PhaseExpr.coord(2, 1)
        s = PhaseExpr.radical_s(2)
        one = PhaseExpr.one(2)
        assert got.equals(-(x * s) / (one - x * x - y * y))

    def test_arity_errors(self):
        b = Binding(model=get_model("sphere:2"))
        with pytest.raises(ArityError):
            evaluate("pb(Lx)", b)
        with pytest.raises(ArityError):
            evaluate("nb(Lx, Ly, Lz)", b)
        with pytest.raises(ArityError):
            evaluate("divh(Lx, x1)", b)
        with pytest.raises(ArityError):
            evaluate("diff(Lx, Lx)", b)
        with pytest.raises(ArityError, match=r"^h0 takes exactly 1 argument$"):
            evaluate("h0(x1, x2)", b)

    def test_unknown_name(self):
        b = Binding(model=get_model("sphere:2"))
        with pytest.raises(UnknownName):
            evaluate("mb(Lx, Nope)", b)

    def test_inexact_division_propagates(self):
        from starnambu import InexactDivision
        b = Binding(dimension=2)
        with pytest.raises(InexactDivision):
            evaluate("divh(x1, 1)", b)

    def test_nb_dispatch(self):
        m = get_model("sphere:2")
        b = Binding(model=m)
        got = evaluate("nb(H, Lx, Ly, Lz)", b)
        assert got.is_zero()

    def test_extra_bindings(self):
        f = rand_expr(2, random.Random(72), terms=3)
        b = Binding(dimension=2, extra={"f": f})
        assert evaluate("f - f", b).is_zero()
        with pytest.raises(Exception):
            Binding(dimension=2, extra={"star": f})

    @pytest.mark.parametrize("text, error, message", [
        ("pb(Nope)", UnknownName, "unknown name: Nope"),
        ("nb(Nope)", UnknownName, "unknown name: Nope"),
        ("star(x1, Nope, p1)", UnknownName, "unknown name: Nope"),
        ("res4(Nope)", UnknownName, "unknown name: Nope"),
        ("diff(Nope, Nope)", UnknownName, "unknown name: Nope"),
        ("divh(Nope, 1/2)", UnknownName, "unknown name: Nope"),
        ("h0(Nope, x1)", ArityError, "h0 takes exactly 1 argument"),
        ("diff(Nope)", ArityError, "diff takes exactly 2 arguments"),
    ])
    def test_which_error_wins(self, text, error, message):
        b = Binding(model=get_model("sphere:2"))
        with pytest.raises(error) as err:
            evaluate(text, b)
        assert str(err.value) == message

    @pytest.mark.parametrize("model, dimension, extra", [
        ("sphere:3", 2, {}),
        (None, 2, {"f": 3}),
        (None, None, {"f": 2, "g": 3}),
        (None, 0, {}),
        (None, -1, {}),
    ], ids=["model", "extra", "mixed-extra", "zero", "negative"])
    def test_binding_refuses_inconsistent_dimensions(self, model, dimension,
                                                      extra):
        with pytest.raises(DomainError):
            Binding(model=model and get_model(model), dimension=dimension,
                    extra={k: PhaseExpr.one(n) for k, n in extra.items()})


class TestPrintCanonical:
    def test_zero(self):
        assert print_canonical(PhaseExpr.zero(2)) == "0"

    def test_star_example(self):
        from starnambu import star
        got = star(PhaseExpr.coord(2, 0), PhaseExpr.momentum(2, 0))
        assert print_canonical(got) == "x1*p1 + (1/2)*i*hbar"


    @pytest.mark.parametrize("text, want", [
        ("w", "(1 - s)/(x1*x1 + x2*x2)"),
        ("1/(1+s)", "(1 - s)/(x1*x1 + x2*x2)"),
        ("diff(s, x1)", "x1*s/(x1*x1 + x2*x2 - 1)"),
        ("x1 - s", "(x1 - s)"),
        ("-s", "-s"),
        ("-i*x1", "-i*x1"),
        ("(1/2 - i/3)*x2", "(1/2 - 1/3*i)*x2"),
        ("x1*p1 - p2*p2", "-p2*p2 + x1*p1"),
        ("-(x1 + x2)*s*p2", "(-x1 - x2)*s*p2"),
        ("(x1*x1 + 1 - 2*s)/(1 + x1*x1)*p1",
         "((x1*x1 + 1) - 2*s)/(x1*x1 + 1)*p1"),
        ("1/2 - s/3", "((1/2) - 1/3*s)"),
        ("(1 + i)*hbar*hbar*p2", "(1 + 1*i)*hbar*hbar*p2"),
    ])
    def test_radical_denominators_pinned(self, text, want):
        b = Binding(dimension=2)
        got = evaluate(text, b)
        assert print_canonical(got) == want
        assert evaluate(want, b).equals(got)

    @pytest.mark.parametrize("text, want", [
        ("1/x1", "1/(x1)"),
        ("p1/(x1-x2)", "1/(x1 - x2)*p1"),
        ("1/(1+x1*x1)", "1/(x1*x1 + 1)"),
    ])
    def test_plain_denominator_not_squared(self, text, want):
        b = Binding(model=get_model("sphere:2"))
        got = evaluate(text, b)
        assert print_canonical(got) == want
        assert evaluate(want, b).equals(got)

    def test_derivative_keeps_unrelated_rest_unsquared(self):
        # x1 - x2 does not contain x3, so d/dx3 leaves it to the first power
        b = Binding(model=get_model("sphere:3"))
        got = evaluate("diff(s/(x1 - x2), x3)", b)
        want = ("x3*s/(x1*x1*x1 - x1*x1*x2 + x1*x2*x2 + x1*x3*x3 - x2*x2*x2"
                " - x2*x3*x3 - x1 + x2)")
        assert print_canonical(got) == want
        assert evaluate(want, b).equals(got)

    def test_repeated_derivative_raises_rest_power_by_one(self):
        # the k-th x1-derivative of 1/(x1 - x2) used to be over
        # (x1 - x2)**(2**k)
        from starnambu.poly import pmul, psub, pvar
        from starnambu.radical import rdenom
        b = Binding(model=get_model("sphere:2"))
        rest = psub(pvar(0), pvar(1))
        want, text = rest, "1/(x1 - x2)"
        for _ in range(4):
            want, text = pmul(want, rest), f"diff({text}, x1)"
            got = evaluate(text, b)
            assert rdenom(got.terms[0], 2) == want, text
            assert evaluate(print_canonical(got), b).equals(got)

    def test_nambu_minor_reduced_once(self):
        # each Laplace minor used to be summed from reduced products and
        # left over x1*x1 + x2*x2 + x3*x3 - 1, which the sum cancels
        b = Binding(model=get_model("chiral-s3"))
        got = evaluate("nb((-2*s*hbar),Lch2,I2,A3,(-i*s + 3*x2*x2),"
                       "(-1/2*x3*p3))", b)
        assert print_canonical(got) == "6*x1*x2*x3*hbar*s*p3"
        assert evaluate("6*x1*x2*x3*hbar*s*p3", b).equals(got)

    def test_roundtrip_100_random(self):
        rng = random.Random(73)
        b2 = Binding(dimension=2)
        b1 = Binding(dimension=1)
        for trial in range(100):
            n = 1 if trial % 4 == 0 else 2
            e = rand_expr(n, rng, terms=3)
            if trial % 5 == 0:
                e = e * PhaseExpr.w_function(n)
            text = print_canonical(e)
            back = evaluate(text, b1 if n == 1 else b2)
            assert back.equals(e), text

    def test_roundtrip_model_objects(self):
        m = get_model("chiral-s3")
        b = Binding(model=m)
        for name in ("Hqm", "IL", "R2"):
            e = m.charge(name)
            assert evaluate(print_canonical(e), b).equals(e)
        assert evaluate("Lch[2]", b).equals(m.charge("Lch2"))
