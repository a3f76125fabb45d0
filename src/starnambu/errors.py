"""Exception types shared across the package."""


class StarNambuError(Exception):
    """Base class for all package errors."""


class DivisionByZero(StarNambuError, ZeroDivisionError):
    """A denominator normalized to the zero polynomial."""


class DimensionError(StarNambuError, ValueError):
    """Operands live on phase spaces of different dimension."""


class InexactDivision(StarNambuError, ArithmeticError):
    """A claimed hbar-divisibility does not hold exactly."""


class EvaluationPole(StarNambuError, ZeroDivisionError):
    """A denominator vanishes at the requested evaluation point."""


class ArityError(StarNambuError, ValueError):
    """A bracket or call received the wrong number of arguments."""


class DomainError(StarNambuError, ValueError):
    """Input outside the operation's domain (bad dimension, bad point...)."""


class NotInvertible(StarNambuError, ArithmeticError):
    """Inverse does not exist inside the coefficient field representation."""


class UnknownName(StarNambuError, KeyError):
    """An identifier could not be resolved against the active binding."""

    def __init__(self, name, span=None):
        super().__init__(name)
        self.name = name
        self.span = span

    def __str__(self):
        return f"unknown name: {self.name}"


class ExprSyntaxError(StarNambuError, ValueError):
    """Expression-language parse failure, with source span and expectations."""

    def __init__(self, message, span, expected=()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = tuple(expected)

    def __str__(self):
        lo, hi = self.span
        return f"syntax error at {lo}..{hi}: {self.message}"


class UsageError(StarNambuError, ValueError):
    """Bad command-line usage (maps to exit code 2)."""
