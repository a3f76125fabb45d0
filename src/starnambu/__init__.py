"""Exact phase-space bracket calculus, model library, and identity verifier."""

from .errors import (ArityError, DimensionError, DivisionByZero, DomainError,
                     EvaluationPole, ExprSyntaxError, InexactDivision,
                     NotInvertible, StarNambuError, UnknownName, UsageError)
from .gauss import GaussRational
from .phase import EvalPoint, PhaseExpr, normalize_terms, random_circle_point
from .brackets import (AlgebraHandle, BracketResult, SubsetCache, jordan,
                       moyal, nambu_jacobian, phase_algebra, poisson, qnb,
                       resolve_qnb4, star, star_anticommutator,
                       star_commutator, star_jordan, symplectic_trace)

__all__ = [
    "ArityError", "DimensionError", "DivisionByZero", "DomainError",
    "EvaluationPole", "ExprSyntaxError", "InexactDivision", "NotInvertible",
    "StarNambuError", "UnknownName", "UsageError",
    "GaussRational", "EvalPoint", "PhaseExpr", "normalize_terms",
    "random_circle_point", "AlgebraHandle", "BracketResult", "SubsetCache",
    "jordan", "moyal", "nambu_jacobian", "phase_algebra", "poisson", "qnb",
    "resolve_qnb4", "star", "star_anticommutator", "star_commutator",
    "star_jordan", "symplectic_trace",
]

__version__ = "0.1.0"
