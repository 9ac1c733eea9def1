"""Exact discrete Laplace transform calculus for sequences on n >= 1.

The transform F(s) = sum_{n>=1} f(n) e^{-sn} turns linear constant
coefficient difference equations into rational-function algebra in
t = e^s.  This package does that algebra exactly (rationals and one real
quadratic extension), inverts the results back into verified closed forms,
and cross-checks transforms numerically against their defining series.
"""

from .errors import (CapabilityError, CheckFailed, DegreeLimitExceeded,
                     DivergenceGuard, DlaplaceError, ImproperRational,
                     ParseError, PoleEvaluation,
                     RadicandMismatch, SemanticError, SeriesCapExceeded,
                     UnsupportedFactorization, UnsupportedForcing,
                     VerificationFailed)
from .exact import QuadExt
from .polys import (Poly, RatFunc, T, factor_roots, partial_fractions,
                    poly_gcd)
from .transforms import (MAX_N_POWER, convolve as transform_convolve,
                         difference as transform_difference, geometric,
                         n_power, partial_sum, shift, times_n)
from .sequences import (ClosedFormSequence, Term, convolve, delta,
                        equal_prefix, inverse_transform, partial_sums)
from .solver import (ForcingTerm, RecurrenceSpec, RecursiveSequence,
                     SolutionReport, VerificationReport, solve_ivp,
                     transform_of, verify_solution)
from .numeric import (DEFAULT_S_GRID, DEFAULT_TOLERANCE, CheckReport,
                      check_closed_form_pair, growth_bound, series_eval,
                      tail_bound, terms_needed)
from .dsl import DslProgram, parse_program

__version__ = "0.1.0"

__all__ = [
    "CapabilityError", "CheckFailed", "DegreeLimitExceeded",
    "DivergenceGuard", "DlaplaceError", "ImproperRational",
    "ParseError", "PoleEvaluation", "RadicandMismatch", "SemanticError",
    "SeriesCapExceeded", "UnsupportedFactorization", "UnsupportedForcing",
    "VerificationFailed",
    "QuadExt",
    "Poly", "RatFunc", "T", "factor_roots", "partial_fractions", "poly_gcd",
    "MAX_N_POWER", "transform_convolve", "transform_difference", "geometric",
    "n_power", "partial_sum", "shift", "times_n",
    "ClosedFormSequence", "Term", "convolve", "delta", "equal_prefix",
    "inverse_transform", "partial_sums",
    "ForcingTerm", "RecurrenceSpec", "RecursiveSequence", "SolutionReport",
    "VerificationReport", "solve_ivp", "transform_of", "verify_solution",
    "DEFAULT_S_GRID", "DEFAULT_TOLERANCE", "CheckReport",
    "check_closed_form_pair", "growth_bound", "series_eval", "tail_bound",
    "terms_needed",
    "DslProgram", "parse_program",
    "__version__",
]
