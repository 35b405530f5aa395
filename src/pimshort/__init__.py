"""Local densities and short-interval counts of prime-independent multiplicative functions."""

from .bounds import BoundBreakdown, bound_breakdown, zeta
from .density import (
    DensityResult,
    enumerate_rfull,
    local_density,
    weight_harmonic_sum,
)
from .factor import Factorization, eval_rule, factorize
from .rules import ExponentRule, RuleError, UnknownRuleError, build_rule, load_custom_rule
from .sieve import IntervalReport, count_r_free, count_value, interval_report, rfull_multiples_sum

__version__ = "0.1.0"
