"""Exponent rules: integer tables defining prime-independent multiplicative functions.

A rule tabulates g(0), g(1), ..., g(alpha_max) with g(0) = 1, a threshold
r >= 2 such that g(alpha) = 1 for alpha < r, and g(alpha) >= 2 from r on.
The induced multiplicative function is f(p^alpha) = g(alpha); f(n) depends
only on the exponent pattern of n, never on the primes themselves, and
f(n) = 1 exactly when n is r-free.

Built-in families:

  abelian         g(alpha) = number of unrestricted partitions of alpha
                  (abelian groups of order p^alpha, up to isomorphism)
  plane           g(alpha) = number of plane partitions of alpha,
                  coefficients of prod_j (1 - x^j)^(-j)
  semisimple      g(alpha) = coefficients of prod_{q,m>=1} (1 - x^(q m^2))^(-1)
                  (semisimple rings with p^alpha elements)
  expdiv          g(alpha) = tau(alpha), the divisor count of the exponent
                  (exponential divisors)
  unitary-expdiv  g(alpha) = 2^omega(alpha) (unitary exponential divisors)
  powerdiv-r:R    g(alpha) = 1 + floor(alpha / R), the count of R-th power
                  divisors of p^alpha

All g values are exact integers computed once at rule build time, so that
evaluation inside sieve loops is a table lookup.  Custom rules must
tabulate g fully; no extrapolation past the table is ever performed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

ALPHA_MAX = 64

FAMILY_NAMES = ("abelian", "plane", "semisimple", "expdiv", "unitary-expdiv")

_POWERDIV_PREFIX = "powerdiv-r:"


class RuleError(ValueError):
    """A rule table violates the exponent-rule invariants."""


class UnknownRuleError(LookupError):
    """Requested rule name is not in the registry."""


def _require_alpha(alpha: int) -> None:
    if not 0 <= alpha <= ALPHA_MAX:
        raise ValueError(f"exponent {alpha} outside supported range [0, {ALPHA_MAX}]")


def _partition_table(n: int) -> list[int]:
    # Euler's pentagonal-number recurrence, exact integers throughout.
    table = [1] + [0] * n
    for m in range(1, n + 1):
        acc = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > m:
                break
            sign = 1 if j % 2 else -1
            acc += sign * table[m - g]
            g = j * (3 * j + 1) // 2
            if g <= m:
                acc += sign * table[m - g]
            j += 1
        table[m] = acc
    return table


def _apply_inverse_factor(coeffs: list[int], period: int, times: int) -> None:
    # Multiply the series by (1 - x^period)^(-times), truncated to len(coeffs).
    for _ in range(times):
        for i in range(period, len(coeffs)):
            coeffs[i] += coeffs[i - period]


def _plane_partition_table(n: int) -> list[int]:
    coeffs = [1] + [0] * n
    for j in range(1, n + 1):
        _apply_inverse_factor(coeffs, j, j)
    return coeffs


def _square_divisor_count(v: int) -> int:
    count = 0
    m = 1
    while m * m <= v:
        if v % (m * m) == 0:
            count += 1
        m += 1
    return count


def _semisimple_table(n: int) -> list[int]:
    # A part of size v comes in one flavour per pair (q, m) with q * m^2 = v,
    # i.e. one per square divisor m^2 of v.
    coeffs = [1] + [0] * n
    for v in range(1, n + 1):
        _apply_inverse_factor(coeffs, v, _square_divisor_count(v))
    return coeffs


_PARTITIONS = _partition_table(ALPHA_MAX)
_PLANE = _plane_partition_table(ALPHA_MAX)
_SEMISIMPLE = _semisimple_table(ALPHA_MAX)


def partition_count(alpha: int) -> int:
    """Number of unrestricted partitions of alpha."""
    _require_alpha(alpha)
    return _PARTITIONS[alpha]


def plane_partition_count(alpha: int) -> int:
    """Number of plane partitions of alpha."""
    _require_alpha(alpha)
    return _PLANE[alpha]


def semisimple_count(alpha: int) -> int:
    """Number of multisets of pairs (q, m), q, m >= 1, with sum q * m^2 = alpha."""
    _require_alpha(alpha)
    return _SEMISIMPLE[alpha]


def divisor_count(alpha: int) -> int:
    """tau(alpha), computed by trial division; requires alpha >= 1."""
    if alpha < 1:
        raise ValueError(f"divisor_count requires alpha >= 1, got {alpha}")
    _require_alpha(alpha)
    total = 1
    m = alpha
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            total *= e + 1
        d += 1
    if m > 1:
        total *= 2
    return total


def unitary_divisor_count(alpha: int) -> int:
    """2^omega(alpha), the number of unitary divisors of alpha; requires alpha >= 1."""
    if alpha < 1:
        raise ValueError(f"unitary_divisor_count requires alpha >= 1, got {alpha}")
    _require_alpha(alpha)
    omega = 0
    m = alpha
    d = 2
    while d * d <= m:
        if m % d == 0:
            omega += 1
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        omega += 1
    return 1 << omega


def power_divisor_count(alpha: int, r: int) -> int:
    """Number of d with d^r dividing p^alpha, i.e. 1 + floor(alpha / r)."""
    if alpha < 0:
        raise ValueError(f"power_divisor_count requires alpha >= 0, got {alpha}")
    if r < 2:
        raise ValueError(f"power_divisor_count requires r >= 2, got {r}")
    return 1 + alpha // r


@dataclass(frozen=True)
class ExponentRule:
    """Validated table g(0..alpha_max) plus the derived threshold r.

    Immutable after construction; safe to share across workers.
    """

    name: str
    r: int
    values: tuple[int, ...]

    @property
    def alpha_max(self) -> int:
        return len(self.values) - 1


def _validated_rule(name: str, values, declared_r: int | None = None) -> ExponentRule:
    values = tuple(values)
    for alpha, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            raise RuleError(f"rule {name!r}: g({alpha}) = {v!r} is not an integer")
    if len(values) - 1 < ALPHA_MAX:
        raise RuleError(
            f"rule {name!r}: table must cover alpha up to at least {ALPHA_MAX} "
            f"(got length {len(values)})"
        )
    for alpha, v in enumerate(values):
        if v < 1:
            raise RuleError(f"rule {name!r}: g({alpha}) = {v} is not a positive integer")
    if values[0] != 1:
        raise RuleError(f"rule {name!r}: g(0) = {values[0]}, must be 1")
    derived_r = next((a for a, v in enumerate(values) if a >= 1 and v > 1), None)
    if derived_r is None:
        raise RuleError(f"rule {name!r}: g is identically 1, no threshold exists")
    if derived_r == 1:
        raise RuleError(f"rule {name!r}: g(1) = {values[1]}, must be 1")
    for alpha in range(derived_r, len(values)):
        if values[alpha] < 2:
            raise RuleError(
                f"rule {name!r}: g({alpha}) = 1 but g({derived_r}) > 1; "
                "values must stay >= 2 past the threshold"
            )
    if declared_r is not None and declared_r != derived_r:
        raise RuleError(
            f"rule {name!r}: declared r = {declared_r} but the smallest alpha "
            f"with g(alpha) > 1 is {derived_r}"
        )
    return ExponentRule(name, derived_r, values)


def _family_values(name: str) -> list[int]:
    if name == "abelian":
        return list(_PARTITIONS)
    if name == "plane":
        return list(_PLANE)
    if name == "semisimple":
        return list(_SEMISIMPLE)
    if name == "expdiv":
        return [1] + [divisor_count(a) for a in range(1, ALPHA_MAX + 1)]
    if name == "unitary-expdiv":
        return [1] + [unitary_divisor_count(a) for a in range(1, ALPHA_MAX + 1)]
    raise UnknownRuleError(name)


def build_rule(name: str) -> ExponentRule:
    """Construct a built-in rule by name.

    Accepted names: the families in FAMILY_NAMES plus "powerdiv-r:<r>" with
    an integer r >= 2.
    """
    if name in FAMILY_NAMES:
        return _validated_rule(name, _family_values(name))
    if name.startswith(_POWERDIV_PREFIX):
        suffix = name[len(_POWERDIV_PREFIX):]
        try:
            r = int(suffix)
        except ValueError:
            raise UnknownRuleError(name) from None
        if r < 2:
            raise RuleError(f"rule {name!r}: r must be >= 2")
        values = [power_divisor_count(a, r) for a in range(ALPHA_MAX + 1)]
        return _validated_rule(name, values, declared_r=r)
    raise UnknownRuleError(name)


def builtin_rules() -> tuple[ExponentRule, ...]:
    """The five named families (all with threshold r = 2)."""
    return tuple(build_rule(name) for name in FAMILY_NAMES)


def load_custom_rule(source) -> ExponentRule:
    """Build a rule from a JSON document with fields "name", "r", "values".

    The declared r must equal the smallest alpha with g(alpha) > 1 and the
    values array must satisfy every table invariant; violations raise
    RuleError naming the offending entry.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise RuleError(f"custom rule is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RuleError("custom rule document must be a JSON object")
    for field in ("name", "r", "values"):
        if field not in doc:
            raise RuleError(f"custom rule document is missing field {field!r}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise RuleError("custom rule field 'name' must be a non-empty string")
    r = doc["r"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise RuleError("custom rule field 'r' must be an integer")
    values = doc["values"]
    if not isinstance(values, (list, tuple)):
        raise RuleError("custom rule field 'values' must be an array of integers")
    return _validated_rule(name, values, declared_r=r)
