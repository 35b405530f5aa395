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

All g values are exact integers, computed once at import into one table
per family, so that evaluation inside sieve loops is a table lookup.
Custom rules must tabulate g fully; no extrapolation past the table is
ever performed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt

ALPHA_MAX = 64

_POWERDIV_PREFIX = "powerdiv-r:"


class RuleError(ValueError):
    """A rule table violates the exponent-rule invariants."""


class UnknownRuleError(LookupError):
    """Requested rule name is not in the registry."""


def _partition_table() -> list[int]:
    # Euler's pentagonal-number recurrence, exact integers throughout.
    table = [1] + [0] * ALPHA_MAX
    for m in range(1, ALPHA_MAX + 1):
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


def _euler_product(kinds) -> list[int]:
    # Coefficients of prod_v (1 - x^v)^(-kinds(v)): a part of size v comes in
    # kinds(v) flavours.
    coeffs = [1] + [0] * ALPHA_MAX
    for v in range(1, ALPHA_MAX + 1):
        for _ in range(kinds(v)):
            for i in range(v, ALPHA_MAX + 1):
                coeffs[i] += coeffs[i - v]
    return coeffs


_TAU = [1] + [sum(a % d == 0 for d in range(1, a + 1)) for a in range(1, ALPHA_MAX + 1)]

# family name -> g(0..ALPHA_MAX)
_FAMILIES = {
    "abelian": _partition_table(),
    "plane": _euler_product(lambda v: v),
    # One flavour per pair (q, m) with q * m^2 = v, i.e. per square divisor of v.
    "semisimple": _euler_product(lambda v: sum(v % (m * m) == 0 for m in range(1, isqrt(v) + 1))),
    "expdiv": _TAU,
    # 2^omega(alpha); the primes up to ALPHA_MAX are the p with tau(p) = 2.
    "unitary-expdiv": [1 << sum(_TAU[p] == 2 and a % p == 0 for p in range(2, a + 1))
                       for a in range(ALPHA_MAX + 1)],
}

FAMILY_NAMES = tuple(_FAMILIES)


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


def build_rule(name: str) -> ExponentRule:
    """Construct a built-in rule by name.

    Accepted names: the families in FAMILY_NAMES plus "powerdiv-r:<r>" with
    an integer r >= 2.
    """
    if name in _FAMILIES:
        return _validated_rule(name, _FAMILIES[name])
    if name.startswith(_POWERDIV_PREFIX):
        suffix = name[len(_POWERDIV_PREFIX):]
        try:
            r = int(suffix)
        except ValueError:
            raise UnknownRuleError(name) from None
        if r < 2:
            raise RuleError(f"rule {name!r}: r must be >= 2")
        return _validated_rule(name, [1 + a // r for a in range(ALPHA_MAX + 1)], declared_r=r)
    raise UnknownRuleError(name)


def builtin_rules() -> tuple[ExponentRule, ...]:
    """The five named families (all with threshold r = 2)."""
    return tuple(build_rule(name) for name in FAMILY_NAMES)


def load_custom_rule(source: str) -> ExponentRule:
    """Build a rule from the text of a JSON document with fields "name", "r", "values".

    The declared r must equal the smallest alpha with g(alpha) > 1 and the
    values array must satisfy every table invariant; violations raise
    RuleError naming the offending entry.
    """
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
    if not isinstance(values, list):
        raise RuleError("custom rule field 'values' must be an array of integers")
    return _validated_rule(name, values, declared_r=r)
