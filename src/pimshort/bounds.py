"""Zeta constants and the closed-form short-interval error terms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import exp, fsum, log

_EM_CUTOFF = 10_000


@lru_cache(maxsize=None)
def zeta(r: int) -> float:
    """zeta(r) by direct summation with an Euler-Maclaurin tail correction.

    The tail past the cutoff N is integral + N^(-r)/2 + r N^(-r-1)/12; the
    first omitted correction is O(N^(-r-3)), far below double precision for
    N = 10^4 and any r >= 2.
    """
    if r < 2:
        raise ValueError(f"zeta requires integer r >= 2, got {r}")
    n = _EM_CUTOFF
    head = fsum(map(pow, range(1, n), repeat(float(-r), n - 1)))  # k ** float(-r), k < n
    tail = n ** (1.0 - r) / (r - 1.0) + 0.5 * n ** float(-r) + (r / 12.0) * n ** (-1.0 - r)
    return head + tail


@dataclass(frozen=True)
class BoundBreakdown:
    """The three error terms over a window (X, X+Y], reported without x^eps.

    term_main = (X^(r-1) Y^(r+1))^(1/(2 r^2))
    term_mid  = Y * X^(-1/(6 (4r-1)(2r-1)))
    term_tail = Y^(1 - 2(r-1)/(r (3r-1)))
    scale     = X^(1/(2r+1)) + term_mid + term_tail
    """

    term_main: float
    term_mid: float
    term_tail: float
    scale: float


def bound_breakdown(r: int, x, y) -> BoundBreakdown:
    """Evaluate each closed-form error term at (X, Y) = (x, y).

    Terms are computed in log space so large integer inputs cannot overflow.
    Requires 0 < y < x.  term_mid x^eps >= y once eps >= 1/(6(4r-1)(2r-1))
    (1/126 at r = 2), and no |count - d y| in the window exceeds y: the
    bound is trivial there.
    """
    if r < 2:
        raise ValueError(f"bound_breakdown requires r >= 2, got {r}")
    if not 0 < y < x:
        raise ValueError(f"bound_breakdown requires 0 < Y < X, got X={x}, Y={y}")
    lx = log(x)
    ly = log(y)
    term_main = exp(((r - 1) * lx + (r + 1) * ly) / (2 * r * r))
    term_mid = exp(ly - 1.0 / (6 * (4 * r - 1) * (2 * r - 1)) * lx)
    term_tail = exp((1.0 - 2.0 * (r - 1) / (r * (3 * r - 1))) * ly)
    scale = exp(lx / (2 * r + 1)) + term_mid + term_tail
    return BoundBreakdown(term_main, term_mid, term_tail, scale)


def interval_error_bound(r: int, x, y) -> float:
    """Sum of the three error terms (the caller applies any x^eps factor)."""
    b = bound_breakdown(r, x, y)
    return b.term_main + b.term_mid + b.term_tail
