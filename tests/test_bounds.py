import math

import mpmath
import pytest

from pimshort.bounds import admissible_window, bound_breakdown, zeta


def test_zeta_2_matches_pi_squared_over_six():
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-9


def test_zeta_3():
    assert abs(zeta(3) - 1.202056903159594) < 1e-9


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 10])
def test_zeta_against_mpmath(r):
    assert abs(zeta(r) - float(mpmath.zeta(r))) < 1e-13


def test_zeta_monotone_to_one():
    values = [zeta(r) for r in range(2, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0
    assert values[-1] - 1.0 < 1e-8


def test_zeta_keeps_the_bits_of_its_generator_form():
    # The head is summed over map(pow, ...): the same floats, in the same order, as the
    # generator it replaced, so every zeta(r) keeps its bits.
    n = 10**4
    for r in range(2, 65):
        head = math.fsum(k ** float(-r) for k in range(1, n))
        tail = n ** (1.0 - r) / (r - 1.0) + 0.5 * n ** float(-r) + (r / 12.0) * n ** (-1.0 - r)
        assert zeta(r).hex() == (head + tail).hex(), r


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta(1)


def test_breakdown_specializes_at_r2():
    # At r = 2 the exponents collapse to (X Y^3)^(1/8), Y X^(-1/126), Y^(4/5);
    # at r = 3 to (X^2 Y^4)^(1/18), Y X^(-1/330), Y^(5/6); at r = 4 to
    # (X^3 Y^5)^(1/32), Y X^(-1/630), Y^(19/22).
    x, y = 1.0e11, 1.0e6
    closed = {
        2: ((x * y**3) ** (1 / 8), y * x ** (-1 / 126), y ** (4 / 5)),
        3: ((x**2 * y**4) ** (1 / 18), y * x ** (-1 / 330), y ** (5 / 6)),
        4: ((x**3 * y**5) ** (1 / 32), y * x ** (-1 / 630), y ** (19 / 22)),
    }
    for r, (main, mid, tail) in closed.items():
        b = bound_breakdown(r, x, y)
        assert b.term_main == pytest.approx(main, rel=1e-12), r
        assert b.term_mid == pytest.approx(mid, rel=1e-12), r
        assert b.term_tail == pytest.approx(tail, rel=1e-12), r


def test_breakdown_terms_positive_and_monotone_in_y():
    for r in (2, 3, 4):
        x = 1.0e12
        prev = None
        for y in (1.0e2, 1.0e4, 1.0e6, 1.0e8):
            b = bound_breakdown(r, x, y)
            assert b.term_main > 0 and b.term_mid > 0 and b.term_tail > 0
            if prev is not None:
                assert b.term_main >= prev.term_main
                assert b.term_mid >= prev.term_mid
                assert b.term_tail >= prev.term_tail
            prev = b


def test_term_main_dominates_first_scale_term():
    # (X^(r-1) Y^(r+1))^(1/(2r^2)) >= X^(1/(2r+1)) whenever Y >= X^(1/(2r+1)),
    # with equality at Y = X^(1/(2r+1)).
    for r in (2, 3, 4):
        x = 1.0e10
        threshold = x ** (1.0 / (2 * r + 1))
        b_eq = bound_breakdown(r, x, threshold)
        assert b_eq.term_main == pytest.approx(threshold, rel=1e-12)
        for factor in (1.0, 2.0, 10.0, 1e3):
            b = bound_breakdown(r, x, threshold * factor)
            assert b.term_main >= threshold * (1 - 1e-12)


def test_breakdown_domain_errors():
    with pytest.raises(ValueError):
        bound_breakdown(2, 100, 100)
    with pytest.raises(ValueError):
        bound_breakdown(2, 100, 200)
    with pytest.raises(ValueError):
        bound_breakdown(2, 100, 0)
    with pytest.raises(ValueError):
        bound_breakdown(1, 100, 10)


def test_breakdown_accepts_huge_integers():
    b = bound_breakdown(4, 10**14, 10**10)
    assert math.isfinite(b.term_main)
    assert b.scale > 0


def test_admissible_window():
    # r = 2: lower edge x^(1/5 + eps), upper edge x / 65536.
    assert admissible_window(2, 10**11, 10**6, 0.01)
    assert not admissible_window(2, 10**11, 10**7, 0.01)  # above x * 4^-8
    assert not admissible_window(2, 10**11, 100, 0.01)  # below x^(1/5+eps)
    assert admissible_window(2, 10**12, 10**6, 30.0) is False  # x^eps past the float range
    for eps in (-3.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            admissible_window(2, 10**11, 10**6, eps)


def test_admissible_window_past_the_float_range():
    # float(2**2000) overflows, so past 2^1023 both edges are compared in log2: at r = 2 the
    # window runs from x^(1/5 + 0.01) = 2^420 to x * 4^-8 = 2^1984.
    assert admissible_window(2, 2**2000, 2**500, 0.01)
    assert not admissible_window(2, 2**2000, 2**419, 0.01)
    assert not admissible_window(2, 2**2000, 2**1985, 0.01)
    assert not admissible_window(64, 2**2000, 10, 1e-9)  # x^(1/129) = 2^15.5 > 10
    # Just below 2^1023 the float edges still answer, as they always did.
    assert admissible_window(2, 2**1023 - 1, 2**300, 0.01)
    assert not admissible_window(2, 2**1023 - 1, 2**1008, 0.01)
