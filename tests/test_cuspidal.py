"""Cuspidal cubic lattice tests.

The independent oracle is a per-x scan: for each integer x in the box,
y^2 = a x^3 has an integral solution iff num(a) x^3 / den(a) is a perfect
square, checked with exact integer square roots.  One small box is also
scanned point by point.

For a != -4/27 the cubic B^2 = a A^3 is the fixed-j family with
j = 6912 / (27 a + 4), walked by ``curve_from_parameter`` up to
``param_bound``; a = -4/27 is the singular locus 4A^3 + 27B^2 = 0, counted
by ``count_singular``.
"""

import math
import random
from fractions import Fraction

import pytest

from nhc.cuspidal import cubic_param
from nhc.exactarith import factorize_rational
from nhc.families import (
    count_curves_with_j,
    count_singular,
    curve_from_parameter,
    param_bound,
)
from nhc.heights import CALIBRATED, UNCALIBRATED, HeightBox, HeightSpec, box

from arith_reference import ord_p


def scan_points(a: Fraction, t1: int, t2: int) -> set[tuple[int, int]]:
    """Every integral (x, y) with y^2 = a x^3, |x| <= t1, |y| <= t2."""
    found = {(0, 0)}
    for x in range(-t1, t1 + 1):
        if x == 0:
            continue
        num = a.numerator * x**3
        if num < 0 or num % a.denominator:
            continue
        y2 = num // a.denominator
        y = math.isqrt(y2)
        if y * y == y2 and y <= t2:
            found.add((x, y))
            found.add((x, -y))
    return found


def j_of_cubic(a: Fraction) -> Fraction:
    """The j-invariant whose family is B^2 = a A^3 (inverse of a(j))."""
    return 6912 / (27 * a + 4)


def family_points(a: Fraction, spec: HeightSpec, bound) -> set[tuple[int, int]]:
    """The parametrized family of B^2 = a A^3 in the height box, plus the
    origin (parameter 0), as a set of (A, B)."""
    j = j_of_cubic(a)
    m_max = param_bound(j, spec, bound)
    return {(0, 0)} | {
        tuple(curve_from_parameter(j, m)) for m in range(-m_max, m_max + 1) if m
    }


class TestCubicParam:
    def test_step_values(self):
        assert cubic_param(Fraction(-4, 27)) == Fraction(2, 3)
        assert cubic_param(1) == 1
        assert cubic_param(Fraction(-484, 3375)) == Fraction(22, 15)
        assert cubic_param(Fraction(-28, 125)) == Fraction(14, 5)

    def test_exponent_rule(self):
        # ord profile of -484/3375 is (2, 2, -3, -3) at (2, 11, 3, 5)
        step = cubic_param(Fraction(-484, 3375))
        assert factorize_rational(step).factors == {2: 1, 3: -1, 5: -1, 11: 1}

    def test_negative_single_power(self):
        # ord_5 = -1 rounds up to 0: the step ignores the denominator prime
        assert cubic_param(Fraction(1, 5)) == 1
        assert ord_p(cubic_param(Fraction(1, 5)), 5) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cubic_param(0)


class TestPointFromParameter:
    def test_examples(self):
        assert curve_from_parameter(j_of_cubic(Fraction(1)), 2) == (4, 8)
        assert curve_from_parameter(j_of_cubic(Fraction(-28, 125)), 1) == (-35, -98)

    def test_point_satisfies_equation(self):
        a = Fraction(-28, 125)
        for m in (-3, 1, 7):
            x, y = curve_from_parameter(j_of_cubic(a), m)
            assert Fraction(y) ** 2 == a * Fraction(x) ** 3


class TestCounting:
    def test_examples(self):
        j = j_of_cubic(Fraction(1))
        # the box |A| <= 100, |B| <= 1000 holds (m^2, m^3) for |m| <= 10
        assert count_curves_with_j(j, UNCALIBRATED, 10**6) == 20
        assert count_curves_with_j(j, UNCALIBRATED, Fraction(1, 2)) == 0
        assert count_singular(UNCALIBRATED, Fraction(1, 2)) == 1
        # the singular locus inside the calibrated X = 7000 box |A| <= 12, |B| <= 16
        assert count_singular(CALIBRATED, 7000) == 5

    def test_enumerate_examples(self):
        j = j_of_cubic(Fraction(1))
        assert param_bound(j, UNCALIBRATED, 64) == 2  # the box |A| <= 4, |B| <= 8
        assert [curve_from_parameter(j, m) for m in (-2, -1, 1, 2)] == [
            (4, -8),
            (1, -1),
            (1, 1),
            (4, 8),
        ]
        # (0, 0) and (-3, +-2) in the box |A| <= 3, |B| <= 2
        assert count_singular(HeightSpec(1, Fraction(27, 4)), 27) == 3

    @pytest.mark.parametrize(
        "a",
        [
            Fraction(1),
            Fraction(-1),
            Fraction(4, 27),
            Fraction(-4, 27),
            Fraction(28, 125),
            Fraction(-28, 125),
            Fraction(2, 9),
            Fraction(-2, 9),
        ],
    )
    def test_bijection_against_scan(self, a):
        # uncalibrated weights at 1e12 give the box |A| <= 1e4, |B| <= 1e6
        assert box(UNCALIBRATED, 10**12) == HeightBox(10**4, 10**6)
        scanned = scan_points(a, 10**4, 10**6)
        if a == Fraction(-4, 27):
            assert count_singular(UNCALIBRATED, 10**12) == len(scanned)
        else:
            assert family_points(a, UNCALIBRATED, 10**12) == scanned

    def test_small_box_full_double_scan(self):
        # |A| <= 60, |B| <= 60, scanned point by point
        spec = HeightSpec(1, 60)
        assert box(spec, 60**3) == HeightBox(60, 60)
        direct = sum(
            1
            for x in range(-60, 61)
            for y in range(-60, 61)
            if 4 * x**3 + 27 * y * y == 0
        )
        assert count_singular(spec, 60**3) == direct

    def test_count_matches_enumeration_random_rationals(self):
        rng = random.Random(20250811)
        for _ in range(200):
            a = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
            if 27 * a + 4 == 0:
                continue
            spec = HeightSpec(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            )
            bound = Fraction(rng.randint(1, 10**10), rng.randint(1, 9))
            b = box(spec, bound)
            assert family_points(a, spec, bound) == scan_points(a, b.x_bound, b.y_bound)

    def test_bound_is_tight(self):
        # the next singular point (-3 m^2, 2 m^3) must fall outside the box
        m = (count_singular(CALIBRATED, 7000) - 1) // 2 + 1
        b = box(CALIBRATED, 7000)
        assert 3 * m * m > b.x_bound or 2 * m**3 > b.y_bound

    @pytest.mark.parametrize("spec", [CALIBRATED, UNCALIBRATED, HeightSpec(Fraction(1, 7), 3)])
    def test_singular_locus_against_scan(self, spec):
        for bound in (1, 100, 7000, 10**5, 10**12, Fraction(10**15, 7)):
            b = box(spec, bound)
            singular = scan_points(Fraction(-4, 27), b.x_bound, b.y_bound)
            assert count_singular(spec, bound) == len(singular)
