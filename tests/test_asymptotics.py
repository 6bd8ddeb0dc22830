"""Main-term and reporting tests.

Reference decimals are frozen from independent high-precision evaluation
of the closed forms (mpmath at 50 digits); scaling laws are checked
exactly at the rational level.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from nhc import asymptotics
from nhc.asymptotics import (
    cm_asymptotic,
    cm_coefficient_sum,
    coefficient_table,
    density_limit,
    error_table,
    fixed_j_coefficient,
    format_percent,
    main_term_curves,
    main_term_representatives,
    main_term_representatives_with_j,
    report,
    zeta_value,
)
from nhc.cm import CM_ORDERS
from nhc.families import SpecialJError, minimal_curves
from nhc.heights import CALIBRATED, UNCALIBRATED, HeightSpec, height

# 10-digit reference coefficients 2 c(j) / zeta(2), by (disc, conductor)
COEFFS = {
    (-3, 2): "0.2491681566",
    (-3, 3): "0.08809218206",
    (-4, 2): "0.2909657203",
    (-7, 1): "0.1522575538",
    (-7, 2): "0.03956213184",
    (-8, 1): "0.1761884932",
    (-11, 1): "0.05888658982",
    (-19, 1): "0.07824834141",
    (-43, 1): "0.01645351934",
    (-67, 1): "0.005620493221",
    (-163, 1): "0.0003272174502",
}


class TestMainTerms:
    def test_global_representatives(self):
        v = main_term_representatives(CALIBRATED, Fraction(27) * 10**9)
        assert abs(v - mpmath.mpf("238815691.23")) < 0.01
        # uncalibrated closed form 4 X^(5/6) / zeta(10)
        with mpmath.workdps(50):
            x = 10**6
            expected = 4 * mpmath.power(x, mpmath.mpf(5) / 6) / (mpmath.pi**10 / 93555)
            assert abs(main_term_representatives(UNCALIBRATED, x) - expected) < 1e-25

    def test_global_curves_no_zeta(self):
        with mpmath.workdps(50):
            x = 10**6
            ratio = main_term_curves(UNCALIBRATED, x) / main_term_representatives(
                UNCALIBRATED, x
            )
            assert abs(ratio - mpmath.pi**10 / 93555) < 1e-35

    def test_fifty_digit_precision(self):
        # reference: the closed forms with mpmath.zeta, evaluated at 90 digits
        def mp(q):
            q = Fraction(q)
            return mpmath.mpf(q.numerator) / q.denominator

        for spec in (CALIBRATED, HeightSpec(Fraction(3, 7), Fraction(11, 5))):
            for bound in (Fraction(1, 3), 27 * 10**9, 10**30):
                with mpmath.workdps(90):
                    x, alpha, beta = mp(bound), mp(spec.alpha), mp(spec.beta)
                    c_sum = mpmath.fsum(
                        mpmath.root(mp(1 / minimal_curves(o.j, spec)[1]), 6)
                        for o in CM_ORDERS
                        if o.j not in (0, 1728)
                    )
                    references = (
                        (
                            main_term_representatives(spec, bound),
                            4 * mpmath.cbrt(x / alpha) * mpmath.sqrt(x / beta) / mpmath.zeta(10),
                        ),
                        (
                            cm_asymptotic(spec, bound),
                            2 * mpmath.sqrt(x / beta) / mpmath.zeta(6)
                            + 2 * mpmath.cbrt(x / alpha) / mpmath.zeta(4)
                            + 2 * c_sum * mpmath.root(x, 6) / mpmath.zeta(2),
                        ),
                    )
                    for got, want in references:
                        assert abs(got - want) / want < mpmath.mpf(10) ** -45

    def test_no_main_term_calls_another(self, monkeypatch):
        # each public main term builds its own, so a traced call never nests
        names = ("main_term_curves", "main_term_representatives", "main_term_curves_with_j",
                 "main_term_representatives_with_j", "cm_asymptotic", "cm_curves_asymptotic")
        terms = {name: getattr(asymptotics, name) for name in names}
        for name in names:
            monkeypatch.setattr(asymptotics, name, None)  # a call would raise TypeError
        for name, term in terms.items():
            j = (-3375,) if name.endswith("_with_j") else ()
            term(*j, CALIBRATED, 10**6)

    def test_least_height_taken_once_per_j(self, monkeypatch):
        # the CM sums read one cached coefficient record per (j, spec)
        calls = []

        def counted(spec, curve):
            calls.append(curve)
            return height(spec, curve)

        asymptotics._coefficients.cache_clear()
        monkeypatch.setattr(asymptotics, "height", counted)
        spec = HeightSpec(Fraction(37, 5), Fraction(11, 7))
        for e in range(24, 55):
            asymptotics.cm_asymptotic(spec, 10**e)
            asymptotics.cm_curves_asymptotic(spec, 10**e)
        assert len(calls) == len(CM_ORDERS) == 13

    def test_fixed_j_branches(self):
        v = main_term_representatives_with_j(54000, CALIBRATED, 1)
        assert abs(v - mpmath.mpf("0.2491681566")) < 5e-11
        with mpmath.workdps(50):
            v = main_term_representatives_with_j(0, CALIBRATED, 10**4)
            expected = 2 * 100 / (mpmath.sqrt(27) * (mpmath.pi**6 / 945))
            assert abs(v - expected) < 1e-30
            v = main_term_representatives_with_j(1728, UNCALIBRATED, 8**3)
            assert abs(v - 16 / (mpmath.pi**4 / 90)) < 1e-30


class TestConstants:
    def test_coefficient_sums(self):
        assert abs(cm_coefficient_sum(CALIBRATED) - mpmath.mpf("0.950583051425665")) < 1e-15
        assert abs(cm_coefficient_sum(UNCALIBRATED) - mpmath.mpf("1.20946795835178")) < 1e-14

    def test_coefficient_table_ten_digits(self):
        rows = coefficient_table(CALIBRATED)
        assert len(rows) == 11
        for r in rows:
            printed = COEFFS[(r.disc, r.conductor)]
            assert abs(r.coefficient - mpmath.mpf(printed)) < 5e-10
            assert mpmath.nstr(r.coefficient, 10) == printed

    def test_exact_scaling_law(self):
        # c(j; (t^6 a, t^6 b)) * t = c(j; (a, b)), exactly in the minimal
        # height c(j)^-6: the least curves stay, their height scales by t^6
        for t in (2, 3):
            scaled = HeightSpec(Fraction(4) * t**6, Fraction(27) * t**6)
            for j in (-3375, 54000, -262537412640768000, Fraction(11, 5)):
                base_curves, base_h = minimal_curves(j, CALIBRATED)
                curves, h = minimal_curves(j, scaled)
                assert curves == base_curves
                assert h == base_h * t**6

    def test_coefficient_uses_exact_min(self):
        c = fixed_j_coefficient(54000, CALIBRATED)
        assert abs(c**6 - mpmath.mpf(1) / 13500) < 1e-45

    @pytest.mark.parametrize("j", [0, 1728])
    def test_coefficient_special_j_rejected(self, j):
        with pytest.raises(SpecialJError, match="no sixth-root coefficient"):
            fixed_j_coefficient(j, CALIBRATED)


class TestCmAsymptotic:
    def test_reference_values(self):
        targets = {
            10: "5.40",
            10**2: "11.68",
            10**3: "27.26",
            10**4: "68.28",
            10**5: "181.55",
            10**6: "506.31",
            10**7: "1464.17",
            27 * 10**9: "65722.95",
        }
        for x, printed in targets.items():
            assert abs(cm_asymptotic(CALIBRATED, x) - mpmath.mpf(printed)) < 0.005

    def test_error_table(self):
        rows = error_table(CALIBRATED)
        by_bound = {int(r.bound): r for r in rows}
        assert by_bound[10**3].exact == 24
        assert abs(by_bound[10**3].approximation - 27.26) < 0.005
        assert abs(by_bound[27 * 10**9].relative_error - 0.00013768) < 1e-6


class TestDensity:
    def test_limits(self):
        assert abs(density_limit("all") - 0.999006) < 1e-5
        assert abs(density_limit("j0") - 0.982953) < 1e-5
        assert abs(density_limit("j1728") - 0.923938) < 1e-5
        assert abs(density_limit("j_other") - 0.607927) < 1e-5
        with pytest.raises(ValueError):
            density_limit("j17")


class TestReport:
    def test_values(self):
        r = report(65732, 65722.95)
        assert abs(r.relative_error - 0.00013768) < 1e-7
        assert r.percent() == "0.014%"
        r = report(24, 27.26)
        assert abs(r.relative_error - 0.13583) < 1e-4
        r = report(5, 5.0)
        assert r.relative_error == 0.0
        assert r.percent() == "0%"
        r = report(2**1100, mpmath.mpf(2) ** 1100 * 1.25)  # both past the float range
        assert (r.relative_error, r.percent()) == (0.25, "25%")

    def test_undefined(self):
        r = report(0, 3.5)
        assert math.isnan(r.relative_error)
        assert r.percent() == "undefined"
        assert report(0, 0.0).relative_error == 0.0

    def test_negative_exact_rejected(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            report(-1, 1.0)

    def test_percent_two_significant_digits(self):
        assert format_percent(1.7004) == "170%"
        assert format_percent(0.9461) == "95%"
        assert format_percent(0.0345155) == "3.5%"
        assert format_percent(0.0086) == "0.86%"
        assert format_percent(0.0039649) == "0.40%"

    @pytest.mark.parametrize("error, text", [(0.0996, "10%"), (0.000996, "0.10%"), (0.00995, "1.0%")])
    def test_percent_rounded_up_to_a_power_of_ten(self, error, text):
        # the rounding carries into a new leading digit: still two digits
        assert format_percent(error) == text


class TestZeta:
    def test_reference_digits(self):
        assert mpmath.nstr(zeta_value(2), 16) == "1.644934066848226"
        assert mpmath.nstr(zeta_value(4), 16) == "1.082323233711138"
        assert mpmath.nstr(zeta_value(6), 16) == "1.017343061984449"
        assert mpmath.nstr(zeta_value(10), 16) == "1.000994575127818"

    def test_precision_at_least_30_digits(self):
        with mpmath.workdps(45):
            reference = mpmath.zeta(10)
            assert abs(zeta_value(10) - reference) < mpmath.mpf(10) ** -30

    def test_unsupported(self):
        with pytest.raises(ValueError):
            zeta_value(3)

    def test_most_curves_are_representatives(self):
        assert abs(1 / zeta_value(10) - Fraction(999, 1000)) < 0.001
