"""Height and box tests: the box must capture the height condition exactly."""

from fractions import Fraction

import pytest

from nhc.families import twist
from nhc.heights import (
    CALIBRATED,
    UNCALIBRATED,
    HeightSpec,
    box,
    format_height_spec,
    height,
    parse_height_spec,
)


class TestHeight:
    def test_minimal_cm_examples(self):
        assert height(CALIBRATED, (-35, 98)) == 259308
        assert height(CALIBRATED, (0, 1)) == 27

    def test_large_curve_dominant_side(self):
        # |A|^3 = 657976338068152832000 exceeds B^2 = 97477976010097357444,
        # so with unit weights the A-side wins (exact big-integer comparison).
        a, b = -8697680, 9873093538
        assert abs(a) ** 3 > b * b
        assert height(UNCALIBRATED, (a, b)) == abs(a) ** 3
        # with the calibrated weights the B-side wins instead
        assert height(CALIBRATED, (a, b)) == 27 * b * b == 2631905352272628650988

    def test_rational_weights(self):
        spec = HeightSpec(Fraction(1, 2), Fraction(3))
        assert height(spec, (2, 3)) == max(Fraction(8, 2), Fraction(27)) == 27


class TestBox:
    def test_examples(self):
        assert box(CALIBRATED, 7000) == box(CALIBRATED, Fraction(7000))
        b = box(CALIBRATED, 7000)
        assert (b.x_bound, b.y_bound) == (12, 16)
        b = box(UNCALIBRATED, 1)
        assert (b.x_bound, b.y_bound) == (1, 1)
        b = box(CALIBRATED, 27)
        assert (b.x_bound, b.y_bound) == (1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            box(CALIBRATED, 0)
        with pytest.raises(ValueError):
            box(CALIBRATED, Fraction(-3, 7))

    @pytest.mark.parametrize("spec", [CALIBRATED, UNCALIBRATED, HeightSpec(Fraction(3, 5), 7)])
    def test_box_iff_height(self, spec):
        # cutoffs probed right at curve heights and their neighbors, where
        # the equivalence is most at risk
        curves = [(a, b) for a in range(-50, 51) for b in range(-50, 51, 7)]
        cutoffs = {1, 100, 99999}
        for c in curves[:: 37]:
            h = height(spec, c)
            for x in (h - Fraction(1, 3), h, h + Fraction(1, 3)):
                if 0 < x <= 10**5:
                    cutoffs.add(x)
        for x in cutoffs:
            b = box(spec, x)
            for c in curves:
                inside = abs(c[0]) <= b.x_bound and abs(c[1]) <= b.y_bound
                assert inside == (height(spec, c) <= x), (spec, x, c)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_twist_scales_height_by_d12(self, d):
        for curve in [(-35, 98), (0, 1), (1, 0), (-15, 22), (7, -11)]:
            assert height(CALIBRATED, twist(curve, d)) == d**12 * height(CALIBRATED, curve)
            assert height(UNCALIBRATED, twist(curve, d)) == d**12 * height(UNCALIBRATED, curve)


class TestSpecParsing:
    def test_weights_become_fractions(self):
        spec = HeightSpec(1, 60)
        assert type(spec.alpha) is type(spec.beta) is Fraction
        assert spec == HeightSpec(alpha=Fraction(1), beta=Fraction(60))
        assert repr(spec) == "HeightSpec(alpha=Fraction(1, 1), beta=Fraction(60, 1))"

    def test_presets(self):
        assert parse_height_spec("cal") == CALIBRATED
        assert parse_height_spec("ncal") == UNCALIBRATED
        assert format_height_spec(CALIBRATED) == "cal"
        assert format_height_spec(UNCALIBRATED) == "ncal"

    def test_custom_round_trip(self):
        spec = HeightSpec(Fraction(64), Fraction(729, 2))
        text = format_height_spec(spec)
        assert text == "alpha/64:1,beta/729:2"
        assert parse_height_spec(text) == spec
        assert parse_height_spec("alpha/4:1,beta/27:1") == CALIBRATED

    @pytest.mark.parametrize("text", ["alpha/1:2, beta/3:1", " alpha/1:2 ,beta/3:1 ",
                                      "alpha/1:2,beta/ 3:1", "ALPHA/1:2,\tbeta/3:1"])
    def test_spaces_around_items(self, text):
        assert parse_height_spec(text) == HeightSpec(Fraction(1, 2), Fraction(3))

    def test_bad_specs(self):
        for bad in ("", "calx", "alpha/4:1", "alpha/a:b,beta/1:1", "alpha/1:0,beta/1:1",
                    "alpha/1,beta/1,gamma/3", "alpha/1:1,alpha/2:1,beta/1:1"):
            with pytest.raises(ValueError):
                parse_height_spec(bad)
        with pytest.raises(ValueError):
            HeightSpec(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            HeightSpec(1, -1)
