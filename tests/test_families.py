"""Curve family tests: invariants, parametrization, twists, exact counts.

Counts are cross-checked against the brute-force census (see
test_acceptance for the full equivalence suite), against direct scans of
the singular locus, and against the Fraction-based references below; the
parametrization is checked pointwise against the j-invariant definition.
"""

import random
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhc import exactarith, families
from nhc.asymptotics import fixed_j_coefficient, main_term_representatives_with_j
from nhc.cm import CM_ORDERS, count_cm_representatives
from nhc.cuspidal import cubic_param
from nhc.exactarith import floor_rational_root, moebius_sieve
from nhc.families import (
    SingularCurveError,
    SpecialJError,
    WeierstrassCurve,
    count_curves,
    count_curves_with_j,
    count_representatives,
    count_representatives_with_j,
    count_singular,
    cubic_coefficient,
    curve_from_parameter,
    discriminant,
    is_representative,
    j_invariant,
    minimal_curves,
    param_bound,
    twist,
    twist_decompose,
)
from nhc.heights import CALIBRATED, UNCALIBRATED, HeightBox, HeightSpec, box, height, parse_height_spec
from nhc.oracle import brute_census

from arith_reference import curves_with_j

from arith_reference import (
    count_cm_representatives_direct,
    count_representatives_by_twists,
    count_representatives_direct,
    is_kfree,
    max_parameter_direct,
    ord_p,
    singular_bound_direct,
)

CM_J = (
    0,
    1728,
    -3375,
    8000,
    -32768,
    54000,
    287496,
    -12288000,
    16581375,
    -884736,
    -884736000,
    -147197952000,
    -262537412640768000,
)


def sample_j_values(count: int = 17, seed: int = 7) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        j = Fraction(rng.randint(-200, 200), rng.randint(1, 20))
        if j not in (0, 1728) and j not in out:
            out.append(j)
    return out


def reference_count_representatives(spec, bound) -> int:
    """Moebius inversion with a Fraction cutoff, four certified roots and a
    full box count per twist scale d.  d runs while the height box at
    bound / d^12 holds more than the origin, which for weights below 1 can
    exceed bound^(1/12)."""

    def curves(x):
        b = box(spec, x)
        singular = min(
            floor_rational_root(x / (27 * spec.alpha), 6),
            floor_rational_root(x / (4 * spec.beta), 6),
        )
        return (2 * b.x_bound + 1) * (2 * b.y_bound + 1) - 2 * singular - 1

    x = Fraction(bound)
    dmax = 0
    while box(spec, x / (dmax + 1) ** 12) != HeightBox(0, 0):
        dmax += 1
    mu = moebius_sieve(dmax)
    return sum(mu[d] * curves(x / Fraction(d) ** 12) for d in range(1, dmax + 1) if mu[d])


class ReferenceJData:
    """Per-height data of a generic fixed-j family in the sixth-power form:
    the lattice parameter is capped by |m| <= (min(bound6_x, bound6_y) X)^(1/6)
    and the m-th curve is (step^2 m^2 / a, step^3 m^3 / a)."""

    def __init__(self, j, spec):
        j = Fraction(j)
        self.a = cubic_coefficient(j)
        self.step = cubic_param(self.a)
        step6 = self.step**6
        self.bound6_x = abs(self.a) ** 3 / (step6 * spec.alpha)
        self.bound6_y = abs(self.a) ** 2 / (step6 * spec.beta)
        self.bound6 = min(self.bound6_x, self.bound6_y)

    def param_bound(self, bound):
        x = Fraction(bound)
        return min(
            floor_rational_root(self.bound6_x * x, 6),
            floor_rational_root(self.bound6_y * x, 6),
        )

    def curve(self, m):
        A, B = self.step**2 * m**2 / self.a, self.step**3 * m**3 / self.a
        assert A.denominator == B.denominator == 1
        return WeierstrassCurve(int(A), int(B))

    def coefficient(self):
        with mpmath.workdps(50):
            return mpmath.root(mpmath.mpf(self.bound6.numerator) / self.bound6.denominator, 6)


class TestInvariants:
    def test_discriminant(self):
        assert discriminant((0, 1)) == -432
        assert discriminant((-3, 2)) == 0
        assert discriminant((1, 0)) == -64

    def test_j_invariant(self):
        assert j_invariant((0, 5)) == 0
        assert j_invariant((7, 0)) == 1728
        assert j_invariant((-35, 98)) == -3375

    def test_j_invariant_singular(self):
        with pytest.raises(SingularCurveError):
            j_invariant((-3, 2))

    def test_is_representative(self):
        assert not is_representative((0, 64))
        assert is_representative((-15, 22))
        assert not is_representative((-240, 1408))
        with pytest.raises(SingularCurveError, match=r"curve \(0, 0\) is singular"):
            is_representative((0, 0))


class TestCubicCoefficient:
    def test_values(self):
        assert cubic_coefficient(-3375) == Fraction(-28, 125)
        assert cubic_coefficient(54000) == Fraction(-484, 3375)
        assert cubic_coefficient(1) == Fraction(6908, 27)

    def test_special_j_rejected(self):
        with pytest.raises(SpecialJError):
            cubic_coefficient(0)
        with pytest.raises(SpecialJError):
            cubic_coefficient(1728)

    def test_never_the_singular_locus(self):
        for j in sample_j_values(40):
            assert cubic_coefficient(j) not in (0, Fraction(-4, 27))

    def test_sixth_power_data(self):
        # a(54000) = -484/3375 has step 22/15; the least curve is
        # (step^2 / a, step^3 / a) with alpha |A|^3 = 13500, beta B^2 = 13068
        assert cubic_param(cubic_coefficient(54000)) == Fraction(22, 15)
        (least, other), h = minimal_curves(54000, CALIBRATED)
        assert least == (-15, -22) and other == (-15, 22)
        assert 4 * abs(least.A) ** 3 == 13500
        assert 27 * least.B**2 == 13068
        assert h == 13500


class TestParametrization:
    def test_minimal_cm_curves(self):
        assert curve_from_parameter(-3375, 1) == (-35, -98)
        assert curve_from_parameter(-3375, -1) == (-35, 98)
        assert curve_from_parameter(0, 7) == (0, 7)
        assert curve_from_parameter(1728, -2) == (-2, 0)

    def test_largest_cm_family(self):
        j = -262537412640768000
        assert curve_from_parameter(j, 1) == (-8697680, -9873093538)
        assert curve_from_parameter(j, 2) == (-34790720, -78984748304)
        assert curve_from_parameter(j, 3) == (-78279120, -266573525526)
        # A(m) = -(2^4 5 23 29 163) m^2 and B(m) = -(2 7 11 19 127 163^2) m^3
        assert curve_from_parameter(j, 5) == (
            -(2**4 * 5 * 23 * 29 * 163) * 25,
            -(2 * 7 * 11 * 19 * 127 * 163**2) * 125,
        )

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            curve_from_parameter(-3375, 0)

    def test_soundness_cm_and_random(self):
        for j in list(map(Fraction, CM_J)) + sample_j_values():
            a = None if j in (0, 1728) else cubic_coefficient(j)
            for m in range(-50, 51):
                if m == 0:
                    continue
                curve = curve_from_parameter(j, m)
                assert discriminant(curve) != 0
                assert j_invariant(curve) == j
                if a is not None:
                    # (A, B) lies on the cubic B^2 = a A^3
                    assert a.denominator * curve.B**2 == a.numerator * curve.A**3

    def test_exponent_bounds(self):
        from nhc.exactarith import factorize_rational

        for j in [Fraction(v) for v in CM_J if v not in (0, 1728)] + sample_j_values():
            a = cubic_coefficient(j)
            a_primes = set(factorize_rational(a).factors)
            for m in range(-50, 51):
                if m == 0:
                    continue
                curve = curve_from_parameter(j, m)
                # bounds hold trivially at primes dividing neither a nor m
                for p in a_primes | set(factorize_rational(m).factors):
                    if ord_p(a, p) >= 0:
                        lo = 2 * ord_p(m, p)
                        assert lo <= ord_p(curve.A, p) <= lo + 1
                    else:
                        lo = 3 * ord_p(m, p)
                        assert lo <= ord_p(curve.B, p) <= lo + 2

    def test_representative_iff_kfree_parameter(self):
        # k = 2 for generic j (6 and 4 for the degenerate families)
        for j in [Fraction(v) for v in CM_J] + sample_j_values(8):
            k = 6 if j == 0 else 4 if j == 1728 else 2
            for m in range(-50, 51):
                if m == 0:
                    continue
                assert is_representative(curve_from_parameter(j, m)) == is_kfree(m, k)

    def test_param_bound_examples(self):
        assert param_bound(0, CALIBRATED, 27) == 1
        assert param_bound(-3375, CALIBRATED, 259307) == 0
        assert param_bound(-3375, CALIBRATED, 259308) == 1

    def test_height_scaling_law(self):
        # curve m is the twist of the least curve with height |m|^r H_min
        for j, r in ((0, 2), (1728, 3), (-3375, 6), (Fraction(11, 3), 6)):
            for spec in (CALIBRATED, UNCALIBRATED, HeightSpec(Fraction(3, 7), Fraction(11, 5))):
                _, h_min = minimal_curves(j, spec)
                for m in (1, -1, 2, -3, 10, -97):
                    assert height(spec, curve_from_parameter(j, m)) == abs(m) ** r * h_min

    @settings(max_examples=150, deadline=None)
    @given(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4).filter(
            lambda j: j not in (0, 1728)
        ),
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**40, max_denominator=10**6),
        st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    )
    @example(Fraction(-3375), Fraction(4), Fraction(27), Fraction(259308), 1)
    @example(Fraction(17, 5), Fraction(1, 50), Fraction(50), Fraction(10**40), -7)
    def test_generic_j_match_sixth_power_reference(self, j, alpha, beta, x, m):
        spec = HeightSpec(alpha, beta)
        ref = ReferenceJData(j, spec)
        assert param_bound(j, spec, x) == ref.param_bound(x)
        assert curve_from_parameter(j, m) == ref.curve(m)
        assert minimal_curves(j, spec)[1] == 1 / ref.bound6
        assert fixed_j_coefficient(j, spec) == ref.coefficient()

    def test_param_bound_iff_height(self):
        for j in (Fraction(-3375), Fraction(0), Fraction(1728), Fraction(11, 3)):
            for x in (100, 259308, 10**6, Fraction(10**7, 3)):
                bound = param_bound(j, CALIBRATED, x)
                if bound:
                    assert height(CALIBRATED, curve_from_parameter(j, bound)) <= x
                assert height(CALIBRATED, curve_from_parameter(j, bound + 1)) > x

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((0, 1728)),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**48, max_denominator=10**6),
    )
    # X = |m|^r H(least) exactly, and just below it: H is beta for j = 0
    # (least curve (0, 1), r = 2) and alpha for j = 1728 ((1, 0), r = 3)
    @example(0, Fraction(3, 7), Fraction(11, 5), 12345**2 * Fraction(11, 5))
    @example(0, Fraction(3, 7), Fraction(11, 5), 12345**2 * Fraction(11, 5) - Fraction(1, 10**6))
    @example(0, Fraction(4), Fraction(27), Fraction(27 * 10**24))
    @example(0, Fraction(4), Fraction(27), Fraction(27 * 10**24 - 1))
    @example(1728, Fraction(37, 5), Fraction(11, 7), 9999**3 * Fraction(37, 5))
    @example(1728, Fraction(37, 5), Fraction(11, 7), 9999**3 * Fraction(37, 5) - Fraction(1, 10**6))
    @example(1728, Fraction(1, 1000), Fraction(1000), Fraction(10**36))
    @example(1728, Fraction(1, 1000), Fraction(1000), Fraction(10**36) - Fraction(1, 10**6))
    def test_special_j_bound_matches_height_reference(self, j, alpha, beta, x):
        spec = HeightSpec(alpha, beta)
        least, r = families.fixed_j_family(j)
        assert param_bound(j, spec, x) == max_parameter_direct(least, r, spec, x)


class TestFixedJCounts:
    def test_curve_counts(self):
        assert count_curves_with_j(0, CALIBRATED, 10**10) == 38490
        assert count_curves_with_j(-32768, CALIBRATED, 10**30) == 9686
        assert count_curves_with_j(54000, CALIBRATED, 10**4) == 0  # min height 13500

    def test_representative_counts(self):
        assert count_representatives_with_j(0, CALIBRATED, 27) == 2
        # all of 1..10 are 6-free
        assert count_representatives_with_j(0, UNCALIBRATED, 100) == 20

    def test_fixed_j_against_census(self):
        js = [Fraction(-3375), Fraction(0), Fraction(1728), Fraction(8000), Fraction(20, 3)]
        census = brute_census(CALIBRATED, 10**7, tracked_j=js)
        for j in js:
            tilde, rep = census.per_j[j]
            assert count_curves_with_j(j, CALIBRATED, 10**7) == tilde
            assert count_representatives_with_j(j, CALIBRATED, 10**7) == rep

    def test_completeness_against_census(self):
        for j in (Fraction(-3375), Fraction(54000), Fraction(-32768)):
            curves = set(curves_with_j(j, box(CALIBRATED, 10**6)))
            bound = param_bound(j, CALIBRATED, 10**6)
            parametrized = {
                tuple(curve_from_parameter(j, m))
                for m in range(-bound, bound + 1)
                if m != 0
            }
            assert parametrized == curves

    @pytest.mark.parametrize("spec", [CALIBRATED, UNCALIBRATED], ids=["cal", "ncal"])
    def test_against_column_scan_at_1e12(self, spec, monkeypatch):
        # 100 times the census budget: the column scan takes one square root
        # per A and j.  The rational j come from points of a small box, so
        # each family has curves below 1e12.
        monkeypatch.setenv("NHC_ORACLE_CAP", str(10**16))
        rng = random.Random(8)
        small = box(spec, 10**6)
        js = [Fraction(o.j) for o in CM_ORDERS if o.j]
        while len(js) < 16:
            a = rng.randint(1, small.x_bound) * rng.choice((-1, 1))
            b = rng.randint(1, small.y_bound)
            if 4 * a**3 + 27 * b**2:
                js.append(Fraction(6912 * a**3, 4 * a**3 + 27 * b**2))
        census = brute_census(spec, 10**12, tracked_j=js)
        assert census.total_elliptic == count_curves(spec, 10**12)
        assert census.total_representatives == count_representatives(spec, 10**12)
        assert census.singular_points == count_singular(spec, 10**12)
        scanned = census.per_j
        for j, counts in scanned.items():
            assert counts == (
                count_curves_with_j(j, spec, 10**12),
                count_representatives_with_j(j, spec, 10**12),
            ), j
        assert all(scanned[j][0] for j in js[12:])


class TestGlobalCounts:
    def test_examples(self):
        assert count_curves(CALIBRATED, 7000) == 820  # (2*12+1)(2*16+1) - 2*2 - 1
        assert count_curves(UNCALIBRATED, 1) == 8
        assert count_representatives(CALIBRATED, 1) == count_curves(CALIBRATED, 1)

    def test_against_census(self):
        for spec in (CALIBRATED, UNCALIBRATED):
            census = brute_census(spec, 10**5)
            assert count_curves(spec, 10**5) == census.total_elliptic
            assert count_representatives(spec, 10**5) == census.total_representatives

    def test_box_minus_singular_locus(self):
        for x in (100, 7000, 10**5):
            b = box(CALIBRATED, x)
            lattice = (2 * b.x_bound + 1) * (2 * b.y_bound + 1)
            singular = sum(
                1
                for a in range(-b.x_bound, b.x_bound + 1)
                for y in range(-b.y_bound, b.y_bound + 1)
                if 4 * a**3 + 27 * y * y == 0
            )
            assert count_singular(CALIBRATED, x) == singular
            assert count_curves(CALIBRATED, x) == lattice - singular

    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**60, max_denominator=10**6),
    )
    # the singular bound s is set by 2 s^3 <= yb here and by 3 s^2 <= xb below
    @example(Fraction(1), Fraction(1000), Fraction(10**30))
    @example(Fraction(1000), Fraction(1, 1000), Fraction(10**30))
    def test_singular_bound_matches_reference(self, alpha, beta, x):
        # the cusp's twist family against 3 s^2 <= xb and 2 s^3 <= yb
        spec = HeightSpec(alpha, beta)
        s = singular_bound_direct(spec, x)
        assert count_singular(spec, x) == 2 * s + 1
        b = box(spec, x)
        assert count_curves(spec, x) == (2 * b.x_bound + 1) * (2 * b.y_bound + 1) - 2 * s - 1

    def test_weights_below_one_against_census(self):
        # a weight below 1 lets twist scales d > X^(1/12) into the box:
        # (16, 0) = 2 * (1, 0) has height 16^3 / 100 < 100
        spec = HeightSpec(Fraction(1, 100), 1)
        for x in (100, Fraction(1, 2), 10**4):
            census = brute_census(spec, x)
            assert count_curves(spec, x) == census.total_elliptic
            assert count_representatives(spec, x) == census.total_representatives
        assert count_representatives(spec, 100) == 898

    @given(
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**30, max_denominator=10**6),
    )
    @example(Fraction(3, 7), Fraction(11, 5), Fraction(1, 3))
    @example(Fraction(1, 50), Fraction(1, 50), Fraction(10**24, 7))
    def test_representatives_match_fraction_reference(self, alpha, beta, x):
        spec = HeightSpec(alpha, beta)
        assert count_representatives(spec, x) == reference_count_representatives(spec, x)

    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.integers(min_value=1, max_value=10**48),
    )
    # x = floor(xb / d^4) reaches 0 inside the blocks, before y does
    @example(Fraction(60), Fraction(1, 12), 10**48)
    # y = floor(yb / d^6) reaches 0 inside the blocks, before x does
    @example(Fraction(1, 1000), Fraction(50), 10**48)
    # every d is a head term: D = dmax = 5
    @example(Fraction(4), Fraction(27), 10**9)
    # dmax = 177 > X^(1/12) = 100, with blocks past D = 147
    @example(Fraction(1, 1000), Fraction(1, 1000), 10**24)
    def test_representatives_match_term_by_term_sum(self, alpha, beta, x):
        spec = HeightSpec(alpha, beta)
        assert count_representatives(spec, x) == count_representatives_direct(spec, x)

    # (representatives, CM representatives), computed by term-by-term sums
    # (to 10^54 before count_kfree was blocked, at 10^60 and 10^66 before
    # count_representatives was)
    PINNED = {
        ("cal", 30): (4844620043512178762230798, 378350270173072),
        ("cal", 54): (484462004349754794037260558971803286254594932,
                      378338630327153418023539970),
        ("cal", 60): (48446200434975479395015284669645501737197345330138,
                      378338629279472918496881010504),
        ("cal", 66): (4844620043497547939490711265016150963286723512868784892,
                      378338629174704868647194282815790),
        ("cal", 72): (484462004349754793949036602372897186548036614631855293420996,
                      378338629164228063663255401470462886),
        ("ncal", 30): (39960256524727810750988628, 1965923663444322),
        ("ncal", 54): (3996025652276123128974802658499919381808359578,
                       1965905186377037646923509882),
        ("ncal", 60): (399602565227612312702857264392060062733023537628382,
                       1965905184713948520208816530522),
        ("ncal", 66): (39960256522761231270090981096228554586338389379199266390,
                       1965905184547639607668371986998250),
        ("ncal", 72): (3996025652276123127008903241978366501378753800139802318536938,
                       1965905184531008716415637780858598598),
        ("alpha/60:1,beta/1:12", 30): (35359149233598643134013694, 6810100045160950),
        ("alpha/60:1,beta/1:12", 54): (3535914923562681470198739146876344939688636228,
                                       6810095325407166678787113724),
        ("alpha/60:1,beta/1:12", 60): (353591492356268146600337124986347460714674963538134,
                                       6810095324982353050185656350486),
        ("alpha/60:1,beta/1:12", 66): (
            35359149235626814660657953779563503630372812748426679182,
            6810095324939871687391731489307214,
        ),
        ("alpha/60:1,beta/1:12", 72): (
            3535914923562681466065672143857541453318466170696498157932836,
            6810095324935623551113001212156032054,
        ),
    }

    @pytest.mark.parametrize("spec_text,exponent", sorted(PINNED))
    def test_pinned_counts(self, spec_text, exponent):
        spec = parse_height_spec(spec_text)
        assert (
            count_representatives(spec, 10**exponent),
            count_cm_representatives(spec, 10**exponent),
        ) == self.PINNED[spec_text, exponent]

    def test_representatives_grow_the_mertens_prefix(self, fresh_sieve):
        # the block walk reads Mert from the shared prefix, grown to dmax
        count_representatives(CALIBRATED, 10**60)
        xb, yb = box(CALIBRATED, 10**60)
        dmax = max(exactarith.iroot(xb, 4), exactarith.iroot(yb, 6))
        assert len(exactarith._mertens) == dmax + 1
        assert list(exactarith._mertens) == [0, *accumulate(moebius_sieve(0)[1 : dmax + 1])]

    # every spec to 10^48 and cal at 10^54, where the recursion over the
    # twists takes 0.3-0.5 s over about 10^4 boxes
    TWIST_CUTOFFS = [
        *((spec, e) for spec in ("cal", "ncal", "alpha/37:5,beta/11:7") for e in (6, 10, 20, 30, 36, 42, 48)),
        ("cal", 54),
        # skewed boxes, where an edge of the block walk is 0 or reaches 0
        # early; the box (xb, yb) in the comments
        (f"alpha/{10**20}:1,beta/1:1", 0),  # (0, 1)
        (f"alpha/{10**20}:1,beta/1:1", 30),  # (2154, 10^15)
        (f"alpha/1:1,beta/{10**30}:1", 30),  # (10^10, 1)
        (f"alpha/{10**40}:1,beta/1:1", 30),  # (0, 10^15)
        (f"alpha/1:1,beta/{10**40}:1", 30),  # (10^10, 0)
        (f"alpha/3:1,beta/{10**50}:1", 62),
        (f"alpha/{10**60}:1,beta/7:1", 61),  # (2, 1.2e30)
    ]

    @pytest.mark.parametrize("spec_text,exponent", TWIST_CUTOFFS)
    def test_representatives_match_twist_recursion(self, spec_text, exponent):
        # a referee with no Moebius function and no sieve
        spec, x = parse_height_spec(spec_text), 10**exponent
        assert count_representatives(spec, x) == count_representatives_by_twists(spec, x)

    @settings(max_examples=50)
    @given(
        st.fractions(min_value=Fraction(1, 12), max_value=60, max_denominator=12),
        st.fractions(min_value=Fraction(1, 12), max_value=60, max_denominator=12),
        st.integers(min_value=1, max_value=10**40),
    )
    def test_cm_match_term_by_term_kfree_sums(self, alpha, beta, x):
        spec = HeightSpec(alpha, beta)
        assert count_cm_representatives(spec, x) == count_cm_representatives_direct(spec, x)

    @pytest.mark.parametrize("spec", [CALIBRATED, UNCALIBRATED])
    def test_moebius_decomposition_identity(self, spec):
        # pre-inversion identity: summing representative counts over twist
        # scales recovers the plain box count
        from nhc.exactarith import floor_rational_root

        for x in (10**3, 10**4, 10**5):
            dmax = floor_rational_root(Fraction(x), 12)
            total = sum(
                count_representatives(spec, Fraction(x, d**12)) for d in range(1, dmax + 1)
            )
            assert total == count_curves(spec, x)


class TestTwists:
    def test_twist_examples(self):
        assert twist((-15, 22), 2) == (-240, 1408)
        assert twist((0, 1), 3) == (0, 729)
        assert twist((7, -9), 1) == (7, -9)
        with pytest.raises(ValueError):
            twist((1, 1), 0)

    def test_decompose_examples(self):
        dec = twist_decompose((-240, 1408))
        assert (dec.d, tuple(dec.representative)) == (2, (-15, 22))
        dec = twist_decompose((-15, 22))
        assert (dec.d, tuple(dec.representative)) == (1, (-15, 22))
        dec = twist_decompose((0, 2**6 * 5))
        assert (dec.d, tuple(dec.representative)) == (2, (0, 5))
        dec = twist_decompose((3**4 * 7, 0))
        assert (dec.d, tuple(dec.representative)) == (3, (7, 0))

    def test_decompose_rejects_singular(self):
        with pytest.raises(SingularCurveError):
            twist_decompose((-3, 2))

    @given(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=1, max_value=4),
    )
    @example(0, 5, 3)
    @example(-7, 0, 4)
    @example(0, -63, 2)
    @example(24, 0, 5)
    def test_round_trip(self, a, b, d):
        if discriminant((a, b)) == 0:
            return
        if not is_representative((a, b)):
            return
        dec = twist_decompose(twist((a, b), d))
        assert dec.d == d
        assert dec.representative == WeierstrassCurve(a, b)
        assert j_invariant(twist((a, b), d)) == j_invariant((a, b))


class TestMinimalCurves:
    def test_least_curve_found_once_per_j(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return cubic_param(a)

        monkeypatch.setattr(families, "cubic_param", counted)
        families.fixed_j_family.cache_clear()
        j = Fraction(-3375)
        count_curves_with_j(j, CALIBRATED, 10**30)
        count_representatives_with_j(j, CALIBRATED, 10**30)
        param_bound(j, UNCALIBRATED, 10**9)
        minimal_curves(j, CALIBRATED)
        main_term_representatives_with_j(j, CALIBRATED, 10**30)
        assert len(calls) == 1

    def test_rho_once_per_fixed_j_and_twist(self, monkeypatch):
        # a(j) = 4M / (27N) with N = n0 * core and M = 1728 D - N.  A balanced
        # 18-digit M lies below 10^18, so the primes up to its cube root and
        # one square root settle it without rho.  M = p1 * p2 of two 11-digit
        # primes lies above 10^18, so rho splits it once; gcd(A, B) of the
        # twist holds p0 * p1 * p2 again, and its walk splits it from the
        # start: p2 first, then p0 * p1.
        rho = exactarith._pollard_rho
        calls = []

        def counted(m):
            calls.append(m)
            return rho(m)

        monkeypatch.setattr(exactarith, "_pollard_rho", counted)
        p0, p1, p2 = 30000000001, 10000000019, 20000000089
        for m, core, splits in (999999937 * 999999929, 1, []), (p1 * p2, p0, [p1 * p2, p0 * p1 * p2, p0 * p1]):
            n = (-m * pow(core, -1, 1728)) % 1728 * core
            j = Fraction(n, (n + m) // 1728)
            assert cubic_coefficient(j) == Fraction(4 * m, 27 * n)
            calls.clear()
            families.fixed_j_family.cache_clear()
            (least, _), _ = minimal_curves(j, CALIBRATED)
            assert twist_decompose(twist(least, 6)) == (6, least)
            assert calls == splits

    def test_least_curve_cache_bounded(self):
        families.fixed_j_family.cache_clear()
        for j in range(1, 400):
            if j != 1728:
                param_bound(j, CALIBRATED, 10**9)
        assert families.fixed_j_family.cache_info().currsize == 256

    def test_table_rows(self):
        curves, h = minimal_curves(-262537412640768000, CALIBRATED)
        assert h == 2631905352272628650988
        curves, h = minimal_curves(-3375, CALIBRATED)
        assert set(curves) == {(-35, -98), (-35, 98)}
        assert h == 259308
        curves, h = minimal_curves(1728, CALIBRATED)
        assert curves == ((1, 0), (-1, 0))
        assert h == 4
        curves, h = minimal_curves(0, CALIBRATED)
        assert curves == ((0, 1), (0, -1))
        assert h == 27

    def test_minimal_height_is_sixth_power_reciprocal(self):
        for j in (Fraction(-3375), Fraction(54000), Fraction(17, 5)):
            _, h = minimal_curves(j, CALIBRATED)
            assert h == 1 / ReferenceJData(j, CALIBRATED).bound6
