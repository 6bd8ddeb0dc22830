"""Acceptance contract for the package.

Each test runs one acceptance criterion at its fixed tolerance and prints
one PASS/FAIL line (run with ``pytest -s`` to see the lines).  Reference
values are frozen from independent computation: hand-verified heights and
factorizations, high-precision closed-form evaluation, and the brute-force
census.

Criterion 11d is a known-failing check, kept as stated rather than
loosened: at cutoff 1e8 the fixed-j family for j = -3375 contains exactly
four curves (parameters +-1, +-2), all of them representatives, so the
representative density is exactly 1.0 and cannot lie within 0.01 of the
limit 1/zeta(2) = 0.6079.  The limit statement itself is exercised at
larger cutoffs in test_density_convergence_j_other_large_cutoff.
"""

import random
import time
from fractions import Fraction

import mpmath

from nhc.asymptotics import cm_asymptotic, cm_coefficient_sum, coefficient_table, zeta_value
from nhc.cm import CM_ORDERS, cm_count_table, cm_minimal_table, count_cm_representatives
from nhc.exactarith import factorize_rational, floor_rational_root
from nhc.families import (
    count_curves,
    count_curves_with_j,
    count_representatives,
    count_representatives_with_j,
    cubic_coefficient,
    curve_from_parameter,
    is_representative,
    minimal_curves,
    param_bound,
)
from nhc.heights import CALIBRATED, UNCALIBRATED, box
from nhc.oracle import brute_census

from arith_reference import curves_with_j

from arith_reference import is_kfree, ord_p

CM_J = tuple(o.j for o in CM_ORDERS)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>3}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_global_representative_count():
    t0 = time.perf_counter()
    got = count_representatives(CALIBRATED, Fraction("2.7e10"))
    dt = time.perf_counter() - t0
    ok = got == 238764310 and dt < 1.0
    _line("1", ok, f"representatives up to 2.7e10 = {got} ({dt:.3f}s)")
    assert got == 238764310
    assert dt < 1.0


def test_criterion_2_cm_representative_counts():
    expected = {10**n: v for n, v in zip(range(1, 8), (2, 6, 24, 66, 180, 508, 1470))}
    expected[27 * 10**9] = 65732
    t0 = time.perf_counter()
    got = {x: count_cm_representatives(CALIBRATED, x) for x in expected}
    dt = time.perf_counter() - t0
    ok = got == expected and dt < 1.0
    _line("2", ok, f"CM representative counts {sorted(got.values())} ({dt:.3f}s)")
    assert got == expected
    assert dt < 1.0


def test_criterion_3_cm_asymptotic_table():
    # (cutoff, exact, printed approximation, printed error %, error decimals)
    rows = [
        (10, 2, "5.40", "170", 0),
        (10**2, 6, "11.68", "95", 0),
        (10**3, 24, "27.26", "13", 0),
        (10**4, 66, "68.28", "3.45", 2),
        (10**5, 180, "181.55", "0.86", 2),
        (10**6, 508, "506.31", "0.33", 2),
        (10**7, 1470, "1464.17", "0.40", 2),
        (27 * 10**9, 65732, "65722.95", "0.014", 3),
    ]
    worst_val = worst_err = 0.0
    for x, exact, printed_approx, printed_err, decimals in rows:
        approx = cm_asymptotic(CALIBRATED, x)
        worst_val = max(worst_val, abs(float(approx - mpmath.mpf(printed_approx))))
        err_pct = 100.0 * abs(float(approx) - exact) / exact
        # match at displayed precision: within one unit in the last place
        worst_err = max(worst_err, abs(err_pct - float(printed_err)) / 10.0**-decimals)
    ok = worst_val <= 0.01 and worst_err <= 1.0
    _line("3", ok, f"approximations off by <= {worst_val:.4f}, errors within {worst_err:.2f} ulp")
    assert worst_val <= 0.01
    assert worst_err <= 1.0


# All 65 per-order entries at cutoffs 10^10, 10^15, 10^20, 10^25, 10^30.
CM_COUNT_ENTRIES = {
    (-3, 1): (38490, 12171612, 3849001794, 1217161238900, 384900179459750),
    (-3, 2): (18, 128, 882, 6014, 40986),
    (-3, 3): (6, 44, 312, 2126, 14490),
    (-4, 1): (2714, 125992, 5848034, 271441760, 12599210498),
    (-4, 2): (22, 150, 1030, 7024, 47860),
    (-7, 1): (10, 78, 538, 3676, 25044),
    (-7, 2): (2, 20, 140, 954, 6506),
    (-8, 1): (12, 90, 624, 4252, 28980),
    (-11, 1): (4, 30, 208, 1420, 9686),
    (-19, 1): (4, 40, 276, 1888, 12870),
    (-43, 1): (0, 8, 58, 396, 2706),
    (-67, 1): (0, 2, 18, 134, 924),
    (-163, 1): (0, 0, 0, 6, 52),
}


def test_criterion_4_cm_count_table():
    t0 = time.perf_counter()
    table = cm_count_table(CALIBRATED)
    dt = time.perf_counter() - t0
    got = {(r.disc, r.conductor): r.counts for r in table.rows}
    entries_ok = got == CM_COUNT_ENTRIES
    # the totals row is the column sum of the rows above it; that sum is
    # 384912778860352 at 10^30 (see the ledger note on the reference total)
    sums = tuple(sum(r.counts[i] for r in table.rows) for i in range(5))
    totals_ok = table.totals == sums
    ok = entries_ok and totals_ok and dt < 1.0
    _line("4", ok, f"65 entries exact, totals {table.totals[-1]} at 1e30 ({dt:.3f}s)")
    assert entries_ok
    assert totals_ok
    assert dt < 1.0


MINIMAL_ROWS = {
    (-3, 1): (0, 0, 1, 27),
    (-3, 2): (54000, -15, 22, 13500),
    (-3, 3): (-12288000, -120, 506, 6912972),
    (-4, 1): (1728, 1, 0, 4),
    (-4, 2): (287496, -11, 14, 5324),
    (-7, 1): (-3375, -35, 98, 259308),
    (-7, 2): (16581375, -595, 5586, 842579500),
    (-8, 1): (8000, -30, 56, 108000),
    (-11, 1): (-32768, -264, 1694, 77480172),
    (-19, 1): (-884736, -152, 722, 14074668),
    (-43, 1): (-884736000, -3440, 77658, 162830654028),
    (-67, 1): (-147197952000, -29480, 1948226, 102480782771052),
    (-163, 1): (-262537412640768000, -8697680, 9873093538, 2631905352272628650988),
}


def test_criterion_5_minimal_curve_table():
    rows = cm_minimal_table(CALIBRATED)
    got = {
        (r.disc, r.conductor): (r.j, r.curves[0].A, abs(r.curves[0].B), r.min_height)
        for r in rows
    }
    # the two curves are mirror images: B flips sign (A flips for j = 1728)
    pairs_ok = all(
        {tuple(c) for c in r.curves}
        == (
            {(1, 0), (-1, 0)}
            if r.j == 1728
            else {(r.curves[0].A, r.curves[0].B), (r.curves[0].A, -r.curves[0].B)}
        )
        for r in rows
    )
    ok = got == MINIMAL_ROWS and pairs_ok and len(rows) == 13
    _line("5", ok, f"13 minimal-curve rows exact (largest height {rows[-1].min_height})")
    assert got == MINIMAL_ROWS
    assert pairs_ok


COEFFS_10_DIGITS = {
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


def test_criterion_6_coefficient_table():
    rows = coefficient_table(CALIBRATED)
    worst = max(
        abs(float(r.coefficient - mpmath.mpf(COEFFS_10_DIGITS[(r.disc, r.conductor)])))
        for r in rows
    )
    # closed form at j = 54000: c^6 = 1/(4 * 3375), exactly
    exact_min = 1 / minimal_curves(54000, CALIBRATED)[1]
    closed_ok = exact_min == Fraction(1, 4 * 3375)
    ok = len(rows) == 11 and worst < 5e-10 and closed_ok
    _line("6", ok, f"11 coefficients within {worst:.2e}; c(54000)^6 = {exact_min}")
    assert len(rows) == 11
    assert worst < 5e-10
    assert closed_ok


def test_criterion_7_constants():
    c = cm_coefficient_sum(CALIBRATED)
    d = cm_coefficient_sum(UNCALIBRATED)
    c_ok = abs(c - mpmath.mpf("0.950583051425665")) <= 1e-15
    d_ok = abs(d - mpmath.mpf("1.20946795835178")) <= 1e-14
    ok = c_ok and d_ok
    _line("7", ok, f"C = {mpmath.nstr(c, 15)}, D = {mpmath.nstr(d, 15)}")
    assert c_ok
    assert d_ok


def _random_non_cm_j(count: int = 5, seed: int = 163) -> list[Fraction]:
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        j = Fraction(rng.randint(-400, 400), rng.randint(1, 12))
        if j not in (0, 1728) and j not in out and not (j.denominator == 1 and j.numerator in CM_J):
            out.append(j)
    return out


def test_criterion_8_oracle_equivalence():
    tracked = [Fraction(j) for j in CM_J] + _random_non_cm_j()
    t0 = time.perf_counter()
    checked = 0
    for spec, name in ((CALIBRATED, "cal"), (UNCALIBRATED, "ncal")):
        for x in (10**2, 10**3, 10**4, 10**5, 10**6):
            census = brute_census(spec, x, tracked_j=tracked)
            assert census.total_elliptic == count_curves(spec, x), (name, x)
            assert census.total_representatives == count_representatives(spec, x), (name, x)
            for j in tracked:
                tilde, rep = census.per_j[j]
                assert tilde == count_curves_with_j(j, spec, x), (name, x, j)
                assert rep == count_representatives_with_j(j, spec, x), (name, x, j)
            checked += 2 + 2 * len(tracked)
    dt = time.perf_counter() - t0
    ok = dt < 300.0
    _line("8", ok, f"{checked} census/formula equalities across 10 boxes ({dt:.1f}s)")
    assert dt < 300.0


def test_criterion_9_parametrization_completeness():
    for j in CM_J:
        curves = set(curves_with_j(Fraction(j), box(CALIBRATED, 10**6)))
        bound = param_bound(j, CALIBRATED, 10**6)
        parametrized = {
            tuple(curve_from_parameter(j, m)) for m in range(-bound, bound + 1) if m
        }
        assert parametrized == curves, j
        # representative membership: k-free parameter (k = 2 generically,
        # 6 and 4 for the degenerate invariants 0 and 1728)
        k = 6 if j == 0 else 4 if j == 1728 else 2
        for m in range(-50, 51):
            if m == 0:
                continue
            assert is_representative(curve_from_parameter(j, m)) == is_kfree(m, k), (j, m)
        if j in (0, 1728):
            continue
        a = cubic_coefficient(j)
        primes = set(factorize_rational(a).factors)  # of numerator and denominator
        for m in range(-50, 51):
            if m == 0:
                continue
            curve = curve_from_parameter(j, m)
            for p in primes | set(factorize_rational(m).factors):
                if ord_p(a, p) >= 0:
                    assert 2 * ord_p(m, p) <= ord_p(curve.A, p) <= 2 * ord_p(m, p) + 1
                else:
                    assert 3 * ord_p(m, p) <= ord_p(curve.B, p) <= 3 * ord_p(m, p) + 2
    _line("9", True, "parametrized sets equal brute-force sets for all 13 CM j at 1e6")


def test_criterion_10_decomposition_identity():
    for spec, name in ((CALIBRATED, "cal"), (UNCALIBRATED, "ncal")):
        for x in (10**3, 10**4, 10**5):
            dmax = floor_rational_root(Fraction(x), 12)
            total = sum(
                count_representatives(spec, Fraction(x, d**12)) for d in range(1, dmax + 1)
            )
            assert total == count_curves(spec, x), (name, x)
    _line("10", True, "twist decomposition identity exact at 1e3..1e5, both presets")


def test_criterion_11a_density_all_curves():
    ratio = Fraction(
        count_representatives(CALIBRATED, 10**6), count_curves(CALIBRATED, 10**6)
    )
    dev = abs(float(ratio) - float(1 / zeta_value(10)))
    ok = dev < 0.01
    _line("11a", ok, f"representative density at 1e6 off 1/zeta(10) by {dev:.2e}")
    assert dev < 0.01


def test_criterion_11b_density_j0():
    ratio = count_representatives_with_j(0, CALIBRATED, 10**8) / count_curves_with_j(
        0, CALIBRATED, 10**8
    )
    dev = abs(ratio - float(1 / zeta_value(6)))
    ok = dev < 0.01
    _line("11b", ok, f"j=0 density at 1e8 off 1/zeta(6) by {dev:.2e}")
    assert dev < 0.01


def test_criterion_11c_density_j1728():
    ratio = count_representatives_with_j(1728, CALIBRATED, 10**8) / count_curves_with_j(
        1728, CALIBRATED, 10**8
    )
    dev = abs(ratio - float(1 / zeta_value(4)))
    ok = dev < 0.01
    _line("11c", ok, f"j=1728 density at 1e8 off 1/zeta(4) by {dev:.2e}")
    assert dev < 0.01


def test_criterion_11d_density_j_other():
    # Known-failing, kept as stated (see module docstring): the family has
    # exactly 4 curves at this cutoff, all representatives, so the ratio
    # is 1.0 and the deviation from 1/zeta(2) is 0.392, far above 0.01.
    ratio = count_representatives_with_j(-3375, CALIBRATED, 10**8) / count_curves_with_j(
        -3375, CALIBRATED, 10**8
    )
    dev = abs(ratio - float(1 / zeta_value(2)))
    ok = dev < 0.01
    _line("11d", ok, f"j=-3375 density at 1e8 off 1/zeta(2) by {dev:.2e}")
    assert dev < 0.01


def test_density_convergence_j_other_large_cutoff():
    # companion check (not an acceptance criterion): once the parameter
    # range is long enough, the j=-3375 representative density does settle
    # at 1/zeta(2)
    ratio = count_representatives_with_j(-3375, CALIBRATED, 10**18) / count_curves_with_j(
        -3375, CALIBRATED, 10**18
    )
    assert abs(ratio - float(1 / zeta_value(2))) < 0.01
