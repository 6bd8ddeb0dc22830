"""CM order table and CM counting tests (reference values frozen from the
exact formulas and hand-checked heights)."""

import math

import pytest

from nhc import cm, exactarith, families
from nhc.cm import (
    CM_ORDERS,
    cm_count_table,
    cm_minimal_table,
    cm_order,
    count_cm_curves,
    count_cm_representatives,
)
from nhc.heights import CALIBRATED, UNCALIBRATED, box

EXPECTED_J = {
    (-3, 1): 0,
    (-3, 2): 54000,
    (-3, 3): -12288000,
    (-4, 1): 1728,
    (-4, 2): 287496,
    (-7, 1): -3375,
    (-7, 2): 16581375,
    (-8, 1): 8000,
    (-11, 1): -32768,
    (-19, 1): -884736,
    (-43, 1): -884736000,
    (-67, 1): -147197952000,
    (-163, 1): -262537412640768000,
}


class TestOrders:
    def test_thirteen(self):
        assert len(CM_ORDERS) == 13
        assert len({o.j for o in CM_ORDERS}) == 13

    def test_pairing(self):
        for (disc, f), j in EXPECTED_J.items():
            assert cm_order(disc, f).j == j
        assert cm_order(-163).j == -262537412640768000
        assert cm_order(-3, 2).j == 2**4 * 3**3 * 5**3

    def test_prime_power_shapes(self):
        assert cm_order(-8).j == 2**6 * 5**3
        assert cm_order(-11).j == -(2**15)
        assert cm_order(-67).j == -(2**15) * 3**3 * 5**3 * 11**3

    def test_unknown_order(self):
        with pytest.raises(KeyError):
            cm_order(-5)


def frobenius_trace(curve, p: int) -> int:
    """a_p = p + 1 - #E(F_p), counting the points of y^2 = x^3 + Ax + B."""
    a, b = curve
    chi = [-1] * p  # the quadratic character mod p
    chi[0] = 0
    for y in range(1, p):
        chi[y * y % p] = 1
    return -sum(chi[(x**3 + a * x + b) % p] for x in range(p))


def frobenius_outside_order(curve, disc: int, f: int) -> list[int]:
    """The primes 5 <= p < 600 of good reduction, prime to f, whose Frobenius
    lies outside the order of discriminant disc * f^2: an inert p with
    a_p != 0, or another p where 4p - a_p^2 is not |disc| f^2 times a square."""
    outside = []
    for p in exactarith._primes_to(600)[2:]:
        if families.discriminant(curve) % p == 0 or f % p == 0:
            continue
        ap = frobenius_trace(curve, p)
        if pow(disc, (p - 1) // 2, p) == p - 1:
            inside = ap == 0
        else:
            q, r = divmod(4 * p - ap * ap, abs(disc) * f * f)
            inside = r == 0 and math.isqrt(q) ** 2 == q
        if not inside:
            outside.append(p)
    return outside


class TestLeastCurvesByPointCounts:
    """The least curves of the table have CM by their order, checked from
    definitions: Frobenius, an element of trace a_p and norm p, lies in it."""

    @pytest.mark.parametrize("order", CM_ORDERS, ids=lambda o: f"{o.disc}:{o.conductor}")
    def test_frobenius_in_the_order(self, order):
        least, _ = families._least_curve(order.j)
        assert frobenius_outside_order(least, order.disc, order.conductor) == []

    @pytest.mark.parametrize("j, disc, f", [(-3375, -8, 1), (16581375, -7, 4)],
                             ids=["wrong-field", "wrong-conductor"])
    def test_wrong_order_fails(self, j, disc, f):
        least, _ = families._least_curve(j)
        assert frobenius_outside_order(least, disc, f) != []


class TestCounts:
    def test_curve_counts(self):
        assert count_cm_curves(CALIBRATED, 10**10) == 41282
        assert count_cm_curves(CALIBRATED, 3) == 0  # below every minimal height

    def test_representative_counts(self):
        assert count_cm_representatives(CALIBRATED, 10**3) == 24
        assert count_cm_representatives(CALIBRATED, 10**6) == 508
        assert count_cm_representatives(CALIBRATED, 27 * 10**9) == 65732

    def test_repeat_builds_no_sieve(self, fresh_sieve):
        # thirteen k-free counts read one shared sieve; a repeat reuses it
        first = count_cm_representatives(CALIBRATED, 10**54)
        sieve = exactarith.moebius_sieve(0)
        assert count_cm_representatives(CALIBRATED, 10**54) == first
        assert exactarith.moebius_sieve(0) is sieve

    def test_one_box_per_cutoff(self, monkeypatch):
        # the thirteen families share the height box of each cutoff
        calls = []

        def counted(spec, bound):
            calls.append(bound)
            return box(spec, bound)

        for module in (cm, families):
            monkeypatch.setattr(module, "box", counted)
        count_cm_curves(CALIBRATED, 10**30)
        assert calls == [10**30]
        calls.clear()
        count_cm_representatives(CALIBRATED, 10**30)
        assert calls == [10**30]
        calls.clear()
        cm_count_table(CALIBRATED, (10**6, 10**10, 10**30))
        assert calls == [10**6, 10**10, 10**30]

    def test_totals_are_row_sums(self):
        table = cm_count_table(CALIBRATED, (10**6, 10**10))
        for i, bound in enumerate(table.bounds):
            assert table.totals[i] == sum(r.counts[i] for r in table.rows)
            assert table.totals[i] == count_cm_curves(CALIBRATED, bound)

    def test_uncalibrated_consistency(self):
        assert count_cm_curves(UNCALIBRATED, 10**6) == sum(
            r.counts[0] for r in cm_count_table(UNCALIBRATED, (10**6,)).rows
        )


class TestTables:
    def test_count_table_spot_entries(self):
        table = cm_count_table(CALIBRATED)
        by_order = {(r.disc, r.conductor): r.counts for r in table.rows}
        assert by_order[(-163, 1)] == (0, 0, 0, 6, 52)
        assert by_order[(-43, 1)][1] == 8  # X = 10^15
        assert by_order[(-3, 1)][4] == 384900179459750  # X = 10^30

    def test_minimal_table_rows(self):
        rows = {(r.disc, r.conductor): r for r in cm_minimal_table(CALIBRATED)}
        r = rows[(-43, 1)]
        assert {tuple(c) for c in r.curves} == {(-3440, 77658), (-3440, -77658)}
        assert r.min_height == 162830654028
        assert rows[(-3, 1)].min_height == 27
        assert rows[(-67, 1)].min_height == 102480782771052

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            cm_count_table(CALIBRATED, ())
