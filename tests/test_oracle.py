"""Census self-tests: fixed small boxes, partition determinism, budget, and
a reference double loop over the definitions."""

import ast
import concurrent.futures
import functools
import inspect
import math
import random
from fractions import Fraction

import pytest

from nhc import heights, oracle
from nhc.heights import CALIBRATED, UNCALIBRATED, HeightSpec, box, height
from nhc.oracle import ScanBudgetError, brute_census, scan_budget

from arith_reference import brute_minimal, curves_with_j


@pytest.fixture
def fake_pool(monkeypatch):
    """A process pool that maps in this process on 3 cores.  The list it
    returns records, for each pool, its max_workers and then its job count."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            pools.append(len(jobs))
            return map(fn, jobs)

    # the pooled branch imports the executor when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    return pools


class TestCensus:
    def test_calibrated_7000_box(self):
        c = brute_census(CALIBRATED, 7000)
        assert c.total_elliptic == 820
        assert c.singular_points == 5
        assert (c.box.x_bound, c.box.y_bound) == (12, 16)

    def test_box_partition_identity(self):
        c = brute_census(UNCALIBRATED, 5000)
        points = (2 * c.box.x_bound + 1) * (2 * c.box.y_bound + 1)
        assert c.total_elliptic + c.singular_points == points

    def test_tiny_boxes(self):
        assert brute_census(UNCALIBRATED, 1).total_elliptic == 8
        c = brute_census(CALIBRATED, 27, tracked_j=[0])
        assert c.per_j[Fraction(0)] == (2, 2)  # y^2 = x^3 +- 1

    def test_repeated_j_counted_once(self):
        c = brute_census(CALIBRATED, 27, tracked_j=[0, Fraction(0), 0])
        assert c.per_j == {Fraction(0): (2, 2)}
        assert list(curves_with_j(Fraction(0), c.box)) == [(0, -1), (0, 1)]

    def test_tracked_j_once_in_first_seen_order(self):
        # verify prints its per-j checks in this order
        c = brute_census(CALIBRATED, 10**6, tracked_j=[1728, 0, Fraction(1728), -3375, 0])
        assert list(c.per_j) == [1728, 0, -3375]
        assert all(type(j) is Fraction for j in c.per_j)
        for j, counts in c.per_j.items():
            assert brute_census(CALIBRATED, 10**6, tracked_j=[j]).per_j[j] == counts

    def test_per_j_with_collection(self):
        c = brute_census(CALIBRATED, 10**6, tracked_j=[-3375])
        assert c.per_j[Fraction(-3375)] == (2, 2)
        assert list(curves_with_j(Fraction(-3375), c.box)) == [(-35, -98), (-35, 98)]

    def test_j0_from_the_a0_column(self):
        # the j = 0 curves are the elliptic points of the A = 0 column, by = 6085
        assert brute_census(CALIBRATED, 10**9, tracked_j=[0]).per_j[0] == (12170, 11964)

    def test_roots(self):
        assert oracle._roots(27, -4 * (-3) ** 3, 2) == (-2, 2)  # (-3, +-2) is singular
        assert oracle._roots(27, -4 * (-3) ** 3, 1) == ()  # ... but past the B edge
        assert oracle._roots(27, -4 * (-4) ** 3, 8) == ()  # 256 / 27 is no integer
        assert oracle._roots(27, 0, 5) == (0,)
        assert oracle._roots(-27, -108, 5) == (-2, 2)

    def test_fractional_j_tracking(self):
        j = Fraction(20, 3)
        c = brute_census(UNCALIBRATED, 10**4, tracked_j=[j])
        tilde, rep = c.per_j[j]
        assert tilde >= 0 and rep <= tilde

    @pytest.mark.parametrize("stripes", [1, 2, 8])
    def test_partition_determinism(self, stripes):
        baseline = brute_census(CALIBRATED, 10**4, tracked_j=[0, 1728, -3375])
        result = brute_census(CALIBRATED, 10**4, tracked_j=[0, 1728, -3375], stripes=stripes)
        assert result == baseline

    def test_stripe_ends_short_of_a_quartic(self):
        # xb = 16, yb = 64: the first of 3 stripes, -16, -13, ..., 14, ends
        # below 2^4, yet its column A = -16 has the twists (-16, 0), (-16, +-64)
        c = brute_census(UNCALIBRATED, 4096, stripes=3)
        assert c.box == (16, 64)
        assert c == brute_census(UNCALIBRATED, 4096, stripes=1)

    def test_parallel_workers_match_serial(self):
        serial = brute_census(UNCALIBRATED, 10**3, tracked_j=[0, -3375])
        parallel = brute_census(
            UNCALIBRATED, 10**3, tracked_j=[0, -3375], stripes=4, workers=2
        )
        assert parallel == serial

    def test_pool_capped_at_cpu_count(self, fake_pool):
        # the stripe count stays as requested; only the pool size is capped
        serial = brute_census(UNCALIBRATED, 10**3, tracked_j=[0, 1728, -3375])
        pooled = brute_census(
            UNCALIBRATED, 10**3, tracked_j=[0, 1728, -3375], stripes=8, workers=64
        )
        assert fake_pool == [3, 8]
        assert pooled == serial

    @pytest.mark.parametrize("cpus, pool_work, pools", [
        (3, lambda work: work // 2, [2, 2]),  # two workers' work: two workers, a stripe each
        (3, lambda work: work // 2 + 1, []),  # short of two workers' work: serial
        (3, lambda work: work // 7, [3, 3]),  # seven workers' work, capped at the cores
        (1, lambda work: work // 7, []),  # one core: never a pool
    ], ids=["two", "below-two", "capped", "one-core"])
    def test_pool_chosen_from_the_box(self, fake_pool, monkeypatch, cpus, pool_work, pools):
        js = [0, 1728, -3375]
        serial = brute_census(UNCALIBRATED, 10**3, tracked_j=js, stripes=1)
        work = (2 * serial.box.x_bound + 1) * (oracle._COLUMN_COST + len(js))
        monkeypatch.setattr(oracle, "_POOL_WORK", pool_work(work))
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        assert brute_census(UNCALIBRATED, 10**3, tracked_j=js) == serial
        assert fake_pool == pools

    def test_workers_alone_set_the_stripes(self, fake_pool):
        brute_census(UNCALIBRATED, 10**3, workers=2)
        assert fake_pool == [2, 2]

    def test_census_imports_no_formula_code(self):
        # the census reads only the primitives and the height box, and the
        # box only the primitives, so neither can call the formulas checked
        assert nhc_imports(inspect.getsource(oracle)) == {"exactarith", "heights"}
        assert nhc_imports(inspect.getsource(heights)) == {"exactarith"}

    def test_import_reader_sees_every_form(self):
        source = """
import math, nhc, nhc.cm
from fractions import Fraction
from .exactarith import iroot
from . import families
from nhc.heights import box
from nhc import asymptotics
def f():
    from .cuspidal import cubic_param
"""
        assert nhc_imports(source) == {"nhc", "cm", "exactarith", "families", "heights",
                                       "asymptotics", "cuspidal"}


def nhc_imports(source: str) -> set[str]:
    """The nhc modules that a module's source imports, relatively or by name
    ("nhc" for the package itself)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x / from . import x
            found.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nhc":
            found.update([node.module.split(".")[1]] if "." in node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] if "." in alias.name else alias.name
                         for alias in node.names if alias.name.split(".")[0] == "nhc")
    return found


def _listed_twists(a: int, by: int) -> int:
    """How many B in [-by, by] make (A, B) an elliptic twist, from listed
    multiples of the moduli: the p^6 with p^4 | A, or every p^6 <= by when
    A = 0.  The twists are symmetric in B, so only B > 0 is listed; the
    multiples of the smallest modulus are counted, and those of the others
    listed only off them, which keeps the set small at A = 0."""
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    mods = [p**6 for p in primes if (a % p**4 == 0 if a else p**6 <= by)]
    if not mods:
        return 0
    q0 = mods[0]
    listed = {b for q in mods[1:] for b in range(q, by + 1, q) if b % q0}
    # the singular points are (-3m^2, +-2m^3)
    singular = {s * 2 * m**3 for m in range(math.isqrt(abs(a)) + 1) if -3 * m * m == a
                for s in (1, -1) if 2 * m**3 <= by}
    twisted_singular = sum(any(b % q == 0 for q in mods) for b in singular)
    return 1 + 2 * (by // q0 + len(listed)) - twisted_singular


class TestTwistCount:
    """The census counts each column's twists by inclusion-exclusion; the
    reference lists them."""

    @staticmethod
    def counted(a: int, by: int) -> int:
        twisted, singular, untwisted_singular = oracle._scan_stripe((range(a, a + 1), by, ()))
        return twisted - (singular - untwisted_singular)

    @pytest.mark.parametrize(
        "a, by",
        [
            (0, 23**6 + 4321),  # nine moduli, 2^6 ... 23^6
            (0, 23**6),  # by on the largest modulus
            (0, 64 * 729),  # by on the product of two
            (0, 63),  # no modulus: (0, 0) is singular, and nothing else twists
            (1296, 10**6),  # 2^4 3^4 | A: two moduli
            (-810000, 10**6),  # 2^4 3^4 5^4 | A: three moduli
            (810000, 3 * 64 * 15625),  # by on a multiple of 2^6 5^6
            (810000, 729 * 7),
            (1296, 63),  # by < 2^6: only B = 0
            (-16 * 17**4, 10**5),  # 17^6 > by: B = 0 and the multiples of 2^6
            (-3888, 93312),  # (-3888, +-93312) is singular, and 2^6 | 93312
            (-3888, 93311),
            (-625, 3 * 15625),  # |A| = 5^4 itself
            (5, 10**6),  # no p^4 divides A
        ],
    )
    def test_listed_columns(self, a, by):
        assert self.counted(a, by) == _listed_twists(a, by)

    def test_seeded_random_columns(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.choice((1, 16, 81, 625, 1296, 810000, 3 * 16, 3 * 1296)) * rng.randint(-400, 400)
            if rng.random() < 0.2:  # a singular column A = -3m^2
                a = -3 * (rng.choice((2, 3, 6, 10)) * rng.randint(1, 30)) ** 2
            q = rng.choice((64, 729, 15625, 64 * 729))
            by = rng.choice((rng.randint(1, 2 * 10**5), q * rng.randint(1, 20), q - 1))
            assert self.counted(a, by) == _listed_twists(a, by), (a, by)

    @pytest.mark.parametrize("a", [10007**4, -(10007**4)])
    def test_quartic_of_a_prime_past_ten_thousand(self, a):
        # 10007 is the least prime past 10^4: its twists are B = 0 and +-10007^6
        p6 = 10007**6
        assert oracle._scan_stripe((range(a, a + 1), p6, ())) == (3, 0, 0)

    @pytest.mark.parametrize("a", [1, -2, 5, -5, 3375])
    def test_generic_column_adds_nothing(self, a):
        # no p^4 divides A and A is no -3m^2: the column has no twist and no
        # singular point, so all its 2 by + 1 points are representatives
        assert oracle._scan_stripe((range(a, a + 1), 10**6, ())) == (0, 0, 0)

    def test_zero_column_past_ten_thousand(self):
        # raising by to 10007^6 adds B = +-10007^6, both multiples of that sixth power
        assert self.counted(0, 10007**6) - self.counted(0, 10007**6 - 1) == 2


def _is_twist(a: int, b: int) -> bool:
    """Some d >= 2 has d^4 | A and d^6 | B; a nonzero coordinate bounds d."""
    d = 2
    while (a == 0 or d**4 <= abs(a)) and (b == 0 or d**6 <= abs(b)):
        if a % d**4 == 0 and b % d**6 == 0:
            return True
        d += 1
    return False


@functools.cache
def _reference_census(spec: HeightSpec, bound: int, tracked: tuple[Fraction, ...]) -> dict:
    """A plain double loop over the region height <= bound, classifying each
    point from the definitions only."""
    b = box(spec, bound)
    singular = elliptic = reps = 0
    per_j = {j: [0, 0] for j in tracked}
    curves = {j: [] for j in tracked}
    for a in range(-b.x_bound - 1, b.x_bound + 2):
        for bb in range(-b.y_bound - 1, b.y_bound + 2):
            if height(spec, (a, bb)) > bound:
                continue
            s = 4 * a**3 + 27 * bb**2
            if s == 0:
                singular += 1
                continue
            elliptic += 1
            rep = not _is_twist(a, bb)
            reps += rep
            j = Fraction(6912 * a**3, s)
            if j in per_j:
                per_j[j][0] += 1
                per_j[j][1] += rep
                curves[j].append((a, bb))
    return {
        "singular_points": singular,
        "total_elliptic": elliptic,
        "total_representatives": reps,
        "per_j": {j: tuple(v) for j, v in per_j.items()},
        "curves_by_j": curves,
    }


def _random_j(spec: HeightSpec, bound: int, seed: int, n: int) -> list[Fraction]:
    rng = random.Random(seed)
    b = box(spec, bound)
    out = []
    while len(out) < n:
        a = rng.randint(-b.x_bound, b.x_bound)
        bb = rng.randint(-b.y_bound, b.y_bound)
        s = 4 * a**3 + 27 * bb**2
        if s:
            out.append(Fraction(6912 * a**3, s))
    return out


class TestCensusAgainstDefinitions:
    """``brute_census`` against a double loop that uses only the definitions:
    singular iff 4A^3 + 27B^2 = 0, a twist iff some d >= 2 has d^4 | A and
    d^6 | B, and j = 6912 A^3 / (4A^3 + 27B^2)."""

    CASES = [
        (CALIBRATED, 3 * 10**5),
        (UNCALIBRATED, 5 * 10**4),
        (HeightSpec(Fraction(1, 100), Fraction(1)), 10**4),
        (HeightSpec(Fraction(3, 2), Fraction(5, 7)), 7 * 10**4),
        # by = 729: the A = 0 column has two spoilers, 2^6 and 3^6
        (HeightSpec(Fraction(531441, 42875), Fraction(1)), 531441),
    ]

    @staticmethod
    def check(spec, bound, stripes) -> dict:
        """Assert that the census equals the reference loop; return the
        reference counts."""
        tracked = (Fraction(0), Fraction(1728), Fraction(-3375), Fraction(20, 3),
                   *_random_j(spec, bound, seed=bound, n=4))
        tracked = tuple(dict.fromkeys(tracked))
        want = _reference_census(spec, bound, tracked)
        got = brute_census(spec, bound, tracked_j=tracked, stripes=stripes)
        assert got.singular_points == want["singular_points"]
        assert got.total_elliptic == want["total_elliptic"]
        assert got.total_representatives == want["total_representatives"]
        assert got.per_j == want["per_j"]
        curves = {j: list(curves_with_j(j, got.box)) for j in tracked}
        assert curves == want["curves_by_j"]
        assert all(want["per_j"][j][0] for j in tracked[4:])
        return want

    @pytest.mark.parametrize("stripes", [1, 3])
    @pytest.mark.parametrize(
        "spec, bound", CASES, ids=["cal", "ncal", "1/100,1", "3/2,5/7", "531441/42875,1"]
    )
    def test_matches_reference_loop(self, spec, bound, stripes):
        assert self.check(spec, bound, stripes)["per_j"][Fraction(-3375)][0]

    # Boxes for the singular solve 27 B^2 = -4 A^3, whose points are
    # (-3m^2, +-2m^3).
    SINGULAR_CASES = [
        # xb = 66, yb = 54 = 2 * 3^3: (-27, +-54) lies on the B edge
        (HeightSpec(Fraction(1, 100), Fraction(1)), 2916, 7),
        # xb = 500, yb = 10: 50 times as many columns as rows; the columns
        # A = -3m^2 with m >= 2 have their roots 2m^3 past the B edge
        (HeightSpec(Fraction(1, 1250000), Fraction(1)), 100, 3),
        # xb = 4, yb = 8: at A = -4, -4A^3 = 256 = 16^2 is not a multiple
        # of 27, yet floor(256 / 27) = 9 = 3^2 and B = +-3 is in the box
        (UNCALIBRATED, 64, 3),
    ]

    @pytest.mark.parametrize("stripes", [1, 3])
    @pytest.mark.parametrize(
        "spec, bound, singular", SINGULAR_CASES, ids=["B-edge", "skewed", "A=-4"]
    )
    def test_singular_solve_matches_reference_loop(self, spec, bound, singular, stripes):
        assert self.check(spec, bound, stripes)["singular_points"] == singular


class TestBudget:
    def test_refusal_with_estimate(self):
        with pytest.raises(ScanBudgetError, match="lattice points"):
            brute_census(CALIBRATED, 10**12)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NHC_ORACLE_CAP", "50")
        assert scan_budget() == 50
        with pytest.raises(ScanBudgetError):
            brute_census(CALIBRATED, 7000)
        monkeypatch.setenv("NHC_ORACLE_CAP", "10000")
        assert brute_census(CALIBRATED, 7000).total_elliptic == 820

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
    def test_bad_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("NHC_ORACLE_CAP", value)
        with pytest.raises(ValueError, match="NHC_ORACLE_CAP"):
            scan_budget()

    def test_default_budget_allows_large_boxes(self):
        assert scan_budget() > 10**8


class TestBruteMinimal:
    def test_examples(self):
        found = brute_minimal(-3375, CALIBRATED, 10**6)
        assert found is not None
        pair, h = found
        assert set(pair) == {(-35, 98), (-35, -98)}
        assert h == 259308

        assert brute_minimal(54000, CALIBRATED, 10**4) is None  # min height 13500

        found = brute_minimal(0, CALIBRATED, 30)
        assert found == (((0, 1), (0, -1)), 27)

    def test_matches_formula(self):
        from nhc.families import minimal_curves

        for j in (54000, 287496, 8000):
            pair, h = brute_minimal(j, CALIBRATED, 10**6)
            curves, expected_h = minimal_curves(j, CALIBRATED)
            assert h == expected_h
            assert set(pair) == {tuple(c) for c in curves}
