"""Arithmetic substrate tests.

Reference values come from independent routes: a trial-division Moebius
table, an incremental k-free sieve, and hand-checkable factorizations.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nhc
from nhc import exactarith, families, oracle
from nhc.cuspidal import cubic_param
from nhc.exactarith import (
    ScanBudgetError,
    count_kfree,
    factorize_rational,
    floor_rational_root,
    iroot,
    is_prime,
    moebius_sieve,
    moebius_sum,
    power_part,
)

from arith_reference import (
    count_kfree_by_powers,
    count_kfree_direct,
    cubic_param_by_factoring,
    is_kfree,
    mu_by_trial_division,
    ord_p,
    twist_scale_by_factoring,
)


class TestFactorize:
    def test_one_is_empty_product(self):
        f = factorize_rational(1)
        assert f.sign == 1 and f.factors == {}
        assert f.value() == 1

    def test_hand_factored(self):
        f = factorize_rational(-209088)  # -2^6 3^3 11^2 by hand
        assert f.sign == -1
        assert f.factors == {2: 6, 3: 3, 11: 2}

    def test_conductor_shape(self):
        assert factorize_rational(425104).factors == {2: 4, 163: 2}

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="0 has no prime factorization"):
            factorize_rational(0)
        with pytest.raises(ValueError, match="0 has no prime factorization"):
            factorize_rational(Fraction(0, 7))

    @given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0))
    def test_round_trip(self, n):
        f = factorize_rational(n)
        assert f.value() == n
        assert list(f.factors) == sorted(f.factors)
        assert all(is_prime(p) for p in f.factors)
        assert all(e >= 1 for e in f.factors.values())

    def test_round_trip_large(self):
        for n in (9873093538, 2631905352272628650988, -(2**18) * 3**3 * 5**3 * 23**3 * 29**3):
            assert factorize_rational(n).value() == n

    @pytest.mark.parametrize("p, e", [(10007, 3), (1000003, 7), (10**16 + 61, 2), (10**16 + 61, 6)])
    def test_prime_powers_never_reach_rho(self, monkeypatch, p, e):
        def no_rho(m):
            raise AssertionError(f"rho ran on {m}")

        monkeypatch.setattr(exactarith, "_pollard_rho", no_rho)
        assert factorize_rational(-7 * p**e).factors == {7: 1, p: e}

    def test_rho_budget_counts_every_retry(self, monkeypatch):
        # 703 = 19 * 37: x^2 + 1 collapses after 15 evaluations (batches of
        # 1, 2 and 4 after advances of 1, 2 and 4 reach gcd 703, and so does
        # the first replayed step), and x^2 + 2 splits off 19 after 6 more
        monkeypatch.setattr(exactarith, "_RHO_BUDGET", 21)
        assert exactarith._pollard_rho(703) == 19
        monkeypatch.setattr(exactarith, "_RHO_BUDGET", 20)
        with pytest.raises(ScanBudgetError, match="budget of 20 Pollard rho steps"):
            exactarith._pollard_rho(703)

    def test_rho_budget_scaled_past_61_digits(self, monkeypatch):
        # x^2 + 1 splits 19 * q, for a large prime q, after a number of
        # evaluations that depends on 19 alone: counted on 52 digits, where
        # the budget is full, and then spent on 82 digits, where it is
        # scaled by (61 / 82)^2
        short, long = 19 * next_prime(10**50), 19 * next_prime(10**80)
        assert (len(str(short)), len(str(long))) == (52, 82)
        evaluations = 1
        while True:
            monkeypatch.setattr(exactarith, "_RHO_BUDGET", evaluations)
            try:
                assert exactarith._pollard_rho(short) == 19
                break
            except ScanBudgetError:
                evaluations += 1
        for budget in (evaluations, evaluations - 1):
            full = -(-budget * 82**2 // 61**2)  # the least full budget scaled to budget
            assert full * 61**2 // 82**2 == budget < full
            monkeypatch.setattr(exactarith, "_RHO_BUDGET", full)
            if budget == evaluations:
                assert exactarith._pollard_rho(long) == 19
            else:
                with pytest.raises(ScanBudgetError, match=f"82-digit composite exceeds the budget of {budget} "):
                    exactarith._pollard_rho(long)

    def test_composite_power_split_once(self, monkeypatch):
        # the exact root of (pq)^e is split once, and p and q are divided out
        # e times from the whole; splitting each of e copies took e rho runs.
        # twist_decompose then walks gcd(A, B) once, from the start, and
        # splits pq once more
        p, q = 10000000019, 20000000089
        rho, calls = exactarith._pollard_rho, []
        monkeypatch.setattr(exactarith, "_pollard_rho", lambda m: calls.append(m) or rho(m))
        assert factorize_rational((p * q) ** 3).factors == {p: 3, q: 3}
        assert calls == [p * q]
        assert families.twist_decompose(((p * q) ** 4 * 5, (p * q) ** 6 * 7)) == (p * q, (5, 7))
        assert calls == [p * q] * 2

    @pytest.mark.parametrize("n, factors", [
        (-(2**3) * 10007**2 * 42083 * 342863 * 999999937,
         {2: 3, 10007: 2, 42083: 1, 342863: 1, 999999937: 1}),
        (10007**3 * 9973, {9973: 1, 10007: 3}),
        (2631905352272628650988, {2: 2, 3: 3, 7: 2, 11: 2, 19: 2, 127: 2, 163: 4}),
        (999999937 * 999999929, {999999929: 1, 999999937: 1}),
    ])
    def test_factored_by_construction(self, n, factors):
        f = factorize_rational(n)
        assert f == (1 if n > 0 else -1, factors) and list(f.factors) == list(factors)

    def test_refusal_independent_of_history(self):
        # p * q is past rho's budget in any state; splitting p * s1 and
        # q * s2 first, as a fixed j whose a(j) holds them would, changes
        # nothing
        p, q = next_prime(10**13), next_prime(3 * 10**13)
        s1, s2 = next_prime(10**6 + 3), next_prime(2 * 10**6)
        with pytest.raises(ScanBudgetError, match="27-digit composite") as fresh:
            factorize_rational(p * q)
        assert factorize_rational(p * s1).factors == {s1: 1, p: 1}
        assert factorize_rational(q * s2).factors == {s2: 1, q: 1}
        with pytest.raises(ScanBudgetError) as after:
            factorize_rational(p * q)
        assert str(after.value) == str(fresh.value)

    def test_rational(self):
        f = factorize_rational(Fraction(-4, 27))
        assert f.sign == -1 and f.factors == {2: 2, 3: -3}
        assert f.value() == Fraction(-4, 27)


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


class TestBrentRho:
    @pytest.mark.parametrize("n,factor,evaluations", [
        (10007**2, 10007, 129),
        (10007**3, 10007, 129),
        (42083 * 342863, 42083, 276),
    ], ids=["p^2", "p^3", "one-batch pair"])
    def test_batch_replay(self, monkeypatch, n, factor, evaluations):
        # each batch gcd reaches n, and replaying it one step per gcd splits
        # n with x^2 + 1: a collapse instead would need more evaluations
        monkeypatch.setattr(exactarith, "_RHO_BUDGET", evaluations)
        assert exactarith._pollard_rho(n) == factor
        monkeypatch.setattr(exactarith, "_RHO_BUDGET", evaluations - 1)
        with pytest.raises(ScanBudgetError):
            exactarith._pollard_rho(n)

    @pytest.mark.parametrize("seed", range(12))
    def test_proper_divisor(self, seed):
        rng = random.Random(seed)
        primes = [next_prime(rng.randrange(10**4, 10**9)) for _ in range(5)]
        for n in (primes[0] * primes[1], primes[2] * primes[3] * primes[4]):
            d = exactarith._pollard_rho(n)
            assert 1 < d < n and n % d == 0


def prev_prime(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def cofactors_at_the_runs_end() -> list[tuple[int, tuple[int, ...]]]:
    """Integers free of primes up to 10^6 on either side of 10^(6(k+1)),
    where the primes up to the (k+1)-th root stop settling the k-th power
    part, then the named edges: p^2 beside 10^6, p^3 beside 10^4, three
    11-digit primes, whose power part needs rho, and p^k q for the
    two primes p < q on each side of 10^5, where the runs up to 10^5 must
    reach p, or must not be taken for it.  Each comes with its primes."""
    cases = []
    for k in (2, 3, 4):
        t = 10 ** (6 * (k + 1))
        below, above = prev_prime(iroot(t, k)), next_prime(iroot(t, k) + 1)
        q_below, q_above = prev_prime(t // 1000003), next_prime(t // 1000003)
        cases += [
            (below**k, (below,)),
            (1000003 * q_below, (1000003, q_below)),
            (above**k, (above,)),
            (1000003 * q_above, (1000003, q_above)),
            (1000003 ** (k + 1), (1000003,)),
        ]
    cases += [(p**k * q, (p, q)) for p, q in ((99989, 99991), (100003, 100019)) for k in (2, 3, 4)]
    cases += [(p**e, (p,)) for p, e in ((999983, 2), (1000003, 2), (10007, 3))]
    primes = (10000000019, 30000000001, 70000000033)
    return cases + [(math.prod(primes), primes)]


def factors_from(n: int, primes: tuple[int, ...]) -> dict[int, int]:
    """The prime exponents of n != 0, increasing: the given primes are
    divided out, and what is left must be small enough to trial-divide."""
    out, rest = {}, abs(n)
    for p in primes:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    d = 2
    while d * d <= rest:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return dict(sorted(out.items()))


class TestPowerPart:
    """factorize_rational and the power parts against the primes each case is built
    from, and cubic_param and the twist scale against the referees, which read
    the exponents over those primes and never walk."""

    @staticmethod
    def check(n: int, primes: tuple[int, ...]) -> None:
        full = factors_from(n, primes)
        f = factorize_rational(n)
        assert f == (1 if n > 0 else -1, full) and list(f.factors) == list(full)
        for k in (1, 2, 3, 4):  # at k = 1 the power part is |n|
            expected = {p: e // k for p, e in full.items() if e >= k}
            found = exactarith._power_factors(n, k)
            assert found == expected and list(found) == list(expected)
            assert power_part(n, k) == math.prod(p**e for p, e in expected.items())
        known = (*full, 2, 3, 5, 7)  # with the primes of the multipliers below
        for a in Fraction(n, 7), Fraction(-7 * 5**4, n):
            assert cubic_param(a) == cubic_param_by_factoring(a, known)
        for a, b in (n, 6 * n), (-(2**8) * n, 0), (0, n), (n**2, n**2), (n**2, 3 * n**3):
            assert power_part(a, 4, b, 6) == twist_scale_by_factoring(a, b, known)

    @pytest.mark.parametrize("n, k", [(0, 4), (0, 1), (12, 0), (-12, -2)])
    def test_rejects_zero_and_k_below_one(self, n, k):
        # every m^k divides 0, and every n has m^0 = 1 | n for all m: no largest m
        with pytest.raises(ValueError):
            power_part(n, k)

    @pytest.mark.parametrize("args", [
        (0, 4, 0, 6), (12, 4, 18), (12, 4, 18, 6, 5), (12, 4, 18, 0), (12, -1, 18, 6), (0, 0, 18, 6),
    ])
    def test_rejects_zeros_odd_pairs_and_k_below_one(self, args):
        # further pairs too: all n zero, an n without its k, or a k < 1 (of a
        # zero n as well)
        with pytest.raises(ValueError):
            power_part(*args)

    @pytest.mark.parametrize("n", [
        2**9 * 3**13 * 10007**5 * 999983**6, -(5**24) * 10000000019**6 * 7, 10000000019**4 * 1000003**7,
    ], ids=["below-the-runs-end", "one-prime-past", "two-primes-past"])
    def test_zero_bounds_nothing(self, n):
        # every power divides 0: (A, 0) leaves the fourth power part of A,
        # and (0, B) the sixth power part of B
        assert power_part(n, 4, 0, 6) == power_part(n, 4) == power_part(0, 6, n, 4)
        assert power_part(0, 4, n, 6) == power_part(n, 6)

    def test_seeded_twists(self):
        # d^4 A0 and d^6 B0, with d one or two primes in [10^6, 10^9]; A0 and
        # B0 carry those primes too, up to p^3 and p^5 (gcd(A, B) stays
        # below about 100 digits, well within rho's budget), and A0 = 0 once
        # in ten curves
        rng = random.Random(34)
        pool = [next_prime(rng.randrange(10**6, 10**9)) for _ in range(6)]
        for _ in range(30):
            d = math.prod(rng.sample(pool, rng.randint(1, 2)))
            a0, b0 = (rng.choice((1, -1)) * rng.randint(1, 10**4) * rng.choice(pool) ** rng.randint(0, e)
                      for e in (3, 5))
            if rng.random() < 0.1:
                a0 = 0
            a, b = d**4 * a0, d**6 * b0
            scale = power_part(a, 4, b, 6)
            assert scale == twist_scale_by_factoring(a, b, (*pool, *factors_from(math.gcd(a, b), tuple(pool))))
            assert scale % d == 0

    def test_rescued_twist(self):
        # the one walk of gcd(A, B) = p^12 q^8 r^2 splits p, q and r within
        # rho's budget; walking the 272-digit gcd(B, P^6) = p^18 q^11, with
        # P = p^3 q^2, as well would exceed its budget of 42,849 steps
        p, q, r = 61036883, 845413726897, 60638129
        a, b = -130 * p**12 * q**8 * r**2, 531 * p**18 * q**11 * r**2
        assert power_part(a, 4, b, 6) == p**3 * q
        assert families.twist_decompose((a, b)) == (p**3 * q, (-130 * q**4 * r**2, 531 * q**5 * r**2))

    CASES = cofactors_at_the_runs_end()

    @pytest.mark.parametrize("n, primes", CASES, ids=[str(n) for n, _ in CASES])
    def test_cofactors_at_the_runs_end(self, n, primes):
        for small in 1, -(2**5) * 3**7 * 10007**2 * 999983**4:
            self.check(small * n, primes + (10007, 999983))  # 2 and 3 by trial division

    @pytest.mark.parametrize("n,built", [
        (4 * 10000000027583, []),  # a 14-digit prime is settled at once
        (4 * 10012351 * 30010241, [10**5]),  # its cube root is 66,950
        (4 * 1000012361 * 3000004999, [10**6]),  # past the runs: rho
    ])
    def test_runs_built_as_far_as_needed(self, monkeypatch, n, built):
        calls = []
        runs = exactarith._prime_runs
        monkeypatch.setattr(exactarith, "_prime_runs", lambda hi: calls.append(hi) or runs(hi))
        assert exactarith._power_factors(n, 2) == {2: 1}
        assert calls == built

    def test_random_products(self):
        rng = random.Random(27)
        pools = (
            (2, 3, 5, 7, 9973),
            (10007, 999983, *(next_prime(rng.randrange(10**4, 10**6)) for _ in range(8))),
            (1000003, *(next_prime(rng.randrange(10**6, 10**9)) for _ in range(8))),
        )
        primes = tuple(p for pool in pools for p in pool)
        for _ in range(100):
            factors = (rng.choice(rng.choice(pools)) ** rng.randint(1, 7) for _ in range(rng.randint(0, 6)))
            self.check(rng.choice((1, -1)) * math.prod(factors), primes)


class TestOrdP:
    @pytest.mark.parametrize(
        "q,p,expected",
        [
            (Fraction(-4, 27), 3, -3),
            (Fraction(-4, 27), 2, 2),
            (Fraction(-4, 27), 5, 0),
            (Fraction(63, 20), 7, 1),
            (12, 2, 2),
        ],
    )
    def test_values(self, q, p, expected):
        assert ord_p(q, p) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            ord_p(Fraction(0), 2)
        with pytest.raises(ValueError):
            ord_p(Fraction(5), 6)


def mu_by_factorize(n: int) -> int:
    exponents = factorize_rational(n).factors.values()
    if any(e > 1 for e in exponents):
        return 0
    return -1 if len(exponents) % 2 else 1


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_small_against_trial_division(self):
        # every n up to 41 and every multiple of a witness ends in the pre-check
        for n in range(-5, 10**4 + 1):
            assert is_prime(n) == is_prime_by_trial_division(n), n

    @pytest.mark.parametrize("n, prime, rounds", [
        ((10**15 + 37) * (10**15 + 91), False, 1),
        (2**89 - 1, True, exactarith._MR_RANDOM_ROUNDS),
    ], ids=["composite", "mersenne-prime"])
    def test_seeded_witnesses_drawn_until_one_proves(self, monkeypatch, n, prime, rounds):
        # past the deterministic bound the seeded witnesses are drawn one at
        # a time: a composite stops at the first that proves it, a prime
        # draws all of them
        drawn = []

        class CountingRandom(random.Random):
            def randrange(self, *args):
                drawn.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(exactarith.random, "Random", CountingRandom)
        assert is_prime(n) is prime
        assert len(drawn) == rounds


class TestMoebius:
    def test_examples(self):
        sieve = moebius_sieve(30)
        assert (sieve[1], sieve[12], sieve[30]) == (1, 0, -1)

    def test_against_trial_division_table(self):
        sieve = moebius_sieve(10**4)
        for n in range(1, 10**4 + 1):
            assert sieve[n] == mu_by_trial_division(n)
        for n in range(1, 500):
            assert mu_by_factorize(n) == sieve[n]

    def test_read_only(self, fresh_sieve):
        # every count reads the one shared sieve: a caller's write would
        # change them all for the rest of the process
        counts = (607926, 4844620043512178762230798)
        with pytest.raises(TypeError):
            moebius_sieve(10**4)[4] = 1
        assert moebius_sieve(10**4)[4] == 0
        assert (count_kfree(10**6, 2), families.count_representatives(nhc.CALIBRATED, 10**30)) == counts

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError, match="limit >= 0"):
            moebius_sieve(-3)

    def test_sieve_budget(self, fresh_sieve, monkeypatch):
        monkeypatch.setattr(exactarith, "_SIEVE_BUDGET", 100)
        assert moebius_sieve(100)[100] == 0
        with pytest.raises(ScanBudgetError, match="budget of 100 entries"):
            moebius_sieve(101)

    def test_budget_checked_before_reuse(self, fresh_sieve, monkeypatch):
        assert len(moebius_sieve(200)) == 201
        monkeypatch.setattr(exactarith, "_SIEVE_BUDGET", 100)
        with pytest.raises(ScanBudgetError, match="budget of 100 entries"):
            moebius_sieve(150)

    def test_grows_only_past_its_end(self, fresh_sieve):
        small = moebius_sieve(30)
        assert len(small) == 31
        assert len(moebius_sieve(40)) == 41  # rebuilt to the limit, no growth factor
        big = moebius_sieve(10**3)
        assert len(big) == 10**3 + 1
        assert big[: len(small)] == small
        assert moebius_sieve(30) is big
        assert moebius_sieve(10**3) is big
        assert all(big[n] == mu_by_trial_division(n) for n in range(1, 10**3 + 1))

    @pytest.mark.parametrize("limit", range(65))
    def test_fresh_build_at_every_small_limit(self, fresh_sieve, limit):
        # empty slices, p^2 past the limit, and limits 0 and 1
        assert exactarith._prime_flags(limit) == bytes(
            is_prime_by_trial_division(n) for n in range(limit + 1)
        )
        sieve = moebius_sieve(limit)
        assert len(sieve) == limit + 1
        assert [sieve[n] for n in range(1, limit + 1)] == [
            mu_by_trial_division(n) for n in range(1, limit + 1)
        ]

    def test_small_primes(self):
        assert exactarith._small_primes() == tuple(
            n for n in range(10**4 + 1) if is_prime_by_trial_division(n)
        )

    def test_build_peak_memory(self, fresh_sieve):
        # a table of bytes built with slices of bytes: under 5 bytes per entry
        tracemalloc.start()
        try:
            moebius_sieve(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10**5

    def test_budget_error_is_shared(self):
        assert nhc.ScanBudgetError is oracle.ScanBudgetError is ScanBudgetError


class TestKfree:
    def test_examples(self):
        assert is_kfree(6, 2)
        assert not is_kfree(64, 6)
        assert is_kfree(-32, 6)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            is_kfree(6, 1)


class TestIroot:
    @pytest.mark.parametrize("n,k,expected", [(7000, 6, 4), (0, 3, 0), (10**30, 2, 10**15)])
    def test_examples(self, n, k, expected):
        assert iroot(n, k) == expected

    def test_small_grid(self):
        for n in range(0, 3000):
            for k in (2, 3, 6):
                m = iroot(n, k)
                assert m**k <= n < (m + 1) ** k

    @given(st.integers(min_value=0, max_value=10**36), st.integers(min_value=1, max_value=12))
    def test_defining_property(self, n, k):
        m = iroot(n, k)
        assert m >= 0
        assert m**k <= n < (m + 1) ** k

    def test_float_newton_switch(self):
        # the float seed serves roots below 2^48 (and n below 2^1023), Newton
        # the rest; both are certified, also next to the switch
        cases = []
        for k in range(3, 13):
            for bits in (48 * k - 1, 48 * k, 48 * k + 1):
                cases += [(2 ** (bits - 1), k), (2**bits - 1, k)]
        for k in (3, 4, 6, 7, 12):
            for base in (2**48, 2**53):
                for m in range(base - 2, base + 3):
                    cases += [(m**k + e, k) for e in (-1, 0, 1)]
        for k in (3, 7, 20, 21, 22, 25, 40):
            for n in (10**300, 2**1023, 2**1024, 10**309):
                cases += [(n + e, k) for e in (-1, 0, 1)]
        for n, k in cases:
            m = iroot(n, k)
            assert m**k <= n < (m + 1) ** k, (n, k)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="n >= 0"):
            iroot(-1, 3)
        with pytest.raises(ValueError, match="k >= 1"):
            iroot(8, 0)

    def test_exact_powers(self):
        for base in (2, 3, 10, 163, 10**6 + 3):
            for k in (2, 3, 5, 6, 12):
                assert iroot(base**k, k) == base
                assert iroot(base**k - 1, k) == base - 1
                assert iroot(base**k + 1, k) == base


class TestFloorRationalRoot:
    @pytest.mark.parametrize(
        "q,k,expected",
        [
            (Fraction(27), 2, 5),
            (Fraction(1, 2), 6, 0),
            (Fraction(7000, 27), 2, 16),  # 16^2 = 256 <= 7000/27 < 17^2
        ],
    )
    def test_examples(self, q, k, expected):
        assert floor_rational_root(q, k) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="q >= 0"):
            floor_rational_root(Fraction(-1, 2), 2)

    @given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=8))
    def test_agrees_with_iroot_on_integers(self, n, k):
        assert floor_rational_root(Fraction(n), k) == iroot(n, k)

    @given(
        st.fractions(min_value=0, max_value=10**9),
        st.fractions(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=8),
    )
    def test_monotone(self, q1, q2, k):
        lo, hi = min(q1, q2), max(q1, q2)
        assert floor_rational_root(lo, k) <= floor_rational_root(hi, k)

    @given(st.fractions(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=8))
    def test_defining_property(self, q, k):
        m = floor_rational_root(q, k)
        assert Fraction(m) ** k <= q < Fraction(m + 1) ** k


class TestCountKfree:
    def test_examples(self):
        assert count_kfree(10, 2) == 7  # {1,2,3,5,6,7,10}
        assert count_kfree(0, 2) == 0
        assert count_kfree(100, 2) == 61  # brute-force squarefree sieve

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="limit >= 0"):
            count_kfree(-1, 2)
        with pytest.raises(ValueError, match="k >= 2"):
            count_kfree(10, 1)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_against_incremental_scan(self, k):
        running = 0
        for m in range(1, 10**4 + 1):
            if is_kfree(m, k):
                running += 1
            assert count_kfree(m, k) == running

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_block_boundaries(self, k):
        # floor(M / d^k) changes where M crosses a k-th power, and the number
        # of blocks where it crosses a (k+1)-th power
        for m in range(1, 400):
            for limit in (m**k - 1, m**k, m**k + 1, m ** (k + 1) - 1, m ** (k + 1), m ** (k + 1) + 1):
                assert count_kfree(limit, k) == count_kfree_direct(limit, k), (limit, k)

    @given(st.sampled_from([2, 3, 4, 6]), st.integers(min_value=0, max_value=10**30))
    def test_against_direct_sum(self, k, limit):
        limit %= 10 ** (5 * k) + 1  # at most 10^5 terms for the direct sum
        assert count_kfree(limit, k) == count_kfree_direct(limit, k)

    def test_mertens_prefix_follows_the_sieve(self, fresh_sieve):
        expected = count_kfree_direct(10**12, 4)
        assert count_kfree(10**12, 4) == expected
        assert len(exactarith._mertens) == 1001  # read up to 10^(12/4)
        assert list(exactarith._mertens) == [0, *accumulate(moebius_sieve(0)[1:1001])]
        sieve = moebius_sieve(5000)  # a rebuilt sieve keeps the prefix, and the prefix stays its sum
        assert len(exactarith._mertens) == 1001
        assert list(exactarith._mertens) == [0, *accumulate(sieve[1:1001])]
        assert count_kfree(10**12, 4) == expected
        assert len(exactarith._mertens) == 1001
        assert count_kfree(10**16, 4) == count_kfree_direct(10**16, 4)  # a second rebuild, read past it
        assert list(exactarith._mertens) == [0, *accumulate(moebius_sieve(0)[1:10001])]

    @pytest.mark.parametrize("k, digits", [(2, 11), (4, 16), (6, 16)])
    def test_against_power_recursion(self, k, digits):
        # a referee with no Moebius function and no sieve
        rng = random.Random(k)
        for _ in range(60):
            limit = int(10 ** rng.uniform(0, digits))
            assert count_kfree(limit, k) == count_kfree_by_powers(limit, k), (limit, k)

    def test_power_recursion_across_a_rebuild(self, fresh_sieve):
        # the prefix read to 1000, the sieve rebuilt past its end, then
        # counts below the old prefix, past it within the sieve, and past
        # the sieve
        assert count_kfree(10**12, 4) == count_kfree_by_powers(10**12, 4)
        moebius_sieve(5000)
        for limit, k in (10**11, 4), (10**7, 2), (10**14, 4), (10**10, 2), (10**12 - 1, 4):
            assert count_kfree(limit, k) == count_kfree_by_powers(limit, k), (limit, k)

    def test_big_input(self):
        # against the direct definition via a plain sieve of flags
        limit = 10**6
        flags = bytearray([1]) * (limit + 1)
        p = 2
        while p * p <= limit:
            step = p * p
            flags[step::step] = bytearray(len(range(step, limit + 1, step)))
            p += 1
        assert count_kfree(limit, 2) == sum(flags[1:])


def quotient_term(edges: list[tuple[int, int]]):
    """A term of the quotients N // d^e that is 0 where they all are, and
    the list of the d it was called at."""
    calls = []

    def term(d: int) -> int:
        calls.append(d)
        qs = [n // d**e for n, e in edges]
        return sum(i * q for i, q in enumerate(qs, 2)) + math.prod(q + 1 for q in qs) - 1

    return term, calls


def moebius_sum_direct(term, edges: list[tuple[int, int]]) -> int:
    """sum_d moebius(d) * term(d) term by term, over the d with a nonzero
    quotient N // d^e."""
    total, d = 0, 1
    while any(n >= d**e for n, e in edges):
        if mu := mu_by_trial_division(d):
            total += mu * term(d)
        d += 1
    return total


class TestMoebiusSum:
    @pytest.mark.parametrize("edges", [
        [(0, 3)],
        [(0, 1), (1, 1)],
        [(10**5, 2), (10**4, 1), (0, 3)],  # the square edge's quotient is 0 past d = 316
        [(10**6, 7), (10**6, 3), (37, 2)],
    ])
    def test_named_edges(self, edges):
        term = quotient_term(edges)[0]
        assert moebius_sum(term, edges) == moebius_sum_direct(term, edges)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_edges(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            edges = [(rng.choice((0, int(10 ** rng.uniform(0, 6)))), rng.randint(1, 7))
                     for _ in range(rng.randint(1, 3))]
            term = quotient_term(edges)[0]
            assert moebius_sum(term, edges) == moebius_sum_direct(term, edges), edges

    @pytest.mark.parametrize("edges", [[(10**8, 1)], [(10, 1), (10**16, 2)]])
    def test_refused_before_any_term(self, edges):
        term, calls = quotient_term(edges)
        with pytest.raises(ScanBudgetError, match="Moebius sieve"):
            moebius_sum(term, edges)
        assert calls == []
