"""Exact integer and rational arithmetic kernels.

Everything downstream (height boxes, cuspidal-cubic lattices, curve counts)
reduces to a handful of exact primitives collected here:

    power_part(n, k, ...)     the largest m with m^k | n and m^k' | n' for
                              further pairs, from one walk on the gcd of the
                              n: primes up to the cofactor's (k+1)-th root
                              (a gcd per run past 10^4), roots and rho past 10^6
    factorize_rational(q)     sign and prime exponents of a nonzero integer
                              or rational: the k = 1 walk of power_part,
                              whose Brent's Pollard rho raises
                              ScanBudgetError past its budget; a prime below
                              about 3.3e24 is proven, a larger one probable
    moebius_sieve(N)          Moebius function on 0..N, a read-only view of
                              one shared sieve of bytes (Eratosthenes) that
                              grows on demand (at most 10^7 entries; larger
                              raises ScanBudgetError)
    iroot(n, k)               floor(n^(1/k)) for integers, exact
    floor_rational_root(q, k) floor(q^(1/k)) for rationals, exact
    moebius_sum(term, edges)  sum_d moebius(d) * term(d) for a term of the
                              quotients N // d^e: a head term by term, then
                              blocks weighted by Mertens differences
    count_kfree(M, k)         number of k-free integers in [1, M], exact:
                              the moebius_sum of floor(M / d^k)

All results are exact.  Counting formulas in the rest of the package are
floors of algebraic expressions, so "close enough" roots are never
acceptable: every root routine here certifies m^k <= x < (m+1)^k before
returning m.  A floating-point root only seeds that check, and only where
it is known to land within about 1 of the answer; the result never trusts
floating point.

Rational numbers are ``fractions.Fraction`` values throughout: the stdlib
type already guarantees lowest terms and a positive denominator, which is
exactly the invariant the rest of the package relies on.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, islice
from typing import Callable, NamedTuple

# Trial division handles the prime factors below this bound; the runs of
# _power_factors take over up to _RUN_BOUND, and Pollard rho past it.
_TRIAL_BOUND = 10_000

# Miller-Rabin with these witnesses is deterministic below this bound
# (first thirteen primes; the classical verified threshold).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_RANDOM_ROUNDS = 40


def _prime_flags(n: int) -> bytearray:
    """1 at each prime index <= n, 0 elsewhere (sieve of Eratosthenes)."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = bytes(min(n + 1, 2))
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def _primes_to(n: int) -> list[int]:
    """The primes p <= n: the trial divisors, and the census's moduli."""
    return list(compress(range(n + 1), _prime_flags(n)))


@cache
def _small_primes() -> tuple[int, ...]:
    return tuple(_primes_to(_TRIAL_BOUND))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below ~3.3e24 via the fixed witness set; above that,
    40 pseudo-random rounds (seeded from n, so the answer is stable).
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:  # so every witness below is a unit mod n
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = (rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ScanBudgetError(RuntimeError):
    """Requested scan, sieve or factoring exceeds its budget."""


# Evaluations of x^2 + c that _pollard_rho may make on a composite of up to
# _RHO_FULL_DIGITS digits, every retry included: the largest multiple of
# 2^16 at which refusing a 61-digit semiprime takes no longer than the 2^18
# steps of Floyd's cycle finding did (0.7-0.8 s against 0.9-1.0 s on 2 vCPU;
# at 14 * 2^16 it was as slow as Floyd's).  A squaring of a longer composite
# costs up to the square of its digits, so its budget shrinks by that square
# and no refusal takes longer than the 61-digit one.
_RHO_BUDGET = 13 * 2**16
_RHO_FULL_DIGITS = 61
# Steps whose differences are multiplied together before one gcd.
_RHO_BATCH = 128


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n.

    Brent's cycle finding (BIT 20, 1980) on x -> x^2 + c from x = 2: one
    squaring per step, with the differences of _RHO_BATCH steps multiplied
    into one gcd.  A batch whose gcd reaches n is replayed one step per
    gcd; if that gives n too, the cycle collapsed and c + 1 is tried.
    Raises ScanBudgetError as soon as the evaluations of x^2 + c it is
    about to make would pass the budget (_RHO_BUDGET, scaled down by the
    square of the digits past _RHO_FULL_DIGITS), so the factor found never
    depends on the budget.
    """
    digits = len(str(n))
    budget = _RHO_BUDGET * _RHO_FULL_DIGITS**2 // max(digits, _RHO_FULL_DIGITS) ** 2
    left = budget

    def spend(steps: int) -> None:
        nonlocal left
        if steps > left:
            raise ScanBudgetError(
                f"factoring a {digits}-digit composite exceeds the budget of "
                f"{budget} Pollard rho steps"
            )
        left -= steps

    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(_RHO_BATCH, r - k)
                spend(m)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:  # replay the batch from ys; some step of it shares a factor
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with the next polynomial


class Factorization(NamedTuple):
    """Sign and prime exponents: value = sign * prod(p**e).

    ``factors`` maps primes (strictly increasing key order) to nonzero
    exponents.  Exponents are negative for primes in a denominator, so the
    same type carries factored rationals.
    """

    sign: int
    factors: dict[int, int]

    def value(self) -> int | Fraction:
        v = Fraction(self.sign)
        for p, e in self.factors.items():
            v *= Fraction(p) ** e
        return int(v) if v.denominator == 1 else v


# _power_factors tries the primes in (_TRIAL_BOUND, _RUN_BOUND] a run of
# _RUN_WIDTH integers at a time: one gcd with the product of a run's primes
# tries them all (Bernstein, "How to find smooth parts of integers", 2004).
# The runs up to _RUN_BOUND // 10, a tenth of the cost, are built apart.
_RUN_BOUND = 10**6
_RUN_WIDTH = 2**12


@cache
def _prime_runs(hi: int) -> tuple[tuple[int, int], ...]:
    """(first integer, product of its primes <= hi) of each run up to hi;
    about 180 kB for hi = _RUN_BOUND, built on first need."""
    flags = _prime_flags(hi)  # each run starts on an odd integer: skip the evens
    return tuple((lo, math.prod(compress(range(lo, hi + 1, 2), flags[lo : lo + _RUN_WIDTH : 2])))
                 for lo in range(_TRIAL_BOUND + 1, hi + 1, _RUN_WIDTH))


def _power_factors(n: int, k: int) -> dict[int, int]:
    """{p: ord_p(n) // k} for the primes p with p^k | n != 0, increasing.

    Primes leave the cofactor c while one up to iroot(c, k + 1) is untried;
    then c has at most k prime factors, and one exact k-th root settles it
    (at k = 1, c is 1 or prime and is its own root).  A prime c skips the
    runs, and a composite c with untried primes past them is split by exact
    roots and Pollard rho.  The walk reads no state but the constant prime
    tables, so its answer, or its refusal, depends on n and k alone.
    """
    c, out = abs(n), {}
    bound = iroot(c, k + 1)

    def divide_out(p: int) -> None:
        nonlocal c, bound
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        if e >= k:
            out[p] = e // k
        bound = iroot(c, k + 1)

    for p in _small_primes():
        if p > bound:
            break
        if c % p == 0:
            divide_out(p)
    if bound > _TRIAL_BOUND and not is_prime(c):  # a prime skips the runs
        hi = _RUN_BOUND // 10 if bound <= _RUN_BOUND // 10 else _RUN_BOUND
        for lo, product in _prime_runs(hi):
            if lo > bound:
                break
            while (g := math.gcd(c, product)) > 1:  # the least divisor of g is prime
                divide_out(g if is_prime(g) else next(p for p in range(lo, g) if g % p == 0))
        if bound > _RUN_BOUND and not is_prime(c):  # its primes all exceed those tried
            stack = [c]
            while stack:  # divisors of c: a prime is divided out, a power rooted, the rest split
                m = stack.pop()
                if not is_prime(m):
                    bits = m.bit_length()  # rho cannot split a prime power, but its exact root can
                    e = next((e for e in _small_primes() if e > bits or iroot(m, e) ** e == m), bits + 1)
                    stack += [iroot(m, e)] if e <= bits else [d := _pollard_rho(m), m // d]
                else:  # a prime met twice is out of c already: dividing changes nothing
                    divide_out(m)
    r = iroot(c, k)
    return dict(sorted((out | {r: 1} if c > 1 and r**k == c else out).items()))


def power_part(n: int, k: int, *more: int) -> int:
    """The largest m >= 1 with m^k | n and m^k' | n' for each further pair
    n', k', where a zero n bounds nothing; ValueError unless some n != 0 and
    every k >= 1.  One walk on the gcd of the n, at the least k of a nonzero
    n, finds each prime of m and a bound on its exponent that modulo tests lower."""
    ns, ks = (n, *more[::2]), (k, *more[1::2])
    if len(ns) != len(ks) or not any(ns) or min(ks) < 1:
        raise ValueError(f"power_part needs pairs (n, k), some n != 0 and each k >= 1, got {(n, k, *more)}")
    m = 1
    for p, e in _power_factors(math.gcd(*ns), min(k for n, k in zip(ns, ks) if n)).items():
        while any(n % p ** (k * e) for n, k in zip(ns, ks)):
            e -= 1
        m *= p**e
    return m


def factorize_rational(q: int | Fraction) -> Factorization:
    """Prime factorization of a nonzero integer or rational: the k = 1 walk
    of _power_factors on each side, denominator primes with negative
    exponents.  A composite rest past the runs up to 10^6 meets exact roots
    and Pollard rho, which raises ScanBudgetError past its budget.  A prime
    below about 3.3e24 is proven (Miller-Rabin is deterministic there); a
    larger one passed 40 seeded rounds and is only probable."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no prime factorization")
    num = _power_factors(q.numerator, 1)
    den = {p: -e for p, e in _power_factors(q.denominator, 1).items()}  # no prime of num
    return Factorization(1 if q > 0 else -1, dict(sorted((num | den).items())))


# The largest Moebius sieve built, in entries: enough for representative
# counts up to a calibrated cutoff of about 1e84.  By tracemalloc it holds
# 10 MB, one signed byte per entry (a list would hold 80 MB), and peaks at
# 30 MB while it is built.  In a fresh process on 2 vCPU,
# count_representatives(cal, 1e84) peaks at 51 MB resident with the sieve
# and a Mertens prefix of 8,908,988 entries (first call 2.0-2.6 s, repeats
# 0.7-1.2 s), count_cm_representatives(cal, 1e72) at 19 MB (890,899).
_SIEVE_BUDGET = 10**7
_sieve = memoryview(b"").cast("b")  # a read-only signed view of immutable bytes
# Mertens prefix of _sieve, _mertens[n] = moebius(1) + ... + moebius(n), grown
# by moebius_sum as far as it reads and kept across sieve rebuilds.  Below
# _SIEVE_BUDGET |Mert(n)| <= 1,143: 16 bits hold it (array raises, never wraps).
_mertens = array("h", [0])
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # +1 <-> -1 as signed bytes


def moebius_sieve(limit: int) -> memoryview:
    """moebius(n) at index n <= limit (index 0 is padding), from one shared
    sieve of signed bytes rebuilt only when asked past its end: from all 1s,
    each prime p negates every p-th byte and zeroes every p^2-th.  The view
    is read-only, so no caller can change a later count."""
    global _sieve
    if limit < 0:
        raise ValueError("moebius_sieve requires limit >= 0")
    if limit > _SIEVE_BUDGET:
        raise ScanBudgetError(
            f"Moebius sieve up to {limit} exceeds the budget of {_SIEVE_BUDGET} entries"
        )
    if limit >= len(_sieve):
        _sieve = memoryview(b"").cast("b")  # the old sieve is freed before the new one is built
        mu = bytearray([1]) * (limit + 1)
        flags = _prime_flags(limit)
        for p in compress(range(limit + 1), flags):
            mu[p::p] = mu[p::p].translate(_NEGATE)
        for p in compress(range(math.isqrt(limit) + 1), flags):
            mu[p * p :: p * p] = bytes(limit // (p * p))
        del flags  # before the copy: 43 MB of resident memory at 10^7, not 50
        _sieve = memoryview(bytes(mu)).cast("b")
    return _sieve


# iroot seeds from a float only while the root has at most this many bits:
# there n ** (1/k) is within about 1 of the root, whose logarithm scales the
# rounding error of 1/k.  (An n of 1024 bits or more can overflow a float.)
_FLOAT_ROOT_BITS = 48


def iroot(n: int, k: int) -> int:
    """The unique m >= 0 with m^k <= n < (m+1)^k, for n >= 0, k >= 1.

    An even k halves through math.isqrt.  Below 2^(48k) (and 2^1023) the
    seed is int(n ** (1/k)), within about 1 of the root; above, Newton
    iteration on integers from 2^ceil(bits/k).  Either seed is then
    corrected against exact powers, so the result never trusts floats.
    """
    if k == 2 and n >= 0:
        return math.isqrt(n)
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if k < 1:
        raise ValueError("iroot requires k >= 1")
    if k % 2 == 0:  # floor(n^(1/k)) = floor(isqrt(n)^(2/k)): floors nest
        return iroot(math.isqrt(n), k // 2)
    if n == 0 or k == 1:
        return n
    bits = n.bit_length()
    if bits <= _FLOAT_ROOT_BITS * k and bits < 1024:
        x = int(n ** (1 / k))
    else:
        x = 1 << -(-bits // k)  # 2^ceil(bits/k) >= true root
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def floor_rational_root(q: int | Fraction, k: int) -> int:
    """floor(q^(1/k)) for a nonnegative rational q.

    For integer m: m^k <= q iff m^k <= floor(q), so the rational case
    reduces exactly to the integer one.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("floor_rational_root requires q >= 0")
    return iroot(q.numerator // q.denominator, k)


# A block of moebius_sum costs a root per edge and a term, about this many
# head terms (counts at cal 1e24-1e51 move by a few percent from 4 to 8).
_BLOCK_COST = 5
_PLUS = bytes.maketrans(b"\xff", b"\x00")  # keeps the +1 of moebius bytes
_MINUS = bytes.maketrans(b"\x01", b"\x00")  # keeps the -1


def moebius_sum(term: Callable[[int], int], edges: list[tuple[int, int]]) -> int:
    """sum_{d >= 1} moebius(d) * term(d), exactly, for edges (N, e) with
    N >= 0 and a term that depends on d only through the quotients
    N // d^e, and is 0 where they all are.

    The terms vanish past dmax = max iroot(N, e).  The d <= D are summed
    one by one, the +1 and the -1 of the sieve apart.  Past D, d runs in
    maximal blocks of constant quotients: q = N // d^e holds up to
    iroot(N // q, e) while q > 0, and a zero quotient stays zero.  So the
    block (lo, hi] adds term(lo + 1) * (Mert(hi) - Mert(lo)), with
    Mert(n) = sum_{d <= n} moebius(d) read from the shared prefix, grown
    to dmax.  About N / D^e blocks remain per edge, each costing c =
    _BLOCK_COST terms, so the head and the blocks cost least at D = the
    largest (c e N)^(1/(e+1)), or dmax if smaller.  The sieve to dmax is
    asked for first, so a sum past its budget is refused before any term
    is evaluated.
    """
    dmax = lo = 0
    for n, e in edges:  # plain tests: max() would cost about as much as a root
        if (r := iroot(n, e)) > dmax:
            dmax = r
        if (r := iroot(_BLOCK_COST * e * n, e + 1)) > lo:
            lo = r
    mu = moebius_sieve(dmax)
    if len(_mertens) <= dmax:
        run = accumulate(islice(mu, len(_mertens), dmax + 1), initial=_mertens[-1])
        next(run)  # the last value already stored
        _mertens.extend(run)
    mert = _mertens
    lo = min(lo, dmax)
    signs, ds = mu[1 : lo + 1].tobytes(), range(1, lo + 1)
    total = sum(map(term, compress(ds, signs.translate(_PLUS))))
    total -= sum(map(term, compress(ds, signs.translate(_MINUS))))
    m_lo = mert[lo]
    while lo < dmax:
        d = lo + 1
        hi = dmax
        for n, e in edges:
            if q := n // d**e:
                r = iroot(n // q, e)
                if r < hi:
                    hi = r
        if (m_hi := mert[hi]) != m_lo:  # a block with no net moebius adds nothing
            total += term(d) * (m_hi - m_lo)
            m_lo = m_hi
        lo = hi
    return total


def count_kfree(limit: int, k: int) -> int:
    """Number of k-free integers in [1, limit], exactly: the inclusion-
    exclusion sum_d moebius(d) * floor(limit / d^k) over k-th powers."""
    if limit < 0:
        raise ValueError("count_kfree requires limit >= 0")
    if k < 2:
        raise ValueError("count_kfree requires k >= 2")
    return moebius_sum(lambda d: limit // d**k, [(limit, k)])
