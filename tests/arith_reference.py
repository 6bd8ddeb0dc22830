"""Definition-level arithmetic that only the tests need: the exponent of a
prime in a rational, the Moebius function by trial division, the k-free
test by factoring, the lattice step of a cuspidal cubic and the twist
scale of a curve over primes given with them, the term-by-term k-free and
representative sums that the blocked ones in the package must equal, the
same counts by recursion over the twists (no Moebius function), the
singular bound of the height box, the fixed-j parameter bound from the
height of the least curve, and the least curves of a j found by scanning
the height box."""

import math
from collections.abc import Iterator
from fractions import Fraction

from nhc import families
from nhc.cm import CM_ORDERS
from nhc.exactarith import factorize_rational, iroot, is_prime, moebius_sieve
from nhc.heights import HeightBox, HeightSpec, box, height
from nhc.oracle import _box_within_budget, _roots


def ord_p(q: int | Fraction, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q (negative when p
    divides the denominator)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("ord_p is undefined at 0")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    num = abs(q.numerator)
    while num % p == 0:
        num //= p
        e += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        e -= 1
    return e


def mu_by_trial_division(n: int) -> int:
    """moebius(n) for n >= 1, independent of the library's sieve of
    Eratosthenes."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1 if d == 2 else 2  # 2, then the odd d
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def is_kfree(n: int, k: int) -> bool:
    """True iff no prime p has p^k dividing n."""
    if n == 0:
        raise ValueError("0 is divisible by every prime power")
    if k < 2:
        raise ValueError("k-free needs k >= 2")
    return all(e < k for e in factorize_rational(n).factors.values())


def exponents_over(q: int | Fraction, primes) -> dict[int, int]:
    """The nonzero ord_p(q) of the nonzero rational q over the given primes,
    which must hold every prime of q: ValueError otherwise."""
    out = {p: e for p in sorted(set(primes)) if (e := ord_p(q, p))}
    if math.prod(Fraction(p) ** e for p, e in out.items()) != abs(Fraction(q)):
        raise ValueError(f"{q} has a prime outside {sorted(set(primes))}")
    return out


def cubic_param_by_factoring(a: int | Fraction, primes) -> Fraction:
    """The lattice step of y^2 = a x^3 from every prime exponent e of a,
    read over the given primes: the product of p^ceil(e/2) for e > 0 and
    p^ceil(e/3) for e < 0."""
    step = Fraction(1)
    for p, e in exponents_over(a, primes).items():
        step *= Fraction(p) ** (-(-e // 2) if e >= 0 else -(-e // 3))
    return step


def twist_scale_by_factoring(a: int, b: int, primes) -> int:
    """The largest d with d^4 | A and d^6 | B, tried over every prime of
    gcd(A, B), read over the given primes."""
    d = 1
    for p in exponents_over(math.gcd(a, b), primes):
        q = p
        while a % q**4 == 0 and b % q**6 == 0:
            d *= p
            q *= p
    return d


def count_kfree_direct(limit: int, k: int) -> int:
    """Q_k(M) = sum_{d <= M^(1/k)} moebius(d) floor(M / d^k), one term per d."""
    r = iroot(limit, k)
    mu = moebius_sieve(r)
    return sum(mu[d] * (limit // d**k) for d in range(1, r + 1) if mu[d])


def count_kfree_by_powers(limit: int, k: int) -> int:
    """Q_k(M) with no Moebius function: every n <= M is d^k times exactly
    one k-free number, so Q_k(M) = M - sum_{d >= 2} Q_k(M // d^k).  The d
    with one quotient form a block, and each quotient is counted once."""
    memo = {}

    def kfree(m: int) -> int:
        if m not in memo:
            total, d, r = m, 2, iroot(m, k)
            while d <= r:
                q = m // d**k
                end = iroot(m // q, k)
                total -= (end - d + 1) * kfree(q)
                d = end + 1
            memo[m] = total
        return memo[m]

    return kfree(limit)


def count_representatives_by_twists(spec: HeightSpec, bound) -> int:
    """Representatives with no Moebius function: every elliptic (A, B) is
    the d-twist (d^4 A', d^6 B') of exactly one representative, so
    R(x, y) = C(x, y) - sum_{d >= 2} R(x // d^4, y // d^6), where C(x, y)
    counts the box's lattice points less its singular points (-3m^2, 2m^3).
    The d with one child box form a block, and each box is counted once."""
    memo = {}

    def reps(x: int, y: int) -> int:
        if (x, y) not in memo:
            s = min(math.isqrt(x // 3), iroot(y // 2, 3))
            total = (2 * x + 1) * (2 * y + 1) - (2 * s + 1)
            d, dmax = 2, max(iroot(x, 4), iroot(y, 6))
            while d <= dmax:
                cx, cy = x // d**4, y // d**6
                end = min(iroot(x // cx, 4) if cx else dmax, iroot(y // cy, 6) if cy else dmax)
                total -= (end - d + 1) * reps(cx, cy)
                d = end + 1
            memo[x, y] = total
        return memo[x, y]

    return reps(*box(spec, bound))


def singular_bound_direct(spec: HeightSpec, bound) -> int:
    """The largest m >= 0 whose singular point (-3m^2, 2m^3) lies in the
    height box: 3m^2 <= xb and 2m^3 <= yb."""
    b = box(spec, bound)
    return min(math.isqrt(b.x_bound // 3), iroot(b.y_bound // 2, 3))


def count_representatives_direct(spec, bound) -> int:
    """Moebius inversion over the twists, one box term per d up to
    dmax = max(xb^(1/4), yb^(1/6)): the box (x, y) = (xb // d^4, yb // d^6)
    holds (2x + 1)(2y + 1) lattice points, of which the 2t + 1 points
    (-3m^2, 2m^3) with |m| <= t = s // d^2 are singular."""
    xb, yb = box(spec, bound)
    s = singular_bound_direct(spec, bound)
    dmax = max(iroot(xb, 4), iroot(yb, 6))
    mu = moebius_sieve(dmax)
    total = 0
    for d in range(1, dmax + 1):
        x, y, t = xb // d**4, yb // d**6, s // d**2
        total += mu[d] * ((2 * x + 1) * (2 * y + 1) - (2 * t + 1))
    return total


def max_parameter_direct(least, r: int, spec: HeightSpec, bound) -> int:
    """The largest m >= 0 with |m|^r H(least) <= bound: floor(bound / H) in
    integers, then its r-th root."""
    x = Fraction(bound)
    if x <= 0:
        raise ValueError("height bound must be positive")
    h = height(spec, least)
    return iroot(x.numerator * h.denominator // (x.denominator * h.numerator), r)


def count_cm_representatives_direct(spec, bound) -> int:
    """Twice the (12/r)-free parameters of each CM family, by count_kfree_direct,
    with r = 2, 3, 6 as j = 0, 1728, generic."""
    total = 0
    for order in CM_ORDERS:
        (least, _), _ = families.minimal_curves(order.j, spec)
        r = {0: 2, 1728: 3}.get(order.j, 6)
        total += 2 * count_kfree_direct(max_parameter_direct(least, r, spec, bound), 12 // r)
    return total


def curves_with_j(j: Fraction, b: HeightBox) -> Iterator[tuple[int, int]]:
    """Every elliptic (A, B) of the box with invariant j, in sorted order.

    The candidates solve 27 j_num B^2 = (6912 j_den - 4 j_num) A^3: for
    j = 0 that is the A = 0 column, otherwise one square root per column.
    """
    if j == 0:  # B != 0 on the A = 0 column
        yield from ((0, bb) for bb in range(-b.y_bound, b.y_bound + 1) if bb)
        return
    j_num, j_den = j.numerator, j.denominator
    for a in range(-b.x_bound, b.x_bound + 1):
        a3 = a**3
        for bb in _roots(27 * j_num, (6912 * j_den - 4 * j_num) * a3, b.y_bound):
            s = 4 * a3 + 27 * bb * bb
            # confirm against j = 6912 A^3 / s, cross-multiplied
            if s and j_num * s == 6912 * j_den * a3:
                yield a, bb


def brute_minimal(
    j: int | Fraction, spec: HeightSpec, cap: int | Fraction
) -> tuple[tuple[tuple[int, int], tuple[int, int]], Fraction] | None:
    """Scan heights up to cap for the least-height curves with invariant j.

    Returns the two least-height curves (larger coefficients first) and
    the height, or None when the family has no curve below the cap.
    Verification counterpart of ``families.minimal_curves``.
    """
    matches = list(curves_with_j(Fraction(j), _box_within_budget(spec, cap)))
    if not matches:
        return None
    best = min(height(spec, c) for c in matches)
    pair = sorted((c for c in matches if height(spec, c) == best), reverse=True)
    return ((pair[0], pair[1]), best)
