"""Definition-level arithmetic that only the tests need: the exponent of a
prime in a rational, the k-free test by factoring, and the term-by-term
k-free sums that the blocked ones in the package must equal."""

from fractions import Fraction

from nhc import families
from nhc.cm import CM_ORDERS
from nhc.exactarith import factorize, iroot, is_prime, moebius_sieve


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


def is_kfree(n: int, k: int) -> bool:
    """True iff no prime p has p^k dividing n."""
    if n == 0:
        raise ValueError("0 is divisible by every prime power")
    if k < 2:
        raise ValueError("k-free needs k >= 2")
    return all(e < k for e in factorize(n).factors.values())


def count_kfree_direct(limit: int, k: int) -> int:
    """Q_k(M) = sum_{d <= M^(1/k)} moebius(d) floor(M / d^k), one term per d."""
    r = iroot(limit, k)
    mu = moebius_sieve(r)
    return sum(mu[d] * (limit // d**k) for d in range(1, r + 1) if mu[d])


def count_cm_representatives_direct(spec, bound) -> int:
    """Twice the (12/r)-free parameters of each CM family, by count_kfree_direct."""
    total = 0
    for order in CM_ORDERS:
        least, r = families._least_curve(order.j)
        total += 2 * count_kfree_direct(families._max_parameter(least, r, spec, bound), 12 // r)
    return total
