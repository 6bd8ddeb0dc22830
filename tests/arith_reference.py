"""Definition-level arithmetic that only the tests need: the exponent of a
prime in a rational, and the k-free test by factoring."""

from fractions import Fraction

from nhc.exactarith import factorize, is_prime


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
