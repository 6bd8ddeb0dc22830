"""Integral points on cuspidal cubics y^2 = a x^3.

For nonzero rational a, the integral points of C_a : y^2 = a x^3 form a
one-parameter lattice.  Writing ord_p(a) for the exponent of p in a, set

    step_exp(p) = ceil(ord_p(a) / 2)   if ord_p(a) >= 0
                  ceil(ord_p(a) / 3)   if ord_p(a) < 0

and step = prod p^step_exp(p).  As ceil(e / 2) = e - floor(e / 2) and
ceil(-f / 3) = -floor(f / 3), step is the numerator of |a| over its square
part, divided by the cube part of the denominator.  Then
t -> (t^2 / a, t^3 / a) is a bijection from step * Z onto the integral
points (the origin corresponds to t = 0).
``families`` takes t = step, whose point has the least height, as the
least curve (A_j, B_j) of a fixed j-invariant.
"""

from __future__ import annotations

from fractions import Fraction

from .exactarith import power_part


def cubic_param(a: int | Fraction) -> Fraction:
    """The lattice step of the cuspidal cubic y^2 = a x^3."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("cuspidal cubic needs a != 0")
    num = abs(a.numerator)
    return Fraction(num // power_part(num, 2), power_part(a.denominator, 3))
