"""Integral points on cuspidal cubics y^2 = a x^3.

For nonzero rational a, the integral points of C_a : y^2 = a x^3 form a
one-parameter lattice.  Writing ord_p(a) for the exponent of p in a, set

    step_exp(p) = ceil(ord_p(a) / 2)   if ord_p(a) >= 0
                  ceil(ord_p(a) / 3)   if ord_p(a) < 0

and step = prod p^step_exp(p).  Then t -> (t^2 / a, t^3 / a) is a bijection
from step * Z onto the integral points (the origin corresponds to t = 0).
``families`` walks this lattice to list and count the curves of a fixed
j-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactarith import factorize_rational


@dataclass(frozen=True)
class CubicParam:
    """Lattice data of C_a: the parameter step and its prime exponents."""

    a: Fraction
    step: Fraction
    alpha_exponents: dict[int, int]


def cubic_param(a: int | Fraction) -> CubicParam:
    """Compute the lattice step of the cuspidal cubic y^2 = a x^3."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("cuspidal cubic needs a != 0")
    exponents: dict[int, int] = {}
    step = Fraction(1)
    for p, e in factorize_rational(a).factors.items():
        # ceil division; e < 0 rounds toward zero as required
        se = -(-e // 2) if e >= 0 else -(-e // 3)
        exponents[p] = se
        step *= Fraction(p) ** se
    return CubicParam(a, step, exponents)

