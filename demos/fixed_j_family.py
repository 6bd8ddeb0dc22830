#!/usr/bin/env python3
"""Walking a fixed-j family with one integer parameter.

An elliptic curve (A, B) has j-invariant j (away from 0 and 1728) exactly
when B^2 = a A^3 with a = 4(1728 - j)/(27 j): the coefficient pairs live
on a cuspidal cubic.  Its integral points form a lattice with a rational
step N, giving the two-sided family

    A(m) = N^2 m^2 / a,   B(m) = N^3 m^3 / a,   m = +-1, +-2, ...

The curves of least height are m = +-1, (A_j, B_j) = (N^2 / a, N^3 / a)
and its sign flip; every other member is one of their twists, of height
m^6 H(A_j, B_j), and m is square-free exactly for the class
representatives.
"""

from fractions import Fraction

from nhc import (
    CALIBRATED,
    count_curves_with_j,
    count_representatives_with_j,
    cubic_coefficient,
    cubic_param,
    curve_from_parameter,
    height,
    is_representative,
    j_invariant,
    minimal_curves,
    param_bound,
    twist_decompose,
)

J = -3375  # a complex-multiplication invariant, small enough to eyeball

a = cubic_coefficient(J)
(least, _), h_min = minimal_curves(J, CALIBRATED)
print(f"j = {J}")
print(f"cuspidal coefficient a = {a}, lattice step N = {cubic_param(a)}")
print(f"least curve {tuple(least)}, least height in the family: {h_min}")
print()

print(f"{'m':>3} {'A':>8} {'B':>8} {'height':>12}  {'rep?':>5} {'twist of':>14}")
for m in range(1, 9):
    curve = curve_from_parameter(J, m)
    dec = twist_decompose(curve)
    assert j_invariant(curve) == J
    assert height(CALIBRATED, curve) == m**6 * h_min
    print(f"{m:>3} {curve.A:>8} {curve.B:>8} {str(height(CALIBRATED, curve)):>12}  "
          f"{str(is_representative(curve)):>5} {f'{dec.d} * {tuple(dec.representative)}':>14}")

print()
x = 10**12
bound = param_bound(J, CALIBRATED, x)
print(f"At cutoff X = 1e12 the parameter runs through |m| <= {bound}:")
print(f"  all curves:       {count_curves_with_j(J, CALIBRATED, x)}")
print(f"  representatives:  {count_representatives_with_j(J, CALIBRATED, x)}"
      f"  (square-free m only)")

print()
print("The same machinery answers rational j just as well:")
j = Fraction(11, 5)
a = cubic_coefficient(j)
(c1, _), h1 = minimal_curves(j, CALIBRATED)
print(f"  j = {j}: a = {a}, N = {cubic_param(a)}, least curve {tuple(c1)} "
      f"of height {h1}")
