"""Integer Weierstrass curves, fixed-j parametrization, and exact counts.

A pair (A, B) of integers defines E_{A,B} : y^2 = x^3 + Ax + B, elliptic
iff the discriminant -16(4A^3 + 27B^2) is nonzero.  Two families matter:

  * "curves": every elliptic (A, B), counted by ``count_curves``;
  * "representatives": the (A, B) with no prime p having p^4 | A and
    p^6 | B -- one per Q-isomorphism class -- counted by
    ``count_representatives``.

Every curve is a unique twist d * (A0, B0) = (d^4 A0, d^6 B0) of a
representative, which scales the height by d^12; Moebius inversion over
that decomposition turns the elementary box count into an exact count of
representatives.

Fixed j-invariant: every curve with invariant j is a twist of one least
curve (A_j, B_j), and the whole family is

    (m^(r/3) A_j, m^(r/2) B_j),   m in Z \\ {0},   height |m|^r H(A_j, B_j),

with the representatives being exactly the (12/r)-free m.  Every count
tests height through one ``heights.box`` per cutoff: curve m lies in the
box iff |m|^(r/3) |A_j| <= xb and |m|^(r/2) |B_j| <= yb.  For j = 0 the
least curve is (0, 1) with r = 2; for j = 1728 it is (1, 0) with r = 3.
Any other j has r = 6: (A, B) has invariant j exactly when B^2 = a A^3
with a = 4(1728 - j)/(27 j), and the lattice step of that cuspidal cubic
(``cuspidal``) gives (A_j, B_j) = (step^2 / a, step^3 / a).  The singular
locus is the twist family (-3m^2, 2m^3) of the cusp (-3, 2), with r = 6.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .cuspidal import cubic_param
from .exactarith import count_kfree, iroot, moebius_sum, power_part
from .heights import HeightBox, HeightSpec, box, height


class WeierstrassCurve(NamedTuple):
    A: int
    B: int


class SingularCurveError(ValueError):
    """Raised when an operation requires a nonsingular curve."""


class SpecialJError(ValueError):
    """Raised when j in {0, 1728} reaches the generic fixed-j machinery."""


def discriminant(curve: WeierstrassCurve | tuple[int, int]) -> int:
    a, b = curve
    return -16 * (4 * a**3 + 27 * b**2)


def j_invariant(curve: WeierstrassCurve | tuple[int, int]) -> Fraction:
    """1728 * 4A^3 / (4A^3 + 27B^2) in lowest terms; needs a nonsingular
    curve."""
    a, b = curve
    s = 4 * a**3 + 27 * b**2
    if s == 0:
        raise SingularCurveError(f"curve ({a}, {b}) is singular")
    return Fraction(6912 * a**3, s)


def is_representative(curve: WeierstrassCurve | tuple[int, int]) -> bool:
    """True iff no prime p has p^4 | A and p^6 | B."""
    return twist_decompose(curve).d == 1


def twist(curve: WeierstrassCurve | tuple[int, int], d: int) -> WeierstrassCurve:
    """Scale (A, B) -> (d^4 A, d^6 B); preserves the j-invariant."""
    if d < 1:
        raise ValueError("twist scale must be >= 1")
    a, b = curve
    return WeierstrassCurve(d**4 * a, d**6 * b)


class TwistDecomposition(NamedTuple):
    d: int
    representative: WeierstrassCurve


def twist_decompose(curve: WeierstrassCurve | tuple[int, int]) -> TwistDecomposition:
    """Write an elliptic curve uniquely as the d-twist of a representative."""
    a, b = curve
    if discriminant(curve) == 0:
        raise SingularCurveError(f"curve ({a}, {b}) is singular")
    d = power_part(a, 4, b, 6)  # the largest d with d^4 | A and d^6 | B
    return TwistDecomposition(d, WeierstrassCurve(a // d**4, b // d**6))


def cubic_coefficient(j: int | Fraction) -> Fraction:
    """The coefficient a with: j-invariant equals j iff B^2 = a A^3.

    a(j) = 4(1728 - j) / (27 j); only defined away from the special
    invariants 0 and 1728.
    """
    j = Fraction(j)
    if j == 0 or j == 1728:
        raise SpecialJError(f"j = {j} has a degenerate family (A = 0 or B = 0)")
    return 4 * (1728 - j) / (27 * j)


def _exact_int(q: Fraction) -> int:
    if q.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {q}")
    return int(q)


@functools.lru_cache(maxsize=256)
def _least_curve(j: int | Fraction) -> tuple[WeierstrassCurve, int]:
    """((A_j, B_j), r): the least curve with invariant j and the exponent r
    with curve m = (m^(r//3) A_j, m^(r//2) B_j) of height |m|^r H(A_j, B_j).
    Cached for the last 256 j, so a(j) is factored once per j."""
    j = Fraction(j)
    if j == 0:
        return WeierstrassCurve(0, 1), 2
    if j == 1728:
        return WeierstrassCurve(1, 0), 3
    a = cubic_coefficient(j)
    step = cubic_param(a)
    return WeierstrassCurve(_exact_int(step**2 / a), _exact_int(step**3 / a)), 6


def _family_member(least: WeierstrassCurve, r: int, m: int) -> WeierstrassCurve:
    return WeierstrassCurve(m ** (r // 3) * least.A, m ** (r // 2) * least.B)


def _max_parameter(least: WeierstrassCurve, r: int, b: HeightBox) -> int:
    """The largest m >= 0 whose curve lies in b: the least iroot(edge // |c|, e)
    over the least curve's nonzero coordinates c, exponents e and box edges."""
    return min(iroot(edge // abs(c), e) for c, e, edge in
               ((least.A, r // 3, b.x_bound), (least.B, r // 2, b.y_bound)) if c)


def curve_from_parameter(j: int | Fraction, m: int) -> WeierstrassCurve:
    """The m-th curve of the fixed-j family: (m^2 A_j, m^3 B_j) for generic
    j, (0, m) for j = 0 and (m, 0) for j = 1728."""
    if m == 0:
        raise ValueError("parameter m must be nonzero")
    return _family_member(*_least_curve(j), m)


def param_bound(j: int | Fraction, spec: HeightSpec, bound: int | Fraction) -> int:
    """Largest |m| whose curve lies in the height box of bound (0 if none):
    equivalently, whose height is at most bound."""
    return _max_parameter(*_least_curve(j), box(spec, bound))


def _curves_in(j: int | Fraction, b: HeightBox) -> int:
    """The number of curves with invariant j in the box b."""
    return 2 * _max_parameter(*_least_curve(j), b)


def _representatives_in(j: int | Fraction, b: HeightBox) -> int:
    """The number of representatives with invariant j in the box b: the
    (12/r)-free m, 6-free, 4-free, square-free as j = 0, 1728, generic."""
    least, r = _least_curve(j)
    return 2 * count_kfree(_max_parameter(least, r, b), 12 // r)


def count_curves_with_j(j: int | Fraction, spec: HeightSpec, bound: int | Fraction) -> int:
    """Exact number of elliptic (A, B) with j-invariant j, height <= bound."""
    return _curves_in(j, box(spec, bound))


def count_representatives_with_j(
    j: int | Fraction, spec: HeightSpec, bound: int | Fraction
) -> int:
    """Exact number of Q-isomorphism class representatives with invariant j
    and height <= bound."""
    return _representatives_in(j, box(spec, bound))


# the singular locus 4A^3 + 27B^2 = 0 is the cusp's family (-3m^2, 2m^3), r = 6
_CUSP = WeierstrassCurve(-3, 2)


def _elliptic_in_box(xb: int, yb: int, s: int, d: int = 1) -> int:
    """Elliptic points of the box (xb // d^4, yb // d^6), singular bound s // d^2."""
    d2 = d * d
    return (2 * (xb // (d2 * d2)) + 1) * (2 * (yb // (d2 * d2 * d2)) + 1) - 2 * (s // d2) - 1


def count_singular(spec: HeightSpec, bound: int | Fraction) -> int:
    """Exact number of singular (A, B) with height <= bound, the origin
    included: the 2s + 1 points (-3m^2, 2m^3) with |m| <= s."""
    return 2 * _max_parameter(_CUSP, 6, box(spec, bound)) + 1


def count_curves(spec: HeightSpec, bound: int | Fraction) -> int:
    """Exact number of elliptic (A, B) with height <= bound: the lattice
    points of the height box minus the 2s + 1 singular ones."""
    b = box(spec, bound)
    return _elliptic_in_box(*b, _max_parameter(_CUSP, 6, b))


def count_representatives(spec: HeightSpec, bound: int | Fraction) -> int:
    """Exact number of Q-isomorphism class representatives with height
    <= bound, via Moebius inversion over the twist decomposition:
    sum_{d >= 1} moebius(d) * count_curves(bound / d^12).

    floor(floor(u) / n) = floor(u / n) for integers n > 0, and likewise
    for the certified roots, so the box core at bound / d^12 is the
    quotients (xb // d^4, yb // d^6, s // d^2); s // d^2, the singular
    bound of the first two, changes only with them.  So the sum is a
    moebius_sum over the edges (xb, 4) and (yb, 6).
    """
    b = box(spec, bound)
    xb, yb, s = *b, _max_parameter(_CUSP, 6, b)
    return moebius_sum(functools.partial(_elliptic_in_box, xb, yb, s), [(xb, 4), (yb, 6)])


def minimal_curves(
    j: int | Fraction, spec: HeightSpec
) -> tuple[tuple[WeierstrassCurve, WeierstrassCurve], Fraction]:
    """The two curves of least height with invariant j, and that height.

    These are the parameter values m = +1 and m = -1 (in that order); the
    pair differs only in the sign of B (of A when j = 1728).
    """
    least, r = _least_curve(j)
    return (least, _family_member(least, r, -1)), height(spec, least)
