"""Main terms of the counting laws and relative-error reporting.

The exact counts elsewhere in the package grow like power laws whose
leading coefficients involve zeta values:

    representatives, all j:    4 / (alpha^(1/3) beta^(1/2) zeta(10)) X^(5/6)
    representatives, fixed j:  2 c(j) / zeta(12/r) X^(1/r)
    CM representatives:        sum of the thirteen fixed-j terms; the
                               generic c(j) add up to cm_coefficient_sum.

Here c(j) = H(A_j, B_j)^(-1/r), where (A_j, B_j) is the least curve with
invariant j and r = 2, 3, 6 as j = 0, 1728, generic (see ``families``).
Dropping the zeta factors gives the corresponding main terms for the
families of all curves (not just representatives).  Every fixed-j and CM
main term, and the coefficient table, reads one cached record per (j, spec),
(r, c(j), 2 c(j) / zeta(12/r)) taken from the exact rational least height;
the main terms are one sum of those coefficients times X^(1/r) over a list of j.

Everything returns mpmath floats computed at 50 digits; ``float()`` them
freely.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .cm import CM_ORDERS, count_cm_representatives
from .families import SpecialJError, _least_curve
from .heights import HeightSpec, height

_DPS = 50
_DENSITY_ZETA = {"all": 10, "j0": 6, "j1728": 4, "j_other": 2}
# Closed forms zeta(s) = pi^s / const for the only s the main terms use.
_ZETA_CLOSED_FORMS = {2: 6, 4: 90, 6: 945, 10: 93555}


def zeta_value(s: int) -> mpmath.mpf:
    """zeta(s) for s in {2, 4, 6, 10} via the closed forms pi^s / const,
    at the caller's working precision."""
    if s not in _ZETA_CLOSED_FORMS:
        raise ValueError(f"zeta_value supports s in {sorted(_ZETA_CLOSED_FORMS)}, not {s}")
    return mpmath.pi**s / _ZETA_CLOSED_FORMS[s]


def _mpf(q: int | Fraction) -> mpmath.mpf:
    # dividing by the int rounds once (an mpf denominator would round twice)
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


@functools.lru_cache(maxsize=256)
def _coefficients(j: int | Fraction, spec: HeightSpec) -> tuple[int, mpmath.mpf, mpmath.mpf]:
    """(r, c(j), 2 c(j) / zeta(12/r)) at 50 digits, c(j) = H(A_j, B_j)^(-1/r):
    the fixed-j curves and representatives are about 2 c(j) X^(1/r) and
    2 c(j) / zeta(12/r) X^(1/r).  Cached for the last 256 (j, spec), so each
    least height is taken once."""
    least, r = _least_curve(j)
    with mpmath.workdps(_DPS):
        c = mpmath.root(_mpf(1 / height(spec, least)), r)
        return r, c, 2 * c / zeta_value(12 // r)


def fixed_j_coefficient(j: int | Fraction, spec: HeightSpec) -> mpmath.mpf:
    """c(j) = H(A_j, B_j)^(-1/6): the generic fixed-j count is
    2 * floor(c(j) * X^(1/6)).  At 50 digits; j outside {0, 1728}."""
    r, c, _ = _coefficients(j, spec)
    if r != 6:
        raise SpecialJError(f"j = {j} has no sixth-root coefficient")
    return c


def cm_coefficient_sum(spec: HeightSpec) -> mpmath.mpf:
    """Sum of c(j) over the eleven CM invariants outside {0, 1728}.

    Calibrated weights give 0.950583051425665...; uncalibrated give
    1.20946795835178...
    """
    records = [_coefficients(o.j, spec) for o in CM_ORDERS]
    with mpmath.workdps(_DPS):
        return mpmath.fsum(c for r, c, _ in records if r == 6)


def _all_curves_term(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """4 (X / alpha)^(1/3) (X / beta)^(1/2), at the caller's precision."""
    x = _mpf(bound)
    return 4 * mpmath.cbrt(x / _mpf(spec.alpha)) * mpmath.sqrt(x / _mpf(spec.beta))


def main_term_representatives(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Leading term of the representative count over all j."""
    with mpmath.workdps(_DPS):
        return _all_curves_term(spec, bound) / zeta_value(_DENSITY_ZETA["all"])


def main_term_curves(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Leading term of the all-curves count (no zeta factor)."""
    with mpmath.workdps(_DPS):
        return _all_curves_term(spec, bound)


def _fixed_j_sum(js, spec: HeightSpec, bound: int | Fraction, representatives: bool) -> mpmath.mpf:
    """Sum over js of 2 c(j) X^(1/r), each over zeta(12/r) for representatives."""
    records = [_coefficients(j, spec) for j in js]
    with mpmath.workdps(_DPS):
        x = _mpf(bound)
        return mpmath.fsum((rep if representatives else 2 * c) * mpmath.root(x, r)
                           for r, c, rep in records)


def main_term_representatives_with_j(
    j: int | Fraction, spec: HeightSpec, bound: int | Fraction
) -> mpmath.mpf:
    """Leading term of the fixed-j representative count."""
    return _fixed_j_sum([j], spec, bound, True)


def main_term_curves_with_j(
    j: int | Fraction, spec: HeightSpec, bound: int | Fraction
) -> mpmath.mpf:
    """Leading term of the fixed-j all-curves count."""
    return _fixed_j_sum([j], spec, bound, False)


def cm_asymptotic(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Three-term expansion of the CM representative count."""
    return _fixed_j_sum([o.j for o in CM_ORDERS], spec, bound, True)


def cm_curves_asymptotic(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Three-term expansion of the CM all-curves count (no zeta factors)."""
    return _fixed_j_sum([o.j for o in CM_ORDERS], spec, bound, False)


def density_limit(family: str) -> float:
    """Limiting share of representatives among all curves of the family:
    1/zeta(10) for all j, 1/zeta(6) for j = 0, 1/zeta(4) for j = 1728,
    1/zeta(2) for any other fixed j."""
    if family not in _DENSITY_ZETA:
        raise ValueError(f"family must be one of {sorted(_DENSITY_ZETA)}")
    with mpmath.workdps(_DPS):
        return float(1 / zeta_value(_DENSITY_ZETA[family]))


class AsymptoticReport(NamedTuple):
    exact: int
    approximation: float  # inf past the float range
    relative_error: float  # NaN when exact = 0 but approximation is not

    def percent(self) -> str:
        return format_percent(self.relative_error)


def report(exact: int, approx: float | mpmath.mpf) -> AsymptoticReport:
    """Package an exact count with its approximation and relative error.

    The error is taken in mpmath at double precision, each operand rounded
    as float() would round it, so counts past the float range need no float.
    """
    if exact < 0:
        raise ValueError("exact count cannot be negative")
    with mpmath.workprec(53):
        approx, exact_mpf = mpmath.mpf(approx), mpmath.mpf(exact)
        if exact == 0:
            rel = 0.0 if approx == 0 else math.nan
        else:
            rel = float(abs(approx - exact_mpf) / exact_mpf)
    return AsymptoticReport(exact, float(approx), rel)


def format_percent(relative_error: float) -> str:
    """Relative error as a percentage with two significant digits."""
    if math.isnan(relative_error):
        return "undefined"
    p = 100.0 * relative_error
    if p == 0.0:
        return "0%"
    decimals = max(0, 1 - math.floor(math.log10(abs(p))))
    return f"{p:.{decimals}f}%"


class CoefficientRow(NamedTuple):
    disc: int
    conductor: int
    j: int
    coefficient: mpmath.mpf  # 2 c(j) / zeta(2)


def coefficient_table(spec: HeightSpec) -> list[CoefficientRow]:
    """The leading coefficient 2 c(j) / zeta(2) of the fixed-j
    representative count, per CM order outside {0, 1728}."""
    records = ((o, *_coefficients(o.j, spec)) for o in CM_ORDERS)
    return [CoefficientRow(o.disc, o.conductor, o.j, rep) for o, r, _, rep in records if r == 6]


class ErrorRow(NamedTuple):
    bound: Fraction
    exact: int
    approximation: float
    relative_error: float


DEFAULT_ERROR_BOUNDS: tuple[int, ...] = (
    10,
    10**2,
    10**3,
    10**4,
    10**5,
    10**6,
    10**7,
    27 * 10**9,
)


def error_table(
    spec: HeightSpec, bounds: tuple[int | Fraction, ...] = DEFAULT_ERROR_BOUNDS
) -> list[ErrorRow]:
    """Exact CM representative counts against the three-term expansion."""
    rows = []
    for b in bounds:
        exact = count_cm_representatives(spec, b)
        approx = float(cm_asymptotic(spec, b))
        rows.append(ErrorRow(Fraction(b), exact, approx, report(exact, approx).relative_error))
    return rows
