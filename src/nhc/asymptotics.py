"""Main terms of the counting laws and relative-error reporting.

The exact counts elsewhere in the package grow like power laws whose
leading coefficients involve zeta values:

    representatives, all j:    4 / (alpha^(1/3) beta^(1/2) zeta(10)) X^(5/6)
    representatives, fixed j:  2 / zeta(12/r) (X / H(A_j, B_j))^(1/r)
    CM representatives:        sum of the thirteen fixed-j terms; the
                               generic c(j) add up to cm_coefficient_sum.

Here (A_j, B_j) is the least curve with invariant j and r = 2, 3, 6 as
j = 0, 1728, generic (see ``families``); for generic j the coefficient
c(j) = H(A_j, B_j)^(-1/6) is evaluated from that exact rational at high
precision.  Dropping the zeta factors gives the corresponding main terms
for the families of all curves (not just representatives).  Each main term
builds its own: from the all-j term or the fixed-j term 2 (X / H)^(1/r),
which the CM terms sum over the thirteen CM invariants.

Everything returns mpmath floats computed at 50 digits; ``float()`` them
freely.
"""

from __future__ import annotations

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


def fixed_j_coefficient(j: int | Fraction, spec: HeightSpec) -> mpmath.mpf:
    """c(j) = H(A_j, B_j)^(-1/6): the generic fixed-j count is
    2 * floor(c(j) * X^(1/6)).  At 50 digits; j outside {0, 1728}."""
    least, r = _least_curve(j)
    if r != 6:
        raise SpecialJError(f"j = {j} has no sixth-root coefficient")
    with mpmath.workdps(_DPS):
        return mpmath.root(_mpf(1 / height(spec, least)), 6)


def cm_coefficient_sum(spec: HeightSpec) -> mpmath.mpf:
    """Sum of c(j) over the eleven CM invariants outside {0, 1728}.

    Calibrated weights give 0.950583051425665...; uncalibrated give
    1.20946795835178...
    """
    with mpmath.workdps(_DPS):
        return mpmath.fsum(
            fixed_j_coefficient(o.j, spec) for o in CM_ORDERS if o.j not in (0, 1728)
        )


def _all_curves_term(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """4 (X / alpha)^(1/3) (X / beta)^(1/2), at the caller's precision."""
    x = _mpf(bound)
    return 4 * mpmath.cbrt(x / _mpf(spec.alpha)) * mpmath.sqrt(x / _mpf(spec.beta))


def _fixed_j_term(
    j: int | Fraction, spec: HeightSpec, bound: int | Fraction
) -> tuple[mpmath.mpf, int]:
    """(2 (X / H(A_j, B_j))^(1/r), 12 // r): the all-curves term and the s of
    the representatives' density 1/zeta(s), at the caller's precision."""
    least, r = _least_curve(j)
    return 2 * mpmath.root(_mpf(bound) / _mpf(height(spec, least)), r), 12 // r


def main_term_representatives(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Leading term of the representative count over all j."""
    with mpmath.workdps(_DPS):
        return _all_curves_term(spec, bound) / zeta_value(_DENSITY_ZETA["all"])


def main_term_curves(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Leading term of the all-curves count (no zeta factor)."""
    with mpmath.workdps(_DPS):
        return _all_curves_term(spec, bound)


def main_term_representatives_with_j(
    j: int | Fraction, spec: HeightSpec, bound: int | Fraction
) -> mpmath.mpf:
    """Leading term of the fixed-j representative count."""
    with mpmath.workdps(_DPS):
        term, s = _fixed_j_term(j, spec, bound)
        return term / zeta_value(s)


def main_term_curves_with_j(
    j: int | Fraction, spec: HeightSpec, bound: int | Fraction
) -> mpmath.mpf:
    """Leading term of the fixed-j all-curves count."""
    with mpmath.workdps(_DPS):
        return _fixed_j_term(j, spec, bound)[0]


def cm_asymptotic(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Three-term expansion of the CM representative count."""
    with mpmath.workdps(_DPS):
        terms = (_fixed_j_term(o.j, spec, bound) for o in CM_ORDERS)
        return mpmath.fsum(term / zeta_value(s) for term, s in terms)


def cm_curves_asymptotic(spec: HeightSpec, bound: int | Fraction) -> mpmath.mpf:
    """Three-term expansion of the CM all-curves count (no zeta factors)."""
    with mpmath.workdps(_DPS):
        return mpmath.fsum(_fixed_j_term(o.j, spec, bound)[0] for o in CM_ORDERS)


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
    rows = []
    with mpmath.workdps(_DPS):
        for o in CM_ORDERS:
            if o.j in (0, 1728):
                continue
            coeff = 2 * fixed_j_coefficient(o.j, spec) / zeta_value(2)
            rows.append(CoefficientRow(o.disc, o.conductor, o.j, coeff))
    return rows


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
