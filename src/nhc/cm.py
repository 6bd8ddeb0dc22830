"""The thirteen rational CM orders and their exact curve counts.

An elliptic curve over Q whose endomorphism ring is larger than Z has one
of exactly thirteen j-invariants, each attached to an imaginary quadratic
order given by a fundamental discriminant and a conductor.  The pairing
below is fixed classical data.

Counting CM curves up to a height cutoff is the sum of the thirteen
fixed-j counts in the one height box of that cutoff, and the same for
representatives.  The table builders reproduce that data for arbitrary
weights and cutoffs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .families import WeierstrassCurve, _curves_in, _representatives_in, minimal_curves
from .heights import HeightSpec, box


class CmOrder(NamedTuple):
    disc: int  # fundamental discriminant of the imaginary quadratic field
    conductor: int
    j: int


CM_ORDERS: tuple[CmOrder, ...] = (
    CmOrder(-3, 1, 0),
    CmOrder(-3, 2, 54000),  # 2^4 3^3 5^3
    CmOrder(-3, 3, -12288000),  # -2^15 3 5^3
    CmOrder(-4, 1, 1728),  # 2^6 3^3
    CmOrder(-4, 2, 287496),  # 2^3 3^3 11^3
    CmOrder(-7, 1, -3375),  # -3^3 5^3
    CmOrder(-7, 2, 16581375),  # 3^3 5^3 17^3
    CmOrder(-8, 1, 8000),  # 2^6 5^3
    CmOrder(-11, 1, -32768),  # -2^15
    CmOrder(-19, 1, -884736),  # -2^15 3^3
    CmOrder(-43, 1, -884736000),  # -2^18 3^3 5^3
    CmOrder(-67, 1, -147197952000),  # -2^15 3^3 5^3 11^3
    CmOrder(-163, 1, -262537412640768000),  # -2^18 3^3 5^3 23^3 29^3
)


def cm_order(disc: int, conductor: int = 1) -> CmOrder:
    for order in CM_ORDERS:
        if order.disc == disc and order.conductor == conductor:
            return order
    raise KeyError(f"no rational CM order with discriminant {disc}, conductor {conductor}")


def count_cm_curves(spec: HeightSpec, bound: int | Fraction) -> int:
    """Exact number of elliptic (A, B) with CM and height <= bound."""
    b = box(spec, bound)
    return sum(_curves_in(o.j, b) for o in CM_ORDERS)


def count_cm_representatives(spec: HeightSpec, bound: int | Fraction) -> int:
    """Exact number of CM Q-isomorphism class representatives with height
    <= bound."""
    b = box(spec, bound)
    return sum(_representatives_in(o.j, b) for o in CM_ORDERS)


class MinimalCurveRow(NamedTuple):
    disc: int
    conductor: int
    j: int
    curves: tuple[WeierstrassCurve, WeierstrassCurve]
    min_height: Fraction


def cm_minimal_table(spec: HeightSpec) -> list[MinimalCurveRow]:
    """Per CM order: the two curves of least height and that height."""
    rows = []
    for order in CM_ORDERS:
        curves, h = minimal_curves(order.j, spec)
        rows.append(MinimalCurveRow(order.disc, order.conductor, order.j, curves, h))
    return rows


class CmCountRow(NamedTuple):
    disc: int
    conductor: int
    j: int
    counts: tuple[int, ...]


class CmCountTable(NamedTuple):
    bounds: tuple[Fraction, ...]
    rows: tuple[CmCountRow, ...]
    totals: tuple[int, ...]


DEFAULT_COUNT_BOUNDS: tuple[int, ...] = (10**10, 10**15, 10**20, 10**25, 10**30)


def cm_count_table(
    spec: HeightSpec, bounds: tuple[int | Fraction, ...] = DEFAULT_COUNT_BOUNDS
) -> CmCountTable:
    """Counts of CM curves per order at each height cutoff, plus the
    column totals (which equal ``count_cm_curves`` at each cutoff)."""
    if not bounds:
        raise ValueError("need at least one height bound")
    bounds_f = tuple(Fraction(b) for b in bounds)
    boxes = [box(spec, b) for b in bounds_f]
    rows = tuple(
        CmCountRow(o.disc, o.conductor, o.j, tuple(_curves_in(o.j, b) for b in boxes))
        for o in CM_ORDERS
    )
    totals = tuple(sum(row.counts[i] for row in rows) for i in range(len(bounds_f)))
    return CmCountTable(bounds_f, rows, totals)
