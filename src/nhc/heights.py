"""Naive heights and their exact lattice boxes.

The height of an integer curve y^2 = x^3 + Ax + B under weights
(alpha, beta) is

    H(A, B) = max(alpha * |A|^3, beta * B^2).

Two classical normalizations get named presets: CALIBRATED = (4, 27) and
UNCALIBRATED = (1, 1).  Weights are restricted to positive rationals so
that every comparison and floor below is decidable exactly (irrational
weights would need certified interval arithmetic, which this package
deliberately does not attempt).

H(A, B) <= X cuts out a rectangle: |A| <= (X/alpha)^(1/3) and
|B| <= (X/beta)^(1/2).  ``box`` returns the integer corner floors, so a
lattice point satisfies the height bound iff it lies inside the box; the
box is every count's only height test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactarith import iroot


class _Weights(NamedTuple):
    alpha: Fraction
    beta: Fraction


class HeightSpec(_Weights):
    """Positive rational weights (alpha, beta) of the height max-form."""

    __slots__ = ()

    def __new__(cls, alpha, beta):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha <= 0 or beta <= 0:
            raise ValueError("height weights must be positive")
        return super().__new__(cls, alpha, beta)


CALIBRATED = HeightSpec(Fraction(4), Fraction(27))
UNCALIBRATED = HeightSpec(Fraction(1), Fraction(1))
_PRESETS = {"cal": CALIBRATED, "ncal": UNCALIBRATED}


class HeightBox(NamedTuple):
    """Integer bounds: height <= X iff |A| <= x_bound and |B| <= y_bound."""

    x_bound: int
    y_bound: int


def height(spec: HeightSpec, curve: tuple[int, int]) -> Fraction:
    """max(alpha * |A|^3, beta * B^2) as an exact rational."""
    a, b = curve
    return max(spec.alpha * abs(a) ** 3, spec.beta * Fraction(b) ** 2)


def box(spec: HeightSpec, bound: int | Fraction) -> HeightBox:
    """The exact lattice box of the region height <= bound = n/d: for a
    weight w, m^k <= n / (d w) iff m^k <= (n w.den) // (d w.num)."""
    n, d = Fraction(bound).as_integer_ratio()
    if n <= 0:
        raise ValueError("height bound must be positive")
    a, b = spec.alpha, spec.beta
    return HeightBox(iroot(n * a.denominator // (d * a.numerator), 3),
                     math.isqrt(n * b.denominator // (d * b.numerator)))


def parse_height_spec(text: str) -> HeightSpec:
    """Parse "cal", "ncal", or "alpha/<num>:<den>,beta/<num>:<den>"."""
    t = text.strip().lower()
    if t in _PRESETS:
        return _PRESETS[t]
    items = [item.strip() for item in t.split(",")]
    try:
        parts = dict(item.split("/", 1) for item in items)
        if len(items) != 2 or parts.keys() != {"alpha", "beta"}:
            raise KeyError(t)
        alpha, beta = (Fraction(*map(int, parts[k].split(":"))) for k in ("alpha", "beta"))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(
            f"bad height spec {text!r}; expected 'cal', 'ncal' or "
            "'alpha/<num>:<den>,beta/<num>:<den>'"
        ) from exc
    return HeightSpec(alpha, beta)


def format_height_spec(spec: HeightSpec) -> str:
    """Inverse of parse_height_spec (presets come back as their names)."""
    for name, preset in _PRESETS.items():
        if spec == preset:
            return name
    a, b = spec.alpha, spec.beta
    return f"alpha/{a.numerator}:{a.denominator},beta/{b.numerator}:{b.denominator}"
