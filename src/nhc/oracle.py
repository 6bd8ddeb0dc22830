"""Brute-force lattice census: the ground truth for every exact formula.

``brute_census`` counts the integer pairs (A, B) of the height box column
by column, from the definitions only, at one integer square root per
column and one step per twist.  (A, B) is singular iff 27B^2 = -4A^3, so a
column holds 0, 1 (A = 0) or 2 singular points.  It is a twist iff some
prime p has p^4 | A and p^6 | B, so the twists of column A are one set:
the B that are multiples of a p^6 with p^4 | A.  A column's
representatives are its elliptic points less the elliptic B of that set.

The per-j counts come from a separate column scan.  (A, B) has invariant
j = j_num / j_den iff

    27 j_num B^2 = (6912 j_den - 4 j_num) A^3,

the definition j = 6912 A^3 / (4A^3 + 27B^2) cross-multiplied; the
singular locus is the same equation with j_num = 1 and j_den = 0.  For
j = 0 it holds on the A = 0 column; for any other j a column holds at
most the two B = +-sqrt(...), found by the same square root.  Every
candidate is confirmed against the definition, and it is a representative
iff B is not in the column's set of twists, the set the box scan reads.
None of the counting formulas being verified enter either scan.

The box scan is embarrassingly parallel over stripes of the A-range, and
the merge is plain integer addition, so the result is identical for any
stripe count or worker count.  Scans are refused above a lattice-point
budget (override with the NHC_ORACLE_CAP environment variable).
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .exactarith import ScanBudgetError, _small_primes
from .heights import CALIBRATED, HeightBox, HeightSpec, box, height


def scan_budget() -> int:
    """Maximum lattice points per census; defaults to the calibrated
    cutoff-1e10 box, NHC_ORACLE_CAP (a non-negative integer point count)
    overrides.  Any other NHC_ORACLE_CAP raises ValueError."""
    env = os.environ.get("NHC_ORACLE_CAP")
    if env is not None:
        if not env.strip().isdecimal():
            raise ValueError(f"NHC_ORACLE_CAP must be a non-negative integer, got {env!r}")
        return int(env)
    b = box(CALIBRATED, 10**10)
    return (2 * b.x_bound + 1) * (2 * b.y_bound + 1)


class CensusResult(NamedTuple):
    box: HeightBox
    total_elliptic: int
    total_representatives: int
    singular_points: int
    per_j: dict[Fraction, tuple[int, int]]  # j -> (curves, representatives)


def _box_within_budget(spec: HeightSpec, bound: int | Fraction) -> HeightBox:
    """The height box; ScanBudgetError when it holds too many points."""
    b = box(spec, bound)
    npoints = (2 * b.x_bound + 1) * (2 * b.y_bound + 1)
    budget = scan_budget()
    if npoints > budget:
        raise ScanBudgetError(
            f"scan of {npoints} lattice points exceeds the budget of {budget}; "
            "raise NHC_ORACLE_CAP to override"
        )
    return b


@functools.lru_cache(maxsize=1)  # a j = 0 tally asks for the A = 0 column at every B
def _twists(a: int, by: int) -> frozenset[int]:
    """Every B in [-by, by] with (A, B) a twist: the multiples of p^6 for
    each prime p with p^4 | A (a p^6 > by gives B = 0 alone).  Every p^4
    divides A = 0, and there only the p^6 <= by are taken: (0, 0) is
    singular."""
    out = set()
    for p in _small_primes():
        if (p**4 > abs(a)) if a else (p**6 > by):
            break
        if a % p**4 == 0:
            q = p**6
            out.update(range(-(by // q) * q, by + 1, q))
    return frozenset(out)


def _roots(c: int, n: int, by: int) -> range | tuple[int, ...]:
    """Every B in [-by, by] with c B^2 = n, in sorted order: all of them
    when c = n = 0, otherwise at most B = +-sqrt(n / c), found by one divmod
    and one integer square root."""
    if c == 0:
        return range(-by, by + 1) if n == 0 else ()
    b2, r = divmod(n, c)
    root = math.isqrt(max(b2, 0))
    if r or root * root != b2 or root > by:
        return ()
    return (-root, root) if root else (0,)


def _scan_stripe(args: tuple[int, int, int]) -> tuple[int, int, int]:
    """(singular, elliptic, representatives) over A in [a_lo, a_hi] x B in
    [-by, by]."""
    a_lo, a_hi, by = args
    singular = elliptic = reps = 0
    for a in range(a_lo, a_hi + 1):
        sing = _roots(27, -4 * a**3, by)  # 27 B^2 = -4 A^3
        twists = _twists(a, by)
        col = 2 * by + 1 - len(sing)
        singular += len(sing)
        elliptic += col
        # the column's elliptic points minus its elliptic twists
        reps += col - len(twists) + len(twists.intersection(sing))
    return singular, elliptic, reps


def _curves_with_j(j: Fraction, b: HeightBox) -> Iterator[tuple[int, int]]:
    """Every elliptic (A, B) of the box with invariant j, in sorted order.

    The candidates solve 27 j_num B^2 = (6912 j_den - 4 j_num) A^3: for
    j = 0 that is the A = 0 column, otherwise one square root per column.
    """
    j_num, j_den = j.numerator, j.denominator
    for a in range(-b.x_bound, b.x_bound + 1):
        a3 = a**3
        for bb in _roots(27 * j_num, (6912 * j_den - 4 * j_num) * a3, b.y_bound):
            s = 4 * a3 + 27 * bb * bb
            # confirm against j = 6912 A^3 / s, cross-multiplied
            if s and j_num * s == 6912 * j_den * a3:
                yield a, bb


def _tally_j(j: Fraction, b: HeightBox) -> tuple[int, int]:
    """(curves, representatives) with invariant j in the box."""
    curves = reps = 0
    for a, bb in _curves_with_j(j, b):  # counted as they come: j = 0 is a whole column
        curves += 1
        reps += bb not in _twists(a, b.y_bound)
    return curves, reps


def brute_census(
    spec: HeightSpec,
    bound: int | Fraction,
    tracked_j=(),
    *,
    stripes: int = 1,
    workers: int = 1,
) -> CensusResult:
    """Count every lattice point of the height box, column by column.

    Each A column gives its singular points by one square root, and its set
    of twisted B gives its representatives among the elliptic curves.  The
    column scan of each tracked j-invariant reads the same sets for its
    (curves, representatives).
    The box is cut into ``stripes`` A-ranges, scanned by a pool of at most
    min(workers, os.cpu_count()) processes when workers > 1.
    """
    b = _box_within_budget(spec, bound)
    width = 2 * b.x_bound + 1
    stripes = min(max(1, stripes), width)
    cuts = [-b.x_bound + (width * i) // stripes for i in range(stripes + 1)]
    jobs = [(cuts[i], cuts[i + 1] - 1, b.y_bound) for i in range(stripes)]

    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled census pays for it

        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_scan_stripe, jobs))
    else:
        parts = [_scan_stripe(job) for job in jobs]
    singular, elliptic, reps = map(sum, zip(*parts))

    return CensusResult(
        box=b,
        total_elliptic=elliptic,
        total_representatives=reps,
        singular_points=singular,
        # a repeated j is scanned once
        per_j={j: _tally_j(j, b) for j in dict.fromkeys(map(Fraction, tracked_j))},
    )


def brute_minimal(
    j: int | Fraction, spec: HeightSpec, cap: int | Fraction
) -> tuple[tuple[tuple[int, int], tuple[int, int]], Fraction] | None:
    """Scan heights up to cap for the least-height curves with invariant j.

    Returns the two least-height curves (larger coefficients first) and
    the height, or None when the family has no curve below the cap.
    Verification counterpart of ``families.minimal_curves``.
    """
    matches = list(_curves_with_j(Fraction(j), _box_within_budget(spec, cap)))
    if not matches:
        return None
    best = min(height(spec, c) for c in matches)
    pair = sorted((c for c in matches if height(spec, c) == best), reverse=True)
    return ((pair[0], pair[1]), best)
