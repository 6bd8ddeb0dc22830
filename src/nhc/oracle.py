"""Brute-force lattice census: the ground truth for every exact formula.

``brute_census`` counts the integer pairs (A, B) of the height box in one
pass over the columns A, from the definitions only.  (A, B) is a twist iff
some prime p has p^4 | A and p^6 | B: every column's twisted B, A = 0
included, are the multiples of its moduli, the p^6 with p^4 | A, counted by
inclusion-exclusion and never listed.  (A, B) has j = j_num / j_den iff

    27 j_num B^2 = (6912 j_den - 4 j_num) A^3,

the definition j = 6912 A^3 / (4A^3 + 27B^2) cross-multiplied.  At j = 1/0
it is 27B^2 = -4A^3, the singular locus, so the census solves a list of
curves, the singular locus first and then each tracked j: one integer
square root finds a column's 0, 1 or 2 B on each, untwisted iff no modulus
divides B.  A root with A != 0 has the curve's own invariant; at A = 0 only
the singular locus solves, at the origin, and j = 0 holds on the column's
other points.  So elliptic = points - singular, and representatives =
elliptic - (twisted - twisted singular).  None of the counting formulas
being verified enter the scan.

The scan is embarrassingly parallel over stripes of the A columns, and the
merge is plain integer addition, so the result is identical for any stripe
count or worker count, both chosen from the box by default.  Scans are
refused above a lattice-point budget (NHC_ORACLE_CAP overrides it).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

from .exactarith import ScanBudgetError, _primes_to, iroot
from .heights import CALIBRATED, HeightBox, HeightSpec, box

_COLUMN_COST = 3  # a column's own count, in tracked-j checks (2.4-2.9 at cal 1e13-1e15)
_POOL_WORK = 120_000  # the column checks that pay for one pool worker's start-up


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


def _roots(c: int, n: int, by: int) -> tuple[int, ...]:
    """Every B in [-by, by] with c B^2 = n (c != 0), in sorted order: at most
    B = +-sqrt(n / c), found by one divmod and one integer square root."""
    b2, r = divmod(n, c)
    root = math.isqrt(max(b2, 0))
    if r or root * root != b2 or root > by:
        return ()
    return (-root, root) if root else (0,)


def _multiples(mods: list[int], n: int, i: int = 0) -> int:
    """How many B in [1, n] some mods[k], k >= i, divides (ascending, pairwise
    coprime mods): each B counts at the last such k, as B = q B' with no later q | B'."""
    total = 0
    for k in range(i, len(mods)):
        if mods[k] > n:
            break
        total += n // mods[k] - _multiples(mods, n // mods[k], k + 1)
    return total


def _scan_stripe(args: tuple[range, int, tuple[Fraction, ...]]) -> tuple[int, ...]:
    """(twisted, then the points and the untwisted points of each curve
    c B^2 = m A^3: the singular locus, then each tracked j) over the
    columns A x B in [-by, by]."""
    columns, by, js = args
    widest = max(abs(columns[0]), abs(columns[-1]))
    # every p^4 divides A = 0, whose B meet the p^6 <= by; a p^4 > |A| divides no other A
    quartics = [(p**4, p**6) for p in _primes_to(max(iroot(widest, 4), iroot(by, 6)))]
    curves = [(1, 0), *((j.numerator, j.denominator) for j in js)]  # j = 1/0: 27 B^2 = -4 A^3
    solve = [(k, 27 * n, 6912 * d - 4 * n) for k, (n, d) in enumerate(curves) if n]
    j0 = 1 + js.index(0) if 0 in js else None
    twisted = 0
    tally = [0] * (2 * len(curves))
    for a in columns:
        a3 = a**3
        mods = [q6 for q4, q6 in quartics if a % q4 == 0]
        high = _multiples(mods, by)  # the twisted B > 0, as many as the twisted B < 0
        twisted += bool(mods) + 2 * high  # B = 0 twists iff some p^4 | A
        # at A = 0 only the singular locus solves: its one root, the origin, is singular
        for k, c, m in solve if a else solve[:1]:
            for bb in _roots(c, m * a3, by):
                tally[2 * k] += 1
                tally[2 * k + 1] += all(bb % q for q in mods)
        if not a and j0 is not None:  # j = 0 holds on the elliptic points of A = 0
            tally[2 * j0] += 2 * by
            tally[2 * j0 + 1] += 2 * (by - high)
    return (twisted, *tally)


def brute_census(
    spec: HeightSpec,
    bound: int | Fraction,
    tracked_j=(),
    *,
    stripes: int | None = None,
    workers: int | None = None,
) -> CensusResult:
    """Count every lattice point of the height box, column by column.

    One pass over the A columns counts the singular points, the elliptic
    curves, their representatives and each tracked j's (curves,
    representatives).  Stripe i of ``stripes`` (default ``workers``) takes
    every stripes-th column from A = -xb + i, so the stripes cost alike; a
    pool of at most min(workers, os.cpu_count()) processes scans them when
    workers > 1 (default 1 beside ``stripes``).  With neither,
    one worker per _POOL_WORK of columns x (_COLUMN_COST + tracked j): on 2
    vCPU a pool starts from cal 2e12 with the 13 CM j or cal 2.6e14 alone.
    """
    b = _box_within_budget(spec, bound)
    width = 2 * b.x_bound + 1
    js = tuple(dict.fromkeys(map(Fraction, tracked_j)))  # a repeated j is counted once
    if workers is None:
        work = width * (_COLUMN_COST + len(js))
        workers = min(os.cpu_count() or 1, max(1, work // _POOL_WORK)) if stripes is None else 1
    stripes = min(max(1, workers if stripes is None else stripes), width)
    jobs = [(range(-b.x_bound + i, b.x_bound + 1, stripes), b.y_bound, js) for i in range(stripes)]

    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled census pays for it

        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_scan_stripe, jobs))
    else:
        parts = [_scan_stripe(job) for job in jobs]
    twisted, singular, untwisted_singular, *tally = map(sum, zip(*parts))
    elliptic = width * (2 * b.y_bound + 1) - singular

    return CensusResult(
        box=b,
        total_elliptic=elliptic,
        total_representatives=elliptic - (twisted - (singular - untwisted_singular)),
        singular_points=singular,
        per_j={j: (tally[2 * k], tally[2 * k + 1]) for k, j in enumerate(js)},
    )
