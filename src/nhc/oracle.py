"""Brute-force lattice census: the ground truth for every exact formula.

``brute_census`` walks every integer pair (A, B) in the height box and
classifies each point from the definitions only.  (A, B) is singular iff
4A^3 + 27B^2 = 0.  It is a twist iff some prime p has p^4 | A and p^6 | B:
the column's spoilers are the p^6 with p^4 | A, and a point is a
representative iff no spoiler divides B.  It has invariant
j = j_num / j_den iff

    27 j_num B^2 = (6912 j_den - 4 j_num) A^3,

the definition j = 6912 A^3 / (4A^3 + 27B^2) cross-multiplied.  For j = 0
that is the A = 0 column; for any other j a column holds at most the two
B = +-sqrt(...), found by one integer square root.  Every candidate is
confirmed against the definition before it is counted.  None of the
counting formulas being verified enter the scan.

The scan is embarrassingly parallel over stripes of the A-range, and the
merge is plain integer addition, so the result is identical for any stripe
count or worker count.  Scans are refused above a lattice-point budget
(override with the NHC_ORACLE_CAP environment variable).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
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
    curves_by_j: dict[Fraction, list[tuple[int, int]]] | None = None


def _spoilers(a: int, by: int) -> list[int]:
    """The p^6 for each prime p with p^4 | A: (A, B) is a twist iff one of
    them divides B.  Every p^4 divides A = 0, and there only the p^6 <= by
    can divide a nonzero B of the stripe."""
    out = []
    for p in _small_primes():
        if (p**4 > abs(a)) if a else (p**6 > by):
            break
        if a % p**4 == 0:
            out.append(p**6)
    return out


def _scan_stripe(args: tuple) -> dict:
    """Scan A in [a_lo, a_hi] x B in [-by, by]; returns partial tallies.

    ``tracked`` holds the (j_num, j_den) pair of each requested j.
    """
    a_lo, a_hi, by, tracked, collect = args
    singular = elliptic = reps = 0
    jt = {key: [0, 0] for key in tracked}
    jcurves: dict[tuple[int, int], list[tuple[int, int]]] = {key: [] for key in tracked}
    b27 = [27 * b * b for b in range(-by, by + 1)]

    for A in range(a_lo, a_hi + 1):
        a3 = A * A * A
        four_a3 = 4 * a3
        spoilers = _spoilers(A, by)

        def is_rep(B: int) -> bool:  # the twist definition, for this column
            return all(B % q for q in spoilers)

        sing_col = b27.count(-four_a3)
        ell_col = len(b27) - sing_col
        # with no spoiler every elliptic point of the column is a rep
        rep_col = ell_col
        if spoilers:
            rep_col = sum(
                1 for B, w in zip(range(-by, by + 1), b27) if four_a3 + w and is_rep(B)
            )
        singular += sing_col
        elliptic += ell_col
        reps += rep_col

        # per-j candidates solve 27 j_num B^2 = (6912 j_den - 4 j_num) A^3:
        # for j = 0 that is the A = 0 column, otherwise one square root
        for key in tracked:
            j_num, j_den = key
            if j_num == 0:
                candidates = range(-by, by + 1) if A == 0 else ()
            else:
                b2, r = divmod((6912 * j_den - 4 * j_num) * a3, 27 * j_num)
                if r or b2 < 0:
                    continue
                root = math.isqrt(b2)
                if root * root != b2 or root > by:
                    continue
                candidates = {root, -root}
            for B in candidates:
                s = four_a3 + 27 * B * B
                # confirm against j = 6912 A^3 / s, cross-multiplied
                if s == 0 or j_num * s != 6912 * j_den * a3:
                    continue
                jt[key][0] += 1
                jt[key][1] += is_rep(B)
                if collect:
                    jcurves[key].append((A, B))

    return {
        "singular": singular,
        "elliptic": elliptic,
        "reps": reps,
        "per_j": {k: tuple(v) for k, v in jt.items()},
        "curves": jcurves if collect else None,
    }


def brute_census(
    spec: HeightSpec,
    bound: int | Fraction,
    tracked_j=(),
    *,
    collect_curves: bool = False,
    stripes: int = 1,
    workers: int = 1,
) -> CensusResult:
    """Exhaustively classify every lattice point of the height box.

    Counts singular points, elliptic curves, and representatives, plus
    (curves, representatives) per tracked j-invariant; with
    ``collect_curves`` the per-j curve lists are kept as well.  The box is
    cut into ``stripes`` A-ranges, scanned by a pool of at most
    min(workers, os.cpu_count()) processes when workers > 1.
    """
    b = box(spec, bound)
    npoints = (2 * b.x_bound + 1) * (2 * b.y_bound + 1)
    budget = scan_budget()
    if npoints > budget:
        raise ScanBudgetError(
            f"scan of {npoints} lattice points exceeds the budget of {budget}; "
            "raise NHC_ORACLE_CAP to override"
        )
    # (j_num, j_den) per distinct j: a repeated j is tallied once
    tracked = list(dict.fromkeys((j.numerator, j.denominator) for j in map(Fraction, tracked_j)))
    stripes = max(1, stripes)
    width = 2 * b.x_bound + 1
    stripes = min(stripes, width)
    cuts = [-b.x_bound + (width * i) // stripes for i in range(stripes + 1)]
    jobs = [
        (cuts[i], cuts[i + 1] - 1, b.y_bound, tracked, collect_curves)
        for i in range(stripes)
    ]

    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_scan_stripe, jobs))
    else:
        parts = [_scan_stripe(job) for job in jobs]

    per_j: dict[Fraction, tuple[int, int]] = {}
    curves: dict[Fraction, list[tuple[int, int]]] | None = {} if collect_curves else None
    singular = elliptic = reps = 0
    for key in tracked:
        j = Fraction(*key)
        tilde = sum(p["per_j"][key][0] for p in parts)
        rep = sum(p["per_j"][key][1] for p in parts)
        per_j[j] = (tilde, rep)
        if collect_curves:
            merged: list[tuple[int, int]] = []
            for p in parts:
                merged.extend(p["curves"][key])
            curves[j] = sorted(merged)
    for p in parts:
        singular += p["singular"]
        elliptic += p["elliptic"]
        reps += p["reps"]

    return CensusResult(
        box=b,
        total_elliptic=elliptic,
        total_representatives=reps,
        singular_points=singular,
        per_j=per_j,
        curves_by_j=curves,
    )


def brute_minimal(
    j: int | Fraction, spec: HeightSpec, cap: int | Fraction
) -> tuple[tuple[tuple[int, int], tuple[int, int]], Fraction] | None:
    """Scan heights up to cap for the least-height curves with invariant j.

    Returns the two least-height curves (larger coefficients first) and
    the height, or None when the family has no curve below the cap.
    Verification counterpart of ``families.minimal_curves``.
    """
    census = brute_census(spec, cap, tracked_j=(j,), collect_curves=True)
    matches = census.curves_by_j[Fraction(j)]
    if not matches:
        return None
    best = min(height(spec, c) for c in matches)
    pair = sorted((c for c in matches if height(spec, c) == best), reverse=True)
    return ((pair[0], pair[1]), best)
