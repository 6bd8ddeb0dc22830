"""Brute-force lattice census: the ground truth for every exact formula.

``brute_census`` walks every integer pair (A, B) in the height box and
classifies each point from first principles only: the discriminant sign
decides singular vs elliptic, direct divisibility testing decides
representative vs twist, and j-membership is decided by the definition
j = 6912 A^3 / (4A^3 + 27B^2) cross-multiplied to an integer identity.
None of the counting formulas being verified enter the scan.

Per-j tallies use a cheap per-column prefilter (for fixed A, a curve with
the requested j must satisfy B^2 = a A^3, so candidate B values come from
one integer square root); every candidate is then confirmed against the
exact j-invariant before it is counted.

The scan is embarrassingly parallel over stripes of the A-range, and the
merge is plain integer addition, so the result is identical for any stripe
count or worker count.  Scans are refused above a lattice-point budget
(override with the NHC_ORACLE_CAP environment variable).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .exactarith import _small_primes
from .heights import CALIBRATED, HeightBox, HeightSpec, box, height


class ScanBudgetError(RuntimeError):
    """Requested scan exceeds the lattice-point budget."""


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


@dataclass
class CensusResult:
    box: HeightBox
    total_elliptic: int
    total_representatives: int
    singular_points: int
    per_j: dict[Fraction, tuple[int, int]]  # j -> (curves, representatives)
    curves_by_j: dict[Fraction, list[tuple[int, int]]] | None = None


def _prime_powers_upto(k: int, limit: int) -> list[int]:
    return [p**k for p in _small_primes() if p**k <= limit]


def _kfree_small(n: int, powers: list[int]) -> bool:
    n = abs(n)
    return all(n % q for q in powers if q <= n)


def _scan_stripe(args: tuple) -> dict:
    """Scan A in [a_lo, a_hi] x B in [-by, by]; returns partial tallies.

    ``tracked`` holds (key, a_num, a_den) per requested j, key being
    (j_num, j_den); a_num/a_den is the cuspidal coefficient of a generic j
    and (0, 1) for j = 0 and j = 1728, whose keys pick their own branch.
    """
    a_lo, a_hi, by, tracked, collect = args
    p4 = _prime_powers_upto(4, max(abs(a_lo), abs(a_hi), 1))
    p6 = _prime_powers_upto(6, max(by, 1))
    singular = 0
    elliptic = 0
    reps = 0
    jt = {key: [0, 0] for key, *_ in tracked}
    jcurves: dict[tuple[int, int], list[tuple[int, int]]] = (
        {key: [] for key, *_ in tracked} if collect else {}
    )
    b27 = [27 * b * b for b in range(-by, by + 1)]

    for A in range(a_lo, a_hi + 1):
        a3 = A * A * A
        four_a3 = 4 * a3
        # primes whose 4th power divides A; only their 6th powers can make
        # a point of this column a proper twist
        spoilers: list[int] = []
        if A != 0:
            for p in _small_primes():
                q4 = p**4
                if q4 > abs(A):
                    break
                if A % q4 == 0:
                    spoilers.append(p**6)

        sing_col = 0
        for w in b27:
            if four_a3 + w == 0:
                sing_col += 1
        ell_col = len(b27) - sing_col

        if A != 0 and not spoilers:
            # no prime 4th power divides A: every elliptic point is a rep
            rep_col = ell_col
        else:
            rep_col = 0
            for i, w in enumerate(b27):
                if four_a3 + w == 0:
                    continue
                B = i - by
                if A == 0:
                    ok = _kfree_small(B, p6)
                elif B == 0:
                    ok = _kfree_small(A, p4)
                else:
                    ok = all(B % q for q in spoilers)
                rep_col += 1 if ok else 0

        singular += sing_col
        elliptic += ell_col
        reps += rep_col

        # per-j classification for this column
        for key, an, ad in tracked:
            if key == (0, 1):  # j = 0: the A = 0 column
                if A != 0:
                    continue
                for B in range(-by, by + 1):
                    if B == 0:
                        continue
                    jt[key][0] += 1
                    if _kfree_small(B, p6):
                        jt[key][1] += 1
                    if collect:
                        jcurves[key].append((0, B))
                continue
            if key == (1728, 1):  # j = 1728: the B = 0 row
                if A == 0:
                    continue
                jt[key][0] += 1
                if _kfree_small(A, p4):
                    jt[key][1] += 1
                if collect:
                    jcurves[key].append((A, 0))
                continue
            # generic j: candidates solve ad * B^2 = an * A^3 (so A != 0
            # and B != 0 at any candidate)
            t = an * a3
            if t <= 0 or t % ad:
                continue
            q = t // ad
            root = math.isqrt(q)
            if root * root != q or root > by or root == 0:
                continue
            for B in (root, -root):
                s = four_a3 + 27 * B * B
                # confirm against the exact j-invariant definition
                if s == 0 or Fraction(6912 * a3, s) != Fraction(*key):
                    continue
                jt[key][0] += 1
                if all(B % u for u in spoilers):
                    jt[key][1] += 1
                if collect:
                    jcurves[key].append((A, B))

    return {
        "singular": singular,
        "elliptic": elliptic,
        "reps": reps,
        "per_j": {k: tuple(v) for k, v in jt.items()},
        "curves": {k: v for k, v in jcurves.items()} if collect else None,
    }


def _tracked_tuples(tracked_j) -> list[tuple]:
    out = []
    for j in tracked_j:
        j = Fraction(j)
        a = Fraction(0) if j in (0, 1728) else 4 * (1728 - j) / (27 * j)
        out.append(((j.numerator, j.denominator), a.numerator, a.denominator))
    return out


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
    tracked = _tracked_tuples(tracked_j)
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
    for key, *_ in tracked:
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
