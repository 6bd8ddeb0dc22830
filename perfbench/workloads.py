"""Seeded inputs, operations and correctness checks of the four workloads.

Each workload draws its inputs from ``random.Random`` seeded with its name
and the run seed, so one seed always gives the same operation stream.
Sizes come from Kronecker sequences (k times an irrational, mod 1) with a
seeded offset, and the kind of operation cycles with a fixed period: any
prefix of the stream covers the size range and the operation mix evenly,
so a time-bounded run measures nearly the same mix under every seed.

A workload gives ``op(i)`` (the i-th input, made on demand), ``run(op)``
(the timed call), ``check(op, result)`` (a list of errors, run untimed)
and ``answer(op, result)`` (the canonical text the answer file hashes).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
from bisect import bisect_left, insort
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath

import nhc
from nhc import cli
from procs import child_env, spawn

HERE = os.path.dirname(os.path.abspath(__file__))

# Fractional parts of sqrt(p): independent irrational steps per coordinate.
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (5, 2, 3, 7, 11))

CLI_TIMEOUT_S = 30.0
VERIFY_TIMEOUT_S = 60.0


class Kronecker:
    """Low-discrepancy points of [0, 1)^dim with a seeded offset."""

    def __init__(self, rng: random.Random, dim: int):
        self.offsets = [rng.random() for _ in range(dim)]

    def __call__(self, k: int) -> list[float]:
        return [(o + k * s) % 1.0 for o, s in zip(self.offsets, _STEPS)]


def cutoff(exponent: float) -> int:
    """10**exponent to four significant digits, as an exact integer >= 1."""
    e = math.floor(exponent)
    mantissa = round(10 ** (exponent - e + 3))
    return max(1, math.floor(Fraction(mantissa) * Fraction(10) ** (e - 3)))


# Inputs are built and checked with the helpers below rather than with the
# package's own primitives, so a defect in those cannot hide itself.


def _is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 (all inputs made here)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _small_factors(n: int) -> dict[int, int]:
    """Trial-division factorization of a small positive integer."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_squarefree(n: int) -> bool:
    return all(e < 2 for e in _small_factors(abs(n)).values())


SPECS = {"cal": nhc.CALIBRATED, "ncal": nhc.UNCALIBRATED}


class Workload:
    """Operation stream made on demand; subclasses add ``_next``."""

    in_process = True
    trace_path: str | None = None  # where a traced child writes its spans

    def __init__(self, seed: int, tiny: bool, root: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.env = child_env(root)  # for the processes an operation starts
        self.ops: list = []

    def op(self, i: int):
        while len(self.ops) <= i:
            self.ops.append(self._next())
        return self.ops[i]

    def points(self, op) -> int:
        return 0


# ----------------------------------------------------------- deep-sweep --


class DeepSweep(Workload):
    """Global counts at cutoffs 1e24..1e54.  Even operations take a fresh
    cutoff; odd ones revisit an earlier cutoff under another (spec,
    family), which is what a cache of sieves or roots would see."""

    name = "deep-sweep"
    FAMILIES = ("rep", "cm", "curves")
    FUNCTIONS = {
        "rep": "count_representatives",
        "cm": "count_cm_representatives",
        "curves": "count_curves",
    }

    def __init__(self, seed: int, tiny: bool, root: str):
        super().__init__(seed, tiny, root)
        self.lo, self.hi = (12, 30) if tiny else (24, 54)
        alpha = Fraction(self.rng.randint(1, 60), self.rng.randint(1, 12))
        beta = Fraction(self.rng.randint(1, 60), self.rng.randint(1, 12))
        self.specs = (nhc.CALIBRATED, nhc.UNCALIBRATED, nhc.HeightSpec(alpha, beta))
        self.seq = Kronecker(self.rng, 2)
        self.fresh: list[tuple] = []  # sorted by cutoff
        self.revisits = 0
        self.seen: dict[tuple, list] = {}

    def _next(self):
        if len(self.ops) % 2 == 0:
            k = len(self.fresh)
            u = self.seq(k)[0]
            op = (cutoff(self.lo + (self.hi - self.lo) * u), (k // 3) % 3, self.FAMILIES[k % 3])
            insort(self.fresh, op)
            return op
        # a revisit takes the earlier cutoff nearest to a low-discrepancy
        # target, so the cost mix does not hinge on a few random picks
        r = self.revisits
        self.revisits += 1
        target = cutoff(self.lo + (self.hi - self.lo) * self.seq(r)[1])
        pos = min(bisect_left(self.fresh, (target,)), len(self.fresh) - 1)
        if pos and target - self.fresh[pos - 1][0] < self.fresh[pos][0] - target:
            pos -= 1
        x, spec0, family0 = self.fresh[pos]
        family, spec = self.FAMILIES[r % 3], (r // 3) % 3
        if (spec, family) == (spec0, family0):
            spec = (spec + 1) % 3
        return (x, spec, family)

    def describe(self, op) -> str:
        x, spec, family = op
        return f"{family} spec={nhc.format_height_spec(self.specs[spec])} X={x}"

    def run(self, op):
        x, spec, family = op
        return getattr(nhc, self.FUNCTIONS[family])(self.specs[spec], x)

    def check(self, op, result) -> list[str]:
        x, spec_i, family = op
        spec = self.specs[spec_i]
        if not isinstance(result, int) or result < 0:
            return [f"not a count: {result!r}"]
        errors = []
        if family == "rep" and result > nhc.count_curves(spec, x):
            errors.append("more representatives than curves")
        if family == "cm" and result > nhc.count_cm_curves(spec, x):
            errors.append("more CM representatives than CM curves")
        seen = self.seen.setdefault((spec_i, family), [])
        pos = bisect_left(seen, (x,))
        if pos < len(seen) and seen[pos][0] == x:
            if seen[pos][1] != result:
                errors.append(f"count changed on revisit: {seen[pos][1]} then {result}")
            return errors
        if pos and seen[pos - 1][1] > result:
            errors.append(f"count decreased from X={seen[pos - 1][0]}")
        if pos < len(seen) and seen[pos][1] < result:
            errors.append(f"count exceeds the count at X={seen[pos][0]}")
        seen.insert(pos, (x, result))
        return errors

    def answer(self, op, result) -> str:
        return str(result)


# ------------------------------------------------------- fixed-j-factor --


class FixedJFactor(Workload):
    """Generic rational j whose cuspidal coefficient
    a(j) = 4 M / (27 N) (for j = N / D, with M = 1728 D - N) is made of
    primes in 1e5..1e9.  N and M are what the package factors (the
    denominator D never is): one of them carries two such primes, so
    factoring it takes Pollard rho, and the other carries one, which a
    primality test settles.  Which one alternates."""

    name = "fixed-j-factor"

    def __init__(self, seed: int, tiny: bool, root: str):
        super().__init__(seed, tiny, root)
        self.p_lo, self.p_hi = 10**5, 10**6 if tiny else 10**9
        self.x_lo, self.x_hi = 12, 36
        self.seq = Kronecker(self.rng, 5)

    def _next(self):
        k = len(self.ops)
        u = self.seq(k)
        rng = self.rng
        # Rho effort grows like the square root of the smaller prime of the
        # pair, so square roots are drawn uniformly: the cost is spread
        # evenly over the operations instead of piling up in a few.  The
        # larger prime of the pair lies between the smaller and the top.
        lo, hi = math.sqrt(self.p_lo), math.sqrt(self.p_hi)
        small = lo + (hi - lo) * u[0]
        primes: list[int] = []
        for root in (small, small + (hi - small) * u[1], lo + (hi - lo) * u[2]):
            p = _next_prime(int(root * root))
            while p in primes:
                p = _next_prime(p + 1)
            primes.append(p)
        n_primes, m_primes = (primes[:2], primes[2:]) if k % 2 else (primes[2:], primes[:2])
        m = rng.choice((1, -1)) * rng.randint(1, 99) * math.prod(m_primes)
        core = rng.choice((1, -1)) * math.prod(n_primes)
        # n0 in [1, 1727] makes 1728 | N + M, so D = (N + M) / 1728 is an integer
        n0 = (-m * pow(core, -1, 1728)) % 1728
        n = n0 * core
        j = Fraction(n, (n + m) // 1728)
        x1, x2 = sorted(cutoff(self.x_lo + (self.x_hi - self.x_lo) * v) for v in u[3:5])
        return {
            "j": j,
            "spec": ("cal", "ncal", "ncal", "cal")[k % 4],  # both specs for either placement
            "cutoffs": (x1, x2),
            "twist": rng.randint(2, 999),
            "a_parts": (4 * m, 27 * n, primes),
        }

    def describe(self, op) -> str:
        return f"j={op['j']} spec={op['spec']} X={op['cutoffs']} d={op['twist']}"

    def run(self, op):
        j, spec = op["j"], SPECS[op["spec"]]
        counts = [
            (nhc.count_curves_with_j(j, spec, x), nhc.count_representatives_with_j(j, spec, x))
            for x in op["cutoffs"]
        ]
        pair, hmin = nhc.minimal_curves(j, spec)
        dec = nhc.twist_decompose(nhc.twist(pair[0], op["twist"]))
        main = nhc.main_term_representatives_with_j(j, spec, op["cutoffs"][1])
        return counts, pair, hmin, dec, main

    def _expected_factors(self, op) -> dict[int, int]:
        num, den, primes = op["a_parts"]
        out: dict[int, int] = {}
        for value, sign in ((num, 1), (den, -1)):
            rest = abs(value)
            for p in primes:
                while rest % p == 0:
                    out[p] = out.get(p, 0) + sign
                    rest //= p
            for p, e in _small_factors(rest).items():
                out[p] = out.get(p, 0) + sign * e
        return {p: e for p, e in sorted(out.items()) if e}

    @staticmethod
    def _is_representative(op, curve) -> bool:
        """No p with p^4 | A and p^6 | B; the primes of gcd(A, B) are the
        constructed ones plus small ones, so no rho is needed."""
        g = math.gcd(curve.A, curve.B)
        candidates = set(op["a_parts"][2])
        for p in op["a_parts"][2]:
            while g % p == 0:
                g //= p
        candidates.update(_small_factors(g))
        return not any(curve.A % p**4 == 0 and curve.B % p**6 == 0 for p in candidates)

    def check(self, op, result) -> list[str]:
        counts, pair, hmin, dec, main = result
        j, spec = op["j"], SPECS[op["spec"]]
        least, other = pair
        errors = []
        for x, (curves, reps) in zip(op["cutoffs"], counts):
            if curves % 2 or reps % 2:
                errors.append(f"odd fixed-j count at X={x}")
            if not 0 <= reps <= curves:
                errors.append(f"representatives exceed curves at X={x}")
            if (curves > 0) != (x >= hmin):
                errors.append(f"count {curves} at X={x} disagrees with least height {hmin}")
        if counts[0][0] > counts[1][0] or counts[0][1] > counts[1][1]:
            errors.append("fixed-j count decreased as X grew")
        if nhc.j_invariant(least) != j:
            errors.append(f"least curve {least} does not have invariant j")
        if not self._is_representative(op, least):
            errors.append(f"least curve {least} is not a representative")
        if nhc.height(spec, least) != hmin or tuple(other) != (least.A, -least.B):
            errors.append("least-height pair is inconsistent")
        if dec.d != op["twist"] or dec.representative != least:
            errors.append(f"twist_decompose gave {dec}, expected d={op['twist']}")
        a = nhc.cubic_coefficient(j)
        f = nhc.factorize_rational(a)
        if f.value() != a or f.factors != self._expected_factors(op):
            errors.append(f"factorization of a(j) = {a} is wrong: {f}")
        elif not all(_is_prime(p) for p in f.factors):
            errors.append("factorization has a composite factor")
        if not (mpmath.isfinite(main) and main > 0):
            errors.append(f"bad main term {main}")
        return errors

    def answer(self, op, result) -> str:
        counts, pair, hmin, dec, main = result
        return f"{counts}|{tuple(pair)}|{hmin}|{dec.d}|{tuple(dec.representative)}|{mpmath.nstr(main, 20)}"


# ------------------------------------------------- subprocess workloads --


RSS_MARK = "\n#peak_rss_kb "
# `python -m nhc.cli ARGS`, which also writes its own peak RSS (VmHWM, see
# procs.peak_rss_kb) after RSS_MARK at the end of stderr when it exits.
CLI_REPORTING_RSS = f"""
import atexit, runpy, sys
sys.path.insert(0, {HERE!r})
from procs import peak_rss_kb
del sys.path[0]
atexit.register(lambda: sys.stderr.write({RSS_MARK!r} + str(peak_rss_kb())))
runpy.run_module("nhc.cli", run_name="__main__", alter_sys=True)
"""


class SubprocessWorkload(Workload):
    """One ``nhc`` process per operation, timed from spawn to exit."""

    in_process = False
    timeout = CLI_TIMEOUT_S

    def command(self, op) -> list[str]:
        argv = op["argv"]
        if self.trace_path is None:
            return [sys.executable, "-c", CLI_REPORTING_RSS, *argv]
        return [sys.executable, os.path.join(HERE, "traced_cli.py"), self.trace_path, *argv]

    def describe(self, op) -> str:
        return "nhc " + " ".join(op["argv"])

    def run(self, op):
        """(exit code or None on timeout, stdout, stderr, peak RSS in kB)."""
        code, out, err = spawn(self.command(op), self.env, self.timeout)
        head, sep, tail = err.rpartition(RSS_MARK)
        if not sep:
            return code, out, err, 0
        return code, out, head, int(tail)

    def answer(self, op, result) -> str:
        code, out, _err, _rss = result
        return f"{code}\n{out}"


def _in_process(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return code, out.getvalue()


CM_GENERIC = ("cm:-3:2", "cm:-3:3", "cm:-4:2", "cm:-7", "cm:-7:2", "cm:-8", "cm:-11",
              "cm:-19", "cm:-43", "cm:-67", "cm:-163")
CLI_FAMILIES = ("all", "rep", "j", "cm", "cm-rep")
CLI_TABLES = ("cm-minimal", "cm-counts", "coefficients", "relative-error")
CLI_FORMATS = ("table", "csv", "json")
CLI_CYCLE = ("count", "tables", "count", "parametrize", "count", "twist")


def _parse_j(text: str) -> Fraction:
    if text.startswith("cm:"):
        parts = [int(t) for t in text[3:].split(":")]
        return Fraction(nhc.cm_order(*parts).j)
    return Fraction(text)


class CliOneshot(SubprocessWorkload):
    """Short ``nhc`` commands, where process start and imports dominate."""

    name = "cli-oneshot"

    def __init__(self, seed: int, tiny: bool, root: str):
        super().__init__(seed, tiny, root)
        self.seq = Kronecker(self.rng, 2)
        self.kinds = {kind: 0 for kind in CLI_CYCLE}

    def _j_text(self, generic: bool) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            return rng.choice(CM_GENERIC if generic else CM_GENERIC + ("cm:-3", "cm:-4"))
        while True:
            j = Fraction(rng.randint(-99_999, 99_999), rng.randint(1, 99))
            if j not in (0, 1728):
                return str(j)

    def _next(self):
        rng = self.rng
        kind = CLI_CYCLE[len(self.ops) % len(CLI_CYCLE)]
        c = self.kinds[kind]
        self.kinds[kind] += 1
        u = self.seq(len(self.ops))
        spec = rng.choice(("cal", "ncal"))
        if kind == "count":
            family = CLI_FAMILIES[c % 5]
            argv = ["count", "--family", family, "--height", spec,
                    "--bound", str(cutoff(12 * u[0]))]
            if family == "j":
                argv.append("--j=" + self._j_text(generic=False))
            if (c // 5) % 2:
                argv.append("--asymptotic")
        elif kind == "tables":
            argv = ["tables", "--name", CLI_TABLES[c % 4], "--height", spec,
                    "--format", CLI_FORMATS[(c // 4) % 3]]
        elif kind == "parametrize":
            argv = ["parametrize", "--j=" + self._j_text(generic=True), "--height", spec,
                    "--bound", str(cutoff(3 + 9 * u[1])), "--format", ("csv", "json")[c % 2]]
            if (c // 2) % 2:
                argv.append("--squarefree-only")
        else:
            while True:
                a0, b0 = rng.randint(-999, 999), rng.randint(-999, 999)
                if 4 * a0**3 + 27 * b0**2:
                    break
            d = rng.randint(1, 300)
            argv = ["twist", "--", str(d**4 * a0), str(d**6 * b0)]
            return {"argv": argv, "kind": kind, "base": (a0, b0), "d": d}
        return {"argv": argv, "kind": kind}

    def check(self, op, result) -> list[str]:
        code, out, err, _rss = result
        if code is None:
            return [f"timed out after {self.timeout} s"]
        argv = op["argv"]
        want_code, want = _in_process(argv)
        errors = []
        if code != 0 or want_code != 0:
            errors.append(f"exit {code} (in process {want_code}): {err.strip()[-200:]}")
        if out != want:
            errors.append("stdout differs from the in-process cli.main output")
        errors += getattr(self, "_check_" + op["kind"])(op, out.splitlines())
        return errors

    @staticmethod
    def _flag(argv, name):
        for i, tok in enumerate(argv):
            if tok == name:
                return argv[i + 1]
            if tok.startswith(name + "="):
                return tok.split("=", 1)[1]
        return None

    def _check_count(self, op, lines):
        argv = op["argv"]
        spec = nhc.parse_height_spec(self._flag(argv, "--height"))
        x = Fraction(self._flag(argv, "--bound"))
        family = self._flag(argv, "--family")
        if family == "j":
            want = nhc.count_curves_with_j(_parse_j(self._flag(argv, "--j")), spec, x)
        else:
            want = {
                "all": nhc.count_curves,
                "rep": nhc.count_representatives,
                "cm": nhc.count_cm_curves,
                "cm-rep": nhc.count_cm_representatives,
            }[family](spec, x)
        if not lines or lines[0] != str(want):
            return [f"count printed {lines[:1]}, library gives {want}"]
        return []

    def _check_tables(self, op, lines):
        return [] if lines else ["empty table"]

    def _check_parametrize(self, op, lines):
        argv = op["argv"]
        j = _parse_j(self._flag(argv, "--j"))
        spec = nhc.parse_height_spec(self._flag(argv, "--height"))
        bound = nhc.param_bound(j, spec, Fraction(self._flag(argv, "--bound")))
        ms = [m for m in range(-bound, bound + 1) if m]
        if "--squarefree-only" in argv:
            ms = [m for m in ms if _is_squarefree(m)]
        text = "\n".join(lines)
        if self._flag(argv, "--format") == "json":
            rows = [(r["m"], int(r["A"]), int(r["B"])) for r in json.loads(text)]
        else:
            rows = [(int(m), int(a), int(b)) for m, a, b, _h in list(csv.reader(io.StringIO(text)))[1:]]
        want = [(m, *nhc.curve_from_parameter(j, m)) for m in ms]
        if rows != want:
            return [f"parametrize rows differ from the library ({len(rows)} vs {len(want)})"]
        return []

    def _check_twist(self, op, lines):
        base = nhc.twist_decompose(op["base"])
        want = f"{op['d'] * base.d} {base.representative.A} {base.representative.B}"
        if lines != [want]:
            return [f"twist printed {lines}, expected {want}"]
        return []


def box_points(spec, x: int) -> int:
    """Lattice points of the height box, from integer roots only."""
    xb = _iroot(math.floor(Fraction(x) / spec.alpha), 3)
    yb = math.isqrt(math.floor(Fraction(x) / spec.beta))
    return (2 * xb + 1) * (2 * yb + 1)


def _iroot(n: int, k: int) -> int:
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


class CensusVerify(SubprocessWorkload):
    """``nhc verify`` with default workers on boxes the size of the
    calibrated boxes at 1e8..1e9 (ncal bounds are chosen for the same
    point counts), always below the census scan budget."""

    name = "census-verify"
    timeout = VERIFY_TIMEOUT_S
    MIX = (("cal", False), ("ncal", True), ("cal", True), ("ncal", False))

    def __init__(self, seed: int, tiny: bool, root: str):
        super().__init__(seed, tiny, root)
        lo, hi = (10**5, 10**6) if tiny else (10**8, 10**9)
        self.p_lo = box_points(nhc.CALIBRATED, lo)
        self.p_hi = box_points(nhc.CALIBRATED, hi)
        self.budget = nhc.scan_budget()
        self.seq = Kronecker(self.rng, 1)

    def _next(self):
        k = len(self.ops)
        (u,) = self.seq(k)
        spec_name, with_cm = self.MIX[k % 4]
        spec = SPECS[spec_name]
        target = self.p_lo * (self.p_hi / self.p_lo) ** u
        lo, hi = 1, 10**12  # largest bound whose box holds at most `target` points
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if box_points(spec, mid) <= target:
                lo = mid
            else:
                hi = mid - 1
        points = box_points(spec, lo)
        if points >= self.budget:
            raise ValueError(f"census of {points} points would exceed the scan budget")
        argv = ["verify", "--height", spec_name, "--bound", str(lo)]
        if with_cm:
            argv += ["--j", "cm"]
        return {"argv": argv, "points": points, "checks": 3 + (26 if with_cm else 0)}

    def points(self, op) -> int:
        return op["points"]

    def check(self, op, result) -> list[str]:
        code, out, err, _rss = result
        if code is None:
            return [f"timed out after {self.timeout} s"]
        lines = out.splitlines()
        errors = []
        if code != 0:
            errors.append(f"exit {code}: {err.strip()[-200:]}")
        if not lines or not all(line.startswith("PASS") for line in lines):
            errors.append("a verify line is not PASS")
        if len(lines) != op["checks"] + 1:
            errors.append(f"{len(lines)} lines, expected {op['checks'] + 1}")
        return errors


WORKLOADS = {cls.name: cls for cls in (DeepSweep, FixedJFactor, CliOneshot, CensusVerify)}
