"""Command-line interface.

Subcommands:

    count        exact count of a family (optionally with its main term)
    parametrize  list the fixed-j family curves up to a height bound
    twist        write a curve as the twist of its representative
    tables       emit the CM reference tables (table, csv, or json)
    verify       brute-force census vs. every exact formula

Exit codes: 0 success, 2 malformed flags or an output (stdout or
``--output``) that cannot be opened or written, on one line (``verify``
also exits 2 when NHC_ORACLE_CAP is not a non-negative integer), 3 a j of
0 or 1728 was forced down the generic fixed-j path, 4 singular curve
input, 5 verify mismatch, 6 scan, sieve, factoring or row budget exceeded
(``parametrize`` lists at most 10^6 curves), 141 the reader closed the
output pipe early, as ``| head`` does (nothing is printed).  Bounds accept
integers, scientific notation (parsed exactly: 1e25 is the integer
10^25), and rationals "p/q".  j-invariants accept rationals or CM aliases
"cm:<disc>[:<conductor>]".  A numerator, denominator, height weight or
``twist`` coefficient of more than 250 digits (an exponent eN counts as N
digits) is a malformed flag.
``tables --bounds`` sets the cutoffs of cm-counts (its columns) and
relative-error (its rows), each once in first-seen order (1e3 and 1000
are one cutoff); cm-minimal and coefficients refuse it on exit 2.  csv
and json are written row by row, and the table format too, after a first
pass over the rows for its column widths.

mpmath (``asymptotics``) and the census (``oracle``) are imported only by
the commands that use them, so the exact commands start without them, and
``verify`` starts the census process pool only for a box that outweighs
its start-up (on 2 vCPU, from about cal 2e12 with ``--j cm``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import cm, families
from .exactarith import ScanBudgetError, moebius_sieve
from .families import SingularCurveError, SpecialJError, WeierstrassCurve
from .heights import HeightSpec, box, height, parse_height_spec


class _Refusal(Exception):
    """``_Refusal(code, line)``: ``main`` alone prints the line, if any, and exits."""


# The most digits in a numerator, denominator or height weight of a flag;
# 10^200 (201 digits) stays in range.
_DIGIT_CAP = 250


def _check_digits(text: str) -> None:
    """Refuse a flag with an oversized number, judged on the text before any
    Fraction is built: Fraction("1e10000000") alone takes seconds."""
    for number in re.split("[/:,]", text):
        mantissa, _, exp = number.lower().partition("e")
        try:
            digits = sum(map(str.isdigit, mantissa)) + abs(int(exp or 0))
        except ValueError:  # the e is no exponent (as in "beta"), or the text is malformed
            digits = sum(map(str.isdigit, number))
        if digits > _DIGIT_CAP:
            raise argparse.ArgumentTypeError(f"more than {_DIGIT_CAP} digits in {text[:40]!r}")


def _number(text: str, convert: Callable, error: str | None = None):
    """``convert(text)`` for a numeric flag, once _check_digits passes the
    text; a ValueError or ZeroDivisionError of ``convert`` is refused with
    ``error`` formatted with the text, or else with its own message."""
    _check_digits(text)
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(error.format(text) if error else str(exc)) from exc


def _parse_bound(text: str) -> Fraction:
    value = _number(text, Fraction, "bad bound {!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("bound must be positive")
    return value


def _parse_bounds(text: str) -> list[Fraction]:
    # a repeated cutoff is kept once, in first-seen order
    return list(dict.fromkeys(_parse_bound(tok) for tok in text.split(",")))


def _parse_j(text: str) -> Fraction:
    text = text.strip()
    if text.startswith("cm:"):
        disc, sep, conductor = text[3:].partition(":")
        try:
            return Fraction(cm.cm_order(int(disc), int(conductor) if sep else 1).j)
        except (ValueError, KeyError) as exc:
            raise argparse.ArgumentTypeError(f"bad CM alias {text!r}") from exc
    return _number(text, Fraction, "bad j-invariant {!r}")


def _parse_j_list(text: str) -> list[Fraction]:
    # "cm" is the thirteen CM j; the census tracks a repeated j once
    cm_js = [Fraction(o.j) for o in cm.CM_ORDERS]
    js = []
    for tok in filter(None, map(str.strip, text.split(","))):
        js += cm_js if tok.lower() == "cm" else [_parse_j(tok)]
    if not js:
        raise argparse.ArgumentTypeError(f"no j-invariant in {text!r}")
    return js


def _json_cell(value, as_string: bool) -> str:
    """One cell as JSON text; integers in string columns or above 2^53 are quoted."""
    if getattr(value, "denominator", None) == 1:  # an int, or a Fraction that is one
        value = value.numerator
        return f'"{value}"' if as_string or abs(value) > 2**53 else str(value)
    return json.dumps(str(value))


# JSON columns whose integers are always quoted: the curve coefficients and j
_STRING_COLUMNS = frozenset({"A", "B", "B_abs", "j"})


def _table_widths(headers: list[str], rows: Iterable[tuple]) -> list[int]:
    """The width of each table column: its longest header or cell text.
    The longest str of an int is that of the column's max or min, so only
    those two ints are formatted; every other cell is formatted here."""
    widths = list(map(len, headers))
    lo, hi = [0] * len(headers), [0] * len(headers)  # str(0) fits any header
    for row in rows:
        for i, v in enumerate(row):
            if type(v) is int:
                if v > hi[i]:
                    hi[i] = v
                elif v < lo[i]:
                    lo[i] = v
            else:
                widths[i] = max(widths[i], len(str(v)))
    return [max(w, len(str(a)), len(str(b))) for w, a, b in zip(widths, lo, hi)]


def _write(path: str | None, write: Callable) -> None:
    """Call ``write`` on the file ``path``, or on stdout if it is None.  A failed
    open, write, flush or close is a refusal: 141 for a closed pipe (as SIGPIPE
    exits), else 2; a failed stdout moves to devnull for a silent shutdown."""
    try:
        out = open(path, "w") if path else sys.stdout
        try:
            write(out)
        finally:
            (out.close if path else out.flush)()
    except OSError as exc:
        if not path:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise _Refusal(141, None) from None
        raise _Refusal(2, f"error: cannot write {path or 'stdout'}: {exc.strerror}") from None


def _print(*lines) -> None:
    _write(None, lambda out: print(*lines, sep="\n", file=out))


def _emit(args, headers: list[str], rows: Callable[[], Iterable[tuple]]) -> None:
    """Write the rows that ``rows()`` returns, each a tuple in header order,
    to ``args.output`` or stdout.  Every format writes row by row; the table
    calls ``rows`` twice, first for its column widths."""

    def write(out) -> None:
        if args.format == "json":
            # the layout of json.dumps(list_of_rows, indent=2), row by row;
            # every cell is a scalar
            keys = [(f"    {json.dumps(h)}: ", h in _STRING_COLUMNS) for h in headers]
            first = True
            for row in rows():
                cells = ",\n".join(
                    key + _json_cell(value, quoted) for (key, quoted), value in zip(keys, row)
                )
                out.write(("[\n" if first else ",\n") + "  {\n" + cells + "\n  }")
                first = False
            print("[]" if first else "\n]", file=out)
        elif args.format == "csv":
            writer = csv.writer(out)
            writer.writerow(headers)
            writer.writerows(rows())
        else:
            widths = _table_widths(headers, rows())
            print("  ".join(map(str.ljust, headers, widths)).rstrip(), file=out)
            for row in rows():
                print("  ".join(map(str.rjust, map(str, row), widths)).rstrip(), file=out)

    _write(args.output, write)


# ---------------------------------------------------------------- count --


def cmd_count(args) -> None:
    if args.family == "j" and args.j is None:
        raise _Refusal(2, "error: --j is required for --family j")
    spec, x = args.height, args.bound
    family_args = (args.j, spec, x) if args.family == "j" else (spec, x)
    count, main_term = {
        "all": (families.count_curves, "main_term_curves"),
        "rep": (families.count_representatives, "main_term_representatives"),
        "j": (families.count_curves_with_j, "main_term_curves_with_j"),
        "cm": (cm.count_cm_curves, "cm_curves_asymptotic"),
        "cm-rep": (cm.count_cm_representatives, "cm_asymptotic"),
    }[args.family]
    exact = count(*family_args)
    if not args.asymptotic:
        return _print(exact)
    import mpmath

    from . import asymptotics

    approx = getattr(asymptotics, main_term)(*family_args)
    _print(exact, f"main term: {mpmath.nstr(approx, 12)}",
           f"relative error: {asymptotics.report(exact, approx).percent()}")


# ---------------------------------------------------------- parametrize --

# The most curves `parametrize` lists (only the square-free m count under
# --squarefree-only).  Every format streams its rows (the table in two
# passes), but a listing at the budget already takes seconds.
_ROW_BUDGET = 10**6


def cmd_parametrize(args) -> None:
    spec, x, j = args.height, args.bound, args.j
    family, b = families.fixed_j_family(j), box(spec, x)
    if args.squarefree_only and family.r != 6:
        raise SpecialJError("the square-free parameter rule belongs to the generic fixed-j "
                            "family; j = 0 and j = 1728 representatives are 6-free/4-free instead")
    listed = (family.representatives_in if args.squarefree_only else family.curves_in)(b)
    if listed > _ROW_BUDGET:
        raise ScanBudgetError(f"listing {listed} curves exceeds the budget of {_ROW_BUDGET} rows")
    bound = family.max_parameter(b)
    mu = moebius_sieve(bound) if args.squarefree_only else None
    least_height = height(spec, family.least)
    if least_height.denominator == 1:  # integer rows multiply faster than Fraction ones
        least_height = least_height.numerator

    def rows():
        for m in range(-bound, bound + 1):
            if m and (mu is None or mu[abs(m)]):
                curve = family.member(m)
                # curve m has height |m|^r H(A_j, B_j)
                yield m, curve.A, curve.B, abs(m) ** family.r * least_height

    _emit(args, ["m", "A", "B", "height"], rows)


# ---------------------------------------------------------------- twist --


def cmd_twist(args) -> None:
    dec = families.twist_decompose(WeierstrassCurve(args.A, args.B))
    _print(f"{dec.d} {dec.representative.A} {dec.representative.B}")


# --------------------------------------------------------------- tables --


def _table_cm_minimal(spec: HeightSpec, bounds):
    return ["d_K", "f", "j", "A", "B_abs", "min_height"], [
        (r.disc, r.conductor, r.j, r.curves[0].A, abs(r.curves[0].B), r.min_height)
        for r in cm.cm_minimal_table(spec)
    ]


def _table_cm_counts(spec: HeightSpec, bounds):
    table = cm.cm_count_table(spec, bounds or cm.DEFAULT_COUNT_BOUNDS)
    rows = [(r.disc, r.conductor, r.j, *r.counts) for r in table.rows]
    rows.append(("total", "", "", *table.totals))
    return ["d_K", "f", "j"] + [f"X={b}" for b in table.bounds], rows


def _table_coefficients(spec: HeightSpec, bounds):
    import mpmath

    from . import asymptotics

    return ["d_K", "f", "j", "coefficient"], [
        (r.disc, r.conductor, r.j, mpmath.nstr(r.coefficient, 10))
        for r in asymptotics.coefficient_table(spec)
    ]


def _table_relative_error(spec: HeightSpec, bounds):
    from . import asymptotics

    return ["X", "exact", "approximation", "relative_error"], [
        (r.bound, r.exact, f"{r.approximation:.2f}", asymptotics.format_percent(r.relative_error))
        for r in asymptotics.error_table(spec, bounds or asymptotics.DEFAULT_ERROR_BOUNDS)
    ]


def cmd_tables(args) -> None:
    if args.bounds and args.name in ("cm-minimal", "coefficients"):
        raise _Refusal(
            2, f"error: --bounds applies to cm-counts and relative-error, not {args.name}")
    headers, rows = {
        "cm-minimal": _table_cm_minimal, "cm-counts": _table_cm_counts,
        "coefficients": _table_coefficients, "relative-error": _table_relative_error,
    }[args.name](args.height, args.bounds)
    _emit(args, headers, lambda: rows)


# --------------------------------------------------------------- verify --


def cmd_verify(args) -> None:
    from . import oracle

    try:
        oracle.scan_budget()
    except ValueError as exc:
        raise _Refusal(2, f"error: {exc}") from None
    spec, x = args.height, args.bound
    census = oracle.brute_census(spec, x, tracked_j=args.j or ())
    checks = [
        ("curves", families.count_curves(spec, x), census.total_elliptic),
        ("representatives", families.count_representatives(spec, x), census.total_representatives),
        ("singular-locus", families.count_singular(spec, x), census.singular_points),
    ]
    for j, (tilde, rep) in census.per_j.items():
        checks += [
            (f"curves j={j}", families.count_curves_with_j(j, spec, x), tilde),
            (f"representatives j={j}", families.count_representatives_with_j(j, spec, x), rep),
        ]
    _print(*(f"{'PASS' if formula == scanned else 'FAIL'}  {name}: formula={formula} "
             f"census={scanned}" for name, formula, scanned in checks))
    failed = [name for name, formula, scanned in checks if formula != scanned]
    if failed:
        raise _Refusal(5, f"mismatch in family: {failed[0]}")
    _print(f"PASS  all formulas agree with the census of {census.box} at bound {x}")


# ----------------------------------------------------------------- main --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhc",
        description="Exact counts of integer Weierstrass elliptic curves ordered by naive height.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bound=True):
        p.add_argument("--height", type=lambda t: _number(t, parse_height_spec), default="cal",
                       help="cal, ncal, or alpha/<num>:<den>,beta/<num>:<den>")
        if bound:
            p.add_argument("--bound", type=_parse_bound, required=True,
                           help="height cutoff X (integer, 1e-notation, or p/q)")

    p = sub.add_parser("count", help="exact count of a curve family")
    p.add_argument("--family", choices=["all", "rep", "j", "cm", "cm-rep"], required=True)
    add_common(p)
    p.add_argument("--j", type=_parse_j, help="j-invariant (required for --family j)")
    p.add_argument("--asymptotic", action="store_true",
                   help="also print the main term and the relative error")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("parametrize", help="list the fixed-j family up to a bound")
    p.add_argument("--j", type=_parse_j, required=True)
    add_common(p)
    p.add_argument("--squarefree-only", action="store_true",
                   help="keep only Q-isomorphism class representatives (generic j)")
    p.set_defaults(func=cmd_parametrize)

    p = sub.add_parser("twist", help="decompose a curve as d * representative")
    for name in ("A", "B"):
        p.add_argument(name, type=lambda t: _number(t, int, "invalid int value: {!r}"))
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("tables", help="emit a reference table")
    p.add_argument("--name", choices=["cm-minimal", "cm-counts", "coefficients", "relative-error"],
                   required=True)
    add_common(p, bound=False)
    p.add_argument("--bounds", type=_parse_bounds,
                   help="comma-separated cutoffs for cm-counts and relative-error")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="brute-force census vs the exact formulas")
    add_common(p)
    p.add_argument("--j", type=_parse_j_list,
                   help="comma-separated j-invariants to track ('cm' = all thirteen)")
    p.set_defaults(func=cmd_verify)

    for listing in (sub.choices["parametrize"], sub.choices["tables"]):
        listing.add_argument("--format", choices=["table", "csv", "json"], default="table")
        listing.add_argument("--output", help="write to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except _Refusal as exc:
        code, line = exc.args
    except SpecialJError as exc:
        code, line = 3, f"error: {exc}"
    except SingularCurveError as exc:
        code, line = 4, f"error: {exc}"
    except ScanBudgetError as exc:
        code, line = 6, f"refused: {exc}"
    if line:
        try:
            print(line, file=sys.stderr)
        except OSError:  # an unwritable stderr loses the line, not the exit code
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
