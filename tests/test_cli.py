"""CLI tests: every command is a thin adapter over the library, with the
documented exit codes and formats."""

import ast
import concurrent.futures
import csv
import errno
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhc.cli as cli
from nhc import cm, exactarith, families
from nhc.heights import CALIBRATED, height, parse_height_spec


# Two 31-digit primes: Pollard rho needs about 10^15 steps to split it.
HARD_SEMIPRIME = (10**30 + 57) * (10**30 + 99)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_cm_rep(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "cm-rep", "--height", "cal", "--bound", "1e3")
        assert code == 0
        assert out.splitlines()[0] == "24"

    def test_all_uncalibrated(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "all", "--height", "ncal", "--bound", "1")
        assert (code, out.strip()) == (0, "8")

    def test_fixed_j(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "j", "--j=-3375", "--height", "cal", "--bound", "259308"
        )
        assert (code, out.strip()) == (0, "2")

    def test_asymptotic_lines(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "cm-rep", "--height", "cal", "--bound", "1e5",
            "--asymptotic",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "180"
        assert lines[1].startswith("main term: 181.5")
        assert lines[2] == "relative error: 0.86%"

    def test_asymptotic_past_the_float_range(self, capsys):
        # about 8.6e333 curves: neither the count nor the main term is a float
        weight = f"1:{10**200}"
        code, out, err = run(
            capsys, "count", "--family", "all", "--height", f"alpha/{weight},beta/{weight}",
            "--bound", "1e200", "--asymptotic",
        )
        assert (code, err) == (0, "")
        count, main_term, error = out.splitlines()
        assert len(count) == 334
        assert main_term == "main term: 8.61773876013e+333"
        assert error == "relative error: 0%"

    def test_scientific_bound_is_exact(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "j", "--j", "0", "--bound", "1e30")
        assert code == 0
        assert int(out.strip()) == families.count_curves_with_j(0, CALIBRATED, 10**30)

    def test_rational_bound(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "all", "--height", "ncal", "--bound", "27/4")
        assert code == 0
        assert int(out.strip()) == families.count_curves(cli.parse_height_spec("ncal"), Fraction(27, 4))

    def test_missing_j_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--family", "j", "--bound", "100")
        assert code == 2
        assert "--j" in err

    @pytest.mark.parametrize("argv", [
        ["parametrize", "--j", "abc", "--bound", "100"],
        ["count", "--family", "j", "--j", "1/0", "--bound", "100"],
        ["verify", "--bound", "100", "--j", "3,abc"],
    ], ids=["letters", "zero-denominator", "in-a-list"])
    def test_malformed_j_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "bad j-invariant" in capsys.readouterr().err

    @pytest.mark.parametrize("j", [",", "", " , ,"])
    def test_empty_j_list_exits_2(self, capsys, j):
        # a --j that names no j-invariant is malformed, not a census of none
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--bound", "1e3", "--j", j])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"no j-invariant in {j!r}")

    @pytest.mark.parametrize("j", [" cm:-7", "cm:-7 ", " -3375"])
    def test_spaced_j(self, capsys, j):
        # the same count as the unspaced -3375, which cm:-7 names
        expected = families.count_curves_with_j(-3375, CALIBRATED, 10**9)
        assert run(capsys, "count", "--family", "j", "--j", j, "--bound", "1e9") == (
            0, f"{expected}\n", "")

    def test_spaced_height(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "all", "--height", "alpha/4:1, beta/27:1",
                           "--bound", "7000")
        assert (code, out.strip()) == (0, "820")

    def test_malformed_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--family", "all", "--bound", "banana"])
        assert exc.value.code == 2

    def test_custom_height_spec(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "all", "--height", "alpha/4:1,beta/27:1",
            "--bound", "7000",
        )
        assert (code, out.strip()) == (0, "820")

    @pytest.mark.parametrize("argv", [
        ("count", "--family", "rep", "--bound", "1e200"),
        # the first cutoff past the budget: the sieve to 89,089,871 is
        # refused before any term of the sum
        ("count", "--family", "rep", "--height", "cal", "--bound", "1e96"),
        ("count", "--family", "cm-rep", "--bound", "1e200"),
        ("parametrize", "--j", "54000", "--bound", "1e200", "--squarefree-only"),
    ], ids=["rep", "rep-1e96", "cm-rep", "parametrize"])
    def test_oversized_sieve_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("refused: Moebius sieve")

    @pytest.mark.parametrize("argv", [
        ("twist", "--", str(HARD_SEMIPRIME), str(HARD_SEMIPRIME)),
        ("count", "--family", "j", "--j", f"{HARD_SEMIPRIME}/7", "--bound", "1e10"),
    ], ids=["twist", "fixed-j"])
    def test_factoring_budget_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 3
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("refused: factoring a 61-digit composite")

    def test_factoring_budget_scaled_past_61_digits(self, capsys):
        # trial division leaves a 223-digit composite of a(10^249), whose
        # budget is cut by (61 / 223)^2
        code, out, err = run(capsys, "count", "--family", "j", "--j", "1e249", "--bound", "1e10")
        budget = exactarith._RHO_BUDGET * 61**2 // 223**2
        assert (code, out) == (6, "")
        assert err == (
            f"refused: factoring a 223-digit composite exceeds the budget of {budget} Pollard rho steps\n"
        )

    def test_factoring_budget_refused_after_other_primes(self, capsys):
        # a fixed j whose a(j) = 4M/(27N) needs rho on M = 10000000019 *
        # 20000000089, then the refusals of the commands above, unchanged
        families.fixed_j_family.cache_clear()
        assert run(capsys, "count", "--family", "j", "--j", "997/115740741475694446", "--bound", "1e30")[0] == 0
        for argv in (
            ("twist", "--", str(HARD_SEMIPRIME), str(HARD_SEMIPRIME)),
            ("count", "--family", "j", "--j", f"{HARD_SEMIPRIME}/7", "--bound", "1e10"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (6, "")
            assert err.startswith("refused: factoring a 61-digit composite")

    def test_refusal_independent_of_history(self, capsys):
        # j = n/D with 1728D - n = M and n = -M mod 1728, for M = p * s1,
        # q * s2 and p * q: rho splits the first two, and p * q is refused
        # whether p and q were split before it or not
        def nextprime(n):
            return next(m for m in range(n, 2 * n) if exactarith.is_prime(m))

        p, q = nextprime(10**13), nextprime(3 * 10**13)
        js = []
        for m in p * nextprime(10**6 + 3), q * nextprime(2 * 10**6), p * q:
            n = -m % 1728
            js.append(str(Fraction(n, (n + m) // 1728)))
        assert js[2] == "233/173611111111817129629630"
        families.fixed_j_family.cache_clear()
        for order in [js[2]], js, [js[2], *js[:2]]:
            code, out, err = run(capsys, "verify", "--bound", "1e6", "--j", ",".join(order))
            assert (code, out) == (6, "")
            assert err == "refused: factoring a 27-digit composite exceeds the budget of 851968 Pollard rho steps\n"


class TestParametrize:
    def test_cm_alias_six_curves(self, capsys):
        code, out, _ = run(capsys, "parametrize", "--j", "cm:-163", "--height", "cal", "--bound", "1e25")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7  # header + six curves
        ms = [int(line.split()[0]) for line in lines[1:]]
        assert ms == [-3, -2, -1, 1, 2, 3]

    def test_j0_convention(self, capsys):
        code, out, _ = run(capsys, "parametrize", "--j", "0", "--height", "cal", "--bound", "27")
        rows = [line.split() for line in out.splitlines()[1:]]
        assert code == 0
        assert [(r[1], r[2]) for r in rows] == [("0", "-1"), ("0", "1")]

    @pytest.mark.parametrize("fmt, empty", [
        ("table", "m  A  B  height\n"), ("csv", "m,A,B,height\r\n"), ("json", "[]\n"),
    ])
    def test_below_minimal_height_is_empty(self, capsys, fmt, empty):
        code, out, _ = run(capsys, "parametrize", "--j=-3375", "--height", "cal", "--bound", "259307",
                           "--format", fmt)
        assert (code, out) == (0, empty)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_rows_are_written_as_they_come(self, fmt):
        out = io.StringIO()
        written = []  # the output so far, as each row is asked for

        def rows():
            for m in range(3):
                written.append(out.getvalue())
                yield m, -m, 10**20

        with redirect_stdout(out):
            cli._emit(SimpleNamespace(format=fmt, output=None), ["m", "A", "B"], rows)
        if fmt == "table":  # a first pass for the widths writes nothing
            assert written[:3] == ["", "", ""]
            del written[:3]
            assert out.getvalue().splitlines() == [
                "m  A   B", *(f"{m}  {-m:2}  {10**20}" for m in range(3))
            ]
        assert len(written) == 3
        assert 0 < len(written[1]) < len(written[2]) < len(out.getvalue())
        assert all(out.getvalue().startswith(w) for w in written)
        if fmt == "json":  # A is a coefficient column, so it is quoted too
            expected = [{"m": m, "A": str(-m), "B": str(10**20)} for m in range(3)]
            assert out.getvalue() == json.dumps(expected, indent=2) + "\n"

    def test_table_streams_its_rows(self, tmp_path):
        # 2 * 10^4 rows; a table that kept a copy of every cell peaked at 7.2 MB
        tracemalloc.start()
        try:
            code = cli.main(["parametrize", "--j", "0", "--height", "cal", "--bound", "2.7e9",
                             "--output", str(tmp_path / "table.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len((tmp_path / "table.txt").read_text().splitlines()) == 1 + 2 * 10**4
        assert peak < 2**20

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("j, bound", [(-3375, "1e9"), (0, "1e3"), (1728, "1e3")],
                             ids=["r6", "r2", "r3"])
    def test_non_integer_heights(self, capsys, fmt, j, bound):
        # |m|^r H(A_j, B_j) for every r; both least heights are non-integers
        spec = parse_height_spec("alpha/1:2,beta/1:3")
        code, out, _ = run(capsys, "parametrize", f"--j={j}", "--height", "alpha/1:2,beta/1:3",
                           "--bound", bound, "--format", fmt)
        assert code == 0
        if fmt == "json":
            rows = [tuple(r.values()) for r in json.loads(out)]
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
        else:
            rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) > 4
        assert any(Fraction(h).denominator > 1 for *_, h in rows)
        for m, a, b, h in rows:
            curve = families.curve_from_parameter(j, int(m))
            assert (int(a), int(b)) == curve
            assert Fraction(h) == height(spec, curve)

    def test_squarefree_filter(self, capsys):
        code, out, _ = run(
            capsys, "parametrize", "--j=-3375", "--height", "cal", "--bound", "1e9",
            "--squarefree-only",
        )
        assert code == 0
        ms = [int(line.split()[0]) for line in out.splitlines()[1:]]
        assert 4 not in ms and -4 not in ms and 1 in ms

    def test_squarefree_flag_refused_for_special_j(self, capsys):
        code, _, err = run(
            capsys, "parametrize", "--j", "0", "--bound", "100", "--squarefree-only"
        )
        assert code == 3
        assert "6-free" in err
        assert "count --family" not in err  # no count family lists fixed-j representatives

    def test_row_budget_refused(self, capsys):
        # j = 0 at cal 1e16 has 2 * floor(sqrt(1e16 / 27)) = 38,490,016 curves
        start = time.perf_counter()
        code, out, err = run(capsys, "parametrize", "--j", "0", "--bound", "1e16")
        assert time.perf_counter() - start < 1
        assert code == 6
        assert out == ""
        assert err == "refused: listing 38490016 curves exceeds the budget of 1000000 rows\n"

    def test_row_budget_edge(self, capsys, monkeypatch):
        # j = 54000 (cal) has least height 13500, so |m| <= (X / 13500)^(1/6):
        # at X = 4^6 * 13500 that is 8 curves, 6 of them with m square-free
        argv = ("parametrize", "--j", "54000", "--bound", str(4**6 * 13500))
        monkeypatch.setattr(cli, "_ROW_BUDGET", 6)
        code, out, _ = run(capsys, *argv, "--squarefree-only")
        assert (code, len(out.splitlines())) == (0, 7)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (6, "")
        assert err.startswith("refused: listing 8 curves")
        monkeypatch.setattr(cli, "_ROW_BUDGET", 8)
        code, out, _ = run(capsys, *argv)
        assert (code, len(out.splitlines())) == (0, 9)

    def test_json_big_integers_are_strings(self, capsys):
        code, out, _ = run(
            capsys, "parametrize", "--j", "cm:-163", "--bound", "1e25", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        row = next(r for r in rows if r["m"] == 1)
        assert row["A"] == "-8697680"
        assert row["B"] == "-9873093538"
        assert row["height"] == "2631905352272628650988"  # beyond 53-bit floats

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "parametrize", "--j", "0", "--bound", "27", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "m,A,B,height"
        assert out.splitlines()[1] == "-1,0,-1,27"


class TestTwist:
    def test_examples(self, capsys):
        assert run(capsys, "twist", "--", "-240", "1408")[1].strip() == "2 -15 22"
        assert run(capsys, "twist", "--", "-15", "22")[1].strip() == "1 -15 22"
        assert run(capsys, "twist", "0", "64")[1].strip() == "2 0 1"

    @pytest.mark.parametrize("a, b", [
        (f"{(10**16 + 61) ** 2}",) * 2,  # the square of a 17-digit prime, which rho cannot split
        (f"{3 * 1000000000039 * 3000000000013}", f"{5 * 1000000000039 * 3000000000013}"),
    ], ids=["prime-square", "two-13-digit-primes"])
    def test_answers_without_splitting_the_gcd(self, capsys, a, b):
        # no fourth power divides gcd(A, B), and neither gcd reaches rho: an
        # exact square root settles the first, the primes up to 10^6 the second
        assert run(capsys, "twist", "--", a, b) == (0, f"1 {a} {b}\n", "")

    def test_singular_exits_4(self, capsys):
        code, _, err = run(capsys, "twist", "--", "-3", "2")
        assert code == 4
        assert "singular" in err

    @pytest.mark.parametrize("a, b", [("7" * 251, "1"), ("1", "-" + "9" * 1000)], ids=["A", "B"])
    def test_oversized_coefficient_exits_2_at_once(self, capsys, a, b):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["twist", "--", a, b])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == err[-1:]
        assert "more than 250 digits" in err[-1]


class TestTables:
    def test_cm_counts_values(self, capsys):
        code, out, _ = run(capsys, "tables", "--name", "cm-counts", "--height", "cal",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 15  # header + 13 orders + totals
        top = lines[1].split(",")
        assert top[:3] == ["-3", "1", "0"]
        assert top[3:] == ["38490", "12171612", "3849001794", "1217161238900", "384900179459750"]
        totals = lines[-1].split(",")
        assert totals[0] == "total"
        table = cm.cm_count_table(CALIBRATED)
        assert [int(v) for v in totals[3:]] == list(table.totals)

    def test_cm_counts_custom_bounds(self, capsys):
        code, out, _ = run(capsys, "tables", "--name", "cm-counts", "--bounds", "1e3,1e6",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "d_K,f,j,X=1000,X=1000000"

    def test_coefficients_match_reference(self, capsys):
        code, out, _ = run(capsys, "tables", "--name", "coefficients", "--format", "csv")
        assert code == 0
        rows = {tuple(line.split(",")[:2]): line.split(",")[3] for line in out.splitlines()[1:]}
        assert rows[("-3", "2")] == "0.2491681566"
        assert rows[("-163", "1")] == "0.0003272174502"
        assert len(rows) == 11

    def test_cm_minimal(self, capsys):
        code, out, _ = run(capsys, "tables", "--name", "cm-minimal", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        row = next(l for l in lines if l.startswith("-7,1"))
        assert row == "-7,1,-3375,-35,98,259308"

    def test_relative_error(self, capsys):
        code, out, _ = run(capsys, "tables", "--name", "relative-error", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X,exact,approximation,relative_error"
        assert "1000,24,27.26," in lines[3]
        assert lines[-1] == "27000000000,65732,65722.95,0.014%"

    def test_relative_error_custom_bounds(self, capsys):
        code, out, _ = run(capsys, "tables", "--name", "relative-error", "--bounds", "1e3,1e6",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "X,exact,approximation,relative_error"
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1000", "1000000"]
        assert out.splitlines()[1].startswith("1000,24,27.26,")

    @pytest.mark.parametrize("name", ["cm-minimal", "coefficients"])
    def test_bounds_refused_where_unused(self, capsys, name):
        code, out, err = run(capsys, "tables", "--name", name, "--bounds", "1e3")
        assert (code, out) == (2, "")
        assert err.startswith("error: --bounds") and len(err.splitlines()) == 1

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "coeffs.json"
        code, out, _ = run(capsys, "tables", "--name", "coefficients", "--format", "json",
                           "--output", str(target))
        assert code == 0 and out == ""
        rows = json.loads(target.read_text())
        assert len(rows) == 11
        assert rows[0]["d_K"] == -3
        # 18-digit j-invariants must survive as exact strings
        assert rows[-1]["j"] == "-262537412640768000"

    @pytest.mark.parametrize("argv", [
        ["tables", "--name", "cm-minimal", "--format", "csv"],
        ["parametrize", "--j", "0", "--bound", "100"],
    ], ids=["tables", "parametrize"])
    @pytest.mark.parametrize("target, reason", [
        ("missing/x.csv", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv, target, reason):
        path = tmp_path / target
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: {reason}\n"

    def test_repeated_bound_is_one_row(self, capsys):
        argv = ["tables", "--name", "cm-counts", "--bounds", "1e3,1000,7/2"]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert out.splitlines()[0] == "d_K,f,j,X=1000,X=7/2"
        _, out, _ = run(capsys, *argv, "--format", "table")
        assert out.split()[:5] == ["d_K", "f", "j", "X=1000", "X=7/2"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert list(json.loads(out)[0]) == ["d_K", "f", "j", "X=1000", "X=7/2"]
        _, out, _ = run(capsys, "tables", "--name", "relative-error", "--bounds", "1e3,1000,7/2",
                        "--format", "csv")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1000", "7/2"]

    def test_unknown_table_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tables", "--name", "bogus"])
        assert exc.value.code == 2


class TestBrokenPipe:
    @pytest.mark.parametrize("argv, lines_read", [
        # more than a pipe buffer (64 KB) of csv: a write fails mid-listing
        (["parametrize", "--j", "0", "--bound", "1e9", "--format", "csv"], 1),
        # the same listing as a table, written in its second pass
        (["parametrize", "--j", "0", "--bound", "1e9"], 1),
        # one short line, still buffered when the command returns: the flush fails
        (["twist", "--", "-240", "1408"], 0),
    ], ids=["write", "table", "flush"])
    def test_closed_pipe_exits_141_quietly(self, argv, lines_read):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nhc.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


def nhc_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run ``python -m nhc.cli`` on ``argv`` in a new process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nhc.cli", *argv], stdout=stdout,
                          stderr=stderr, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    # every write to /dev/full fails with ENOSPC
    REASON = os.strerror(errno.ENOSPC)

    @pytest.mark.parametrize("argv", [
        ["count", "--family", "cm-rep", "--bound", "1e3"],
        ["count", "--family", "cm-rep", "--bound", "1e3", "--asymptotic"],
        ["twist", "--", "-240", "1408"],
        ["verify", "--bound", "1e4", "--j", "cm"],
        *(["tables", "--name", "cm-counts", "--format", fmt] for fmt in ("table", "csv", "json")),
        *(["parametrize", "--j", "0", "--bound", "1e3", "--format", fmt]
          for fmt in ("table", "csv", "json")),
        # more than a pipe buffer: a write fails mid-listing, before the flush
        ["parametrize", "--j", "0", "--bound", "1e9", "--format", "csv"],
    ], ids=["count", "count-asymptotic", "twist", "verify", "tables-table", "tables-csv",
            "tables-json", "parametrize-table", "parametrize-csv", "parametrize-json",
            "parametrize-long"])
    def test_full_stdout_exits_2_on_one_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = nhc_process(*argv, stdout=full)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {self.REASON}\n")

    @pytest.mark.parametrize("argv", [
        ["tables", "--name", "cm-minimal", "--format", "csv"],
        ["parametrize", "--j", "0", "--bound", "1e3"],
        ["parametrize", "--j", "0", "--bound", "1e9", "--format", "json"],
    ], ids=["tables", "parametrize", "parametrize-long"])
    def test_full_output_file_exits_2_on_one_line(self, argv):
        proc = nhc_process(*argv, "--output", "/dev/full")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: cannot write /dev/full: {self.REASON}\n"

    @pytest.mark.parametrize("argv, code", [
        (["count", "--family", "all", "--bound", "x"], 2),  # argparse's own error
        (["count", "--family", "j", "--bound", "100"], 2),
        (["parametrize", "--j", "0", "--bound", "1e3", "--squarefree-only"], 3),
        (["twist", "--", "0", "0"], 4),
        (["count", "--family", "rep", "--bound", "1e200"], 6),
    ], ids=["argparse", "2", "3", "4", "6"])
    def test_full_stderr_keeps_the_exit_code(self, argv, code):
        with open("/dev/full", "w") as full:
            proc = nhc_process(*argv, stderr=full)
        assert (proc.returncode, proc.stdout) == (code, "")


class TestVerify:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--height", "cal", "--bound", "1e4",
                           "--j", "0,1728,-3375")
        assert code == 0
        assert "PASS  all formulas agree" in out
        assert "FAIL" not in out

    def test_repeated_j_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--height", "cal", "--bound", "1e4",
                           "--j", "0,0,1728")
        assert code == 0
        assert "FAIL" not in out

    def test_alias_of_a_listed_j_checks_it_once(self, capsys):
        code, out, _ = run(capsys, "verify", "--height", "cal", "--bound", "1e5",
                           "--j", "54000,cm:-3:2")
        assert code == 0
        assert out == (
            "PASS  curves: formula=7132 census=7132\n"
            "PASS  representatives: formula=7130 census=7130\n"
            "PASS  singular-locus: formula=7 census=7\n"
            "PASS  curves j=54000: formula=2 census=2\n"
            "PASS  representatives j=54000: formula=2 census=2\n"
            "PASS  all formulas agree with the census of HeightBox(x_bound=29, y_bound=60) "
            "at bound 100000\n"
        )

    def test_cm_keyword_tracks_thirteen(self, capsys):
        code, out, _ = run(capsys, "verify", "--height", "ncal", "--bound", "100", "--j", "cm")
        assert code == 0
        assert out.count("curves j=") == 13

    @pytest.mark.parametrize("js, first", [("3/7,cm", ["3/7"]), ("cm,0", [])])
    def test_cm_keyword_inside_a_list(self, capsys, js, first):
        # "cm" expands where it stands; each j is tracked once, in first-seen order
        code, out, _ = run(capsys, "verify", "--height", "ncal", "--bound", "100", "--j", js)
        assert code == 0
        assert "FAIL" not in out
        tracked = [line.split()[2][2:-1] for line in out.splitlines() if " curves j=" in line]
        assert tracked == first + [str(Fraction(o.j)) for o in cm.CM_ORDERS]

    @pytest.mark.parametrize("js, tracked", [("0, cm:-7", ["0", "-3375"]),
                                             (" cm:-7 , 54000 ", ["-3375", "54000"])])
    def test_spaced_tokens(self, capsys, js, tracked):
        code, out, _ = run(capsys, "verify", "--height", "cal", "--bound", "1e4", "--j", js)
        assert code == 0
        assert "FAIL" not in out
        assert [line.split()[2][2:-1] for line in out.splitlines() if " curves j=" in line] == tracked

    def test_default_is_serial(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a default verify started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, _ = run(capsys, "verify", "--height", "cal", "--bound", "1e5", "--j", "cm")
        assert code == 0
        assert "FAIL" not in out

    def test_budget_refusal_exits_6(self, capsys):
        code, _, err = run(capsys, "verify", "--height", "cal", "--bound", "1e12")
        assert code == 6
        assert "lattice points" in err

    @pytest.mark.parametrize("value", ["abc", "-5", "1e9"])
    def test_bad_oracle_cap_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NHC_ORACLE_CAP", value)
        code, out, err = run(capsys, "verify", "--bound", "100")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "NHC_ORACLE_CAP" in err

    def test_workers_is_no_option(self, capsys):
        # the census chooses its own pool from the box
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--bound", "100", "--workers", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err.splitlines()[-1]
        assert "Traceback" not in err
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert "--workers" not in capsys.readouterr().out

    def test_census_oserror_is_no_write_failure(self, capsys, monkeypatch):
        # a census pool that cannot fork is not relabelled as an output failure
        from nhc import oracle

        def no_fork(*args, **kwargs):
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(oracle, "brute_census", no_fork)
        with pytest.raises(BlockingIOError):
            cli.main(["verify", "--bound", "100"])
        assert capsys.readouterr() == ("", "")

    def test_mismatch_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(families, "count_curves", lambda spec, x: 10**9)
        code, out, err = run(capsys, "verify", "--height", "cal", "--bound", "100")
        assert code == 5
        assert "mismatch in family: curves" in err
        assert "FAIL" in out


# Inputs for the fuzz below.  Valid values are small enough that every
# command answers in well under a second, or so large that it is refused at
# once; one token in three of the commands is dropped, replaced or followed
# by a malformed one.
BOUNDS = st.one_of(
    st.integers(1, 10**5).map(str),
    st.sampled_from(["1/3", "7/2", "27e3", "1e5", "1e16", "1e200"]),
)
J_VALUES = st.one_of(
    st.fractions(min_value=-3000, max_value=3000, max_denominator=30).map(str),
    st.sampled_from(["0", "1728", "cm:-7", "cm:-3:2", "cm:-163"]),
)
HEIGHTS = st.one_of(
    st.sampled_from(["cal", "ncal"]),
    st.builds("alpha/{}:{},beta/{}:{}".format, *[st.integers(1, 9)] * 4),
)
MALFORMED = st.sampled_from([
    "--bound=0", "--bound=-1", "--bound=1/0", "--bound=banana", "--j=cm:-5", "--j=1/0",
    "--height=alpha/0:1,beta/1:1", "--height=weird", "--format=xml", "--family=cusp",
    "--name=bogus", "--bounds=1,,2", "--workers=0", "--frobnicate", "x", "-5",
    "--height=alpha/1:0,beta/1:1", "--height=alpha/1:1,beta/1:1,gamma/1:1", "--j=cm:-3:2:9",
    "--bound=1e1000000", "--j=1e5000",
])


def _flag(name, values):
    return values.map(lambda v: f"{name}={v}")


COMMANDS = st.one_of(
    st.tuples(
        st.just("count"), _flag("--family", st.sampled_from(["all", "rep", "j", "cm", "cm-rep"])),
        _flag("--height", HEIGHTS), _flag("--bound", BOUNDS), _flag("--j", J_VALUES),
        st.sampled_from(["--height=cal", "--asymptotic"]),
    ),
    st.tuples(
        st.just("parametrize"), _flag("--j", J_VALUES), _flag("--height", HEIGHTS),
        _flag("--bound", BOUNDS), st.sampled_from(["--height=cal", "--squarefree-only"]),
        _flag("--format", st.sampled_from(["table", "csv", "json"])),
    ),
    st.tuples(
        st.just("twist"), st.just("--"),
        st.one_of(st.integers(-10**6, 10**6), st.sampled_from([-3, 0, -12])).map(str),
        st.one_of(st.integers(-10**6, 10**6), st.sampled_from([2, 0, 16])).map(str),
    ),
    st.tuples(
        st.just("tables"),
        _flag("--name", st.sampled_from(
            ["cm-minimal", "cm-counts", "coefficients", "relative-error"])),
        _flag("--height", HEIGHTS), _flag("--bounds", st.lists(BOUNDS, min_size=1, max_size=3)
                                          .map(",".join)),
        _flag("--format", st.sampled_from(["table", "csv", "json"])),
    ),
    st.tuples(
        st.just("verify"), _flag("--height", HEIGHTS),
        _flag("--bound", st.one_of(st.integers(1, 10**4), st.just(10**200)).map(str)),
        _flag("--j", st.one_of(st.just("cm"), st.lists(J_VALUES, max_size=3).map(",".join))),
    ),
).map(list)


@st.composite
def cli_argvs(draw):
    argv = draw(COMMANDS)
    how = draw(st.sampled_from(["keep", "keep", "drop", "replace", "append", "keep"]))
    if how == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif how == "replace":
        argv[draw(st.integers(1, len(argv) - 1))] = draw(MALFORMED)
    elif how == "append":
        argv.append(draw(MALFORMED))
    return argv


class TestFuzz:
    @pytest.mark.parametrize("argv", [
        ["count", "--family=all", "--bound=1e10000"],
        ["count", "--family=rep", "--bound=1e100000"],
        ["count", "--family=all", "--bound=1e1000000"],
        ["count", "--family=all", "--bound=1e-10000000"],
        ["count", "--family=all", "--bound=" + "9" * 10**6],
        ["count", "--family=j", "--j=1e5000", "--bound=1e10"],
        ["parametrize", "--j=0", "--bound=1e10000"],
        ["tables", "--name=cm-counts", "--bounds=1e9000"],
        ["count", "--family=all", "--height=alpha/1:0,beta/1:1", "--bound=10"],
        ["verify", "--height=alpha/1:0,beta/1:1", "--bound=10"],
        ["count", "--family=all", "--height=alpha/1,beta/1,gamma/3", "--bound=10"],
        ["count", "--family=all", "--height=alpha/1:1,beta/1:1,gamma/1:1", "--bound=10"],
        ["count", "--family=all", "--height=alpha/1" + "0" * 300 + ":1,beta/1:1", "--bound=10"],
        ["count", "--family=j", "--j=cm:-3:2:junk", "--bound=10"],
        ["verify", "--j=54000,cm:-3:2:9", "--bound=10"],
        ["twist", "--", "-" + "3" * 1000, "2"],
    ])
    def test_malformed_flag_exits_2_at_once(self, argv):
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert errors == err.getvalue().splitlines()[-1:]
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=200, deadline=5000)
    @given(cli_argvs())
    def test_documented_exits(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage lines, then the error
                assert exc.code == 2, argv
                assert "error:" in err.getvalue().splitlines()[-1], argv
                return
        assert code in (0, 2, 3, 4, 6), argv
        assert len(err.getvalue().splitlines()) <= 1, argv
        assert (code == 0) == (err.getvalue() == ""), argv


def test_main_alone_exits():
    """Only ``main`` writes to stderr or returns a nonzero int: every other
    function raises its refusal, and ``main`` turns it into its exit."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    stderr, nonzero = set(), set()
    for top in tree.body:  # a nested function counts as the one around it
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                stderr.add(name)
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is int and node.value.value):
                nonzero.add(name)
    assert stderr == {"main"}
    assert nonzero == set()
