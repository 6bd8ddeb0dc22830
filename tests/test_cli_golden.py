"""Golden CLI guard: exit code, stdout and stderr of ``cli.main`` over a
fixed matrix of invocations, compared byte for byte with a recorded file.

The matrix covers every subcommand, output format and height preset, the
degenerate invariants j = 0 and j = 1728, and the documented error exits.
Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

import nhc.cli as cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

SPECS = ("cal", "ncal")
BOUNDS = ("1/3", "7/2", "27e9", "1e30")
J_VALUES = ("0", "1728", "cm:-3:2", "cm:-163", "cm:-4:2", "-3375", "3/7", "-4/27")
FORMATS = ("table", "csv", "json")


def matrix() -> list[list[str]]:
    out = []
    for spec in SPECS:
        for bound in BOUNDS:
            for asym in ((), ("--asymptotic",)):
                for family in ("all", "rep", "cm", "cm-rep"):
                    out.append(["count", "--family", family, "--height", spec, "--bound", bound, *asym])
                for j in J_VALUES:
                    out.append(["count", "--family", "j", "--j=" + j, "--height", spec,
                                "--bound", bound, *asym])
    out.append(["count", "--family", "j", "--bound", "100"])
    out.append(["count", "--family", "rep", "--bound", "-1"])
    for spec in SPECS:
        for fmt in FORMATS:
            for name in ("cm-minimal", "cm-counts", "coefficients", "relative-error"):
                out.append(["tables", "--name", name, "--height", spec, "--format", fmt])
        out.append(["tables", "--name", "cm-counts", "--height", spec, "--bounds", "1e3,7/2,1e40"])
    for fmt in FORMATS:
        for sqf in ((), ("--squarefree-only",)):
            for j, bound in (("cm:-7", "1e9"), ("54000", "1e12"), ("3/7", "1e20"),
                             ("0", "1e3"), ("1728", "1e3")):
                out.append(["parametrize", "--j=" + j, "--height", "ncal", "--bound", bound,
                            "--format", fmt, *sqf])
    for a, b in (("-240", "1408"), ("-15", "22"), ("0", "320"), ("567", "0"), ("0", "-64"),
                 ("-81", "0"), ("-3", "2"), ("0", "0"), ("-12", "16"),
                 (str(2**8 * 3**4 * 5), str(2**12 * 3**6 * 7))):
        out.append(["twist", "--", a, b])
    for spec in SPECS:
        for bound in ("1", "100", "1e5"):
            for js in ((), ("--j", "cm")):
                out.append(["verify", "--height", spec, "--bound", bound, *js])
    for family in ("rep", "cm-rep"):  # oversized Moebius sieves are refused
        out.append(["count", "--family", family, "--bound", "1e200"])
    # later additions go below, so the records above stay as first recorded
    out.append(["twist", "--", "7" * 251, "1"])
    for spec, fmt in (("cal", "table"), ("ncal", "json")):
        out.append(["tables", "--name", "relative-error", "--height", spec, "--format", fmt,
                    "--bounds", "1e3,7/2"])
    for name in ("cm-minimal", "coefficients"):
        out.append(["tables", "--name", name, "--bounds", "1e3"])
    for fmt in ("csv", "json"):  # a repeated cutoff is one column
        out.append(["tables", "--name", "cm-counts", "--format", fmt, "--bounds", "1e3,1000,7/2"])
    skew = "alpha/37:5,beta/11:7"  # least heights that are not integers
    for bound in ("7/2", "27e9", "1e30"):
        for family in ("cm", "cm-rep"):
            out.append(["count", "--family", family, "--height", skew, "--bound", bound,
                        "--asymptotic"])
        for j in ("cm:-163", "-3375", "3/7", "0", "1728"):
            out.append(["count", "--family", "j", "--j=" + j, "--height", skew,
                        "--bound", bound, "--asymptotic"])
    for name in ("coefficients", "relative-error"):
        out.append(["tables", "--name", name, "--height", skew])
    return out


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded() -> list[dict]:
    if not os.path.exists(GOLDEN):  # only while regenerating
        return []
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_matrix_matches_recording():
    assert [r["argv"] for r in _recorded()] == matrix()


@pytest.mark.parametrize("record", _recorded(), ids=lambda r: " ".join(r["argv"]))
def test_invocation_is_byte_identical(record):
    assert invoke(record["argv"]) == record


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump([invoke(argv) for argv in matrix()], fh, indent=1)
        fh.write("\n")
