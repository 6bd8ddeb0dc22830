"""Start-up imports: the exact subcommands load neither mpmath, the census
process pool nor ``dataclasses`` and ``inspect`` (every record is a
NamedTuple), a default ``verify`` loads the census but no pool, and the
package resolves its public names on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import nhc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nhc.__file__)))
HEAVY = ("mpmath", "concurrent.futures", "multiprocessing", "nhc.asymptotics", "nhc.oracle",
         "dataclasses", "inspect")

# Runs one command in a fresh interpreter, then prints its exit code and
# the heavy modules it left in sys.modules.
PROBE = f"""
import json, sys
from nhc.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def heavy_modules_loaded(*argv) -> list[str]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return loaded


@pytest.mark.parametrize("argv", [
    ("count", "--family", "cm-rep", "--bound", "1e3"),
    ("count", "--family", "j", "--j", "cm:-163", "--bound", "1e30"),
    ("twist", "--", "-240", "1408"),
    ("parametrize", "--j=-3375", "--bound", "1e9", "--squarefree-only", "--format", "json"),
    ("tables", "--name", "cm-minimal"),
    ("tables", "--name", "cm-counts", "--format", "csv"),
], ids=["count", "count-j", "twist", "parametrize", "cm-minimal", "cm-counts"])
def test_exact_commands_load_no_heavy_module(argv):
    assert heavy_modules_loaded(*argv) == []


def test_asymptotic_count_loads_asymptotics():
    loaded = heavy_modules_loaded("count", "--family", "rep", "--bound", "1e20", "--asymptotic")
    assert loaded == ["mpmath", "nhc.asymptotics"]


def test_default_verify_starts_no_pool():
    # a serial census needs neither concurrent.futures nor multiprocessing
    assert heavy_modules_loaded("verify", "--bound", "1e4", "--j", "cm") == ["nhc.oracle"]


def test_every_public_name_resolves():
    for name in nhc.__all__:
        module = importlib.import_module(f"nhc.{nhc._SUBMODULE[name]}")
        assert getattr(nhc, name) is getattr(module, name)
        assert name in vars(nhc)  # cached after the first lookup
        assert name in dir(nhc)


@pytest.mark.parametrize("name", ["no_such_name", "is_kfree", "CM_J_INVARIANTS"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError):
        getattr(nhc, name)
