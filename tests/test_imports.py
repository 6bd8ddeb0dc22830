"""Start-up imports: the exact subcommands load neither mpmath, the census
process pool nor ``dataclasses`` and ``inspect`` (every record is a
NamedTuple), a default ``verify`` loads the census but no pool, none of
them builds the prime runs of ``exactarith``, the package resolves its
public names on first use, no module but the census reads a private name
of ``exactarith``, the test referees read no private name of
``families``, no power part is taken of another's result, and
``exactarith`` keeps no state across calls but its Moebius sieve."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import nhc
from nhc import asymptotics, cli, cm, cuspidal, exactarith, families, oracle

import arith_reference

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


# Runs each command given as a JSON list in one interpreter, then prints
# their exit codes and how many times the prime runs were built.
RUNS_PROBE = """
import json, sys
from nhc.cli import main
from nhc.exactarith import _prime_runs
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, _prime_runs.cache_info().currsize]))
"""


def probe(source: str, *args) -> list:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", source, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def heavy_modules_loaded(*argv) -> list[str]:
    code, loaded = probe(PROBE, *argv)
    assert code == 0
    return loaded


EXACT_COMMANDS = [
    ("count", "--family", "cm-rep", "--bound", "1e3"),
    ("count", "--family", "j", "--j", "cm:-163", "--bound", "1e30"),
    ("twist", "--", "-240", "1408"),
    ("parametrize", "--j=-3375", "--bound", "1e9", "--squarefree-only", "--format", "json"),
    ("tables", "--name", "cm-minimal"),
    ("tables", "--name", "cm-counts", "--format", "csv"),
]
DEFAULT_VERIFY = ("verify", "--bound", "1e4", "--j", "cm")


@pytest.mark.parametrize("argv", EXACT_COMMANDS,
                         ids=["count", "count-j", "twist", "parametrize", "cm-minimal", "cm-counts"])
def test_exact_commands_load_no_heavy_module(argv):
    assert heavy_modules_loaded(*argv) == []


def test_exact_commands_and_verify_build_no_prime_runs():
    # their primes all lie below 10^4, or past it alone: a(j) for j = 1/D is
    # 4(1728D - 1)/27, and 1728D - 1 here is a 14-digit prime, settled at once
    prime_cofactor = ("count", "--family", "j", "--j", "1/5787037053", "--bound", "1e30")
    commands = [*EXACT_COMMANDS, DEFAULT_VERIFY, prime_cofactor]
    assert probe(RUNS_PROBE, json.dumps(commands)) == [[0] * len(commands), 0]


def test_asymptotic_count_loads_asymptotics():
    loaded = heavy_modules_loaded("count", "--family", "rep", "--bound", "1e20", "--asymptotic")
    assert loaded == ["mpmath", "nhc.asymptotics"]


def test_default_verify_starts_no_pool():
    # a serial census needs neither concurrent.futures nor multiprocessing
    assert heavy_modules_loaded(*DEFAULT_VERIFY) == ["nhc.oracle"]


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


def private_names(module, source: str = "exactarith") -> set[str]:
    """The ``_``-prefixed names that a module imports from the module
    ``source`` or reads off it."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == source:
            names.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == source:
            names.update([node.attr] if node.attr.startswith("_") else [])
    return names


def test_formulas_factor_through_public_names():
    # the formulas factor through power_part alone; the census's moduli,
    # _primes_to, are the one private name read outside exactarith
    modules = (families, cuspidal, cm, asymptotics, cli, oracle)
    found = {module.__name__: private_names(module) for module in modules}
    assert found == {module.__name__: set() for module in modules} | {"nhc.oracle": {"_primes_to"}}


def test_referees_read_no_private_name_of_families():
    # a referee states each rule itself instead of calling the formula code it checks
    assert private_names(arith_reference, "families") == set()


def is_power_part(node: ast.AST) -> bool:
    """A call of ``power_part``, by name or as an attribute."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and "power_part" in (getattr(func, "id", None), getattr(func, "attr", None))


def test_no_power_part_of_a_power_part():
    # a power_part call among the arguments of another walks again over the
    # primes the inner walk found: further (n, k) pairs share one walk
    package = os.path.dirname(nhc.__file__)
    nested = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            nested += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                       if is_power_part(node) and sum(map(is_power_part, ast.walk(node))) > 1]
    assert nested == []


def test_exactarith_keeps_no_state_but_the_sieve():
    # a memo kept across calls would make an answer or a refusal depend on
    # what the process computed before; the shared Moebius sieve and its
    # Mertens prefix are the only module-level containers, and only the
    # sieve is rebound
    tree = ast.parse(inspect.getsource(exactarith))
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets}
    assigned |= {node.target.id for node in tree.body if isinstance(node, ast.AnnAssign)}
    containers = {name for name in assigned if not isinstance(getattr(exactarith, name), (int, bytes, tuple))}
    assert containers == {"_sieve", "_mertens"}
    rebound = {name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names}
    assert rebound == {"_sieve"}
