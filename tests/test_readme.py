"""README examples run as written: the library quick start through doctest,
and each ``nhc`` line of the command-line block through ``cli.main``, with
its stdout compared against the line's ``# -> X`` comment."""

import doctest
import os
import re
import shlex

import pytest

import nhc.cli as cli
from nhc import exactarith, oracle

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(heading: str, lang: str) -> str:
    """The body of the first ``lang`` code fence under the ``heading`` section."""
    with open(README) as fh:
        text = fh.read()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_doctest():
    test = doctest.DocTestParser().get_doctest(
        _block("Library quick start", "python"), {}, "README quick start", README, 0
    )
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples
    assert runner.summarize(verbose=False).failed == 0


COMMAND_LINES = [line for line in _block("Command line", "sh").splitlines() if line.strip()]


@pytest.mark.parametrize("line", COMMAND_LINES, ids=lambda line: line.split("#")[0].strip())
def test_command_line_example(line, capsys, monkeypatch, tmp_path):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "nhc"
    monkeypatch.chdir(tmp_path)  # for --output files
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if comment.strip().startswith("->"):
        assert out == comment.strip()[2:].strip() + "\n"


def test_exit_codes_documented_alike():
    # README's "Exit codes" paragraph and the cli docstring name the same codes
    with open(README) as fh:
        text = fh.read()
    paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
    in_readme = {int(code) for code in re.findall(r"`(\d+)`", paragraph)}
    sentence = cli.__doc__[cli.__doc__.index("Exit codes:"):].split(".  ")[0]
    in_docstring = {int(code) for code in re.findall(r"[:,]\s+(\d+)\s", sentence)}
    assert in_readme - {0} == in_docstring - {0} == {2, 3, 4, 5, 6, 141}


@pytest.mark.parametrize("pattern, value", [
    (r"more than (\S+) digits", cli._DIGIT_CAP),
    (r"sieve above (\S+) entries", exactarith._SIEVE_BUDGET),
    (r"listing of more than (\S+) curves", cli._ROW_BUDGET),
    (r"within (\S+) evaluations", exactarith._RHO_BUDGET),
    (r"one worker per (\S+) of that work", oracle._POOL_WORK),
    (r"once its primes up to (\S+) are out", exactarith._RUN_BOUND),
], ids=["digits", "sieve", "rows", "rho", "pool", "runs"])
def test_limits_documented_alike(pattern, value):
    # each limit README states, as "250", "851,968" or "10^7", is the constant in force
    with open(README) as fh:
        text = " ".join(fh.read().split())
    stated = [int(base.replace(",", "")) ** int(exp or 1)
              for base, _, exp in (number.partition("^") for number in re.findall(pattern, text))]
    assert stated and set(stated) == {value}
