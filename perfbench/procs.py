"""Helpers shared by the benchmark's processes: child processes and the
answer file.  Standard library only, so the orchestrator never imports
the package it measures."""

from __future__ import annotations

import os
import signal
import subprocess

DEFAULT_SEED = 1  # runs with this seed are also checked against answers.json


def answer_key(workload: str, tiny: bool) -> str:
    """The answers.json entry of a workload at full or tiny size."""
    return workload + ("/tiny" if tiny else "")


def peak_rss_kb() -> int:
    """This process's peak resident set since exec (VmHWM).  Unlike
    ru_maxrss it does not count the parent's pages copied at fork."""
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def child_env(root: str) -> dict:
    """The environment of every child: this checkout's package, and the
    default census budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("NHC_ORACLE_CAP", None)
    return env


def spawn(cmd: list[str], env: dict, timeout: float):
    """Run one child to completion; (returncode or None on timeout, stdout,
    stderr).  Output is decoded without newline translation, so it can be
    compared byte for byte.  The child gets its own process group, killed
    whole on timeout, so no pool worker outlives it."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True
    )
    code = None
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    return code, out.decode(errors="replace"), err.decode(errors="replace")
