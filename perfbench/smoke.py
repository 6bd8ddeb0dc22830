"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Every workload runs for one second at a
tiny size, untraced and traced, under the default seed, so the answer file
is checked as well.  Each run must exit 0, pass every check and emit every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json with
its unit.  Last, the benchmark must exit nonzero without a result line in
a directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join("perfbench", "run.py")


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_run(workload: str, trace: int, contract: dict) -> list[str]:
    res = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--tiny"])
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return [f"exit {res.returncode}: {(res.stdout + res.stderr)[-1500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks failed: {res.stdout[-1500:]}")
    specs = contract["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
    if bad:
        problems.append(f"non-numeric values: {bad}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the package next to it, the benchmark must refuse to run."""
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = run(["--workload", "deep-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or '"correct"' in res.stdout:
        return [f"ran without the package: exit {res.returncode}, stdout {res.stdout[-300:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    failures = 0
    for w in contract["workloads"]:
        for trace in (0, 1):
            problems = check_run(w["name"], trace, contract)
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {w['name']} trace={trace}")
            for p in problems:
                print("     " + p)
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"{'ok  ' if not problems else 'FAIL'} refuses to run without src/nhc")
    for p in problems:
        print("     " + p)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
