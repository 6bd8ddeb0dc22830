"""Benchmark of the nhc package: four seeded workloads, one closed-loop caller.

Run from the root of a checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload deep-sweep --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 [--seconds 10] [--trace 1] [--out FILE]
    python3 perfbench/run.py --write-answers

One workload: prints a report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
its per-layer ones, from a traced run, an untraced replay of the same
operations (for the tracing overhead) and an untraced probe process.

--all runs every workload (traced too with --trace 1), prints every metric
for each, and writes the results with their provenance to FILE (default
.bench_out/BENCH_seed<seed>.json).  --write-answers regenerates the answer
file that runs with the default seed are checked against.

The exit code is 0 only when every operation gave a correct answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from procs import DEFAULT_SEED, answer_key, child_env, spawn  # noqa: E402

SETUPS = 7  # set-ups per run; setup_s is their median
WORKER_SLACK_S = 120.0
# Operations per workload recorded in the answer file (full size, tiny).
ANSWER_OPS = {
    "deep-sweep": (400, 40),
    "fixed-j-factor": (300, 40),
    "cli-oneshot": (120, 24),
    "census-verify": (40, 12),
}


class BenchError(RuntimeError):
    """A benchmark process failed to produce its measurements."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    def git(*args):
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return None  # an exported checkout; src_sha256 still identifies the source
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nhc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        mpmath_version = version("mpmath")
    except Exception:  # provenance only; a missing distribution is recorded as unknown
        mpmath_version = None
    return {
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def worker(workload: str, seed: int, seconds: float, tiny: bool, *extra: str,
           timeout: float | None = None) -> dict:
    """Run worker.py once and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *(["--tiny"] if tiny else []), *extra]
    t_spawn = time.perf_counter()
    code, out, err = spawn(cmd + ["--t-spawn", repr(t_spawn)], child_env(ROOT),
                           timeout or seconds + WORKER_SLACK_S)
    return _report(cmd, code, out, err)


def _report(cmd, code, out, err) -> dict:
    if code != 0 or not out.strip():
        raise BenchError(f"{' '.join(cmd[1:4])}... exited {code}: {err.strip()[-800:]}")
    return json.loads(out.strip().splitlines()[-1])


def warm_up() -> None:
    """Import everything once so byte code is compiled before set-ups are
    timed."""
    code = "import nhc.cli, tracer, workloads"
    env = child_env(ROOT)
    env["PYTHONPATH"] += os.pathsep + HERE
    rc, _out, err = spawn([sys.executable, "-c", code], env, 120)
    if rc != 0:
        raise BenchError(f"cannot import the package: {err.strip()[-800:]}")


def summarize(res: dict, setups: list[float]) -> dict:
    """Every end-to-end metric of one untraced run, with sample counts."""
    lat = res["latencies"]
    n, failed = len(lat), res["failed"]
    total = sum(lat)
    return {
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "ops_per_s": (n - failed) / total,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": sorted(lat)[math.ceil(0.9 * n) - 1] * 1e3 if n >= 100 else None,
        "latency_samples": n,
        "census_mpts_per_s": sum(res["points"]) / total / 1e6 if any(res["points"]) else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "error_rate": failed / n,
        "attempted": n,
        "failed": failed,
        "errors": res["errors"],
    }


def measure(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    setups = [worker(workload, seed, seconds, tiny, "--setup-only")["setup_s"]
              for _ in range((2 if tiny else SETUPS) - 1)]
    res = worker(workload, seed, seconds, tiny)
    return summarize(res, setups + [res["setup_s"]])


def measure_traced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    traced = worker(workload, seed, seconds, tiny, "--trace-out", trace_path)
    n = traced["attempted"]
    replay = worker(workload, seed, seconds, tiny, "--ops", str(n))
    cmd = [sys.executable, os.path.join(HERE, "probes.py"), "--seed", str(seed),
           *(["--tiny"] if tiny else [])]
    probes = _report(cmd, *spawn(cmd, child_env(ROOT), WORKER_SLACK_S))
    layers = dict(traced["layers"])
    layers.update(probes)
    layers["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(replay["latencies"])
    return {
        "layers": layers,
        "attempted": n + replay["attempted"],
        "failed": traced["failed"] + replay["failed"],
        "errors": traced["errors"] + replay["errors"],
        "heaviest": traced["heaviest"],
        "span_total": traced["span_total"],
        "trace_file": os.path.relpath(trace_path, ROOT),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(workload: str, seed: int, s: dict) -> None:
    print(f"== {workload}  seed={seed}  closed loop, 1 caller, {s['attempted']} operations ==")
    rows = [
        ("setup_s", s["setup_s"], "s", f"median of {s['setup_samples']} set-ups"),
        ("ops_per_s", s["ops_per_s"], "1/s", "correct operations per timed second"),
        ("latency_p50_ms", s["latency_p50_ms"], "ms", f"n={s['latency_samples']}"),
        ("latency_p90_ms", s["latency_p90_ms"], "ms",
         f"n={s['latency_samples']}" + ("" if s["latency_p90_ms"] is not None
                                         else ", not reported below 100 operations")),
        ("census_mpts_per_s", s["census_mpts_per_s"], "Mpts/s",
         "box points / verify wall time" if s["census_mpts_per_s"] is not None
         else "census-verify only"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB", ""),
        ("error_rate", s["error_rate"], "ratio", f"{s['failed']} of {s['attempted']} failed"),
    ]
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{_fmt(value)} {unit}"
        print(f"  {name:<20} {shown:<22} {note}")
    for e in s["errors"]:
        print(f"  FAILED {e}")


def print_layers(workload: str, t: dict) -> None:
    print(f"== {workload} traced: {t['span_total']} spans, written to {t['trace_file']} ==")
    for name, value in t["layers"].items():
        print(f"  {name:<46} {_fmt(value)}")
    heavy = ", ".join(f"{n} {s:.3g} s" for n, s in t["heaviest"])
    print(f"  heaviest self time: {heavy}")
    for e in t["errors"]:
        print(f"  FAILED {e}")


def result_line(correct: bool, attempted: int, failed: int, values: dict, specs: list) -> str:
    missing = [m["name"] for m in specs if values.get(m["name"]) is None]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args, contract) -> int:
    print("# provenance " + json.dumps(provenance(args.seed)))
    if args.trace:
        t = measure_traced(args.workload, args.seed, args.seconds, args.tiny)
        print_layers(args.workload, t)
        line = result_line(t["failed"] == 0, t["attempted"], t["failed"], t["layers"],
                           contract["per_layer"])
        failed = t["failed"]
    else:
        s = measure(args.workload, args.seed, args.seconds, args.tiny)
        print_end_to_end(args.workload, args.seed, s)
        line = result_line(s["failed"] == 0, s["attempted"], s["failed"], s,
                           contract["end_to_end"])
        failed = s["failed"]
    print(line)
    return 1 if failed else 0


def run_all(args, contract) -> int:
    record = {"provenance": provenance(args.seed), "seconds": args.seconds, "tiny": args.tiny,
              "workloads": {}}
    print("# provenance " + json.dumps(record["provenance"]))
    failed = 0
    for w in contract["workloads"]:
        name = w["name"]
        s = measure(name, args.seed, args.seconds, args.tiny)
        print_end_to_end(name, args.seed, s)
        entry = {"why": w["why"], "end_to_end": s}
        failed += s["failed"]
        if args.trace:
            t = measure_traced(name, args.seed, args.seconds, args.tiny)
            print_layers(name, t)
            entry["traced"] = t
            failed += t["failed"]
        record["workloads"][name] = entry
    out = args.out or os.path.join(OUT_DIR, f"BENCH_seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# wrote {os.path.relpath(out, ROOT)}; {failed} failed operations")
    return 1 if failed else 0


def write_answers(contract) -> int:
    answers = {}
    for w in contract["workloads"]:
        for tiny, count in zip((False, True), ANSWER_OPS[w["name"]]):
            res = worker(w["name"], DEFAULT_SEED, 0, tiny, "--ops", str(count), "--answers",
                         timeout=900)
            if res["failed"]:
                print("\n".join(res["errors"]), file=sys.stderr)
                return 1
            answers[answer_key(w["name"], tiny)] = res["answers"]
            print(f"{w['name']}{' (tiny)' if tiny else ''}: {count} answers")
    doc = {"provenance": provenance(DEFAULT_SEED), "answers": answers}
    with open(os.path.join(HERE, "answers.json"), "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--write-answers", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    p.add_argument("--out", help="results file of --all")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nhc", "__init__.py")):
        print("error: run from the root of an nhc checkout (src/nhc not found)", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    try:
        warm_up()
        if args.write_answers:
            return write_answers(contract)
        return run_all(args, contract) if args.all else run_one(args, contract)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
