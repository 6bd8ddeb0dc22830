"""One measured process of the benchmark: set up, run one workload, report.

Started by run.py with --t-spawn, the monotonic clock reading taken just
before the spawn, so set-up time runs from process start: interpreter
start, importing nhc and building the inputs.  The last line of stdout is
one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "answers.json")
MAX_ERRORS_KEPT = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--trace-out", help="trace the run and write its spans here")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--ops", type=int, help="run exactly this many operations, untimed bound")
    p.add_argument("--answers", action="store_true", help="report answer hashes, check none")
    return p.parse_args(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    import nhc
    import workloads
    from procs import DEFAULT_SEED, answer_key, peak_rss_kb

    if not os.path.abspath(nhc.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"nhc imported from {nhc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, ROOT)
    for i in range(64):  # the first inputs are built during set-up
        wl.op(i)
    setup_s = time.perf_counter() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = None
    if args.seed == DEFAULT_SEED and not args.answers:
        with open(ANSWERS) as fh:
            expected = json.load(fh)["answers"].get(answer_key(args.workload, args.tiny))

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        if wl.in_process:
            tracer.install()
        else:
            wl.trace_path = os.path.join(os.path.dirname(args.trace_out), f"child-{os.getpid()}.json")

    latencies: list[float] = []
    points: list[int] = []
    answers: list[str] = []
    errors: list[str] = []
    failed = 0
    child_rss_kb = 0  # largest peak RSS a child process reported
    start = time.perf_counter()
    i = 0
    while (i < args.ops) if args.ops is not None else (time.perf_counter() - start < args.seconds):
        op = wl.op(i)
        span = nullcontext()
        if tracer is not None:
            tracer.op = i
            span = tracer.span("op." + args.workload)
        t0 = time.perf_counter()
        with span:
            if tracer is not None:
                tracer.active = wl.in_process
            try:
                result, problems = wl.run(op), []
            except Exception as exc:  # a failed operation is measured, not fatal
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            finally:
                if tracer is not None:
                    tracer.active = False
            latencies.append(time.perf_counter() - t0)
            if tracer is not None and wl.trace_path is not None and os.path.exists(wl.trace_path):
                with open(wl.trace_path) as fh:
                    tracer.merge(json.load(fh))
                os.remove(wl.trace_path)
        points.append(wl.points(op))
        if not wl.in_process and result is not None:
            child_rss_kb = max(child_rss_kb, result[3])
        if not problems:
            try:
                problems = wl.check(op, result)
                text = wl.answer(op, result)
            except Exception as exc:  # a check that cannot run fails the operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if not problems:
            if args.answers:
                answers.append(digest(text))
            elif expected is not None and i < len(expected) and digest(text) != expected[i]:
                problems = ["answer differs from the answer file"]
        if problems:
            failed += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(f"op {i} ({wl.describe(op)}): {'; '.join(problems)}")
        i += 1

    out = {
        "setup_s": setup_s,
        "latencies": latencies,
        "points": points,
        "attempted": i,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": (peak_rss_kb() if wl.in_process else child_rss_kb) / 1024,
    }
    if args.answers:
        out["answers"] = answers
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["heaviest"] = tracer.heaviest()
        out["span_total"] = tracer.span_total
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
