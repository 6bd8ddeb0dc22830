"""Per-layer probes that are not spans, measured in an untraced process.

    python perfbench/probes.py --seed N [--tiny]

Measures interpreter start, import times, in-process ``cli.main`` on the
cli-oneshot commands of the seed, census throughput serial and pooled,
and the ROADMAP baselines.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

ROOT = os.getcwd()
CENSUS_BOUND = 10**9  # the ROADMAP's calibrated census baseline


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    import nhc
    from nhc import cli
    import workloads

    env = workloads.child_env(ROOT)
    reps = 1 if args.tiny else 5
    py = sys.executable

    def process_ms(cmd):
        def once():
            code, _out, err = workloads.spawn(cmd, env, workloads.CLI_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"{cmd} exited {code}: {err.strip()[-200:]}")
        return _median_ms(once, reps)

    def import_ms(module):
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        times = []
        for _ in range(reps):
            rc, out, err = workloads.spawn([py, "-c", code], env, workloads.CLI_TIMEOUT_S)
            if rc != 0:
                raise RuntimeError(f"import {module} failed: {err.strip()[-200:]}")
            times.append(float(out.split()[-1]))
        return statistics.median(times) * 1e3

    m: dict[str, float] = {}
    m["proc.python_start_ms"] = process_ms([py, "-c", "pass"])
    m["proc.import_mpmath_ms"] = import_ms("mpmath")
    m["proc.import_nhc_ms"] = import_ms("nhc")

    commands = workloads.CliOneshot(args.seed, args.tiny, ROOT)
    cli_times = []
    for i in range(12):
        argv = commands.op(i)["argv"]
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(argv)
            cli_times.append(time.perf_counter() - t0)
    m["cli.main_ms"] = statistics.median(cli_times) * 1e3

    cal = nhc.CALIBRATED
    points = workloads.box_points(cal, CENSUS_BOUND)
    nproc = os.cpu_count() or 1

    def census_s(stripes, workers):
        t0 = time.perf_counter()
        nhc.brute_census(cal, CENSUS_BOUND, stripes=stripes, workers=workers)
        return time.perf_counter() - t0

    serial = census_s(1, 1)
    pool = census_s(nproc, nproc)
    split8 = census_s(8, nproc)
    m["oracle.serial_mpts_per_s"] = points / serial / 1e6
    m["oracle.pool_mpts_per_s"] = points / pool / 1e6
    m["oracle.pool_split8_mpts_per_s"] = points / split8 / 1e6
    m["oracle.pool_efficiency"] = serial / (pool * nproc)

    rep = nhc.count_representatives
    m["baseline.rep_cal_2.7e10_ms"] = _median_ms(lambda: rep(cal, Fraction("2.7e10")), 4 * reps + 1)
    m["baseline.rep_cal_1e30_ms"] = _median_ms(lambda: rep(cal, 10**30), 2 * reps + 1)
    m["baseline.rep_cal_1e48_ms"] = _median_ms(lambda: rep(cal, 10**48), 3)
    m["baseline.cm_rep_cal_1e60_ms"] = _median_ms(
        lambda: nhc.count_cm_representatives(cal, 10**60), 3
    )
    m["baseline.census_cal_1e9_serial_s"] = serial
    m["baseline.cli_cm_rep_1e3_ms"] = process_ms(
        [py, "-m", "nhc.cli", "count", "--family", "cm-rep", "--height", "cal", "--bound", "1e3"]
    )
    print(json.dumps(m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
