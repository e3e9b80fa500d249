#!/usr/bin/env python3
"""Wall-clock benchmark for wearmem: builds the benchmark, runs one workload.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wallbench/run.py --fig4 --seed <n> --seconds <s>

Run from the repository root. The first run configures and builds the
wearmem libraries and the benchmark program under .bench_build/wallbench
(build output goes to stderr); later runs only rebuild what changed. Its report
goes to stdout, and its last line is the JSON result. A traced run also
writes its kept spans to .bench_build/wallbench/spans-<workload>-<seed>.jsonl.

--fig4 runs suite_perfect and suite_pcm50_2cl with the same seed and prints
the paper's Fig 4/9 overhead line from their per-profile medians.
"""

import argparse
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD, "wallbench")
WORKLOADS = ("suite_perfect", "suite_pcm50_2cl", "gc_parallel", "serve_storm")
PAPER_OVERHEAD = 12.4  # Percent, S-IX at 50% failed lines with 2CL (Sec. 6).


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("wearmem sources not found: run from a checkout with src/ "
             "beside wallbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "wallbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (cmd[:2], err))
        if rc != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:2]), rc))


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s-%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(170, 2 * seconds + 90))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    return proc.returncode, proc.stdout


def profile_medians(report):
    pat = re.compile(r"^derived\s+profile_steady_ms\.(\S+)\s+(\S+)\s+ms",
                     re.M)
    return {name: float(value) for name, value in pat.findall(report)}


def fig4(seed, seconds):
    medians = {}
    for workload in ("suite_perfect", "suite_pcm50_2cl"):
        rc, out = run_workload(workload, seed, seconds, 0)
        sys.stdout.write(out)
        if rc != 0:
            return rc
        medians[workload] = profile_medians(out)
    base, pcm = medians["suite_perfect"], medians["suite_pcm50_2cl"]
    ratios = {p: pcm[p] / base[p] for p in sorted(base) if p in pcm}
    if not ratios:
        fail("no per-profile medians to compare")
    geo = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
    parts = " ".join("%s %+.1f%%" % (p, 100 * (r - 1))
                     for p, r in ratios.items())
    print("fig4/9    overhead of 50%% failed lines with 2CL over perfect "
          "memory (median steady time): %s geomean %+.1f%% (paper: %+.1f%%)"
          % (parts, 100 * (geo - 1), PAPER_OVERHEAD))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fig4", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1 or args.seconds > 60:
        fail("--seconds must be between 1 and 60")
    if not args.fig4 and not args.workload:
        fail("--workload or --fig4 is required")
    build()
    if args.fig4:
        return fig4(args.seed, args.seconds)
    rc, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
