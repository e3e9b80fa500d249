#!/usr/bin/env python3
"""Smoke test for the wall-clock benchmark.

Runs every workload briefly, plain and traced, and checks that each run
ends with a correct JSON result carrying exactly the metrics BENCHMARK.json
names for that mode, each with its unit, and that the report prints each
of them by name with its unit. Then checks that --fig4 prints the overhead
line, and that the benchmark refuses to run (nonzero exit, no result) in a
directory holding only BENCHMARK.json and wallbench/.

    python3 wallbench/smoke.py        # from the repository root; ~2 min
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = 1


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout


def check_result(label, rc, out, expected, positive):
    errors = []
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        return ["%s: exit %d, %d lines of output" % (label, rc, len(lines))]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["%s: last line is not JSON" % label]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: correct is not true" % label)
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append("%s: attempted %r" % (label, attempted))
    if not isinstance(failed, int) or failed < 0:
        errors.append("%s: failed %r" % (label, failed))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("%s: metrics differ: missing %s, extra %s" % (
            label, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append("%s: %s unit %r, want %r" % (label, name,
                                                       got.get("unit"), unit))
        value = got.get("value")
        if not isinstance(value, (int, float)):
            errors.append("%s: %s value %r" % (label, name, value))
        elif positive and not value > 0:
            errors.append("%s: %s is %r, must be > 0" % (label, name, value))
        pat = r"^\S+\s+%s\s+-?[0-9.]+\s+%s(\s|$)" % (re.escape(name),
                                                    re.escape(unit))
        if not re.search(pat, out, re.M):
            errors.append("%s: report does not print %s with unit %s" % (
                label, name, unit))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (w, trace)
            rc, out = run([RUN, "--workload", w, "--seed", "1", "--seconds",
                           str(SECONDS), "--trace", str(trace)])
            found = check_result(label, rc, out, layer if trace else e2e,
                                 positive=not trace)
            if trace and "trace.overhead_ms" not in out:
                found.append("%s: no tracing overhead line" % label)
            print("%-28s %s" % (label, "ok" if not found else "FAILED"))
            errors += found

    rc, out = run([RUN, "--fig4", "--seed", "1", "--seconds", str(SECONDS)])
    fig_ok = rc == 0 and re.search(r"^fig4/9 .*geomean .*paper", out, re.M)
    print("%-28s %s" % ("fig4", "ok" if fig_ok else "FAILED"))
    if not fig_ok:
        errors.append("fig4: exit %d or no overhead line" % rc)

    # Without the sources beside it the benchmark must refuse quickly.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "wallbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = run([os.path.join("wallbench", "run.py"), "--workload",
                   "suite_perfect", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=bare)
    bare_ok = rc != 0 and '"correct"' not in out
    print("%-28s %s" % ("bare directory refuses", "ok" if bare_ok else
                        "FAILED"))
    if not bare_ok:
        errors.append("bare directory: exit %d, output %r" % (rc, out[-200:]))
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("ERROR " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
