#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that BENCHMARK.json keeps to the benchmark contract, that the
metric schema compiled into perfbench/bench.exe matches it name for name and
unit for unit, and that every workload runs at a tiny size with both
--trace 0 and --trace 1, printing exactly its declared metrics and passing
its correctness checks.  Last, it copies BENCHMARK.json and perfbench/ alone
into a directory under .bench_build/ and checks that the benchmark
fails there without printing a result.  Exit code 0 when everything holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

errors = []


def fail(msg):
    errors.append(msg)
    print("FAIL:", msg, file=sys.stderr)


def check_contract(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    cmd = bench["command"]
    if not (1 <= len(cmd) <= 32 and all(len(a) <= 200 for a in cmd)):
        fail("command shape")
    if not 1 <= len(bench["paths"]) <= 16 or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
            for p in bench["paths"]):
        fail("paths")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) \
                or len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload %s" % w.get("name"))
        names.append(w["name"])
    for group, keys, lo, hi in (("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
                                ("per_layer", {"name", "unit", "better"}, 1, 128)):
        if not lo <= len(bench[group]) <= hi:
            fail("%s count" % group)
        for m in bench[group]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                fail("%s metric %s" % (group, m.get("name")))
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail("bound of %s" % m["name"])
            names.append(m["name"])
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json larger than 64 KiB")


def run(args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_schema(bench):
    p = run(["--schema"])
    if p.returncode != 0:
        fail("--schema exited %d: %s" % (p.returncode, p.stderr[-400:]))
        return
    schema = json.loads(p.stdout.strip().splitlines()[-1])
    for group in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in bench[group]]
        printed = [(m["name"], m["unit"]) for m in schema[group]]
        if declared != printed:
            fail("%s: bench.exe prints %s, BENCHMARK.json declares %s" % (
                group, sorted(set(printed) - set(declared)),
                sorted(set(declared) - set(printed))))


def check_workload(bench, workload, trace):
    group = "per_layer" if trace else "end_to_end"
    p = run(["--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", str(trace), "--tiny"])
    label = "%s --trace %d" % (workload, trace)
    if p.returncode != 0:
        fail("%s exited %d: %s" % (label, p.returncode, p.stderr[-400:]))
        return
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            label, result["correct"], result["attempted"], result["failed"]))
    declared = {m["name"]: m["unit"] for m in bench[group]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("%s: undeclared %s, missing %s" % (
            label, sorted(set(metrics) - set(declared)),
            sorted(set(declared) - set(metrics))))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared.get(name) \
                or not isinstance(m["value"], (int, float)):
            fail("%s: metric %s is %s" % (label, name, m))
        elif not trace and not m["value"] > 0:
            fail("%s: end-to-end metric %s is %s" % (label, name, m["value"]))
    print("ok  %-28s %d metrics" % (label, len(metrics)))


def check_without_program(bench):
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    alone = os.path.abspath(os.path.join(".bench_build", "smoke-alone"))
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy("BENCHMARK.json", alone)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(alone, path))
    p = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=alone)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        fail("the benchmark ran without the program")
    else:
        print("ok  fails without the program (exit %d)" % p.returncode)
    shutil.rmtree(alone, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    check_contract(bench)
    check_schema(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_workload(bench, w["name"], trace)
    check_without_program(bench)
    print("smoke: %d failure(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
