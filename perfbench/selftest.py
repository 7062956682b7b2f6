#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a few ops and checks that
  * an untraced run is correct and emits exactly the end-to-end metrics,
    each with its declared unit;
  * a traced run is correct, emits exactly the per-layer metrics, and
    writes its Chrome trace;
  * a run against a deliberately corrupted reference reports failed ops
    and correct = false, so the output checks are not vacuous.
It also checks that bad arguments are refused without a result line.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd, *args):
    out = subprocess.run(cmd + list(args), cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


def result(cmd, *args):
    code, lines = run(cmd, *args)
    assert code == 0, f"{args}: exit code {code}"
    return json.loads(lines[-1]), lines


def check_metrics(got, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    names = set(got["metrics"])
    assert names == set(want), f"{what}: missing {set(want) - names}, extra {names - set(want)}"
    for name, unit in want.items():
        m = got["metrics"][name]
        assert m["unit"] == unit, f"{what}: {name} has unit {m['unit']}, declared {unit}"
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"]
    for w in bench["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "1"]

        got, _ = result(cmd, *base, "--trace", "0")
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, (name, got)
        check_metrics(got, bench["end_to_end"], f"{name} untraced")

        got, lines = result(cmd, *base, "--trace", "1")
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, (name, got)
        check_metrics(got, bench["per_layer"], f"{name} traced")
        trace_file = lines[-2].split("trace_file=")[1]
        with open(os.path.join(ROOT, trace_file)) as f:
            assert json.load(f)["traceEvents"], f"{name}: empty trace export"

        got, _ = result(cmd, *base, "--trace", "0", "--corrupt-reference")
        assert not got["correct"] and got["failed"] >= 1, (name, got)
        print(f"ok {name}")

    for bad in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                ["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "0",
                 "--trace", "0"]):
        code, lines = run(cmd, *bad)
        assert code != 0 and not any(l.startswith("{") for l in lines), bad
    print("ok argument checks")


if __name__ == "__main__":
    sys.exit(main())
