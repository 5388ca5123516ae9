#!/usr/bin/env python3
"""Build and run the simulator-throughput benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload native_1c --seed 42 --seconds 20 --trace 0

Builds the `asap-perfbench` package (release profile) into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, checks that its last
line is a result object naming exactly the metrics BENCHMARK.json lists
for the mode (`end_to_end` untraced, `per_layer` traced), and prints that
object as the last line of standard output. Exits non-zero without a
result if the build, the run or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_result(line, expected):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("`correct` is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"`{key}` is not a whole number")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} is {m}, expected a number in {unit}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {workloads}")
    section = bench["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    binary = os.path.join(target, "release", "asap-perfbench")
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"run failed (exit {run.returncode})")
    check_result(lines[-1], expected)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
