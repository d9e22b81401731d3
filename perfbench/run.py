#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mem-1core --seed 1 --seconds 30 --trace 0

The simulator libraries (../src) and the perfbench binary are built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
binary's last stdout line is the result object; see perfbench/README.md.

--update-digests re-records the expected deterministic-report digests of the
workload for --seed in perfbench/digests.json (only after a change that is
meant to alter simulated results).
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("mem-1core", "compute-1core", "mix-4core")


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    def cmake(args, timeout):
        subprocess.run(["cmake"] + args, check=True, stdout=sys.stderr,
                       timeout=timeout)

    cmake(["-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    cmake(["--build", build_dir, "--target", "perfbench", "-j", jobs], 850)
    return os.path.join(build_dir, "perfbench")


def with_units(result, trace):
    """Attaches each metric's unit from BENCHMARK.json to `result`. Returns
    the names of metrics that are missing, not listed there or not finite
    (empty when the result is complete)."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        listed = {m["name"]: m["unit"] for m in
                  json.load(f)["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    bad = sorted(k for k in set(listed) | set(got)
                 if k not in listed or not isinstance(got.get(k), float | int)
                 or not math.isfinite(got[k]))
    result["metrics"] = {k: {"value": v, "unit": listed.get(k)}
                         for k, v in sorted(got.items())}
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"error: benchmark build failed: {err}", file=sys.stderr)
        return 1

    with open(DIGESTS) as f:
        digests = json.load(f)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = digests.get(str(args.seed), {}).get(args.workload)
    if args.update_digests:
        cmd.append("--print-digests")
    elif expected:
        cmd += ["--expect-digests", ",".join(expected)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]

    # A hung binary is killed and waited for.
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=args.seconds + 150)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        for line in lines:
            print(line)
        return proc.returncode
    result = json.loads(lines[-1])
    bad = with_units(result, args.trace)
    for line in lines[:-1]:
        print(line)
    # A failed run may lack metrics (a cell threw); its result line still
    # prints, marked incorrect.
    if bad and result["correct"]:
        print("error: metrics missing, unlisted or not finite: " +
              ", ".join(bad), file=sys.stderr)
        return 4
    print(json.dumps(result))
    if args.update_digests:
        line = next(l for l in proc.stderr.splitlines()
                    if l.startswith("digests: "))
        digests.setdefault(str(args.seed), {})[args.workload] = (
            line.split(": ", 1)[1].split(","))
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
