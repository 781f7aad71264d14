#!/usr/bin/env python3
"""Builds the TEGRA benchmark harness (Release) and runs one workload.

    python3 perfbench/run.py --workload batch_unsup --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build lives in .bench_build/ (or
$CARGO_TARGET_DIR when set); snapshots, daemon logs and Chrome traces go to
.bench_out/. The harness prints one line per metric and, last, a JSON result
line; its exit status is passed through (non-zero when any output is wrong).

--selftest runs every workload at a tiny size in both modes, checks that each
result line carries the metrics BENCHMARK.json lists, and checks that a
deliberately invalid table makes the run fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
OUT = ".bench_out"
HARNESS = os.path.join(BUILD, "tegra_perfbench")
WORKLOADS = ("batch_unsup", "batch_given_m", "serve_mixed")


def build():
    """Configures and builds the harness; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "tegra_perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(HARNESS)


def harness(args):
    return [HARNESS, "--out-dir", OUT] + args


def selftest():
    """Tiny runs of every workload; a corrupted table must fail the run.

    Also checks that each result line carries exactly the metrics, with the
    units, that BENCHMARK.json lists for its mode.
    """
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace]
            done = subprocess.run(harness(base), stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                failures.append(f"{workload} trace={trace}: "
                                f"exit {done.returncode}")
            units = {name: m["unit"]
                     for name, m in result.get("metrics", {}).items()}
            if units != expected[trace]:
                failures.append(f"{workload} trace={trace}: metrics differ "
                                f"from BENCHMARK.json")
            print(f"{workload} trace={trace}: exit {done.returncode}, "
                  f"attempted {result.get('attempted')}", file=sys.stderr)
        bad = ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0", "--inject-invalid"]
        done = subprocess.run(harness(bad), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode == 0 or result.get("correct") is not False:
            failures.append(f"{workload}: an invalid table did not fail "
                            f"the run (exit {done.returncode})")
        print(f"{workload} invalid table: exit {done.returncode}",
              file=sys.stderr)
    for failure in failures:
        print("SELFTEST FAILED: " + failure, file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if opts.selftest:
        return selftest()
    done = subprocess.run(harness([
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", opts.trace]))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
