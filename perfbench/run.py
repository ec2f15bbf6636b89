#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <stack_solo|pager_fleet|compile> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), runs it with the given arguments and exits
with its code. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A traced run also writes
its spans to `<target dir>/perfbench-spans/<workload>-seed<n>.tsv`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, "perfbench-spans")
    pin_to_one_cpu()
    return subprocess.run([exe, *sys.argv[1:], "--spans-dir", spans]).returncode


def pin_to_one_cpu() -> None:
    """Keep the benchmark (which inherits this affinity) on one CPU.

    The speed calibration a job is scaled by runs on the benchmark's main
    thread, and the fleet's worker is another thread: on one CPU both
    see the same core, where on two they may see cores of different
    speed. Where affinity cannot be set, the run goes on unpinned.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError, ValueError):
        pass


if __name__ == "__main__":
    sys.exit(main())
