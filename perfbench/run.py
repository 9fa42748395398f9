#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in turn and exits 1 unless all of
them are correct.

Run it from the repository root. It builds `perfbench` (this directory's
package) and the `teem-coordinator` binary in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then replaces itself with the
`perfbench` binary. Build output goes to standard error; the last line
of standard output is the JSON result. A failed build exits with code 2
and prints no result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep_batched", "campaign_kill", "week_trace", "paper_fig5"]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "teem-bench", "--bin", "teem-coordinator"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    exe = os.path.join(target, "release", "perfbench")
    tail = ["--coordinator", os.path.join(target, "release", "teem-coordinator"),
            "--work-dir", os.path.join(target, "perfbench-work")]
    os.chdir(ROOT)
    argv = sys.argv[1:]
    at = argv.index("--workload") + 1 if "--workload" in argv else len(argv)
    if argv[at:at + 1] != ["all"]:
        sys.stdout.flush()
        os.execv(exe, [exe, *argv, *tail])
    return run_all(exe, argv, at, tail)


def run_all(exe, argv, at, tail):
    """Runs every workload in turn, prefixing each output line with the
    workload's name; exits 1 unless every run is correct."""
    ok = True
    for workload in WORKLOADS:
        argv[at] = workload
        proc = subprocess.run([exe, *argv, *tail], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines:
            print(f"{workload:<14} {line}", flush=True)
        try:
            correct = proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
        except (IndexError, ValueError, KeyError):
            correct = False
        ok &= correct
    print("all workloads correct" if ok else "perfbench: some workload FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
