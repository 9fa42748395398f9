#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/smoke.py

Run it from the repository root. For every workload in BENCHMARK.json it
makes two short untimed-length runs with the same seed and one traced
run, and asserts that:

* the last line of standard output is the JSON result, with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`, and the run is
  correct with no failed operation;
* every metric BENCHMARK.json names is printed, as a `metric` line and in
  the JSON, with its unit and a finite value (end-to-end values above 0);
* every output check of the workload executed and none failed;
* the deterministic work counts of the two same-seed runs are identical;
* the result carries its host, commit, toolchain and load stamp.

Finally it copies BENCHMARK.json and this directory alone into a scratch
directory and asserts that the benchmark fails there without printing a
result. Exits 0 when every assertion holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# The output checks each workload must execute, by name.
CHECKS = {
    "sweep_batched": {
        0: ["sweep.runs", "sweep.no_failed_cells", "sweep.no_teem_trips",
            "sweep.digest_equals_scalar"],
        1: ["sweep.traced_counts_match_results"],
    },
    "campaign_kill": {
        0: ["campaign.exits_zero", "campaign.digest_equals_single",
            "campaign.all_cells_merged", "campaign.one_death"],
        1: ["campaign.merge_equals_single", "campaign.in_process_equals_single",
            "journal.pass_runs"],
    },
    "week_trace": {
        0: ["week.runs", "week.no_timeout", "week.trace_digest_stable",
            "week.summary_digest_stable"],
        1: [],
    },
    "paper_fig5": {
        0: ["fig5.runs", "fig5.no_timeout", "fig5.digests_stable"],
        1: [],
    },
}
COMMON = {0: ["counts.stable", "setup.cold_reference_matches"],
          1: ["counts.stable", "layers.all_named", "layers.exact_counts_repeat"]}
STAMP_KEYS = ["workload", "seed", "nproc", "cpu", "commit", "rustc",
              "threads", "processes"]


def run(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def line(stdout, prefix):
    found = [l for l in stdout.splitlines() if l.startswith(prefix + " ")]
    assert found, f"no `{prefix}` line"
    return found[-1][len(prefix) + 1:]


def check_run(workload, trace, proc, spec):
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted), \
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    printed = {l.split()[1]: l.split()[2:] for l in proc.stdout.splitlines()
               if l.startswith("metric ")}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        if not trace:
            assert got["value"] > 0, (m["name"], got)
        assert printed.get(m["name"], [None, None])[1] == m["unit"], (m["name"], printed)
    checks = json.loads(line(proc.stdout, "checks"))
    for name in COMMON[trace] + CHECKS[workload][0] + CHECKS[workload][trace]:
        ran, failed = checks.get(name, (0, 0))
        assert ran >= 1, f"check {name} never ran"
        assert failed == 0, f"check {name} failed {failed} times"
    stamp = json.loads(line(proc.stdout, "stamp"))
    missing = [k for k in STAMP_KEYS if k not in stamp]
    assert not missing, f"stamp lacks {missing}"
    assert stamp["seed"] == SEED and stamp["workload"] == workload, stamp
    return json.loads(line(proc.stdout, "counts"))


def check_bare_directory():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, target, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    started = time.time()
    proc = run("sweep_batched", 0, cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark succeeded without the repository"
    assert time.time() - started < 180, "the failing run took over 180 s"
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{"), f"a result was printed: {last}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            counts = [check_run(workload, 0, run(workload, 0), spec) for _ in range(2)]
            assert counts[0] == counts[1], f"counts differ between same-seed runs: {counts}"
            traced = check_run(workload, 1, run(workload, 1), spec)
            assert traced == counts[0], f"traced counts differ: {traced} vs {counts[0]}"
            print(f"ok   {workload}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {workload}: {e}")
    try:
        check_bare_directory()
        print("ok   fails without the repository")
    except AssertionError as e:
        failures += 1
        print(f"FAIL bare directory: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
