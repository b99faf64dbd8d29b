#!/usr/bin/env python3
"""Smoke test of the benchmark, run by `dune runtest`.

  smoke.py MAIN_EXE BENCHMARK.json

Runs every workload of BENCHMARK.json at 1/50 scale, untraced and
traced, with the minimum of two repetitions each, and checks that

  - the last stdout line is the result object (correct, attempted,
    failed, metrics) with a correct run and operation counts present;
  - it names exactly the end-to-end metrics (untraced) or the per-layer
    metrics (traced) of BENCHMARK.json, each with its unit;
  - the repetitions, and the two invocations, agree on the sim_digest.
"""

import json
import os
import subprocess
import sys
import tempfile

SCALE = "0.02"


def run(main_exe, workload, trace, record):
    proc = subprocess.run(
        [main_exe, "--workload", workload, "--seed", "42", "--seconds", "0",
         "--trace", str(trace), "--scale", SCALE, "--record", record],
        capture_output=True, text=True,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    return where, json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, message):
    if not cond:
        sys.exit(message)


def main():
    main_exe, bench_path = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    with tempfile.TemporaryDirectory() as tmp:
        record = os.path.join(tmp, "runs.jsonl")
        for w in bench["workloads"]:
            for trace in (0, 1):
                where, result = run(main_exe, w["name"], trace, record)
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{where}: result keys {sorted(result)}")
                check(result["correct"] is True, f"{where}: not correct")
                check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                      f"{where}: attempted {result['attempted']!r}")
                check(isinstance(result["failed"], int), f"{where}: failed {result['failed']!r}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace], f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(expected[trace]))}")
        with open(record) as f:
            records = [json.loads(line) for line in f]
    for w in bench["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"]]
        check(all(r["end_to_end"]["wall_s"]["summary"]["n"] >= 2 for r in runs),
              f"{w['name']}: fewer than two repetitions")
        check(len({r["sim_digest"] for r in runs}) == 1,
              f"{w['name']}: invocations disagree on sim_digest")


if __name__ == "__main__":
    main()
