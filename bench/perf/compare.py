#!/usr/bin/env python3
"""Apply the benchmark's acceptance rule to two sets of runs.

  compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
  compare.py --summary RUNS.jsonl [--rev REV] [--benchmark BENCHMARK.json]
  compare.py --self-test

Each line of a .jsonl file is one record that main.exe appends with
--record FILE: one workload run with its end-to-end medians over the
run's repetitions, its attempted and failed operations and its
sim_digest.  The k-th record of a workload in PARENT pairs with the k-th
record of that workload in CHANGE.

The rule, per workload and per end-to-end metric:
  - runs come in at least 10 pairs, alternating which side ran first;
  - a gain needs the change to win at least 9/10 of the pairs (ties
    count for neither) and the medians to differ by more than the
    parent's spread (the distance between its quartiles);
  - a regression is a change median worse than the parent's by more
    than the metric's bound in BENCHMARK.json;
  - a metric whose spread (IQR / median) on either side is wider than
    its bound is "unresolved", unless every change run reads better
    than every parent run;
  - the share of failed operations may not grow, and every run must be
    correct with the same sim_digest as its pair (a change that only
    speeds the simulator up leaves every simulated output identical).

The exit code is 1 on any regression or broken precondition, else 0.
--summary condenses one set of runs into the baseline format (median,
quartiles and N per metric and workload).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records):
    groups = {}
    for r in records:
        groups.setdefault(r["workload"], []).append(r)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def medians(runs, metric):
    return [r["end_to_end"][metric]["summary"]["median"] for r in runs]


def verdict(parent, change, better, bound):
    """Verdict for one metric of one workload: (name, wins)."""
    sign = -1.0 if better == "lower" else 1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if sign < 0:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    worse_by = sign * (mp - mc) / abs(mp) if mp else 0.0
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "regression", wins
    if (
        wins >= WIN_SHARE * len(parent)
        and abs(mc - mp) > q3 - q1
        and sign * (mc - mp) > 0
    ):
        return "gain", wins
    return "no regression", wins


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_records, change_records, bench, out=sys.stdout):
    """Print the verdict table; return (verdicts, errors)."""
    errors, verdicts = [], []
    parents, changes = by_workload(parent_records), by_workload(change_records)
    for workload in sorted(set(parents) | set(changes)):
        p_runs, c_runs = parents.get(workload, []), changes.get(workload, [])
        pairs = min(len(p_runs), len(c_runs))
        if len(p_runs) != len(c_runs):
            errors.append(f"{workload}: {len(p_runs)} parent runs vs {len(c_runs)} change runs")
        if pairs < MIN_PAIRS:
            errors.append(f"{workload}: {pairs} pairs, at least {MIN_PAIRS} needed")
            continue
        p_runs, c_runs = p_runs[:pairs], c_runs[:pairs]
        order = [c["started_unix"] < p["started_unix"] for p, c in zip(p_runs, c_runs)]
        if any(a == b for a, b in zip(order, order[1:])):
            errors.append(f"{workload}: pairs do not alternate which side runs first")
        for p, c in zip(p_runs, c_runs):
            if not (p["correct"] and c["correct"]):
                errors.append(f"{workload} seed {p['seed']}: a run failed its checks")
            if p["seed"] == c["seed"] and p["sim_digest"] != c["sim_digest"]:
                errors.append(f"{workload} seed {p['seed']}: sim_digest differs")
        fp, fc = failed_share(p_runs), failed_share(c_runs)
        if fc > fp:
            errors.append(f"{workload}: failed-operation share grew {fp:.3g} -> {fc:.3g}")
        print(f"== {workload}: {pairs} pairs, failed share {fp:.3g} -> {fc:.3g}", file=out)
        for m in bench["end_to_end"]:
            name = m["name"]
            pv, cv = medians(p_runs, name), medians(c_runs, name)
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            if v == "gain" and fc > fp:
                v = "gain void (more failures)"
            verdicts.append((workload, name, v))
            pq, cq = quartiles(pv), quartiles(cv)
            print(
                f"  {name:<14} parent {statistics.median(pv):.6g} [{pq[0]:.6g} .. {pq[1]:.6g}]"
                f"  change {statistics.median(cv):.6g} [{cq[0]:.6g} .. {cq[1]:.6g}]"
                f"  wins {wins}/{pairs}  bound {m['bound']:.0%}  {v}",
                file=out,
            )
    for e in errors:
        print(f"!! {e}", file=out)
    return verdicts, errors


def summary(records, bench, rev):
    """One set of runs in the baseline format."""
    first = records[0]
    result = {
        "rev": rev,
        "nproc": first["nproc"],
        "ocaml": first["ocaml"],
        "seconds": first["seconds"],
        "scale": first["scale"],
        "workloads": {},
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, runs in by_workload(records).items():
        e2e = {}
        for m in bench["end_to_end"]:
            values = medians(runs, m["name"])
            q1, q3 = quartiles(values)
            e2e[m["name"]] = {
                "unit": units[m["name"]],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "n": len(values),
                "repetitions_per_run": [
                    r["end_to_end"][m["name"]]["summary"]["n"] for r in runs
                ],
            }
        traced = [r for r in runs if "per_layer" in r]
        per_layer = {}
        for m in bench["per_layer"]:
            values = [r["per_layer"][m["name"]]["value"] for r in traced]
            if values:
                per_layer[m["name"]] = {
                    "unit": units[m["name"]],
                    "median": statistics.median(values),
                    "n": len(values),
                }
        result["workloads"][workload] = {
            "seeds": sorted({r["seed"] for r in runs}),
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "sim_digest": {str(r["seed"]): r["sim_digest"] for r in runs},
            "end_to_end": e2e,
            "per_layer": per_layer,
        }
    return result


# ---------------------------------------------------------------------------
# Self-test on canned runs.

SELF_TEST_BENCH = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "heap_peak_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [],
}


def canned(side, k, wall, setup, ops, heap):
    # Pairs alternate: even k the parent runs first, odd k the change.
    parent_first = k % 2 == 0
    started = 1000.0 + 10 * k + (0 if (side == "parent") == parent_first else 5)

    def metric(v):
        return {"unit": "", "summary": {"median": v, "n": 5}}

    return {
        "workload": "w",
        "seed": k,
        "started_unix": started,
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "sim_digest": f"d{k}",
        "end_to_end": {
            "wall_s": metric(wall),
            "setup_s": metric(setup),
            "ops_per_s": metric(ops),
            "heap_peak_mb": metric(heap),
        },
    }


def self_test():
    jitter = [0.0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.005, 0.015, -0.015, 0.0]
    parent = [
        canned("parent", k, 1.0 + j, 0.010 + (0.005 if k % 2 else 0), 100 * (1 + j), 50.0)
        for k, j in enumerate(jitter)
    ]
    # wall 20 % faster on every pair, ops unchanged, heap 20 % larger,
    # setup as noisy as the parent's.
    change = [
        canned("change", k, 0.8 + j, 0.010 + (0.005 if k % 2 == 0 else 0), 100 * (1 + j), 60.0)
        for k, j in enumerate(jitter)
    ]
    sink = open(os.devnull, "w")
    verdicts, errors = compare(parent, change, SELF_TEST_BENCH, out=sink)
    got = {metric: v for _, metric, v in verdicts}
    expected = {
        "wall_s": "gain",
        "setup_s": "unresolved",
        "ops_per_s": "no regression",
        "heap_peak_mb": "regression",
    }
    assert got == expected, got
    assert errors == [], errors

    # More failed operations void the gain and are an error.
    failing = [dict(r, failed=1) for r in change]
    verdicts, errors = compare(parent, failing, SELF_TEST_BENCH, out=sink)
    assert ("w", "wall_s", "gain void (more failures)") in verdicts, verdicts
    assert any("failed-operation share" in e for e in errors), errors

    # Nine pairs are not enough.
    _, errors = compare(parent[:9], change[:9], SELF_TEST_BENCH, out=sink)
    assert any("at least 10" in e for e in errors), errors

    # Pairs that always run the parent first do not alternate.
    fixed = [dict(r, started_unix=2000.0 + 10 * k) for k, r in enumerate(parent)]
    later = [dict(r, started_unix=2005.0 + 10 * k) for k, r in enumerate(change)]
    _, errors = compare(fixed, later, SELF_TEST_BENCH, out=sink)
    assert any("alternate" in e for e in errors), errors

    # A changed simulated output is reported.
    drifted = [dict(r, sim_digest="other") for r in change]
    _, errors = compare(parent, drifted, SELF_TEST_BENCH, out=sink)
    assert any("sim_digest differs" in e for e in errors), errors

    # A spread wider than the bound still resolves when every change run
    # reads better than every parent run.
    wide = [canned("parent", k, 1.0 + 0.3 * (k % 2), 0.01, 100, 50) for k in range(10)]
    fast = [canned("change", k, 0.5 + 0.1 * (k % 2), 0.01, 100, 50) for k in range(10)]
    verdicts, _ = compare(wide, fast, SELF_TEST_BENCH, out=sink)
    assert ("w", "wall_s", "gain") in verdicts, verdicts

    q1, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, q3) == (1.25, 3.75), (q1, q3)
    sink.close()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--summary", action="store_true", help="summarize one set of runs")
    ap.add_argument("--rev", default="unknown", help="revision recorded by --summary")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.summary:
        if len(args.files) != 1:
            ap.error("--summary takes one file")
        json.dump(summary(load(args.files[0]), bench, args.rev), sys.stdout, indent=2)
        print()
        return 0
    if len(args.files) != 2:
        ap.error("give PARENT.jsonl and CHANGE.jsonl")
    verdicts, errors = compare(load(args.files[0]), load(args.files[1]), bench)
    return 1 if errors or any(v == "regression" for _, _, v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
