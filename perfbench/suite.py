"""Run every workload over several seeds, interleaved, and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/suite.py --seeds 10 [--first-seed 1] [--trace 0|1]
        [--workloads bulk_wide,churn_audited,phone_fleet] [--check-exact]

Workloads alternate within each seed (bulk_wide, churn_audited,
phone_fleet, then the next seed), so slow drift of the host lands on all
of them alike. For every metric the table shows the median over seeds,
the quartiles and the spread -- the distance between the quartiles as a
share of the median -- next to the bound ``BENCHMARK.json`` allows.
``--check-exact`` repeats each traced run on the same seed and lists
every exact count that differs. The whole table is also written to
``.perfbench/suite-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import EXACT, summary  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--check-exact", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

    results = {workload: [] for workload in workloads}
    mismatches = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            results[workload].append(result)
            if args.check_exact and args.trace:
                again = run_once(workload, seed, args.seconds, args.trace)
                for name in EXACT:
                    if result["metrics"][name]["value"] != again["metrics"][name]["value"]:
                        mismatches.append((workload, seed, name))

    table = {}
    for workload in workloads:
        print(f"\n== {workload}")
        print(f"  {'metric':42s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        table[workload] = {}
        for name in results[workload][0]["metrics"]:
            unit = results[workload][0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r in results[workload]]
            stats = summary(values)
            spread = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:42s} {unit:6s} {stats['median']:12.6g} {stats['q1']:12.6g}"
                  f" {stats['q3']:12.6g} {spread:7.3f} {bound if bound is not None else '':>6}"
                  f"{flag}")
            table[workload][name] = dict(stats, unit=unit, spread=spread)
    if args.check_exact:
        print("\nexact counts repeated" if not mismatches
              else f"\nexact counts that differ on a repeat: {mismatches}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "table": table, "results": results,
                   "exact_mismatches": mismatches}, handle, indent=1)
    print(f"\nwritten to {os.path.relpath(path, ROOT)}")
    failed = any(not r["correct"] for rs in results.values() for r in rs)
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
