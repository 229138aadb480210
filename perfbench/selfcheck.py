"""Layer-sensitivity self-check: does the benchmark see a slower layer?

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py [--seeds 3] [--seconds 1]

Each case adds a fixed busy-wait to every call of one function of one
layer (``run.py --inject``, built on the tracer's wrapper mechanism) and
compares ``packets_per_cpu_s`` with and without it, seed by seed, the two
sides alternating:

1. ``MiDrrScheduler.select`` (+50 us): ``bulk_wide`` must get slower by
   more than the bound, and traced operations must show the
   ``schedulers`` self time rising by about calls x delay.
2. ``Watchdog._tick`` and ``FairnessAuditor._tick`` (+2 ms):
   ``churn_audited`` must move beyond the bound; ``bulk_wide`` must stay
   within it.
3. ``trace_fingerprint``, the summary step of ``run_device`` (+5 ms):
   ``phone_fleet`` must move beyond the bound; ``bulk_wide`` and
   ``churn_audited`` must stay within it.

A workload that must stay within the bound must also record zero calls
of the delayed function in a traced operation. The report is printed
and written to ``.perfbench/selfcheck-<time>.json``; the exit code is 0
when every case passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SELECT = "repro.schedulers.midrr:MiDrrScheduler.select"
WATCHDOG = "repro.health.watchdog:Watchdog._tick"
AUDITOR = "repro.health.auditor:FairnessAuditor._tick"
SUMMARY = "repro.fleet.device:trace_fingerprint"
SELECT_DELAY_US = 50

#: (case, injected specs, workloads that must move, workloads that must not)
CASES = (
    ("select", [f"{SELECT}={SELECT_DELAY_US}"], ["bulk_wide"], []),
    ("health ticks", [f"{WATCHDOG}=2000", f"{AUDITOR}=2000"], ["churn_audited"], ["bulk_wide"]),
    ("fleet summary", [f"{SUMMARY}=5000"], ["phone_fleet"], ["bulk_wide", "churn_audited"]),
)


def last_json(command):
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def throughput(workload, seed, seconds, inject):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    for spec in inject:
        command += ["--inject", spec]
    return last_json(command)["metrics"]["packets_per_cpu_s"]["value"]


def traced_op(workload, inject):
    command = [sys.executable, os.path.join(HERE, "op.py"), "--workload", workload,
               "--seed", "1", "--trace"]
    for spec in inject:
        command += ["--inject", spec]
    return last_json(command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bound = next(m["bound"] for m in json.load(handle)["end_to_end"]
                     if m["name"] == "packets_per_cpu_s")

    report = {"bound": bound, "cases": []}
    passed = True
    for name, inject, moving, still in CASES:
        print(f"== {name}: {', '.join(inject)}", flush=True)
        case = {"case": name, "inject": inject, "workloads": {}}
        for workload in moving + still:
            base, slow = [], []
            for seed in range(1, args.seeds + 1):
                # Alternate which side runs first so host drift cancels.
                if seed % 2:
                    base.append(throughput(workload, seed, args.seconds, []))
                    slow.append(throughput(workload, seed, args.seconds, inject))
                else:
                    slow.append(throughput(workload, seed, args.seconds, inject))
                    base.append(throughput(workload, seed, args.seconds, []))
            change = statistics.median(slow) / statistics.median(base) - 1.0
            calls = traced_op(workload, inject)["injected_calls"]
            if workload in moving:
                ok = change < -bound and all(calls.values())
                want = f"drop beyond {bound:.0%}"
            else:
                ok = abs(change) <= bound and not any(calls.values())
                want = f"within {bound:.0%}, zero calls"
            passed &= ok
            print(f"  {workload:14s} packets/CPU-s {statistics.median(base):9.0f} -> "
                  f"{statistics.median(slow):9.0f} ({change:+.1%}; want {want}); "
                  f"traced calls {calls}: {'PASS' if ok else 'FAIL'}", flush=True)
            case["workloads"][workload] = {"base": base, "injected": slow, "change": change,
                                           "traced_calls": calls, "pass": ok}
        if name == "select":
            # The busy-wait runs on the wall clock, the rest of the layer at
            # host speed: scale the plain operation's self time to the
            # delayed operation's calibration before subtracting.
            ratios = []
            for _ in range(args.seeds):
                plain, delayed = traced_op("bulk_wide", []), traced_op("bulk_wide", inject)
                calls = delayed["injected_calls"][SELECT]
                expected = calls * SELECT_DELAY_US * 1e-6
                speed = (statistics.fmean(delayed["calibration_s"])
                         / statistics.fmean(plain["calibration_s"]))
                rise = (delayed["layer_self_s"]["schedulers"]
                        - plain["layer_self_s"]["schedulers"] * speed)
                ratios.append(rise / expected)
            ratio = statistics.median(ratios)
            ok = 0.8 <= ratio <= 1.25
            passed &= ok
            print(f"  traced schedulers self time rise over {calls} calls x {SELECT_DELAY_US} us"
                  f" = {expected:.3f} s: ratios {[round(r, 2) for r in ratios]}, median"
                  f" {ratio:.2f} (want 0.80-1.25): {'PASS' if ok else 'FAIL'}", flush=True)
            case["self_time"] = {"expected_s": expected, "ratios": ratios, "pass": ok}
        report["cases"].append(case)
    report["pass"] = passed
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"selfcheck-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\n{'PASS' if passed else 'FAIL'}; written to {os.path.relpath(path, ROOT)}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
