"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk_wide --seed 1 --seconds 30 --trace 0

The run derives ``INPUTS`` inputs from ``--seed`` and simulates them one
operation at a time, each in a fresh interpreter (``op.py``), cycling
through the inputs until ``--seconds`` have passed and every input ran
at least once. An input that runs again must repeat its service trace.
Timings are medians over operations; the sim-clock metrics pool the
``INPUTS`` inputs, so they are exact functions of the seed.

With ``--trace 1`` every operation simulates input 0, alternating
untraced and traced operations; the traced ones report the per-layer
metrics, and the exact counts of two traced operations must agree.

The last line of standard output is the result; the line before it is
the run record (revision, host, load, every operation's raw values),
which is also appended to ``.perfbench/records.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP = os.path.join(HERE, "op.py")
RECORDS = os.path.join(ROOT, ".perfbench", "records.jsonl")
sys.path.insert(0, HERE)

from observe import nearest_rank  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Inputs derived from one seed; the sim-clock metrics pool all of them.
INPUTS = 10
#: Traced operations in a ``--trace 1`` run (their exact counts must agree).
MIN_TRACED = 2
#: Wall-clock limit for one operation.
OP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "packets_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delay_p50_ms": "ms",
    "delay_p99_ms": "ms",
    "fairness_error": "pkt",
    "ok_share": "share",
}

#: Per-layer metrics that are exact functions of the input.
EXACT = (
    "schedulers.flows_examined_per_decision",
    "schedulers.flows_examined_p99",
    "schedulers.empty_select_share",
    "net.flow.backlogged_calls_per_packet",
    "net.sources.topups_per_packet",
    "net.interface.idle_kick_share",
    "sim.events_per_packet",
    "core.engine.unaccounted_byte_share",
    "health.audit_share",
    "fairness.full_resolve_share",
)


def summary(values):
    """Median and quartiles of the raw values."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "values": values}


def host_record():
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        revision = done.stdout.strip() or None
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, source).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }


def run_op(workload, seed, index, traced, inject):
    command = [sys.executable, OP, "--workload", workload, "--seed", str(seed),
               "--index", str(index)]
    if traced:
        command.append("--trace")
    for spec in inject:
        command += ["--inject", spec]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"index": index, "traced": traced, "error": "timed out"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"index": index, "traced": traced,
                "error": (done.stderr.strip().splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[],
                        metavar="MODULE:QUALNAME=MICROSECONDS",
                        help="add a busy-wait to every call of one function "
                             "(the sensitivity self-check)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2

    record = host_record()
    traced_run = bool(args.trace)
    started = time.monotonic()
    ops = []
    while True:
        elapsed = time.monotonic() - started
        traced_ops = sum(1 for op in ops if op.get("traced"))
        if traced_run:
            if elapsed >= args.seconds and traced_ops >= MIN_TRACED and len(ops) > traced_ops:
                break
            traced = len(ops) % 2 == 1
            index = 0
        else:
            if elapsed >= args.seconds and len(ops) >= INPUTS:
                break
            traced = False
            index = len(ops) % INPUTS
        ops.append(run_op(args.workload, args.seed, index, traced, args.inject))

    attempted = failed = 0
    failures = []
    first_of_index = {}
    devices = WORKLOADS[args.workload].devices
    for op in ops:
        attempted += devices
        if "error" in op:
            failed += devices
            failures.append(f"op {op['index']}: {op['error']}")
            continue
        reference = first_of_index.setdefault(op["index"], op)
        if op["fingerprint"] != reference["fingerprint"]:
            failed += devices
            failures.append(f"op {op['index']}: service trace differs from an "
                            "earlier operation on the same input")
            continue
        failed += op["failed"]
        failures.extend(op["failures"])

    untraced = [op for op in ops if "error" not in op and not op["traced"]]
    traced = [op for op in ops if "error" not in op and op["traced"]]
    raw = {
        "packets_per_cpu_s": [op["packets_per_cpu_s"] for op in untraced],
        "setup_s": [op["setup_s"] for op in untraced],
        "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
    }
    metrics = {}
    if not traced_run:
        inputs = [first_of_index[i] for i in sorted(first_of_index)]
        delays = Counter()
        for op in inputs:
            delays.update({value: count for value, count in op["delays"]})
        lags = Counter(lag for op in inputs for lag in op["lags"])
        values = {
            "packets_per_cpu_s": statistics.median(raw["packets_per_cpu_s"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
            "delay_p50_ms": nearest_rank(delays, 0.50) * 1e3,
            "delay_p99_ms": nearest_rank(delays, 0.99) * 1e3,
            "fairness_error": nearest_rank(lags, 0.90),
            "ok_share": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        layers = [op["layers"] for op in traced]
        for name in EXACT:
            if len({json.dumps(layer[name]) for layer in layers}) > 1:
                failed += devices
                failures.append(f"exact count {name} differs between traced operations: "
                                f"{[layer[name] for layer in layers]}")
        for name in layers[0]:
            unit = "us" if name.endswith("_us") else (
                "count" if name in EXACT and not name.endswith("_share") else "share")
            metrics[name] = {"value": statistics.median(layer[name] for layer in layers),
                             "unit": unit}
        metrics["trace_overhead"] = {
            "value": statistics.median(raw["packets_per_cpu_s"])
            / statistics.median(op["packets_per_cpu_s"] for op in traced),
            "unit": "x",
        }

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "loadavg_after": os.getloadavg(),
        "wall_seconds": time.monotonic() - started,
        "ops": [{key: op.get(key) for key in (
            "index", "traced", "error", "devices", "failed", "packets", "measured_cpu_s",
            "raw_packets_per_cpu_s", "raw_setup_s", "calibration_s", "packets_per_cpu_s",
            "setup_s", "peak_rss_mb", "fingerprint")}
            for op in ops],
        "summary": {name: summary(values) for name, values in raw.items() if values},
        "failures": failures[:20],
        "functions": traced[0]["functions"] if traced else None,
    })
    os.makedirs(os.path.dirname(RECORDS), exist_ok=True)
    with open(RECORDS, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
