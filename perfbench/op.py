"""One operation of one workload, in a fresh interpreter.

``run.py`` starts this script once per operation and reads the single
JSON line it prints: raw measurements, checks and, with ``--trace``,
the per-layer table. Usage::

    python3 perfbench/op.py --workload bulk_wide --seed 0 --index 0 [--trace]
        [--inject MODULE:QUALNAME=MICROSECONDS ...]

``--index`` picks one of the inputs a run derives from its seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# Every module a workload touches is imported before any wrapper is
# installed: the tracer only wraps modules that are already loaded.
import repro  # noqa: E402,F401
import repro.core.runner  # noqa: E402,F401
import repro.faults.chaos  # noqa: E402,F401
import repro.fleet.coordinator  # noqa: E402,F401
import repro.fleet.worker  # noqa: E402,F401
import repro.obs  # noqa: E402,F401
import repro.trace.fleet_workloads  # noqa: E402,F401

from observe import calibrate, cpu_seconds, nearest_rank  # noqa: E402
from tracer import Tracer, inject_delay  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402

#: Layers reported as ``<layer>.self_share``.
SELF_SHARE_LAYERS = (
    "sim", "net.flow", "net.sources", "net.interface", "net.sink",
    "schedulers", "core.engine", "health", "fairness", "obs", "faults",
)

FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
#: ``observe.calibrate`` CPU seconds on the reference host: timings are
#: scaled by (mean measured calibration / this) to reference CPU-seconds.
REFERENCE_CALIBRATION_S = 0.008
#: Host-speed probes before and after the measured phase.
CALIBRATIONS_AROUND = 3
DEFAULT_SEED = 0


def layer_metrics(tracer: Tracer, observer, workload) -> dict:
    root = tracer.root_seconds
    selfs = tracer.layer_self_seconds()
    metrics = {f"{layer}.self_share": selfs[layer] / root for layer in SELF_SHARE_LAYERS}
    metrics["unattributed.self_share"] = tracer.root_self_seconds / root

    def total(predicate, field):
        return sum(slot[field] for key, (layer, slot) in tracer.functions.items()
                   if predicate(key, layer))

    def named(suffix):
        return lambda key, layer: key.endswith(suffix)

    selects = total(lambda key, layer: layer == "schedulers" and key.endswith(".select"), 0)
    select_time = total(lambda key, layer: layer == "schedulers" and key.endswith(".select"), 1)
    kicks = total(named("Interface.kick"), 0)
    packets = max(observer.packets, 1)
    transmissions = observer.transmissions
    examined = observer.examined
    decisions = max(observer.decisions, 1)
    metrics.update({
        "schedulers.select_us": select_time / max(selects, 1) * 1e6,
        "schedulers.flows_examined_per_decision":
            sum(k * n for k, n in examined.items()) / decisions,
        "schedulers.flows_examined_p99":
            float(nearest_rank(examined, 0.99)) if examined else 0.0,
        "schedulers.empty_select_share": 1.0 - transmissions / max(selects, 1),
        "net.flow.backlogged_calls_per_packet":
            tracer.reads("repro.net.flow:Flow.backlogged") / packets,
        "net.sources.topups_per_packet": total(named("._top_up"), 0) / packets,
        "net.interface.idle_kick_share": 1.0 - transmissions / max(kicks, 1),
        "sim.events_per_packet": observer.events / packets,
        "core.engine.unaccounted_byte_share":
            observer.unaccounted_bytes / max(observer.delivered_bytes, 1),
        "health.watchdog_tick_share": total(named("Watchdog._tick"), 1) / root,
        "health.auditor_tick_share": total(named("FairnessAuditor._tick"), 1) / root,
        "obs.sample_share": total(named("EngineInstrumentation.sample"), 1) / root,
        "fleet.summary_share": selfs["fleet"] / root,
        "fleet.merge_share": total(named(":run_fleet"), 2) / root,
        "trace.generate_share": selfs["trace"] / root,
        "setup.wiring_share": max(observer.setup_wall - selfs["trace"], 0.0) / root,
    })
    metrics.update(workload.counters())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="MODULE:QUALNAME=MICROSECONDS")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    expected = None
    if args.seed == DEFAULT_SEED and os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS, encoding="utf-8") as handle:
            expected = json.load(handle).get(args.workload, {}).get(str(args.index))

    for spec in args.inject:
        target, _, micros = spec.rpartition("=")
        inject_delay(target, float(micros) * 1e-6)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    observer = workload.observer(expected, tracer)
    observer.install()
    workload.install(observer)
    workload.prepare(input_seed(args.seed, args.index))

    calibration = [calibrate() for _ in range(CALIBRATIONS_AROUND)]
    if tracer is not None:
        tracer.begin()
    started = cpu_seconds()
    workload.run(observer)
    finished = cpu_seconds()
    if tracer is not None:
        tracer.end()
    calibration += observer.calibration
    calibration += [calibrate() for _ in range(CALIBRATIONS_AROUND)]

    measured = finished - started - observer.setup_cpu - observer.paused_cpu
    speed = statistics.fmean(calibration) / REFERENCE_CALIBRATION_S
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "index": args.index,
        "traced": bool(tracer),
        "devices": observer.devices,
        "failed": observer.failed_devices,
        "failures": observer.failures[:10],
        "packets": observer.packets,
        "measured_cpu_s": measured,
        "raw_packets_per_cpu_s": observer.packets / measured,
        "raw_setup_s": observer.setup_cpu,
        "calibration_s": calibration,
        "packets_per_cpu_s": observer.packets / measured * speed,
        "setup_s": observer.setup_cpu / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "delays": sorted(observer.delays.items()),
        "lags": observer.lags,
        "fingerprint": hashlib.sha256(
            "".join(observer.fingerprints).encode("ascii")).hexdigest(),
        "device_fingerprints": [fp[:16] for fp in observer.fingerprints],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, observer, workload)
        result["functions"] = tracer.table()[:40]
        result["root_s"] = tracer.root_seconds
        result["layer_self_s"] = tracer.layer_self_seconds()
        result["injected_calls"] = {
            spec.rpartition("=")[0]: tracer.calls(spec.rpartition("=")[0])
            for spec in args.inject}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
