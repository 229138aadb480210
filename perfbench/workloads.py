"""The three workloads: seeded inputs, the run, and workload-specific checks.

Each workload is a batch: one operation simulates a fixed input and the
benchmark reports work done per CPU-second at that input size. See
README.md for why each workload exists and which layer it loads.

Every workload runs the program's default execution path: the default
event queue, no batching, no automatic configuration selection.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from observe import Observer
from tracer import replace_globals

#: Interface capacities of ``bulk_wide`` cycle through these (Mb/s).
BULK_CAPACITIES_MBPS = (5, 10, 20, 40)


def input_seed(seed: int, index: int) -> int:
    """The seed of input *index* of a run started with ``--seed seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


class Workload:
    name = ""
    #: Device runs in one operation.
    devices = 1

    def observer(self, expected, tracer) -> Observer:
        return Observer(expected_fingerprints=expected, tracer=tracer)

    def prepare(self, seed: int) -> None:
        """Build the input from its seed (not measured)."""
        self.seed = seed

    def install(self, observer: Observer) -> None:
        """Workload-specific probes, installed after the common ones."""

    def run(self, observer: Observer) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Exact per-layer counters only this workload's objects carry."""
        return {"health.audit_share": 0.0, "fairness.full_resolve_share": 0.0}


class BulkWide(Workload):
    """1,000 backlogged bulk flows on 8 interfaces under plain miDRR.

    Loads the per-decision path (schedulers, net, sim); no fault,
    telemetry, solver or fleet code runs.
    """

    name = "bulk_wide"
    flows = 1000
    interfaces = 8
    target_packets = 64000
    packet_size = 1500

    def observer(self, expected, tracer) -> Observer:
        return Observer(settle=1.0, min_window=2.0, max_window=1.0,
                        expected_fingerprints=expected, tracer=tracer)

    def prepare(self, seed: int) -> None:
        from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec

        rng = random.Random(seed)
        interface_ids = [f"if{j}" for j in range(self.interfaces)]
        interfaces = tuple(
            InterfaceSpec(interface_id,
                          BULK_CAPACITIES_MBPS[j % len(BULK_CAPACITIES_MBPS)] * 1e6)
            for j, interface_id in enumerate(interface_ids)
        )
        flows = []
        for i in range(self.flows):
            row = tuple(sorted(rng.sample(interface_ids,
                                          rng.randint(1, self.interfaces))))
            flows.append(FlowSpec(
                f"flow{i:04d}",
                weight=rng.choice((0.5, 1.0, 2.0, 4.0)),
                interfaces=row,
                traffic=TrafficSpec("bulk", packet_size=self.packet_size),
            ))
        capacity = sum(spec.rate_bps for spec in interfaces)
        self.scenario = Scenario(
            name=f"bulk_wide-{seed}",
            interfaces=interfaces,
            flows=tuple(flows),
            duration=self.target_packets * self.packet_size * 8 / capacity,
            seed=seed,
        )

    def run(self, observer: Observer) -> None:
        from repro.core.runner import run_scenario
        from repro.schedulers.midrr import MiDrrScheduler

        observer.device_begin()
        result = run_scenario(self.scenario, MiDrrScheduler)
        result.stats.samples  # the report: flushes the lazily ingested samples
        observer.device_end()


class ChurnAudited(Workload):
    """The seeded chaos device with watchdog, auditor and obs at tight periods.

    Flaps, LTE collapse, loss, corruption and preference churn: the only
    workload where health, fairness, obs and faults do work.
    """

    name = "churn_audited"
    duration = 60.0
    audit_period = 0.1
    snapshot_period = 0.05

    def observer(self, expected, tracer) -> Observer:
        # The wire flow is a 64 kb/s stream on the cell link reserved for
        # it; only the three bulk flows are elastic.
        return Observer(exclude_flows=("wire",), exclude_interfaces=("cell",),
                        settle=0.5, min_window=1.0,
                        expected_fingerprints=expected, tracer=tracer)

    def run(self, observer: Observer) -> None:
        from repro.faults.chaos import ChaosRun
        from repro.obs import MetricsRegistry, SnapshotProcess, instrument_engine

        observer.device_begin()
        chaos = ChaosRun(seed=self.seed, duration=self.duration,
                         with_auditor=True, audit_period=self.audit_period)
        registry = MetricsRegistry()
        instrumentation = instrument_engine(chaos.engine, registry)
        SnapshotProcess(chaos.sim, registry, period=self.snapshot_period,
                        pre_sample=[instrumentation.sample]).start()
        report = chaos.run()
        failures: List[str] = []
        if report.invariant_violations:
            failures.append(f"{len(report.invariant_violations)} invariant "
                            f"violations: {report.invariant_violations[0]}")
        if report.alerts:
            failures.append(f"{len(report.alerts)} watchdog alerts: {report.alerts[0]}")
        self.chaos = chaos
        observer.device_end(failures)

    def counters(self) -> Dict[str, float]:
        auditor = self.chaos.auditor
        solver = auditor.solver
        return {
            "health.audit_share": auditor.audits_total / max(auditor.ticks, 1),
            "fairness.full_resolve_share": solver.full_solves / max(solver.deltas_total, 1),
        }


class PhoneFleet(Workload):
    """200 short smartphone devices through ``run_fleet(executor="serial")``.

    Flows start and finish, links go idle, packets carry deadlines; loads
    per-device setup, trace generation and the fleet summary layer.
    """

    name = "phone_fleet"
    devices = 200
    duration = 3.0

    def observer(self, expected, tracer) -> Observer:
        return Observer(settle=0.1, min_window=0.5, max_window=1.0,
                        expected_fingerprints=expected, tracer=tracer)

    def install(self, observer: Observer) -> None:
        import repro.fleet.device as device_module

        original = device_module.run_device

        def run_device(*args, **kwargs):
            observer.device_begin()
            try:
                return original(*args, **kwargs)
            finally:
                observer.device_end()

        replace_globals(original, run_device)

    def run(self, observer: Observer) -> None:
        from repro.fleet.coordinator import run_fleet
        from repro.trace.fleet_workloads import DeviceWorkload

        run_fleet(self.devices, DeviceWorkload(kind="smartphone", duration=self.duration),
                  fleet_seed=self.seed, executor="serial")


WORKLOADS = {workload.name: workload for workload in (BulkWide, ChurnAudited, PhoneFleet)}
