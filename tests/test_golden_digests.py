"""Golden digests: today's decisions, pinned as literals.

Each digest below was recorded from the simulator and is compared
byte for byte, so any change to *which* packet an interface sends, or
when, fails here even if every behavioural test still passes:

* the per-interface decision streams of the Figure 1 scenarios, the
  Figure 6 scenario and the Figure 7-style stochastic mix, observed
  through the engine's decision probe;
* the decision trace of the planned-fault chaos run (the crash
  equivalence suite's fault plan on the Figure 7 mix);
* the latency-SLO ``report_hash`` of the whole seven-scheduler family;
* the fleet ``device_chain_sha256`` of a four-device serial smartphone
  fleet, plus a digest of every other deterministic report field.

Re-record a literal only for an intended decision change, and say
which and why in the change log: ``PYTHONPATH=src python
tests/test_golden_digests.py`` prints every digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runner import run_scenario
from repro.core.scenario import FlowSpec, InterfaceSpec, Scenario, TrafficSpec
from repro.experiments import fig1, fig6
from repro.faults.plan import FaultPlan, PlannedFault
from repro.schedulers.midrr import MiDrrScheduler
from repro.units import mbps

#: fig1b, fig1c and fig1c-weighted share a digest: miDRR hands both
#: interfaces the same packet sequence in all three (the paper's point).
GOLDEN_DECISION_STREAMS = {
    "fig1a": "fcf42a23ccec891013d67f6fe9a82dc3d0f431e2967600ddae0ad77e549b8d41",
    "fig1b": "a4d3d92b5f7b6a3e074136daf9b8fc461a2c32d05f9cf6ee00b1bbb6015af22f",
    "fig1c": "a4d3d92b5f7b6a3e074136daf9b8fc461a2c32d05f9cf6ee00b1bbb6015af22f",
    "fig1c-weighted": "a4d3d92b5f7b6a3e074136daf9b8fc461a2c32d05f9cf6ee00b1bbb6015af22f",
    "fig6": "c69f164f9e8cddc6ea0ac32f118853786356acc69c04aaa88878eebe3805a5b1",
    "fig7-workload": "ffb704508e388e5b92b504a626ef937d230f357786e6acbcc43aab6f59e8cf6c",
}
GOLDEN_PLANNED_FAULT_TRACE = "016f227ad93094b6d40bc0907d69aed260277eda2c9c3cfe3a7ae7abe2970bb8"
GOLDEN_SLO_REPORT_HASH = "205dcd591ae51c0415a20b789e4aa13309b4fc2112183536ac14ae621fdee9a3"
GOLDEN_FLEET_DEVICE_CHAIN = "f4873bacb7f709fba04ee20b021a08577c7eb1d5110d4be94c5384adee488c34"
GOLDEN_FLEET_FIELDS = "a8cd647d460fd9d3155dcd575a610cd11f867bbb922c2d36a22607f7fa3b82bb"


def fig7_workload() -> Scenario:
    """A Figure 7-style stochastic mix: poisson and on/off flows."""
    return Scenario(
        name="fig7-workload",
        interfaces=(
            InterfaceSpec("wifi", mbps(4)),
            InterfaceSpec("lte", mbps(2)),
        ),
        flows=(
            FlowSpec("web", traffic=TrafficSpec("poisson", rate_bps=mbps(1.5))),
            FlowSpec(
                "sync",
                weight=2.0,
                interfaces=("wifi",),
                traffic=TrafficSpec(
                    "onoff", rate_bps=mbps(3), mean_on=0.5, mean_off=0.8
                ),
            ),
            FlowSpec(
                "stream",
                start_time=1.5,
                traffic=TrafficSpec("cbr", rate_bps=mbps(0.8)),
            ),
        ),
        duration=8.0,
        seed=11,
    )


def scenarios():
    named = {name: build() for name, build in fig1.ALL_SCENARIOS.items()}
    named["fig6"] = fig6.scenario()
    named["fig7-workload"] = fig7_workload()
    return named


def decision_stream_digest(scenario: Scenario) -> str:
    """SHA-256 over every interface's decisions, in interface order.

    A decision is the simulated instant an interface asked, the flow
    it was handed and the packet size (``None`` when it went idle).
    """
    streams = {}

    def attach(sim, engine):
        def probe(interface):
            packet = engine.scheduler.select(interface.interface_id)
            streams.setdefault(interface.interface_id, []).append(
                [repr(sim.now)]
                + (
                    [None, None]
                    if packet is None
                    else [packet.flow_id, packet.size_bytes]
                )
            )
            return packet

        engine.set_decision_probe(probe)

    run_scenario(scenario, MiDrrScheduler, on_engine=attach)
    canonical = json.dumps(
        [[interface_id, streams.get(interface_id, [])]
         for interface_id in (spec.interface_id for spec in scenario.interfaces)],
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def planned_fault_plan() -> FaultPlan:
    return FaultPlan(
        [
            PlannedFault("churn", "*", 0.0, 6.0, params={"period": 1.5}),
            PlannedFault(
                "flap", "lte", 0.5, 6.5, params={"mean_up": 1.2, "mean_down": 0.4}
            ),
            PlannedFault("loss", "wifi", 1.0, params={"probability": 0.03}),
            PlannedFault(
                "collapse", "wifi", 2.0, 5.0, params={"collapse_factor": 0.2}
            ),
        ]
    )


def planned_fault_trace_digest() -> str:
    """SHA-256 over the decision trace of the planned-fault chaos run."""
    from repro.recovery import RecoverableScenarioRun

    scenario = fig7_workload()
    plan = planned_fault_plan()
    plan.validate(scenario)
    run = RecoverableScenarioRun(scenario, MiDrrScheduler, extras=plan.apply)
    run.run_to_completion()
    canonical = json.dumps(
        [list(entry) for entry in run.trace.entries], separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def slo_report_hash() -> str:
    from repro.analysis.slo import run_latency_slo

    return run_latency_slo(seed=0, duration=20.0).report_hash()


def fleet_digests():
    """``(device_chain_sha256, digest of the other hashed fields)``."""
    from repro.fleet import run_fleet
    from repro.trace import DeviceWorkload

    report = run_fleet(
        4,
        DeviceWorkload(kind="smartphone", duration=5.0, num_interfaces=2),
        fleet_seed=0,
        executor="serial",
    )
    fleet = {
        key: value
        for key, value in report["fleet"].items()
        if key not in ("backend", "batching")
    }
    fields = {
        key: report[key]
        for key in ("totals", "delay", "interfaces", "fairness", "registry")
    }
    fields["fleet"] = fleet
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return (
        report["device_chain_sha256"],
        hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_DECISION_STREAMS))
def test_decision_streams(name):
    assert decision_stream_digest(scenarios()[name]) == GOLDEN_DECISION_STREAMS[name]


@pytest.mark.recovery
@pytest.mark.chaos
def test_planned_fault_trace():
    assert planned_fault_trace_digest() == GOLDEN_PLANNED_FAULT_TRACE


@pytest.mark.slo
def test_slo_family_report_hash():
    assert slo_report_hash() == GOLDEN_SLO_REPORT_HASH


@pytest.mark.fleet
def test_fleet_digests():
    chain, fields = fleet_digests()
    assert chain == GOLDEN_FLEET_DEVICE_CHAIN
    assert fields == GOLDEN_FLEET_FIELDS


if __name__ == "__main__":
    for name, scenario in scenarios().items():
        print(f"{name} {decision_stream_digest(scenario)}")
    print(f"planned-fault {planned_fault_trace_digest()}")
    print(f"slo {slo_report_hash()}")
    chain, fields = fleet_digests()
    print(f"fleet-chain {chain}")
    print(f"fleet-fields {fields}")
