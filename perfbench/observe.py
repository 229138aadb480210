"""Always-on probes, per-device output checks and sim-clock metrics.

The probes wrap a handful of the program's functions that run once per
device, once per flow or once per state change -- plus ``Flow.offer``,
once per packet, to count offered traffic and to probe the host speed
every :data:`CALIBRATE_EVERY` packets. They mark where each device
run starts and dispatches its first event, capture the engine, and
record every interface and preference change with its sim time.

After each device run, :meth:`Observer.device_end` checks the outputs
(Π respect and byte conservation; the workload adds its own checks) and
derives the sim-clock metrics: per-packet delays, a service-trace
fingerprint, and the fairness error against ``weighted_maxmin`` over the
device's steady windows. All of that runs with the CPU clock and the
tracer paused, so it is charged to no measurement.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import resource
import time
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence


#: Unit of the fairness service lag (one full-size packet).
LAG_PACKET_BYTES = 1500
#: Offered packets between two host-speed probes inside a device run.
CALIBRATE_EVERY = 4096


def nearest_rank(counts: Mapping, q: float):
    """Nearest-rank *q*-quantile of a ``value -> count`` histogram."""
    rank = max(1, -(-sum(counts.values()) * q // 1))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise ValueError("empty histogram")


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed interpreter-bound loop (host speed probe).

    The collector is off while it runs: a collection would scan the
    program's heap and time that instead of the host.
    """
    import gc
    import heapq

    collecting = gc.isenabled()
    gc.disable()
    started = time.process_time()
    heap: list = []
    totals: Dict[str, int] = {}
    for i in range(10000):
        heapq.heappush(heap, (i * 7919 % 1000, i, str(i % 97)))
        if len(heap) > 64:
            key, _, name = heapq.heappop(heap)
            totals[name] = totals.get(name, 0) + key
    elapsed = time.process_time() - started
    if collecting:
        gc.enable()
    return elapsed


def _patch_method(cls, name: str, make):
    original = vars(cls)[name]
    setattr(cls, name, functools.wraps(original)(make(original)))


def fingerprint(samples) -> str:
    """SHA-256 over every service sample: time, flow, interface, size, delay.

    The benchmark's own digest, not the program's ``trace_fingerprint``:
    that function is part of the fleet layer being measured.
    """
    digest = hashlib.sha256()
    digest.update(
        "".join(
            f"{s.time!r} {s.flow_id} {s.interface_id} {s.size_bytes} {s.delay!r}\n"
            for s in samples
        ).encode("utf-8")
    )
    return digest.hexdigest()


class Observer:
    """Probes plus the per-device checks and metrics of one operation.

    *exclude_flows* / *exclude_interfaces* name traffic that is not
    elastic (a rate-limited stream and the link reserved for it) and is
    left out of the fairness comparison. Windows shorter than
    *min_window* seconds are skipped; each window is measured from
    *settle* seconds after it opens, in equal parts of at most
    *max_window* seconds.
    """

    def __init__(
        self,
        exclude_flows: Sequence[str] = (),
        exclude_interfaces: Sequence[str] = (),
        settle: float = 0.5,
        min_window: float = 1.0,
        max_window: float = math.inf,
        expected_fingerprints: Optional[List[str]] = None,
        tracer=None,
    ) -> None:
        self.exclude_flows = set(exclude_flows)
        self.exclude_interfaces = set(exclude_interfaces)
        self.settle = settle
        self.min_window = min_window
        self.max_window = max_window
        self.expected = expected_fingerprints
        self.tracer = tracer
        # -- per device ---------------------------------------------------
        self._sim = None
        self._engines: List[object] = []
        # Flow -> [packets, bytes, largest packet, first offer time, weight, Π]
        self._offered: Dict[object, list] = {}
        # (time, kind, key, state after)
        self._changes: List[tuple] = []
        self._initial_interfaces: Dict[str, tuple] = {}
        self._begin_cpu = 0.0
        self._begin_wall = 0.0
        self._dispatch_cpu: Optional[float] = None
        self._dispatch_wall = 0.0
        # -- per operation ------------------------------------------------
        self.devices = 0
        self.failures: List[str] = []
        self.failed_devices = 0
        self.setup_cpu = 0.0
        self.setup_wall = 0.0
        self.paused_cpu = 0.0
        #: Host-speed probes (``calibrate``) taken during the operation.
        self.calibration: List[float] = []
        self._offers = 0
        self.packets = 0
        # Per-packet delay (sim seconds) -> packets.
        self.delays: Counter = Counter()
        # Service lag of every flow in every steady window, in packets.
        self.lags: List[float] = []
        self.fingerprints: List[str] = []
        self.events = 0
        self.transmissions = 0
        self.decisions = 0
        self.examined = Counter()
        self.delivered_bytes = 0
        self.unaccounted_bytes = 0

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.core.engine import SchedulingEngine
        from repro.net.flow import Flow
        from repro.net.interface import Interface
        from repro.sim.simulator import Simulator

        observer = self

        def run_probe(original):
            def run(sim, *args, **kwargs):
                observer._sim = sim
                if observer._dispatch_cpu is None:
                    observer._dispatch_cpu = cpu_seconds()
                    observer._dispatch_wall = time.perf_counter()
                return original(sim, *args, **kwargs)
            return run

        def start_probe(original):
            def start(engine):
                observer._engines.append(engine)
                for interface_id, interface in engine.interfaces.items():
                    observer._initial_interfaces[interface_id] = (
                        interface.up, interface.rate_bps)
                return original(engine)
            return start

        offered = self._offered

        def offer_probe(original):
            def offer(flow, packet):
                record = offered.get(flow)
                size = packet.size_bytes
                if record is None:
                    sim = observer._sim
                    record = offered[flow] = [
                        0, 0, 0, sim.now if sim is not None else 0.0,
                        flow.weight, flow.allowed_interfaces]
                record[0] += 1
                record[1] += size
                observer._offers += 1
                # Not during set-up: set-up time is a metric of its own.
                if (observer._offers % CALIBRATE_EVERY == 0
                        and observer._dispatch_cpu is not None):
                    observer.calibrate_now()
                if size > record[2]:
                    record[2] = size
                return original(flow, packet)
            return offer

        def interface_probe(original):
            def change(interface, *args, **kwargs):
                result = original(interface, *args, **kwargs)
                observer._note("iface", interface.interface_id,
                               (interface.up, interface.rate_bps))
                return result
            return change

        def prefs_probe(original):
            def notify(engine, flow_id, *args, **kwargs):
                result = original(engine, flow_id, *args, **kwargs)
                flow = engine.flows.get(flow_id)
                if flow is not None:
                    observer._note("flow", flow,
                                   (flow.weight, flow.allowed_interfaces))
                return result
            return notify

        def restrict_probe(original):
            def restrict_to(flow, interfaces):
                result = original(flow, interfaces)
                observer._note("flow", flow, (flow.weight, flow.allowed_interfaces))
                return result
            return restrict_to

        _patch_method(Simulator, "run", run_probe)
        _patch_method(SchedulingEngine, "start", start_probe)
        _patch_method(SchedulingEngine, "notify_preferences_changed", prefs_probe)
        _patch_method(Flow, "offer", offer_probe)
        _patch_method(Flow, "restrict_to", restrict_probe)
        for name in ("bring_down", "bring_up", "set_rate"):
            _patch_method(Interface, name, interface_probe)

    def _note(self, kind: str, key, state: tuple) -> None:
        sim = self._sim
        self._changes.append((sim.now if sim is not None else 0.0, kind, key, state))

    # ------------------------------------------------------------------
    # Device boundaries
    # ------------------------------------------------------------------
    def pause(self) -> float:
        if self.tracer is not None:
            self.tracer.pause()
        return cpu_seconds()

    def resume(self, paused_at: float) -> None:
        self.paused_cpu += cpu_seconds() - paused_at
        if self.tracer is not None:
            self.tracer.resume()

    def calibrate_now(self) -> None:
        """Probe the host speed now, charged to no measurement."""
        paused_at = self.pause()
        self.calibration.append(calibrate())
        self.resume(paused_at)

    def device_begin(self) -> None:
        """Mark the start of one device run (before anything is built)."""
        self._begin_cpu = cpu_seconds()
        self._begin_wall = time.perf_counter()

    def device_end(self, extra_failures: Sequence[str] = ()) -> None:
        """Check one finished device run and fold in its metrics."""
        paused_at = self.pause()
        failures = list(extra_failures)
        if self._dispatch_cpu is None or len(self._engines) != 1:
            failures.append(
                f"expected one engine started and run, saw {len(self._engines)}")
        else:
            self.setup_cpu += self._dispatch_cpu - self._begin_cpu
            self.setup_wall += self._dispatch_wall - self._begin_wall
            failures.extend(self._measure(self._engines[0]))
        index = self.devices
        self.devices += 1
        if failures:
            self.failed_devices += 1
            self.failures.extend(f"device {index}: {text}" for text in failures[:5])
        self._sim = None
        self._engines = []
        self._offered.clear()
        self._changes = []
        self._initial_interfaces = {}
        self._dispatch_cpu = None
        self.resume(paused_at)

    # ------------------------------------------------------------------
    # Checks and metrics
    # ------------------------------------------------------------------
    def _measure(self, engine) -> List[str]:
        failures: List[str] = []
        sim = engine.sim
        samples = engine.stats.samples
        interfaces = engine.interfaces
        flows = {flow.flow_id: flow for flow in self._offered}

        # 1. Π respect: each sample's interface was in the flow's Π row at
        #    some instant of its transmission, which began after the previous
        #    completion on that interface.
        history: Dict[object, list] = {}
        for when, kind, key, state in self._changes:
            if kind == "flow":
                history.setdefault(key, []).append((when, state[1]))
        previous: Dict[str, float] = {}
        violations = 0
        for sample in samples:
            interface_id = sample.interface_id
            started = previous.get(interface_id, 0.0)
            previous[interface_id] = sample.time
            flow = flows.get(sample.flow_id)
            if flow is None:
                violations += 1
                continue
            rows = [self._offered[flow][5]]
            for when, row in history.get(flow, ()):
                if when <= started:
                    rows = [row]
                elif when <= sample.time:
                    rows.append(row)
            if not any(row is None or interface_id in row for row in rows):
                violations += 1
        if violations:
            failures.append(f"{violations} service samples outside the flow's Π row")

        # 2. Conservation: offered = queued + dropped + sent on a link + in
        #    flight, where sent on a link = delivered + consumed by an
        #    egress filter (loss, failed checksum).
        offered_packets = sum(record[0] for record in self._offered.values())
        offered_bytes = sum(record[1] for record in self._offered.values())
        largest = max((record[2] for record in self._offered.values()), default=0)
        held_packets = sum(len(f.queue) + f.queue.dropped_packets for f in self._offered)
        held_bytes = sum(f.queue.backlog_bytes + f.queue.dropped_bytes for f in self._offered)
        link_packets = sum(i.packets_sent for i in interfaces.values())
        link_bytes = sum(i.bytes_sent for i in interfaces.values())
        consumed = sum(i.packets_consumed for i in interfaces.values())
        in_flight = sum(1 for i in interfaces.values() if i.busy)
        if offered_packets != held_packets + link_packets + in_flight:
            failures.append(
                f"packets offered {offered_packets} != queued+dropped {held_packets}"
                f" + sent {link_packets} + in flight {in_flight}")
        flight_bytes = offered_bytes - held_bytes - link_bytes
        if not (in_flight <= flight_bytes <= in_flight * largest) and not (
                in_flight == 0 and flight_bytes == 0):
            failures.append(
                f"bytes offered {offered_bytes} leave {flight_bytes} B for "
                f"{in_flight} packets in flight")
        if link_packets != len(samples) + consumed:
            failures.append(
                f"sent {link_packets} != delivered {len(samples)} + consumed {consumed}")
        # Bytes the sink delivered that the flows' own accounting misses:
        # the engine retires a flow whose source is exhausted and whose
        # queue is empty even while its last packet is still in flight on
        # another interface, and that packet's completion is then not
        # credited to the flow. Reported as a per-layer count, not a
        # failure: it is a defect of the program this benchmark measures.
        delivered_bytes = sum(s.size_bytes for s in samples)
        self.delivered_bytes += delivered_bytes
        self.unaccounted_bytes += delivered_bytes - sum(f.bytes_sent for f in flows.values())

        # 3. Sim-clock metrics.
        digest = fingerprint(samples)
        if self.expected is not None:
            index = self.devices
            if index >= len(self.expected) or self.expected[index] != digest[:16]:
                failures.append("service-trace fingerprint differs from the recorded one")
        self.fingerprints.append(digest)
        self.packets += len(samples)
        self.delays.update(s.delay for s in samples if s.delay is not None)
        self._fairness(engine, samples)
        self.events += sim.events_processed
        self.transmissions += link_packets + in_flight
        examined = getattr(engine.scheduler, "decision_flows_examined", None)
        if examined is not None:
            self.decisions += len(examined)
            self.examined.update(examined)
        return failures

    def _fairness(self, engine, samples) -> None:
        """Compare measured rates with ``weighted_maxmin`` per steady window.

        A steady window lies between two consecutive changes (a flow
        starting or completing, an interface going down, up or changing
        rate, a preference edit). Every flow contributes its service lag:
        the bytes it was served in the window minus the bytes its
        weighted max-min rate would have served, in absolute value, in
        packets of :data:`LAG_PACKET_BYTES` -- the quantity the paper's
        Lemma 6 bounds.
        """
        from repro.fairness.waterfill import weighted_maxmin

        horizon = engine.sim.now
        marks = {0.0, horizon}
        for when, _, _, _ in self._changes:
            marks.add(when)
        for flow, record in self._offered.items():
            marks.add(record[3])
            if flow.completed_at is not None:
                marks.add(flow.completed_at)
        marks = sorted(mark for mark in marks if 0.0 <= mark <= horizon)

        served: Dict[str, list] = {}
        for sample in samples:
            series = served.setdefault(sample.flow_id, [[], [0]])
            series[0].append(sample.time)
            series[1].append(series[1][-1] + sample.size_bytes)

        def bytes_in(flow_id: str, start: float, end: float) -> int:
            series = served.get(flow_id)
            if series is None:
                return 0
            times, cumulative = series
            return (cumulative[bisect.bisect_right(times, end)]
                    - cumulative[bisect.bisect_right(times, start)])

        for start, end in zip(marks, marks[1:]):
            if end - start < self.min_window or end - start <= self.settle:
                continue
            interface_state = dict(self._initial_interfaces)
            flow_state = {flow: (record[4], record[5])
                          for flow, record in self._offered.items()}
            for when, kind, key, state in self._changes:
                if when > start:
                    break
                if kind == "iface":
                    interface_state[key] = state
                else:
                    flow_state[key] = state
            capacities = {
                interface_id: (rate if up else 0.0)
                for interface_id, (up, rate) in interface_state.items()
                if interface_id not in self.exclude_interfaces
            }
            instance = {}
            for flow, record in self._offered.items():
                if flow.flow_id in self.exclude_flows or record[3] > start:
                    continue
                if flow.completed_at is not None and flow.completed_at < end:
                    continue
                weight, row = flow_state[flow]
                if row is not None:
                    row = sorted(set(row) & set(capacities))
                    if not row:
                        continue
                instance[flow.flow_id] = (weight, row)
            if not instance:
                continue
            allocation = weighted_maxmin(instance, capacities)
            measured_from = start + self.settle
            chunks = max(1, math.ceil((end - measured_from) / self.max_window - 1e-9))
            length = (end - measured_from) / chunks
            for chunk in range(chunks):
                chunk_start = measured_from + chunk * length
                for flow_id in instance:
                    optimum = allocation.rate(flow_id)
                    served_bytes = bytes_in(flow_id, chunk_start, chunk_start + length)
                    self.lags.append(
                        abs(served_bytes - optimum * length / 8) / LAG_PACKET_BYTES)
