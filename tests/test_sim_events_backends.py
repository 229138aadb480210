"""Ordering and accounting properties of the event queue.

A hypothesis property drives the heap :class:`EventQueue` and a
brute-force oracle — a plain list searched for its minimum
``(time, priority, seq)`` — through the same interleaving of
schedule/cancel/pop/pop_ready steps and requires identical answers.
The same property pins the cancel/compaction accounting bug that
motivated the counter audit: lazily discarding a cancelled *head*
inside ``pop``/``peek_time`` must decrement ``_cancelled_count``, or
the tombstone estimate drifts upward forever and every later ``cancel``
triggers a spurious full compaction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


def _noop():
    pass


def count_tombstones(queue):
    """Count qcancelled events still physically inside the heap."""
    return sum(1 for event in queue._heap if event.qcancelled)


def assert_accounting(queue):
    assert queue._cancelled_count == count_tombstones(queue), (
        f"tombstone counter {queue._cancelled_count} != physical count "
        f"{count_tombstones(queue)}"
    )


def drain(queue):
    """Pop every live event (peek_time prunes cancelled residue)."""
    out = []
    while queue.peek_time() is not None:
        out.append(queue.pop())
    return out


class SortedListOracle:
    """The queue contract by brute force: live ``(time, priority, seq)``
    keys in a list, the minimum found by a full scan."""

    def __init__(self):
        self.live = []
        self.next_seq = 0

    def push(self, time, priority):
        key = (time, priority, self.next_seq)
        self.next_seq += 1
        self.live.append(key)
        return key

    def cancel(self, seq):
        self.live = [key for key in self.live if key[2] != seq]

    def pop_ready(self, until=None):
        if not self.live:
            return None
        head = min(self.live)
        if until is not None and head[0] > until:
            return None
        self.live.remove(head)
        return head


#: One op per step: push a timestamped event, cancel a prior push by
#: index, pop the minimum, or pop against a horizon. Times are drawn
#: from a small grid so ties (and therefore the priority/seq tie-break)
#: occur constantly.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]),
            st.sampled_from([0, 0, 0, 1, 2]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("pop_ready"), st.sampled_from([0.5, 1.5, 4.0])),
    ),
    max_size=120,
)


def key(event):
    return None if event is None else (event.time, event.priority, event.seq)


@settings(max_examples=120, deadline=None)
@given(ops=OPS)
def test_interleaved_schedule_cancel_pop_equivalence(ops):
    """The heap agrees with the sorted-list oracle step for step, and
    keeps the tombstone counter exact after every operation."""
    queue = EventQueue()
    oracle = SortedListOracle()
    pushed = []  # heap events by push order (== seq)
    # Seqs still cancellable: pending and not yet cancelled. (cancel()
    # requires a pending event — the simulator's handle discipline.)
    cancellable = []

    for op in ops:
        if op[0] == "push":
            event = queue.push(op[1], _noop, priority=op[2])
            pushed.append(event)
            assert key(event) == oracle.push(op[1], op[2])
            cancellable.append(event.seq)
        elif op[0] == "cancel":
            if cancellable:
                seq = cancellable.pop(op[1] % len(cancellable))
                queue.cancel(pushed[seq])
                assert pushed[seq].qcancelled
                oracle.cancel(seq)
        else:
            if op[0] == "pop":
                event = queue.pop() if queue.peek_time() is not None else None
                expected = oracle.pop_ready()
            else:  # pop_ready against a horizon
                event = queue.pop_ready(op[1])
                expected = oracle.pop_ready(op[1])
            assert key(event) == expected, f"diverged on {op}"
            if event is not None:
                cancellable.remove(event.seq)
        assert_accounting(queue)
        expected_head = min(oracle.live)[0] if oracle.live else None
        assert queue.peek_time() == expected_head
        # peek_time discards cancelled heads; re-check the books.
        assert_accounting(queue)

    # Drain to exhaustion: the oracle's order, and a fully drained
    # queue must have zero recorded tombstones (the pinned bug left the
    # counter positive here).
    assert [key(event) for event in drain(queue)] == sorted(oracle.live)
    assert len(queue) == 0
    assert queue._cancelled_count == 0


@pytest.mark.parametrize("queue_type", [EventQueue])
class TestCancelAccounting:
    def test_lazy_head_discard_decrements_counter(self, queue_type):
        """The regression this file exists for: cancelled events
        discarded lazily at the frontier must leave the books balanced."""
        queue = queue_type()
        doomed = [queue.push(float(i), _noop) for i in range(10)]
        queue.push(100.0, _noop)
        for event in doomed:
            queue.cancel(event)
        assert queue._cancelled_count == 10
        # peek_time walks past (and discards) all ten tombstones.
        assert queue.peek_time() == 100.0
        assert queue._cancelled_count == 0
        assert queue.compactions_total == 0

    def test_cancel_is_idempotent(self, queue_type):
        queue = queue_type()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        queue.cancel(event)
        queue.cancel(event)  # second cancel must not double-count
        assert queue._cancelled_count == 1
        assert queue.pop().time == 2.0

    def test_direct_cancel_stays_uncounted(self, queue_type):
        """Event.cancel() bypasses the queue: honoured on pop, but it
        never contributes to compaction pressure."""
        queue = queue_type()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        event.cancel()
        assert queue._cancelled_count == 0
        assert queue.pop().time == 2.0
        assert queue._cancelled_count == 0

    def test_compaction_sweeps_tombstones(self, queue_type):
        queue = queue_type()
        events = [queue.push(float(i), _noop) for i in range(200)]
        for event in events[::2]:
            queue.cancel(event)
        for event in events[1::2][:40]:
            queue.cancel(event)
        assert queue.compactions_total >= 1
        assert_accounting(queue)
        remaining = [event.time for event in drain(queue)]
        assert remaining == sorted(remaining)
        assert len(remaining) == 60

    def test_clear_resets_books(self, queue_type):
        queue = queue_type()
        event = queue.push(1.0, _noop)
        queue.cancel(event)
        queue.clear()
        assert len(queue) == 0
        assert queue._cancelled_count == 0
        assert queue.peek_time() is None
        with pytest.raises(SimulationError):
            queue.pop()


@pytest.mark.parametrize("queue_type", [EventQueue])
class TestCheckpointContract:
    def test_live_events_excludes_cancelled(self, queue_type):
        queue = queue_type()
        keep = queue.push(2.0, _noop)
        drop = queue.push(1.0, _noop)
        queue.cancel(drop)
        assert [event.seq for event in queue.live_events()] == [keep.seq]

    def test_restore_round_trip(self, queue_type):
        queue = queue_type()
        for i in range(20):
            queue.push(float(i % 5), _noop, priority=i % 3)
        snapshot = [
            (event.time, event.priority, event.seq)
            for event in queue.live_events()
        ]
        clone = queue_type()
        clone.restore(
            [Event(t, p, s, _noop) for t, p, s in snapshot], queue.next_seq
        )
        assert clone.next_seq == queue.next_seq
        popped = [
            (event.time, event.priority, event.seq) for event in drain(clone)
        ]
        assert popped == sorted(snapshot)
