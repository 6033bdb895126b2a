"""Property suite: EventWheel vs a sorted reference model.

The store's ordering contract is the binary heap's: entries pop in
ascending ``(time, seq)`` with ``seq`` assigned in push order.  Everything
the engine relies on — simultaneous timestamps, ``pop_batch`` grouping,
``peek_time`` and empty edges — is driven here against a plain sorted
list, which is obviously correct.  The mixed-timescale schedules are the
Fig. 1 shape: µs-spaced message bursts separated by 10–100 s compute
gaps.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.des.wheel import EventWheel

# Timestamps spanning many orders of magnitude, plus exact ties and
# neighbouring floats.
TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.0 + 2**-50, 1e3]),
)

#: One burst: a compute gap of 10–100 s, then messages µs apart.
BURST = st.tuples(
    st.floats(min_value=10.0, max_value=100.0, allow_nan=False),
    st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=40),
)


def _drain(wheel: EventWheel):
    out = []
    while wheel:
        out.append(wheel.pop())
    return out


def _drain_batches(wheel: EventWheel, expected):
    """Drain ``wheel`` with ``pop_batch`` and check every call returns
    exactly the next equal-time group of ``expected`` (sorted
    ``(time, payload)`` pairs, payload = push index)."""
    while wheel:
        group = []
        t0 = wheel.pop_batch(group.append)
        assert group, "pop_batch must pop at least one entry"
        head = expected[: len(group)]
        assert group == [i for _t, i in head]
        assert all(t == t0 for t, _i in head)
        if len(expected) > len(group):
            assert expected[len(group)][0] > t0
        expected = expected[len(group) :]
    assert not expected


@given(st.lists(TIMES, max_size=200))
def test_pop_order_matches_heap(times):
    wheel = EventWheel()
    for i, t in enumerate(times):
        wheel.push(t, i)
    assert _drain(wheel) == sorted((t, i) for i, t in enumerate(times))
    assert len(wheel) == 0 and not wheel
    assert wheel.peek_time() == float("inf")


@given(st.lists(st.sampled_from([0.0, 0.25, 0.25, 1.0]), max_size=64))
def test_simultaneous_timestamps_pop_fifo(times):
    wheel = EventWheel()
    for i, t in enumerate(times):
        wheel.push(t, i)
    got = _drain(wheel)
    assert got == sorted(((t, i) for i, t in enumerate(times)))


@given(st.lists(TIMES, min_size=1, max_size=100), st.data())
def test_pop_batch_groups_equal_times(times, data):
    wheel = EventWheel()
    # Force collisions: duplicate a random subset of timestamps.
    dupes = data.draw(st.lists(st.sampled_from(times), max_size=20))
    seq = list(times) + dupes
    for i, t in enumerate(seq):
        wheel.push(t, i)
    _drain_batches(wheel, sorted((t, i) for i, t in enumerate(seq)))
    with pytest.raises(IndexError):
        wheel.pop_batch([].append)


@given(st.lists(BURST, min_size=1, max_size=8))
def test_mixed_timescale_bursts(bursts):
    """µs-spaced bursts 10–100 s apart, pushed out of order (the latest
    burst first), pop in ``(time, seq)`` order in equal-time groups."""
    wheel = EventWheel()
    pushes = []
    t = 0.0
    for gap, offsets in bursts:
        t += gap
        pushes.append([t + us * 1e-6 for us in offsets])
    seq = [when for burst in reversed(pushes) for when in burst]
    for i, when in enumerate(seq):
        wheel.push(when, i)
    assert wheel.peek_time() == min(seq)
    _drain_batches(wheel, sorted((when, i) for i, when in enumerate(seq)))


@settings(max_examples=60)
@given(st.data())
def test_mixed_timescale_simulation(data):
    """A simulation-shaped interleave: each popped group schedules
    follow-ups strictly in the future, either message hops µs later or
    compute timeouts 10–100 s later, and the store keeps matching the
    reference pop for pop."""
    wheel = EventWheel()
    ref = []  # sorted (when, seq)
    seq = 0
    for _ in range(data.draw(st.integers(1, 8))):
        when = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        wheel.push(when, seq)
        insort(ref, (when, seq))
        seq += 1
    steps = 0
    while wheel and steps < 200:
        group = []
        now = wheel.pop_batch(group.append)
        expected = [i for t, i in ref if t == ref[0][0]]
        assert now == ref[0][0] and group == expected
        del ref[: len(group)]
        for _ in group:
            hops = data.draw(
                st.lists(
                    st.one_of(
                        st.integers(1, 50).map(lambda us: us * 1e-6),
                        st.floats(10.0, 100.0, allow_nan=False),
                    ),
                    max_size=3,
                )
            )
            for delay in hops:
                wheel.push(now + delay, seq)
                insort(ref, (now + delay, seq))
                seq += 1
        assert len(wheel) == len(ref)
        assert wheel.peek_time() == (ref[0][0] if ref else float("inf"))
        steps += 1


class WheelVsHeap(RuleBasedStateMachine):
    """Interleaved push/pop/pop_batch/peek against the reference model
    of the heap contract (a sorted list), including pushes earlier than
    everything already queued."""

    def __init__(self):
        super().__init__()
        self.wheel = EventWheel()
        self.ref = []  # sorted (time, seq); the payload is the seq
        self.seq = 0

    @rule(t=TIMES)
    def push(self, t):
        self.wheel.push(t, self.seq)
        insort(self.ref, (t, self.seq))
        self.seq += 1

    @precondition(lambda self: self.ref)
    @rule()
    def pop(self):
        assert self.wheel.pop() == self.ref.pop(0)

    @precondition(lambda self: self.ref)
    @rule()
    def pop_batch(self):
        group = []
        t0 = self.wheel.pop_batch(group.append)
        n = sum(1 for t, _ in self.ref if t == self.ref[0][0])
        assert t0 == self.ref[0][0]
        assert group == [i for _t, i in self.ref[:n]]
        del self.ref[:n]

    @invariant()
    def sizes_agree(self):
        assert len(self.wheel) == len(self.ref)
        assert bool(self.wheel) == bool(self.ref)

    @invariant()
    def peek_agrees(self):
        if self.ref:
            assert self.wheel.peek_time() == self.ref[0][0]
        else:
            assert self.wheel.peek_time() == float("inf")


WheelVsHeap.TestCase.settings = settings(max_examples=60, stateful_step_count=60)
TestWheelVsHeap = WheelVsHeap.TestCase


def test_empty_edges():
    wheel = EventWheel()
    assert wheel.peek_time() == float("inf")
    assert len(wheel) == 0 and not wheel
    with pytest.raises(IndexError):
        wheel.pop()
    with pytest.raises(IndexError):
        wheel.pop_batch([].append)
    wheel.push(1.0, "x")
    assert wheel.peek_time() == 1.0 and len(wheel) == 1 and wheel
    assert wheel.pop() == (1.0, "x")
    # Emptied again: every read path reports empty.
    assert wheel.peek_time() == float("inf")
    with pytest.raises(IndexError):
        wheel.pop()
    with pytest.raises(IndexError):
        wheel.pop_batch([].append)
