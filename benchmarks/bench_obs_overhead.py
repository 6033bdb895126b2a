"""Observability overhead on the DES event loop.

The tentpole constraint on the instrumentation is that it is *free when
off*: with no :class:`~repro.obs.span.Observability` attached, the only
added cost per processed event is one ``is not None`` check in the
event loop (``Environment._drain``, which ``env.run()`` runs).  This
benchmark proves that empirically:

- ``test_tracing_off_overhead_under_2pct`` compares the production event
  loop (hook slot present, no hook installed) against a baseline
  subclass whose drain loop is the production ``Environment._drain``
  with the hook lines deleted, and asserts the off-path overhead stays
  under 2%;
- ``test_event_loop_throughput`` / ``..._hooked`` record absolute
  throughput with and without a live hook for the performance log.

The gate's statistic is the median, over ``PAIRS`` alternating-order
pairs of short drains, of the production/baseline wall-time ratio.  A
short drain is rarely hit by a scheduler or steal burst, and the median
discards the pairs that are, so the estimate holds to a fraction of a
percent on a noisy shared host, where a best-of-N minimum of long
drains swings by several percent either way.
"""

import statistics
import time

from repro.des.engine import Environment, SimulationError

N_EVENTS = 50_000
GATE_EVENTS = 10_000
PAIRS = 101
MAX_OFF_OVERHEAD = 0.02


class BaselineEnvironment(Environment):
    """``Environment`` whose drain loop is the production
    ``Environment._drain`` with the step-hook lines deleted — everything
    else identical.  ``env.run()`` with no ``until`` runs ``_drain``, so
    this is the loop :func:`pump` times (``test_baseline_loop_is_timed``
    pins that)."""

    def _drain(self) -> None:
        heap = self._wheel._heap
        wheel_pop_batch = self._wheel.pop_batch
        ring = self._ring
        ring_pop = ring.popleft
        ring_append = ring.append
        executed = 0
        try:
            while True:
                if ring:
                    event = ring_pop()
                elif heap:
                    self._now = wheel_pop_batch(ring_append)
                    continue
                else:
                    break
                executed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is None:
                    raise SimulationError(
                        f"{event!r} dispatched twice (scheduled again "
                        "after it was already processed?)"
                    )
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(
                        f"unhandled failed event with value {value!r}"
                    )
        finally:
            self.events_executed += executed


def loaded(env_cls, n_events: int, hook=None) -> Environment:
    """An environment holding one process that waits ``n_events``
    timeouts."""

    def prog(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env = env_cls()
    if hook is not None:
        env.set_step_hook(hook)
    env.process(prog(env))
    return env


def pump(env_cls, n_events: int = N_EVENTS, hook=None) -> float:
    """Wall seconds to drain ``n_events`` timeout events."""
    env = loaded(env_cls, n_events, hook)
    t0 = time.perf_counter()
    env.run()
    return time.perf_counter() - t0


def paired_overhead(env_cls, pairs: int = PAIRS) -> float:
    """Median over ``pairs`` alternating-order pairs of the
    ``env_cls``/baseline drain-time ratio, minus one."""
    ratios = []
    for i in range(pairs):
        if i % 2:
            base = pump(BaselineEnvironment, GATE_EVENTS)
            timed = pump(env_cls, GATE_EVENTS)
        else:
            timed = pump(env_cls, GATE_EVENTS)
            base = pump(BaselineEnvironment, GATE_EVENTS)
        ratios.append(timed / base)
    return statistics.median(ratios) - 1.0


def test_tracing_off_overhead_under_2pct():
    pump(Environment)  # warm both classes before timing
    pump(BaselineEnvironment)
    overhead = paired_overhead(Environment)
    assert overhead < MAX_OFF_OVERHEAD, (
        f"tracing-off event loop is {overhead:.1%} slower than the "
        f"uninstrumented baseline (budget {MAX_OFF_OVERHEAD:.0%}; median "
        f"of {PAIRS} paired drains of {GATE_EVENTS} events)"
    )


def test_baseline_loop_is_timed():
    """``env.run()`` runs the baseline's own loop: a hook installed on
    it never fires (the loop has no hook lines), yet every event runs."""
    seen = []
    env = loaded(BaselineEnvironment, 100,
                 hook=lambda event, when: seen.append(when))
    env.run()
    assert seen == []
    assert env.events_executed >= 100 and env.now == 100.0


def test_hook_fires_per_event():
    seen = []
    pump(Environment, n_events=100, hook=lambda event, when: seen.append(when))
    assert len(seen) >= 100  # every processed event passes the hook


def test_event_loop_throughput(benchmark):
    benchmark.pedantic(pump, args=(Environment,), rounds=3, iterations=1)


def test_event_loop_throughput_hooked(benchmark):
    counter = []
    benchmark.pedantic(
        pump,
        args=(Environment,),
        kwargs={"hook": lambda event, when: counter.append(1)},
        rounds=3,
        iterations=1,
    )
