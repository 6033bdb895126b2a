"""Wall-clock tracing for the benchmark's ``--trace 1`` runs.

Two mechanisms, both living here rather than in ``src/``:

- :class:`SpanRecorder` wraps calls into public entry points (runner,
  environment, spec key, result cache, executor, obs merge, submit).
  Each call becomes a span with a parent (the span that was open in the
  same context when it started) and a trace id: one request id per
  serve request, one spec id per grid point, one batch id per executor
  submission.  Spans stay in memory until :meth:`SpanRecorder.dump`.
- :class:`StackSampler` reads ``sys._current_frames()`` on a timer and
  charges the elapsed interval to the innermost ``repro.*`` module of
  every busy thread, mapped onto :data:`LAYERS`.  It gives self time
  where wrapping each call would cost more than the call itself, and
  its per-layer totals add up to the sampled wall time by construction
  (intervals with no busy thread land in ``idle``, busy code outside
  ``repro`` in ``other``).
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: Module prefix -> layer.  First match wins, so specific modules come
#: before their package.
LAYERS = (
    ("repro.des.wheel", "des.wheel"),
    ("repro.des.links", "des.links"),
    ("repro.des.trace", "obs"),
    ("repro.des", "des.engine"),
    ("repro.mpi.collectives", "mpi.collectives"),
    ("repro.mpi.fastpath", "mpi.fastpath"),
    ("repro.mpi.matching", "mpi.matching"),
    ("repro.mpi", "mpi.comm"),
    ("repro.workloads", "app"),
    ("repro.alya", "app"),
    ("repro.openmp", "app"),
    ("repro.core.deployment", "deploy"),
    ("repro.containers", "deploy"),
    ("repro.oskernel", "deploy"),
    ("repro.scheduler", "deploy"),
    ("repro.hardware", "deploy"),
    ("repro.obs", "obs"),
    ("repro.core", "core"),
    ("repro.exec", "exec"),
    ("repro.serve", "serve"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS)) + (
    "idle", "other")

#: Innermost stdlib frames a thread sits in while it waits (selector,
#: lock, queue, pipe read).  Such a thread is idle, not busy.
_IDLE_FRAMES = frozenset({
    ("selectors", "select"),
    ("threading", "wait"),
    ("threading", "_wait_for_tstate_lock"),
    ("queue", "get"),
    ("concurrent.futures.thread", "_worker"),
    ("multiprocessing.connection", "_recv"),
    ("multiprocessing.connection", "_poll"),
    ("multiprocessing.connection", "wait"),
    ("multiprocessing.popen_fork", "poll"),
})

_current = contextvars.ContextVar("e2ebench_span", default=(0, None))


def layer_of(module: str) -> str:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanRecorder:
    """In-memory spans around calls into the program's public API."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.total_s: dict = defaultdict(float)
        self.max_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counters: dict = defaultdict(float)
        self._ids = itertools.count(1)
        self._requests = itertools.count()
        self._batches = itertools.count()
        self._undo: list = []

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, trace):
        parent, parent_trace = _current.get()
        span_id = next(self._ids)
        token = _current.set((span_id, trace or parent_trace))
        return span_id, parent, trace or parent_trace, token

    def _close(self, name, opened, t_start, attrs):
        span_id, parent, trace, token = opened
        t_end = time.perf_counter()
        _current.reset(token)
        elapsed = t_end - t_start
        self.total_s[name] += elapsed
        self.calls[name] += 1
        if elapsed > self.max_s[name]:
            self.max_s[name] = elapsed
        self.spans.append(
            (span_id, name, t_start, t_end, parent, trace, attrs)
        )

    def wrap(self, owner, attr, name, trace=None, enter=None, leave=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``trace(args)`` names a new trace (None: inherit the caller's);
        ``enter(args)`` returns state handed to ``leave(state, result,
        attrs)``, which may add span attributes and counters.
        """
        original = getattr(owner, attr)
        rec = self

        if asyncio.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                opened = rec._open(trace(args) if trace else None)
                state = enter(args) if enter else None
                attrs: dict = {}
                t_start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                    if leave:
                        leave(state, result, attrs)
                    return result
                finally:
                    rec._close(name, opened, t_start, attrs)
        else:
            def wrapper(*args, **kwargs):
                opened = rec._open(trace(args) if trace else None)
                state = enter(args) if enter else None
                attrs: dict = {}
                t_start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    if leave:
                        leave(state, result, attrs)
                    return result
                finally:
                    rec._close(name, opened, t_start, attrs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def next_request(self) -> str:
        return f"req-{next(self._requests)}"

    def next_batch(self) -> str:
        return f"batch-{next(self._batches)}"

    def dump(self, path) -> None:
        """Write the spans as Chrome trace events (``ph: X``); ids,
        parents and trace ids ride in ``args``."""
        events = []
        for span_id, name, t_start, t_end, parent, trace, attrs in sorted(
            self.spans, key=lambda s: (s[2], s[0])
        ):
            events.append({
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": trace or "-",
                "ts": round((t_start - self.t0) * 1e6, 3),
                "dur": round((t_end - t_start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "trace": trace,
                         **attrs},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


class StackSampler:
    """Per-layer self time from periodic stack samples.

    Every tick charges the time since the previous tick, split evenly
    over the busy threads, to each one's innermost ``repro.*`` layer.
    With no busy thread the interval is charged to ``idle``.
    """

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.self_s: dict = dict.fromkeys(LAYER_NAMES, 0.0)
        self.samples = 0
        self._layers: dict = {}
        self._stop = threading.Event()
        self._thread = None
        self._last = 0.0

    def __enter__(self) -> "StackSampler":
        self._last = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="e2ebench-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def _loop(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._tick(me)
        self._tick(me)

    def _tick(self, me: int) -> None:
        now = time.perf_counter()
        dt, self._last = now - self._last, now
        busy = [
            self._classify(frame)
            for tid, frame in sys._current_frames().items()
            if tid != me
        ]
        busy = [layer for layer in busy if layer is not None]
        self.samples += 1
        if not busy:
            self.self_s["idle"] += dt
            return
        share = dt / len(busy)
        for layer in busy:
            self.self_s[layer] += share

    def _classify(self, frame):
        """The frame's layer, or None when the thread is idle."""
        module = frame.f_globals.get("__name__", "")
        if (module, frame.f_code.co_name) in _IDLE_FRAMES:
            return None
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                layer = self._layers.get(module)
                if layer is None:
                    layer = self._layers[module] = layer_of(module)
                return layer
            frame = frame.f_back
        return "other"
