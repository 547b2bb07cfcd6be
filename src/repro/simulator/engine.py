"""Deterministic discrete-event simulation engine.

A minimal heap-based scheduler: events are ``(time, sequence, callback,
span_ref)`` tuples; the sequence number makes simultaneous events fire in
scheduling order, so runs are fully deterministic for a fixed seed.
Callbacks receive the engine, may schedule further events, and may stop
the run.

The fourth element is causal-span propagation (see
:mod:`repro.obs.spans`): when span tracing is on, scheduling captures the
active span reference and the loop resumes it around the callback, so a
span opened inside the callback joins the trace of the work that scheduled
it.  With spans off (the default) the reference is always ``None`` and the
loop takes the bare-call path.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..obs.spans import SpanRef

from ..core.durability.faults import SimulatedCrash
from ..obs.recorder import NULL_RECORDER, NullRecorder

__all__ = ["EventEngine", "ScheduledEvent"]

Callback = Callable[["EventEngine"], None]


@dataclass(frozen=True)
class ScheduledEvent:
    """Handle returned by :meth:`EventEngine.schedule`; supports cancel."""

    time: float
    sequence: int

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


class EventEngine:
    """Heap-based event loop with a monotonically advancing clock."""

    def __init__(self, start_time: float = 0.0,
                 recorder: NullRecorder = NULL_RECORDER):
        self._now = start_time
        self._sequence = itertools.count()
        self._heap: List[Tuple[float, int, Callback, Optional[SpanRef]]] = []
        self._cancelled: set = set()
        self._stopped = False
        self._events_processed = 0
        #: Observability sink; NULL_RECORDER keeps the loop unmetered.
        self._recorder = recorder

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------ #
    # Scheduling                                                         #
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callback) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self._now}")
        sequence = next(self._sequence)
        link = (self._recorder.active_span_ref()
                if self._recorder.enabled else None)
        heapq.heappush(self._heap, (time, sequence, callback, link))
        return ScheduledEvent(time=time, sequence=sequence)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a scheduled event (lazy deletion; safe to double-cancel)."""
        self._cancelled.add(event.sequence)

    def stop(self) -> None:
        """Stop the run after the current callback returns."""
        self._stopped = True

    def schedule_crash(self, at_time: float,
                       reason: str = "scheduled crash") -> ScheduledEvent:
        """Kill the run at ``at_time`` by raising :class:`SimulatedCrash`.

        The exception propagates out of :meth:`run` exactly like a process
        death would cut the call stack: no later events fire, no cleanup
        hooks run, and whatever a journalled system had persisted by then
        is all recovery gets — which is precisely what the crash-recovery
        tests need to stage deterministically.
        """
        def _crash(engine: "EventEngine") -> None:
            raise SimulatedCrash(f"{reason} at t={engine.now:.0f}s")
        return self.schedule_at(at_time, _crash)

    # ------------------------------------------------------------------ #
    # Running                                                            #
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Process events until the horizon/count/queue is exhausted.

        Returns the number of events processed by this call.  The clock
        advances to ``until`` (if given) even when the queue drains early,
        so repeated ``run`` calls compose predictably.
        """
        processed = 0
        while self._heap and not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            time, sequence, callback, link = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if sequence in self._cancelled:
                self._cancelled.discard(sequence)
                continue
            self._now = time
            if link is not None:
                with self._recorder.resume_scope(link):
                    callback(self)
            else:
                callback(self)
            processed += 1
            self._events_processed += 1
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        if processed and self._recorder.enabled:
            self._recorder.inc("engine.events_processed", processed)
        return processed
