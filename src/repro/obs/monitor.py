"""The streaming monitor: one detector list over one event stream.

:class:`Monitor` owns the default detector list
(:mod:`~repro.obs.detectors`, declarative rules included) and feeds it one
event at a time, in list order.
It runs in two modes that must — and do — agree exactly:

* **live**: :meth:`attach` subscribes to a :class:`~repro.obs.recorder
  .Recorder`; every recorded event is fed as it happens, and each alert is
  emitted straight back through the recorder as an ``alert`` event, so
  alerts interleave with their causes in the same ``events.jsonl``;
* **offline**: :func:`monitor_events` replays a saved trace through an
  identically configured monitor.  ``alert`` events already present in the
  trace are *not* fed to detectors (they are collected separately), so
  replaying a live-monitored trace reproduces the live alert stream
  verbatim — the determinism contract ``repro monitor`` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional

from .alerts import Alert, Severity
from .detectors import default_detectors
from .recorder import NullRecorder

__all__ = ["Monitor", "MonitorResult", "monitor_events"]


@dataclass
class MonitorResult:
    """Outcome of an offline monitoring pass over one trace."""

    #: Alerts produced by this pass's detectors.
    alerts: List[Alert] = field(default_factory=list)
    #: ``alert`` events already embedded in the trace (live-mode output).
    recorded_alerts: List[Alert] = field(default_factory=list)
    events_seen: int = 0

    @property
    def reproduces_recorded(self) -> bool:
        """Did this pass regenerate exactly the alerts the trace carries?

        Vacuously true for traces that were never monitored live.
        """
        if not self.recorded_alerts:
            return True
        return self.alerts == self.recorded_alerts

    def counts_by_severity(self) -> dict:
        counts: dict = {}
        for alert in self.alerts:
            counts[alert.severity] = counts.get(alert.severity, 0) + 1
        return dict(sorted(
            counts.items(), key=lambda item: Severity.rank(item[0])))


class Monitor:
    """Feeds the default detectors; optionally re-emits alerts live.

    The CLI uses the same configuration live and offline, which is what
    lets an offline pass reproduce a live alert stream.
    """

    def __init__(self) -> None:
        self.detectors = default_detectors()
        self.alerts: List[Alert] = []
        self._recorder: Optional[NullRecorder] = None
        self._last_t = 0.0
        self._finished = False

    # ------------------------------------------------------------------ #
    # Live mode                                                          #
    # ------------------------------------------------------------------ #

    def attach(self, recorder: NullRecorder) -> "Monitor":
        """Subscribe to a live recorder; alerts land back in its trace."""
        self._recorder = recorder
        recorder.subscribe(self.feed)
        return self

    # ------------------------------------------------------------------ #
    # Feeding                                                            #
    # ------------------------------------------------------------------ #

    def feed(self, event: Mapping) -> List[Alert]:
        """Consume one event; returns (and emits) any alerts it raised."""
        if event.get("event") == "alert":
            return []
        t = event.get("t")
        if isinstance(t, (int, float)):
            self._last_t = max(self._last_t, float(t))
        raised: List[Alert] = []
        for detector in self.detectors:
            raised.extend(detector.observe(event))
        self._register(raised)
        return raised

    def finish(self) -> List[Alert]:
        """End of stream: flush every detector's pending state once."""
        if self._finished:
            return []
        self._finished = True
        raised: List[Alert] = []
        for detector in self.detectors:
            raised.extend(detector.finish(self._last_t))
        self._register(raised)
        return raised

    def _register(self, raised: List[Alert]) -> None:
        self.alerts.extend(raised)
        if self._recorder is not None and self._recorder.enabled:
            for alert in raised:
                self._recorder.event("alert", t=alert.t,
                                     **alert.to_fields())


def monitor_events(events: Iterable[Mapping]) -> MonitorResult:
    """Run an offline monitoring pass over a saved trace."""
    monitor = Monitor()
    result = MonitorResult()
    for event in events:
        result.events_seen += 1
        if event.get("event") == "alert":
            result.recorded_alerts.append(Alert.from_event(event))
            continue
        result.alerts.extend(monitor.feed(event))
    result.alerts.extend(monitor.finish())
    return result
