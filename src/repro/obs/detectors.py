"""Streaming anomaly detectors over the observability event stream.

Each detector is a small state machine fed one event at a time (live via a
recorder subscription, or offline from a saved ``events.jsonl``) and emits
:class:`~repro.obs.alerts.Alert` objects.  All state derives exclusively
from event fields keyed by *simulation* time, so an offline replay of a
trace reproduces the live alert stream byte for byte.

The catalogue maps the attacks and failure modes the paper (and the
random-walk / Absolute-Trust line of work) says are visible in the trust
graph and interaction stream:

* :class:`ConvergenceStallDetector` — ``RM = TM^n`` power iterations whose
  L∞ residual stops shrinking (Eq. 8 not converging);
* :class:`FakeOutbreakDetector` — windowed fake-download fraction spiking
  over its trailing baseline (Eq. 9 filtering losing ground);
* :class:`CollusionRingDetector` — mutual-trust cliques in the one-step
  matrix whose internal trust mass dwarfs their trust of outsiders;
* :class:`WhitewashDetector` — identity shedding, rejoin abuse, and
  whitewashed identities whose reputation resets *above* the newcomer
  prior (the attack paid off);
* :class:`StarvationDetector` — honest peers pinned in the lowest service
  class across consecutive refreshes (incentive mechanism misfiring).

Two declarative rules are detectors too, configured by fields rather than
code; their alerts are named ``rule:<name>``:

* :class:`ThresholdRule` — fire when a single event's field crosses a bound
  (e.g. a lookup taking more hops than the overlay should ever need);
* :class:`WindowedCountRule` — fire when matching events bunch up inside a
  sliding simulation-time window (e.g. a burst of failed lookups).  It
  re-arms only after a full window without firing, so a sustained
  condition produces one alert per window, not one per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional, Set,
                    Tuple)

from .alerts import Alert, Severity
from .stats import ordered_sum

__all__ = ["Detector", "ConvergenceStallDetector", "FakeOutbreakDetector",
           "CollusionRingDetector", "WhitewashDetector",
           "StarvationDetector", "ThresholdRule", "WindowedCountRule",
           "default_detectors"]


class Detector:
    """Base class: feed events with :meth:`observe`, flush with :meth:`finish`."""

    #: Name stamped on every alert this detector raises.
    name = "detector"

    def observe(self, event: Mapping) -> List[Alert]:
        """Consume one event; return any alerts it triggers."""
        return []

    def finish(self, t: float) -> List[Alert]:
        """End of stream at simulation time ``t``; flush pending state."""
        return []


class ConvergenceStallDetector(Detector):
    """Eq. 8 power iterations whose residual is not shrinking.

    ``multitrust_iteration`` events arrive as runs of ``iteration=2..n``
    per computation; a new run starts whenever the iteration number does
    not increase.  A computation stalls when its final L∞ residual is
    still above :attr:`RESIDUAL_FLOOR` *and* the last step left at least
    :attr:`MIN_SHRINK` of the previous residual (it shrank by 5% or less).
    """

    name = "convergence_stall"
    RESIDUAL_FLOOR = 0.01
    MIN_SHRINK = 0.95

    def __init__(self) -> None:
        self._residuals: List[float] = []
        self._last_iteration = 0
        self._last_t = 0.0

    def observe(self, event: Mapping) -> List[Alert]:
        if event.get("event") != "multitrust_iteration":
            return []
        iteration = int(event.get("iteration", 0))
        residual = event.get("residual")
        if not isinstance(residual, (int, float)):
            return []
        alerts: List[Alert] = []
        if iteration <= self._last_iteration:
            alerts.extend(self._close(self._last_t))
        self._residuals.append(float(residual))
        self._last_iteration = iteration
        self._last_t = float(event.get("t", 0.0))
        return alerts

    def finish(self, t: float) -> List[Alert]:
        return self._close(t)

    def _close(self, t: float) -> List[Alert]:
        residuals, self._residuals = self._residuals, []
        self._last_iteration = 0
        if len(residuals) < 2:
            return []
        final, previous = residuals[-1], residuals[-2]
        if final <= self.RESIDUAL_FLOOR:
            return []
        if previous > 0 and final < self.MIN_SHRINK * previous:
            return []
        return [Alert(
            t=t, detector=self.name, severity=Severity.WARNING,
            message=(f"multitrust residual stalled at {final:.6g} after "
                     f"{len(residuals) + 1} steps (previous "
                     f"{previous:.6g}, floor {self.RESIDUAL_FLOOR:g})"))]


class FakeOutbreakDetector(Detector):
    """Windowed fake-download fraction spiking over its trailing baseline.

    Downloads are bucketed into fixed :attr:`WINDOW_SECONDS` windows of
    simulation time; one with fewer than :attr:`MIN_DOWNLOADS` downloads
    is skipped.  A closed window is critical when its fake fraction
    reaches :attr:`CRITICAL_FRACTION`, and a warning when it reaches both
    :attr:`ABSOLUTE_FLOOR` and the mean of previously closed windows plus
    :attr:`SPIKE_DELTA`.
    """

    name = "fake_outbreak"
    WINDOW_SECONDS = 6 * 3600.0
    MIN_DOWNLOADS = 5
    SPIKE_DELTA = 0.2
    ABSOLUTE_FLOOR = 0.3
    CRITICAL_FRACTION = 0.6

    def __init__(self) -> None:
        self._window_start = 0.0
        self._downloads = 0
        self._fakes = 0
        self._history: List[float] = []

    def observe(self, event: Mapping) -> List[Alert]:
        if event.get("event") != "download":
            return []
        t = float(event.get("t", 0.0))
        alerts: List[Alert] = []
        while t >= self._window_start + self.WINDOW_SECONDS:
            alerts.extend(self._close_window())
            self._window_start += self.WINDOW_SECONDS
        self._downloads += 1
        if event.get("fake"):
            self._fakes += 1
        return alerts

    def finish(self, t: float) -> List[Alert]:
        return self._close_window()

    def _close_window(self) -> List[Alert]:
        downloads, fakes = self._downloads, self._fakes
        self._downloads = self._fakes = 0
        if downloads < self.MIN_DOWNLOADS:
            return []
        fraction = fakes / downloads
        baseline = (ordered_sum(self._history) / len(self._history)
                    if self._history else None)
        self._history.append(fraction)
        window_end = self._window_start + self.WINDOW_SECONDS
        if fraction >= self.CRITICAL_FRACTION:
            severity = Severity.CRITICAL
        elif (baseline is not None and fraction >= self.ABSOLUTE_FLOOR
                and fraction >= baseline + self.SPIKE_DELTA):
            severity = Severity.WARNING
        else:
            return []
        reference = (f"baseline {baseline:.3f}" if baseline is not None
                     else "no baseline yet")
        return [Alert(
            t=window_end, detector=self.name, severity=severity,
            message=(f"fake fraction {fraction:.3f} over {downloads} "
                     f"downloads in window ending at {window_end:g}s "
                     f"({reference})"))]


class CollusionRingDetector(Detector):
    """Dense mutual-trust cliques that outsiders do not validate.

    Consumes the ``trust_edge`` events the simulator emits at each
    mechanism refresh (the strongest out-edges of ``TM``); edges below
    :attr:`MIN_EDGE` are ignored.  Edges sharing a timestamp form one
    snapshot; when the snapshot closes, peers connected by *mutual* edges
    are grouped into components, and a component of at least
    :attr:`MIN_SIZE` peers is flagged as a collusion ring when all three
    signatures hold:

    * **dense**: at least :attr:`MIN_DENSITY` of its member pairs are mutual.
      Honest peers also trust each other, but with only the strongest
      ``k`` edges sampled per peer a large organic cluster cannot be a
      near-clique, while a small colluding cell pairwise-rating itself is;
    * **inward-facing**: internal mass exceeds what members extend to
      outsiders (they trust each other more than everyone else combined);
    * **externally unvalidated**: internal mass exceeds
      :attr:`EXTERNAL_RATIO` times the trust *outsiders place in members*.
      This is the decisive signal — honest cliques are trusted by the rest
      of the population, colluders are trusted only by each other.

    Each distinct member set alerts once.
    """

    name = "collusion_ring"
    MIN_SIZE = 3
    MIN_DENSITY = 0.8
    EXTERNAL_RATIO = 2.0
    MIN_EDGE = 1e-6

    def __init__(self) -> None:
        self._edges: Dict[Tuple[str, str], float] = {}
        self._snapshot_t: Optional[float] = None
        self._reported: Set[FrozenSet[str]] = set()

    def observe(self, event: Mapping) -> List[Alert]:
        if event.get("event") != "trust_edge":
            return []
        t = float(event.get("t", 0.0))
        alerts: List[Alert] = []
        if self._snapshot_t is not None and t != self._snapshot_t:
            alerts.extend(self._close_snapshot(self._snapshot_t))
        self._snapshot_t = t
        src, dst = str(event.get("src")), str(event.get("dst"))
        value = event.get("value")
        if isinstance(value, (int, float)) and value >= self.MIN_EDGE:
            self._edges[(src, dst)] = float(value)
        return alerts

    def finish(self, t: float) -> List[Alert]:
        if self._snapshot_t is None:
            return []
        return self._close_snapshot(self._snapshot_t)

    def _close_snapshot(self, t: float) -> List[Alert]:
        edges, self._edges = self._edges, {}
        self._snapshot_t = None
        mutual: Dict[str, Set[str]] = {}
        mutual_pairs: Set[Tuple[str, str]] = set()
        for (src, dst), _value in edges.items():
            if src < dst and (dst, src) in edges:
                mutual.setdefault(src, set()).add(dst)
                mutual.setdefault(dst, set()).add(src)
                mutual_pairs.add((src, dst))
        alerts: List[Alert] = []
        for component in _components(mutual):
            if len(component) < self.MIN_SIZE:
                continue
            members = frozenset(component)
            if members in self._reported:
                continue
            size = len(members)
            pairs = sum(1 for pair in mutual_pairs
                        if pair[0] in members and pair[1] in members)
            density = pairs / (size * (size - 1) / 2)
            if density < self.MIN_DENSITY:
                continue
            in_mass = out_mass = inbound_mass = 0.0
            for (src, dst), value in edges.items():
                if src in members and dst in members:
                    in_mass += value
                elif src in members:
                    out_mass += value
                elif dst in members:
                    inbound_mass += value
            if in_mass <= out_mass:
                continue
            if in_mass <= self.EXTERNAL_RATIO * inbound_mass:
                continue
            self._reported.add(members)
            listed = ", ".join(sorted(members))
            alerts.append(Alert(
                t=t, detector=self.name, severity=Severity.CRITICAL,
                message=(f"collusion ring of {size} peers [{listed}]: "
                         f"density {density:.2f}, internal mass "
                         f"{in_mass:.4f} vs outbound {out_mass:.4f}, "
                         f"external validation {inbound_mass:.4f}")))
        return alerts


def _components(adjacency: Mapping[str, Set[str]]) -> List[List[str]]:
    """Connected components of an undirected graph, deterministically."""
    seen: Set[str] = set()
    components: List[List[str]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        stack, component = [start], []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in sorted(adjacency.get(node, ())):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(sorted(component))
    return components


class WhitewashDetector(Detector):
    """Identity shedding and crash/rejoin abuse.

    Three signals:

    * every ``whitewash`` event (a peer retired one identity for a fresh
      one) raises an info alert — the act itself is worth flagging;
    * a whitewashed identity whose later ``reputation_snapshot`` shows a
      normalised reputation at or above the :attr:`NEWCOMER_PRIOR` means the
      reset *gained* reputation — warning;
    * chaos-harness peers cycling through ``churn_rejoin`` (or DHT
      ``dht_node_join`` with ``rejoined=true``) at least
      :attr:`REJOIN_THRESHOLD` times — warning for rejoin abuse.
    """

    name = "whitewash"
    NEWCOMER_PRIOR = 0.5
    REJOIN_THRESHOLD = 3

    def __init__(self) -> None:
        self._fresh_identities: Set[str] = set()
        self._flagged: Set[str] = set()
        self._rejoins: Dict[str, int] = {}
        self._rejoin_flagged: Set[str] = set()

    def observe(self, event: Mapping) -> List[Alert]:
        kind = event.get("event")
        t = float(event.get("t", 0.0))
        if kind == "whitewash":
            retired = str(event.get("retired"))
            fresh = str(event.get("fresh"))
            self._fresh_identities.add(fresh)
            return [Alert(
                t=t, detector=self.name, severity=Severity.INFO,
                message=(f"identity shed: {retired} rejoined as {fresh}"))]
        if kind == "reputation_snapshot":
            peer = str(event.get("peer"))
            norm = event.get("norm")
            if (peer in self._fresh_identities
                    and peer not in self._flagged
                    and isinstance(norm, (int, float))
                    and norm >= self.NEWCOMER_PRIOR):
                self._flagged.add(peer)
                return [Alert(
                    t=t, detector=self.name, severity=Severity.WARNING,
                    message=(f"whitewashed identity {peer} reset above the "
                             f"newcomer prior (norm {norm:.3f} >= "
                             f"{self.NEWCOMER_PRIOR:g})"))]
            return []
        if kind == "churn_rejoin" or (kind == "dht_node_join"
                                      and event.get("rejoined")):
            # churn events key the identity as "peer", DHT joins as "user".
            peer = str(event.get("peer", event.get("user")))
            count = self._rejoins.get(peer, 0) + 1
            self._rejoins[peer] = count
            if (count >= self.REJOIN_THRESHOLD
                    and peer not in self._rejoin_flagged):
                self._rejoin_flagged.add(peer)
                return [Alert(
                    t=t, detector=self.name, severity=Severity.WARNING,
                    message=(f"rejoin abuse: {peer} crashed and rejoined "
                             f"{count} times"))]
        return []


class StarvationDetector(Detector):
    """Honest peers pinned in the lowest service class.

    Consumes ``reputation_snapshot`` events.  A peer whose behaviour class
    is ``honest`` and whose ``service_class`` stays 0 for
    :attr:`CONSECUTIVE_REFRESHES` snapshots — while differentiation is
    clearly active (some peer reached class >= 2 in the same snapshot) — is
    starving despite honest behaviour.  One alert per peer.
    """

    name = "incentive_starvation"
    CONSECUTIVE_REFRESHES = 3

    def __init__(self) -> None:
        self._streaks: Dict[str, int] = {}
        self._snapshot_t: Optional[float] = None
        self._pending: List[Tuple[str, float]] = []
        self._snapshot_max_class = 0
        self._flagged: Set[str] = set()

    def observe(self, event: Mapping) -> List[Alert]:
        if event.get("event") != "reputation_snapshot":
            return []
        t = float(event.get("t", 0.0))
        alerts: List[Alert] = []
        if self._snapshot_t is not None and t != self._snapshot_t:
            alerts.extend(self._close_snapshot())
        self._snapshot_t = t
        service_class = int(event.get("service_class", 0))
        self._snapshot_max_class = max(self._snapshot_max_class,
                                       service_class)
        if str(event.get("cls")) == "honest" and event.get("online", True):
            peer = str(event.get("peer"))
            if service_class == 0:
                self._pending.append((peer, t))
            else:
                self._streaks.pop(peer, None)
        return alerts

    def finish(self, t: float) -> List[Alert]:
        return self._close_snapshot()

    def _close_snapshot(self) -> List[Alert]:
        pending, self._pending = self._pending, []
        max_class, self._snapshot_max_class = self._snapshot_max_class, 0
        self._snapshot_t = None
        if max_class < 2:
            # No meaningful differentiation this refresh; don't count it
            # against anyone, but don't reset streaks either.
            return []
        alerts: List[Alert] = []
        for peer, t in pending:
            streak = self._streaks.get(peer, 0) + 1
            self._streaks[peer] = streak
            if streak == self.CONSECUTIVE_REFRESHES \
                    and peer not in self._flagged:
                self._flagged.add(peer)
                alerts.append(Alert(
                    t=t, detector=self.name, severity=Severity.WARNING,
                    message=(f"honest peer {peer} stuck in the lowest "
                             f"service class for {streak} consecutive "
                             f"refreshes")))
        return alerts


Predicate = Callable[[Mapping], bool]


def _field_matches(event: Mapping, kind: str,
                   where: Optional[Predicate]) -> bool:
    if event.get("event") != kind:
        return False
    return where is None or bool(where(event))


@dataclass(frozen=True)
class ThresholdRule(Detector):
    """Fire when one event's numeric field crosses a bound.

    ``op`` is ``">"``, ``">="``, ``"<"`` or ``"<="``; events without the
    field (or with a non-numeric value) never match.
    """

    #: ``field()``: without it, ``Detector.name`` would become the default.
    name: str = field()
    event_kind: str
    field_name: str
    op: str
    bound: float
    severity: str = Severity.WARNING
    #: Optional extra filter on the event.
    where: Optional[Predicate] = None

    _OPS = {">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
            "<": lambda a, b: a < b, "<=": lambda a, b: a <= b}

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown op {self.op!r}")

    def observe(self, event: Mapping) -> List[Alert]:
        if not _field_matches(event, self.event_kind, self.where):
            return []
        value = event.get(self.field_name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return []
        if not self._OPS[self.op](float(value), self.bound):
            return []
        return [Alert(
            t=float(event.get("t", 0.0)),
            detector=f"rule:{self.name}",
            severity=self.severity,
            message=(f"{self.event_kind}.{self.field_name}={value:g} "
                     f"{self.op} {self.bound:g}"))]


@dataclass
class WindowedCountRule(Detector):
    """Fire when >= ``min_count`` matching events land inside a window.

    The window is simulation time; state is purely derived from the event
    stream, so offline replay reproduces live firings exactly.  After
    firing, the rule stays silent until the window has fully slid past the
    firing point (one alert per sustained burst, not per event).
    """

    #: ``field()``: without it, ``Detector.name`` would become the default.
    name: str = field()
    event_kind: str
    window_seconds: float
    min_count: int
    severity: str = Severity.WARNING
    where: Optional[Predicate] = None
    _times: List[float] = field(default_factory=list)
    _muted_until: float = field(default=float("-inf"))

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")

    def observe(self, event: Mapping) -> List[Alert]:
        if not _field_matches(event, self.event_kind, self.where):
            return []
        t = float(event.get("t", 0.0))
        self._times.append(t)
        horizon = t - self.window_seconds
        self._times = [ts for ts in self._times if ts > horizon]
        if t < self._muted_until or len(self._times) < self.min_count:
            return []
        self._muted_until = t + self.window_seconds
        return [Alert(
            t=t, detector=f"rule:{self.name}", severity=self.severity,
            message=(f"{len(self._times)} {self.event_kind} events within "
                     f"{self.window_seconds:g}s (threshold "
                     f"{self.min_count})"))]


def default_detectors() -> List[Detector]:
    """The standard detector set every :class:`~repro.obs.monitor.Monitor`
    runs, live and offline; the rules come last."""
    return [
        ConvergenceStallDetector(),
        FakeOutbreakDetector(),
        CollusionRingDetector(),
        WhitewashDetector(),
        StarvationDetector(),
        WindowedCountRule(
            name="lookup_failure_burst", event_kind="dht_lookup",
            window_seconds=500.0, min_count=5,
            severity=Severity.WARNING,
            where=lambda event: not event.get("ok", True)),
        WindowedCountRule(
            name="quorum_miss_burst", event_kind="dht_retrieve",
            window_seconds=500.0, min_count=5,
            severity=Severity.WARNING,
            where=lambda event: not event.get("complete", True)),
        ThresholdRule(
            name="lookup_hop_blowup", event_kind="dht_lookup",
            field_name="hops", op=">", bound=24.0,
            severity=Severity.WARNING),
    ]
