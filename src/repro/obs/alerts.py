"""Alerts: the atom the monitoring layer produces.

An :class:`Alert` carries a severity, the detector that raised it, a
deterministic message, and the *simulation* time it refers to.  The
detectors (:mod:`~repro.obs.detectors`, declarative rules included) raise
them; alerts are re-emitted through the recorder as ``alert`` events, so
they land in the same ``events.jsonl`` as the signals that triggered them —
one trace tells the whole story, and two runs at the same seed produce
byte-identical alert streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = ["Severity", "Alert", "SEVERITIES"]

#: Severity levels, mildest first.  Kept as plain strings in events so the
#: trace stays dependency-free to parse.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "critical")


class Severity:
    """Namespace for the three severity levels."""

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"

    @staticmethod
    def rank(severity: str) -> int:
        """Position in the escalation order (unknown severities sort last)."""
        try:
            return SEVERITIES.index(severity)
        except ValueError:
            return len(SEVERITIES)


@dataclass(frozen=True)
class Alert:
    """One monitoring finding, keyed by simulation time."""

    t: float
    detector: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}; "
                             f"expected one of {SEVERITIES}")

    def to_fields(self) -> Dict[str, object]:
        """Flat event fields (everything except ``t``, which is reserved)."""
        return {"detector": self.detector, "severity": self.severity,
                "message": self.message}

    @classmethod
    def from_event(cls, event: Mapping) -> "Alert":
        """Rebuild an alert from an ``alert`` trace event."""
        return cls(t=float(event.get("t", 0.0)),
                   detector=str(event.get("detector", "unknown")),
                   severity=str(event.get("severity", "info")),
                   message=str(event.get("message", "")))
