"""DHT message/record types and message-cost accounting.

Section 4.1 defines the published record: ``EvaluationInfo = <FileID,
OwnerID, Evaluation, Signature>``.  We pair it with the plain index record
(file metadata + owner) it piggybacks on, and a :class:`MessageTally` that
counts lookups/publications/retrievals so benchmark F2 can report the
paper's claim that piggybacking evaluations "will not need more lookup
messages ... though it will increase the size of the information slightly".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, Optional

__all__ = ["EvaluationInfo", "IndexRecord", "MessageKind", "MessageTally",
           "MessageEnvelope"]


@dataclass(frozen=True)
class EvaluationInfo:
    """A signed evaluation as published to the index peer."""

    file_id: str
    owner_id: str
    evaluation: float
    signature: bytes = b""

    def __post_init__(self) -> None:
        if not 0.0 <= self.evaluation <= 1.0:
            raise ValueError(
                f"evaluation must be in [0,1], got {self.evaluation}")

    def payload(self) -> bytes:
        """Canonical byte serialisation covered by the signature."""
        return self._payload

    @cached_property
    def _payload(self) -> bytes:
        # Serialised once per instance: signing, verification and every
        # wire-size count read the same bytes.  ``cached_property`` stores
        # into the instance ``__dict__`` directly, so it works on this
        # frozen dataclass and stays out of ``__eq__``, hash and repr.
        return json.dumps(
            {"file_id": self.file_id, "owner_id": self.owner_id,
             "evaluation": round(self.evaluation, 9)},
            sort_keys=True).encode("utf-8")

    def with_signature(self, signature: bytes) -> "EvaluationInfo":
        signed = EvaluationInfo(file_id=self.file_id, owner_id=self.owner_id,
                                evaluation=self.evaluation,
                                signature=signature)
        # The payload does not cover the signature: hand the bytes over.
        signed.__dict__["_payload"] = self._payload
        return signed

    def size_bytes(self) -> int:
        """Wire size estimate (payload + signature)."""
        return len(self.payload()) + len(self.signature)


@dataclass(frozen=True)
class IndexRecord:
    """A file's index entry: which owner holds it (plus metadata)."""

    file_id: str
    owner_id: str
    filename: str = ""
    size_bytes: float = 0.0
    #: The piggybacked evaluation, if the owner published one.
    evaluation: Optional[EvaluationInfo] = None

    def wire_size(self) -> int:
        base = len(self.file_id) + len(self.owner_id) + len(self.filename) + 16
        if self.evaluation is not None:
            base += self.evaluation.size_bytes()
        return base


class MessageKind(Enum):
    # Members are singletons compared by identity; the identity hash spares
    # :meth:`MessageTally.record` two Python-level ``Enum.__hash__`` calls
    # per message.
    __hash__ = object.__hash__

    LOOKUP = "lookup"
    LOOKUP_HOP = "lookup_hop"
    PUBLISH = "publish"
    RETRIEVE = "retrieve"
    REPUBLISH = "republish"
    EVALUATION_LIST = "evaluation_list"
    #: Fault-injection observability (see :mod:`repro.dht.faults`).
    DROP = "drop"
    TIMEOUT = "timeout"
    RETRY = "retry"
    REPAIR = "repair"


@dataclass(frozen=True)
class MessageEnvelope:
    """Wire framing around one DHT message: kind, payload size, causality.

    ``span_id``/``trace_id`` are the optional causal-span context of the
    sender (see :mod:`repro.obs.spans`): in the simulated overlay they ride
    along so message accounting can attribute bytes to a trace.  When
    absent the envelope adds zero bytes — causality costs nothing unless
    span tracing is on (the paper's "increase the size ... slightly"
    trade, made opt-in).
    """

    kind: MessageKind
    payload_bytes: int = 0
    span_id: Optional[int] = None
    trace_id: Optional[int] = None

    def wire_size(self) -> int:
        """Payload plus 8 bytes per causal id actually carried."""
        overhead = 0
        if self.span_id is not None:
            overhead += 8
        if self.trace_id is not None:
            overhead += 8
        return self.payload_bytes + overhead


@dataclass
class MessageTally:
    """Counts messages and bytes by kind."""

    counts: Dict[MessageKind, int] = field(default_factory=dict)
    bytes_sent: Dict[MessageKind, int] = field(default_factory=dict)

    def record(self, kind: MessageKind, size_bytes: int = 0,
               messages: int = 1) -> None:
        """Account ``messages`` messages of ``kind`` totalling ``size_bytes``."""
        self.counts[kind] = self.counts.get(kind, 0) + messages
        self.bytes_sent[kind] = self.bytes_sent.get(kind, 0) + size_bytes

    def record_envelope(self, envelope: MessageEnvelope) -> None:
        """Account one enveloped message (payload + causal-id overhead)."""
        self.record(envelope.kind, envelope.wire_size())

    def count(self, kind: MessageKind) -> int:
        return self.counts.get(kind, 0)

    @property
    def drops(self) -> int:
        """Messages lost to injected faults (drops + partition refusals)."""
        return self.count(MessageKind.DROP)

    @property
    def timeouts(self) -> int:
        """RPCs that timed out (dead targets, crash-mid-RPC)."""
        return self.count(MessageKind.TIMEOUT)

    @property
    def retries(self) -> int:
        """Retries spent recovering from drops/timeouts."""
        return self.count(MessageKind.RETRY)

    @property
    def repairs(self) -> int:
        """Replica copies re-created by the repair sweep."""
        return self.count(MessageKind.REPAIR)

    def total_messages(self) -> int:
        return sum(self.counts.values())  # repro: allow[NUM003] int counts

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())  # repro: allow[NUM003] int bytes

    def snapshot(self) -> Dict[str, int]:
        return {kind.value: count for kind, count in sorted(
            self.counts.items(), key=lambda kv: kv[0].value)}
