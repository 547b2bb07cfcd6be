"""Chord-style DHT substrate for the Section 4 deployment."""

from .crypto import KeyAuthority, SignatureError
from .deployment import DHTBackedMechanism
from .faults import FaultPlan, RPCOutcome
from .id_space import ID_BITS, ID_SPACE, distance, hash_key, in_interval
from .retry import (DHTError, EmptyNetworkError, NetworkPartitionError,
                    RetryBudget, RetryBudgetExhausted, RoutingError)
from .messages import (EvaluationInfo, IndexRecord, MessageEnvelope,
                       MessageKind, MessageTally)
from .node import DHTNode
from .overlay_service import EvaluationOverlay, RetrievedEvaluations
from .ring import DHTNetwork
from .routing import LookupResult, lookup
from .stabilization import StabilizingDHTNetwork
from .security import (ExaminationReport, ProactiveExaminer,
                       attempt_forged_publication, make_mimic_responder)
from .storage import NodeStorage, StoredRecord

__all__ = [
    "KeyAuthority",
    "SignatureError",
    "DHTBackedMechanism",
    "FaultPlan",
    "RPCOutcome",
    "DHTError",
    "EmptyNetworkError",
    "NetworkPartitionError",
    "RetryBudget",
    "RetryBudgetExhausted",
    "RoutingError",
    "ID_BITS",
    "ID_SPACE",
    "distance",
    "hash_key",
    "in_interval",
    "EvaluationInfo",
    "IndexRecord",
    "MessageEnvelope",
    "MessageKind",
    "MessageTally",
    "DHTNode",
    "EvaluationOverlay",
    "RetrievedEvaluations",
    "DHTNetwork",
    "StabilizingDHTNetwork",
    "LookupResult",
    "lookup",
    "ExaminationReport",
    "ProactiveExaminer",
    "attempt_forged_publication",
    "make_mimic_responder",
    "NodeStorage",
    "StoredRecord",
]
