"""The Section 4.1 framework: evaluations stored and served over the DHT.

Implements the six steps of Figure 2:

1. **Publication** — a file's evaluation is piggybacked on its index
   publication: ``EvaluationInfo = <FileID, OwnerID, Evaluation,
   Signature>`` stored at the file's index peer(s).
2. **Update** — regular republication refreshes the soft state.
3. **Retrieval** — a prospective downloader looks up the file's index peer
   and receives the owner list *plus* the array of signed evaluations
   (invalid signatures are dropped).
4. **User reputation** — the user fetches a target's evaluation list
   directly from the target and computes TM, then RM with multi-trust.
5. **File reputation** — Eq. 9 over the retrieved evaluation array,
   weighted by the requester's RM row.
6. **Service differentiation** — requester reputation maps to a bandwidth
   quota and queue position via the core incentive machinery.

All message costs flow into a :class:`~repro.dht.messages.MessageTally`, so
benchmark F2 can check the paper's cost claim: piggybacking evaluations adds
*no* extra lookups, only bytes.

**Resilience.**  When constructed with an active
:class:`~repro.dht.faults.FaultPlan`, every publication write and retrieval
read becomes a fault-subjected RPC with retries (:mod:`repro.dht.retry`).
Retrieval degrades gracefully: it reads from the key's whole replica set,
merges the freshest record per owner, and returns a *partial*
:class:`RetrievedEvaluations` whose ``complete`` flag says whether a
majority of the replicas answered (the read quorum) — callers keep
working with whatever survived.  :meth:`EvaluationOverlay.repair_replicas`
re-replicates under-replicated records after node failures.  With the
default ``faults=None`` all of this is dormant and the overlay behaves
exactly like the fault-free seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.config import DEFAULT_CONFIG, ReputationConfig
from ..core.evaluation import EvaluationStore
from ..core.file_reputation import file_reputation
from ..core.file_trust import build_file_trust_matrix
from ..core.incentive import (ServiceDifferentiator, ServiceLevel,
                              reference_reputation)
from ..core.matrix import TrustMatrix
from ..core.multitrust import compute_reputation_matrix
from ..obs.recorder import NULL_RECORDER, NullRecorder
from ..obs.spans import NULL_SPAN, NullSpan
from .crypto import KeyAuthority
from .faults import FaultPlan, RPCOutcome
from .id_space import hash_key
from .messages import (EvaluationInfo, IndexRecord, MessageEnvelope,
                       MessageKind, MessageTally)
from .node import DHTNode
from .retry import MAX_ATTEMPTS
from .ring import DHTNetwork
from .routing import LookupResult, lookup
from .storage import DEFAULT_TTL_SECONDS, StoredRecord

__all__ = ["EvaluationOverlay", "RetrievedEvaluations"]

#: Strategy answering "what is your evaluation list?"; lets attack models
#: (mimics) answer differently per querier.  Maps querier_id -> {file: eval}.
ListResponder = Callable[[str], Dict[str, float]]


@dataclass
class RetrievedEvaluations:
    """Step 3 result: owners plus verified evaluations for one file.

    Under fault injection the result may be *partial*: ``complete`` says
    whether at least ``quorum`` of the key's replicas answered.  The
    fault-free path always reports a complete single-replica read, so the
    defaults keep seed behaviour bit-for-bit.
    """

    file_id: str
    owners: List[str]
    evaluations: Dict[str, float]
    #: Records whose signature failed verification (dropped).
    rejected: int
    lookup_hops: int
    #: Whether the read met its replica quorum (always True without faults).
    complete: bool = True
    #: Replicas that actually answered the read.
    replicas_contacted: int = 1
    #: Replicas that had to answer for the read to count as complete.
    quorum: int = 1


class EvaluationOverlay:
    """Evaluation publication/retrieval service over a :class:`DHTNetwork`."""

    def __init__(self, network: DHTNetwork, authority: KeyAuthority,
                 config: ReputationConfig = DEFAULT_CONFIG,
                 replication: int = 2,
                 record_ttl: float = DEFAULT_TTL_SECONDS,
                 faults: Optional[FaultPlan] = None,
                 recorder: NullRecorder = NULL_RECORDER):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.network = network
        self.authority = authority
        self.config = config
        self.replication = replication
        self.record_ttl = record_ttl
        self.faults = faults
        #: Replicas that must answer a fault-injected read: a majority.
        self.read_quorum = replication // 2 + 1
        self.tally = MessageTally()
        #: Observability sink; NULL_RECORDER keeps the overlay unmetered.
        self.recorder = recorder
        #: Availability accounting: retrievals attempted / met quorum.
        self.retrievals_total = 0
        self.retrievals_complete = 0
        # Each user's true local evaluation list (their own store).
        self._local_lists: Dict[str, Dict[str, float]] = {}
        # Pluggable responders for attack modelling; default: honest.
        self._responders: Dict[str, ListResponder] = {}
        # Everything a user has published, for republication: file id ->
        # record, in order of each file's latest publication.
        self._published: Dict[str, Dict[str, IndexRecord]] = {}
        # Every identity that ever joined, so rejoins are distinguishable
        # from first joins (the whitewashing detector keys on this flag).
        self._ever_registered: set = set()
        # Each file's DHT key, hashed once.
        self._file_keys: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Membership passthrough                                             #
    # ------------------------------------------------------------------ #

    def register_user(self, user_id: str) -> DHTNode:
        """Join the DHT and provision a signing key."""
        rejoined = user_id in self._ever_registered
        self._ever_registered.add(user_id)
        self.authority.register(user_id)
        node = self.network.join(user_id)
        if self.recorder.enabled:
            self.recorder.event("dht_node_join", user=user_id,
                                rejoined=rejoined)
            self.recorder.inc("dht.node_joins")
        return node

    # ------------------------------------------------------------------ #
    # Step 1 & 2: publication / update                                   #
    # ------------------------------------------------------------------ #

    def publish(self, user_id: str, file_id: str, evaluation: float,
                now: float, filename: str = "",
                size_bytes: float = 0.0) -> int:
        """Publish the index record with piggybacked signed evaluation.

        Returns the number of lookup hops used (one lookup regardless of the
        evaluation — the paper's "no more lookup messages" property).
        """
        info = EvaluationInfo(file_id=file_id, owner_id=user_id,
                              evaluation=evaluation)
        info = info.with_signature(self.authority.sign(user_id, info.payload()))
        record = IndexRecord(file_id=file_id, owner_id=user_id,
                             filename=filename, size_bytes=size_bytes,
                             evaluation=info)
        hops = self._store(record, user_id, now, MessageKind.PUBLISH)
        self._local_lists.setdefault(user_id, {})[file_id] = evaluation
        self._remember(user_id, record)
        return hops

    def publish_index_only(self, user_id: str, file_id: str, now: float,
                           filename: str = "",
                           size_bytes: float = 0.0) -> int:
        """Publish holdership without an evaluation (user hasn't judged)."""
        record = IndexRecord(file_id=file_id, owner_id=user_id,
                             filename=filename, size_bytes=size_bytes)
        hops = self._store(record, user_id, now, MessageKind.PUBLISH)
        self._remember(user_id, record)
        return hops

    def _remember(self, user_id: str, record: IndexRecord) -> None:
        """Keep ``record`` for republication, replacing the file's last one.

        Popping before the insert moves the file to the end, so
        republication visits files in order of their latest publication.
        """
        published = self._published.setdefault(user_id, {})
        published.pop(record.file_id, None)
        published[record.file_id] = record

    def republish_all(self, user_id: str, now: float) -> int:
        """Step 2: refresh all of the user's records (returns record count)."""
        records = self._published.get(user_id, {})
        for record in records.values():
            self._store(record, user_id, now, MessageKind.REPUBLISH)
        return len(records)

    @property
    def _injecting(self) -> bool:
        return self.faults is not None and self.faults.active

    def _file_key(self, file_id: str) -> int:
        key = self._file_keys.get(file_id)
        if key is None:
            key = self._file_keys[file_id] = hash_key(f"file:{file_id}")
        return key

    def _lookup_from(self, user_id: str, key: int) -> LookupResult:
        start = (self.network.node(user_id)
                 if self.network.has_node(user_id) else None)
        if not self._injecting:
            return lookup(self.network, key, start=start,
                          recorder=self.recorder)
        return lookup(self.network, key, start=start, faults=self.faults,
                      tally=self.tally, recorder=self.recorder)

    def _rpc(self, src_user: str, dst: DHTNode,
             span: NullSpan = NULL_SPAN) -> bool:
        """One fault-subjected overlay RPC with per-target retries.

        The simulated wire latency of every attempt is attributed to
        ``span`` (a no-op for the default null span).
        """
        if not dst.alive:
            self.tally.record(MessageKind.TIMEOUT, 0)
            span.count("timeouts")
            return False
        for attempt in range(MAX_ATTEMPTS):
            outcome, wire_latency = self.faults.transmit(src_user,
                                                         dst.user_id)
            span.add_cost(wire_latency)
            if outcome is RPCOutcome.DELIVERED:
                return True
            if outcome is RPCOutcome.PARTITIONED:
                self.tally.record(MessageKind.DROP, 0)
                return False
            if outcome is RPCOutcome.CRASHED:
                if dst.alive:
                    self.network.fail(dst.user_id)
                self.tally.record(MessageKind.TIMEOUT, 0)
                span.count("timeouts")
                return False
            self.tally.record(MessageKind.DROP, 0)
            if attempt + 1 < MAX_ATTEMPTS:
                self.tally.record(MessageKind.RETRY, 0)
                span.count("retries")
        return False

    def _store(self, record: IndexRecord, user_id: str, now: float,
               kind: MessageKind) -> int:
        with self.recorder.request_span("dht.publish",
                                        message=kind.value) as span:
            return self._store_impl(record, user_id, now, kind, span)

    def _store_impl(self, record: IndexRecord, user_id: str, now: float,
                    kind: MessageKind, span: NullSpan) -> int:
        key = self._file_key(record.file_id)
        result = self._lookup_from(user_id, key)
        self.tally.record(MessageKind.LOOKUP, 0)
        self.tally.record(MessageKind.LOOKUP_HOP, 0, messages=result.hops + 1)
        if self.recorder.enabled:
            self.recorder.event("dht_publish", t=now, user=user_id,
                                file=record.file_id, hops=result.hops,
                                message=kind.value,
                                ok=result.error is None)
            self.recorder.inc("dht.publishes", kind=kind.value)
        if result.error is not None:
            # Routing never reached the index peers; the record stays in
            # ``_published`` and the next republication/repair retries it.
            return result.hops
        injecting = self._injecting
        # The sender's causal context rides on the envelope, so the tally
        # charges the (opt-in) span overhead to the right kind.  Every
        # replica write carries the same record in the same span.
        envelope = MessageEnvelope(kind=kind,
                                   payload_bytes=record.wire_size(),
                                   span_id=span.span_id,
                                   trace_id=span.trace_id)
        for replica in self.network.replica_nodes(key, self.replication):
            if injecting and replica is not result.owner \
                    and not self._rpc(user_id, replica, span):
                continue  # write lost; repair/republication will catch up
            replica.storage.put(key, record.owner_id, record, now,
                                self.record_ttl)
            self.tally.record_envelope(envelope)
            span.count("writes")
        return result.hops

    # ------------------------------------------------------------------ #
    # Step 3: retrieval                                                  #
    # ------------------------------------------------------------------ #

    def retrieve(self, requester_id: str, file_id: str,
                 now: float) -> RetrievedEvaluations:
        """Fetch the owner list + verified evaluation array for a file.

        Fault-free: a single read from the key's owner, as in the seed.
        Under an active fault plan the read fans out over the whole replica
        set, merges the freshest record per owner, and reports a partial
        result (``complete=False``) when fewer than ``read_quorum``
        replicas answered — graceful degradation instead of an exception.
        """
        with self.recorder.request_span("dht.retrieve") as span:
            retrieved = self._retrieve_impl(requester_id, file_id, now, span)
            span.count("replicas", retrieved.replicas_contacted)
            span.annotate(complete=retrieved.complete)
        return retrieved

    def _retrieve_impl(self, requester_id: str, file_id: str, now: float,
                       span: NullSpan) -> RetrievedEvaluations:
        key = self._file_key(file_id)
        result = self._lookup_from(requester_id, key)
        self.tally.record(MessageKind.LOOKUP, 0)
        self.tally.record(MessageKind.RETRIEVE, 0)
        self.retrievals_total += 1

        if result.error is not None:
            return self._record_retrieve(RetrievedEvaluations(
                file_id=file_id, owners=[], evaluations={}, rejected=0,
                lookup_hops=result.hops, complete=False,
                replicas_contacted=0, quorum=self.read_quorum),
                requester_id, now)

        if not self._injecting:
            stored_records = list(result.owner.storage.get(key, now))
            contacted, quorum, complete = 1, 1, True
        else:
            stored_records, contacted = self._quorum_read(
                requester_id, key, result, now, span)
            quorum = self.read_quorum
            complete = contacted >= quorum

        if complete:
            self.retrievals_complete += 1
        owners: List[str] = []
        evaluations: Dict[str, float] = {}
        rejected = 0
        for stored in stored_records:
            record = stored.value
            owners.append(record.owner_id)
            info = record.evaluation
            if info is None:
                continue
            if not self.authority.verify(info.owner_id, info.payload(),
                                         info.signature):
                rejected += 1
                continue
            evaluations[info.owner_id] = info.evaluation
        return self._record_retrieve(
            RetrievedEvaluations(file_id=file_id, owners=sorted(set(owners)),
                                 evaluations=evaluations,
                                 rejected=rejected,
                                 lookup_hops=result.hops,
                                 complete=complete,
                                 replicas_contacted=contacted,
                                 quorum=quorum),
            requester_id, now)

    def _record_retrieve(self, retrieved: RetrievedEvaluations,
                         requester_id: str,
                         now: float) -> RetrievedEvaluations:
        if self.recorder.enabled:
            self.recorder.event(
                "dht_retrieve", t=now, requester=requester_id,
                file=retrieved.file_id, hops=retrieved.lookup_hops,
                complete=retrieved.complete,
                replicas=retrieved.replicas_contacted,
                quorum=retrieved.quorum, rejected=retrieved.rejected)
            self.recorder.inc("dht.retrievals")
            if not retrieved.complete:
                self.recorder.inc("dht.retrievals_incomplete")
        return retrieved

    def _quorum_read(self, requester_id: str, key: int, result: LookupResult,
                     now: float, span: NullSpan = NULL_SPAN
                     ) -> Tuple[List[StoredRecord], int]:
        """Read the replica set under faults; freshest record per owner.

        Replicas are visited in replica order, so on a tie in
        ``stored_at`` an owner's record comes from the first replica that
        holds it.  Within a replica an owner has one record, so the merge
        needs no order there; the result is sorted by owner once.
        """
        freshest: Dict[str, StoredRecord] = {}
        contacted = 0
        for replica in self.network.replica_nodes(key, self.replication):
            if replica is not result.owner \
                    and not self._rpc(requester_id, replica, span):
                continue
            contacted += 1
            for stored in replica.storage.live(key, now):
                best = freshest.get(stored.owner_id)
                if best is None or stored.stored_at > best.stored_at:
                    freshest[stored.owner_id] = stored
        records = [freshest[owner] for owner in sorted(freshest)]
        return records, contacted

    # ------------------------------------------------------------------ #
    # Step 4: user reputation                                            #
    # ------------------------------------------------------------------ #

    def set_responder(self, user_id: str, responder: ListResponder) -> None:
        """Install an attack-model responder for ``user_id``'s list."""
        self._responders[user_id] = responder

    def fetch_evaluation_list(self, requester_id: str,
                              target_id: str) -> Dict[str, float]:
        """Ask ``target_id`` for its evaluation list (step 4 first half)."""
        self.tally.record(MessageKind.EVALUATION_LIST, 0)
        responder = self._responders.get(target_id)
        if responder is not None:
            return dict(responder(requester_id))
        return dict(self._local_lists.get(target_id, {}))

    def local_list(self, user_id: str) -> Dict[str, float]:
        """The user's true local evaluation list (not an RPC)."""
        return dict(self._local_lists.get(user_id, {}))

    def compute_reputation_matrix(self, requester_id: str,
                                  targets: Iterable[str]) -> TrustMatrix:
        """Step 4 second half: fetch lists, build TM (file dimension), RM.

        Over the DHT only the file-based dimension is computable from
        remote evaluation lists; download-volume and user trust are local
        knowledge integrated by the full system (see ``repro.core``).
        """
        store = EvaluationStore(config=self.config)
        own = self._local_lists.get(requester_id, {})
        for file_id, evaluation in own.items():
            store.record_implicit(requester_id, file_id, evaluation)
        for target_id in targets:
            if target_id == requester_id:
                continue
            for file_id, evaluation in self.fetch_evaluation_list(
                    requester_id, target_id).items():
                store.record_implicit(target_id, file_id,
                                      min(max(evaluation, 0.0), 1.0))
        one_step = build_file_trust_matrix(store, self.config)
        return compute_reputation_matrix(one_step, config=self.config)

    # ------------------------------------------------------------------ #
    # Step 5: file reputation                                            #
    # ------------------------------------------------------------------ #

    def file_reputation(self, requester_id: str, file_id: str,
                        now: float) -> Tuple[Optional[float], RetrievedEvaluations]:
        """Eq. 9 over the retrieved evaluation array."""
        retrieved = self.retrieve(requester_id, file_id, now)
        reputation = self.compute_reputation_matrix(
            requester_id, retrieved.evaluations)
        score = file_reputation(reputation, requester_id,
                                retrieved.evaluations)
        return score, retrieved

    # ------------------------------------------------------------------ #
    # Step 6: service differentiation                                    #
    # ------------------------------------------------------------------ #

    def service_level(self, uploader_id: str,
                      requester_id: str) -> ServiceLevel:
        """What service should ``uploader_id`` grant ``requester_id``?"""
        reputation = self.compute_reputation_matrix(
            uploader_id, [requester_id])
        reference = reference_reputation(reputation, uploader_id)
        differentiator = ServiceDifferentiator(
            self.config, reference_reputation=max(reference, 1e-12))
        return differentiator.service_level(
            requester_id, reputation.get(uploader_id, requester_id))

    # ------------------------------------------------------------------ #
    # Churn helpers                                                      #
    # ------------------------------------------------------------------ #

    def expire_all(self, now: float) -> int:
        """Expire stale records on every node (maintenance sweep)."""
        return sum(node.storage.expire_all(now)  # repro: allow[NUM003] int counts
                   for node in self.network.nodes())

    def repair_replicas(self, now: float) -> int:
        """Re-replicate under-replicated records after node failures.

        Every live record is pushed back out to the key's current replica
        set (preserving ``stored_at``, so repair never outlives the
        publisher's TTL).  Returns the number of replica copies created;
        each one is tallied as a :attr:`MessageKind.REPAIR` message.
        """
        with self.recorder.request_span("dht.repair") as span:
            repaired = self.network.repair_replicas(self.replication, now)
            for _ in range(repaired):
                self.tally.record(MessageKind.REPAIR, 0)
            span.count("repaired", repaired)
        if self.recorder.enabled:
            self.recorder.event("dht_repair", t=now, repaired=repaired)
            self.recorder.inc("dht.repairs", repaired)
        return repaired

    @property
    def availability(self) -> float:
        """Fraction of retrievals that met their read quorum."""
        if self.retrievals_total == 0:
            return 1.0
        return self.retrievals_complete / self.retrievals_total
