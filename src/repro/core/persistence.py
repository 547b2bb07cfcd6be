"""Persistence: save/restore the full reputation-system state as JSON.

A deployed client restarts; its trust state must survive.  This module
serialises everything behavioural the façade holds — evaluations (all three
channels), the download ledger, user trust (ratings/friends/blacklists) and
incentive credits — into one JSON document, and restores an equivalent
system from it.  Matrices are *not* persisted: they are derived state and
are rebuilt lazily on first query after restore.

The format is versioned.  Version 2 added two durability fields on top of
version 1:

* ``"wal": {"last_seq": N}`` — the journal sequence number the snapshot is
  current through, letting :mod:`repro.core.durability.recovery` replay
  exactly the WAL records the snapshot has not absorbed;
* ``"checksum"`` — SHA-256 over the canonical dump (sorted keys, compact
  separators, checksum key excluded), so a bit-rotted or hand-mangled
  snapshot is rejected before any of it is trusted.  A file
  :func:`save_system` writes is that canonical dump with the checksum
  member put first; files in the older indented layout load the same.

Version 3 added the config knobs and metadata section of an in-process
sharded pipeline; version 4 (current) removes them again, writing the v2
field set under a new version number.  A v3 document's ``shards`` /
``shard_workers`` config fields and ``"sharding"`` section are accepted
and ignored on load (its checksum still covers them): the matrices never
depended on them.

Version-1 to version-3 documents (no ``wal``/``checksum`` before v2) still
load.  Unknown versions, unknown/missing sections and unknown/missing
config fields are all rejected loudly — and the error names the offending
field or section, not just "bad file".
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .config import ReputationConfig
from .incentive import IncentiveAction
from .reputation_system import MultiDimensionalReputationSystem

__all__ = ["system_to_dict", "system_from_dict", "save_system",
           "load_system", "snapshot_checksum", "wal_last_seq",
           "FORMAT_VERSION", "SUPPORTED_VERSIONS"]

FORMAT_VERSION = 4
#: Versions :func:`system_from_dict` accepts (older ones load unchanged).
SUPPORTED_VERSIONS = (1, 2, 3, 4)

_CONFIG_FIELDS = [
    "eta", "rho", "alpha", "beta", "gamma", "multitrust_steps",
    "matmul_backend", "distance_metric",
    "fake_file_threshold", "retention_saturation_seconds",
    "evaluation_retention_interval", "min_overlap",
    "max_queue_offset_seconds", "min_bandwidth_quota", "max_bandwidth_quota",
    "upload_credit", "vote_credit", "rank_credit", "delete_fake_credit",
]

#: Sections every version must carry; their absence names the gap.
_REQUIRED_SECTIONS = ["config", "evaluations", "downloads", "user_trust",
                      "credits"]
#: Everything a document may contain at the top level.
_KNOWN_KEYS = frozenset(_REQUIRED_SECTIONS) | {
    "format_version", "auto_refresh", "wal", "checksum"}

#: What only a v3 document may carry, read and ignored: the in-process
#: sharding knobs and metadata section that v4 dropped.
_V3_CONFIG_FIELDS = frozenset({"shards", "shard_workers"})
_V3_KEYS = frozenset({"sharding"})


def _canonical(data: Dict[str, Any]) -> str:
    """The canonical dump: sorted keys, compact separators, ASCII only."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def snapshot_checksum(data: Dict[str, Any]) -> str:
    """SHA-256 of the canonical dump of ``data`` minus its checksum key."""
    stripped = {key: value for key, value in data.items() if key != "checksum"}
    return hashlib.sha256(_canonical(stripped).encode("ascii")).hexdigest()


def wal_last_seq(data: Dict[str, Any]) -> int:
    """Journal sequence the snapshot covers (0 for v1 / unjournalled)."""
    wal = data.get("wal")
    if wal is None:
        return 0
    if not isinstance(wal, dict) or not isinstance(wal.get("last_seq"), int):
        raise ValueError("snapshot section 'wal' must be an object with an "
                         "integer 'last_seq'")
    return wal["last_seq"]


def system_to_dict(system: MultiDimensionalReputationSystem,
                   last_seq: Optional[int] = None) -> dict:
    """Serialise the system's behavioural state to a JSON-safe dict.

    ``last_seq`` stamps the document as current through that journal
    sequence number; pass it whenever the system is journalled so recovery
    knows where snapshot coverage ends and WAL replay begins.
    """
    data = _document(system, last_seq)
    data["checksum"] = snapshot_checksum(data)
    return data


def _document(system: MultiDimensionalReputationSystem,
              last_seq: Optional[int]) -> Dict[str, Any]:
    """The document :func:`system_to_dict` returns, without its checksum."""
    evaluations: List[dict] = []
    for evaluation in system.evaluations:
        evaluations.append({
            "user": evaluation.user_id,
            "file": evaluation.file_id,
            "implicit": evaluation.implicit,
            "explicit": evaluation.explicit,
            "play_fraction": evaluation.play_fraction,
            "timestamp": evaluation.timestamp,
        })

    downloads: List[dict] = []
    for downloader, uploader in system.ledger.pairs():
        for file_id, size, timestamp in system.ledger.downloads_with_time(
                downloader, uploader):
            downloads.append({
                "downloader": downloader,
                "uploader": uploader,
                "file": file_id,
                "size": size,
                "timestamp": timestamp,
            })

    user_trust = {
        "ratings": [
            {"rater": rater, "ratee": ratee, "rating": rating}
            for (rater, ratee), rating in sorted(
                system.user_trust._ratings.items())
        ],
        "friends": {user: sorted(friends) for user, friends in
                    sorted(system.user_trust._friends.items()) if friends},
        "blacklists": {user: sorted(targets) for user, targets in
                       sorted(system.user_trust._blacklists.items())
                       if targets},
    }

    credits = {
        "balances": dict(sorted(system.credits.balances().items())),
        "counts": [
            {"user": user, "action": action.value, "count": count}
            for (user, action), count in sorted(
                system.credits._counts.items(),
                key=lambda kv: (kv[0][0], kv[0][1].value))
        ],
    }

    data: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "config": {field: getattr(system.config, field)
                   for field in _CONFIG_FIELDS},
        "auto_refresh": system.auto_refresh,
        "evaluations": evaluations,
        "downloads": downloads,
        "user_trust": user_trust,
        "credits": credits,
    }
    if last_seq is not None:
        data["wal"] = {"last_seq": last_seq}
    return data


def _validate_document(data: object) -> None:
    """Reject a malformed document with an error naming the exact gap."""
    if not isinstance(data, dict):
        raise ValueError("snapshot document must be a JSON object, got "
                         f"{type(data).__name__}")
    version = data.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported format_version {version!r}; this build reads "
            f"versions {', '.join(str(v) for v in SUPPORTED_VERSIONS)}")

    missing_sections = [section for section in _REQUIRED_SECTIONS
                        if section not in data]
    if missing_sections:
        raise ValueError("snapshot is missing required section(s): "
                         + ", ".join(repr(s) for s in missing_sections))
    v3 = version == 3
    known_keys = _KNOWN_KEYS | _V3_KEYS if v3 else _KNOWN_KEYS
    unknown_keys = sorted(set(data) - known_keys)
    if unknown_keys:
        raise ValueError("snapshot contains unknown top-level section(s): "
                         + ", ".join(repr(k) for k in unknown_keys))

    config = data["config"]
    if not isinstance(config, dict):
        raise ValueError("snapshot section 'config' must be an object")
    known_fields = set(_CONFIG_FIELDS) | (_V3_CONFIG_FIELDS if v3 else frozenset())
    unknown_fields = sorted(set(config) - known_fields)
    if unknown_fields:
        raise ValueError("config contains unknown field(s): "
                         + ", ".join(repr(f) for f in unknown_fields))
    missing_fields = [f for f in _CONFIG_FIELDS if f not in config]
    if missing_fields:
        raise ValueError("config is missing field(s): "
                         + ", ".join(repr(f) for f in missing_fields))

    checksum = data.get("checksum")
    if checksum is not None:
        expected = snapshot_checksum(data)
        if checksum != expected:
            raise ValueError(
                f"snapshot checksum mismatch: stored {checksum[:12]}…, "
                f"recomputed {expected[:12]}… — the file is corrupt or was "
                f"edited without re-stamping")


def system_from_dict(data: dict) -> MultiDimensionalReputationSystem:
    """Restore a system from :func:`system_to_dict` output."""
    _validate_document(data)
    wal_last_seq(data)  # shape check; the value matters only to recovery

    config = ReputationConfig(**{field: value for field, value
                                 in data["config"].items()
                                 if field in _CONFIG_FIELDS})
    system = MultiDimensionalReputationSystem(
        config, auto_refresh=data.get("auto_refresh", True))

    for entry in data["evaluations"]:
        system.evaluations.restore(
            entry["user"], entry["file"], entry["implicit"],
            entry["explicit"], entry.get("play_fraction"), entry["timestamp"])

    for entry in data["downloads"]:
        system.ledger.record_download(
            entry["downloader"], entry["uploader"], entry["file"],
            entry["size"], entry["timestamp"])

    trust = data["user_trust"]
    for entry in trust["ratings"]:
        system.user_trust.rate(entry["rater"], entry["ratee"],
                               entry["rating"])
    for user, friends in trust["friends"].items():
        for friend in friends:
            system.user_trust.add_friend(user, friend)
    for user, targets in trust["blacklists"].items():
        for target in targets:
            system.user_trust.add_to_blacklist(user, target)

    system.credits.restore_balances(data["credits"]["balances"])
    for entry in data["credits"]["counts"]:
        key = (entry["user"], IncentiveAction(entry["action"]))
        system.credits._counts[key] = entry["count"]

    system.recompute()
    return system


def save_system(system: MultiDimensionalReputationSystem,
                path: Union[str, Path],
                last_seq: Optional[int] = None) -> None:
    """Write the system state as JSON to ``path``.

    The file is the canonical dump :func:`snapshot_checksum` hashes, with
    the checksum member put first: ``{"checksum":"<hex>",`` and then the
    dump past its opening brace.  The document is encoded once, and
    :func:`load_system` reads it back as the dict :func:`system_to_dict`
    returns.
    """
    # The document is dropped before the text is encoded, so it, the
    # text and the bytes are never all held at once.
    body = _canonical(_document(system, last_seq)).encode("ascii")
    checksum = hashlib.sha256(body).hexdigest()
    with open(path, "wb") as handle:
        handle.write(b'{"checksum":"%s",' % checksum.encode("ascii"))
        handle.write(memoryview(body)[1:])


def load_system(path: Union[str, Path]) -> MultiDimensionalReputationSystem:
    """Read a system saved by :func:`save_system`."""
    with open(path, "r", encoding="utf-8") as handle:
        return system_from_dict(json.load(handle))
