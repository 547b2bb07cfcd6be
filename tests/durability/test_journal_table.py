"""The journal table is complete and exact, and every system honours it.

One test per record kind drives a live call on a journalled system and
checks the record it wrote against :data:`JOURNAL_RECORDS`; replaying the
log into a fresh system must then be exactly the live state.  The pinned
digest guards the on-disk bytes across commits, and the parity tests check
that a system without a WAL refuses what a journalled one refuses.
"""

import hashlib
import math

import pytest

from repro.core import MultiDimensionalReputationSystem
from repro.core.durability import DurabilityManager, read_wal
from repro.core.incentive import IncentiveAction
from repro.core.integration import build_one_step_matrix
from repro.core.journal_table import JOURNAL_RECORDS, check_record
from repro.core.persistence import system_to_dict

from tests.durability.helpers import assert_identical, replay_reference

#: One live call per record kind, in table order.  A call may emit other
#: kinds too, and may set up state first; it emits its own kind once.
CALLS = {
    "eval.retention":
        lambda s: s.record_retention("alice", "f1", 1800.0, timestamp=5.0),
    "eval.vote": lambda s: s.record_vote("alice", "f1", 0.75, timestamp=6.0),
    "eval.implicit":
        lambda s: s.record_fake_deletion("bob", "f2", timestamp=7.0),
    "eval.play": lambda s: s.record_play("carol", "f1", 0.5, timestamp=8.0),
    "eval.remove": lambda s: (
        s.record_retention("dave", "f3", 60.0, timestamp=1.0),
        s.prune_before(2.0)),
    "ledger.download": lambda s: s.record_download(
        "alice", "bob", "f1", 2048, timestamp=9.0),
    "ledger.prune": lambda s: (
        s.record_download("carol", "dave", "f4", 4096.0, timestamp=1.5),
        s.prune_before(3.0)),
    "user.rate": lambda s: s.record_rank("alice", "carol", 0.25),
    "user.friend": lambda s: s.add_friend("bob", "carol"),
    "user.blacklist": lambda s: s.add_to_blacklist("dave", "alice"),
    "user.unfriend": lambda s: (
        s.add_friend("carol", "alice"),
        s.user_trust.remove_friend("carol", "alice")),
    "user.unblacklist": lambda s: (
        s.add_to_blacklist("alice", "dave"),
        s.user_trust.remove_from_blacklist("alice", "dave")),
    "credit.record": lambda s: s.record_real_upload("dave"),
}


def _journalled(directory, *calls):
    system = MultiDimensionalReputationSystem()
    with DurabilityManager(system, directory, fsync="none"):
        for call in calls:
            call(system)
    return system, read_wal(directory / "journal.wal").records


@pytest.mark.parametrize("kind", list(JOURNAL_RECORDS))
def test_each_kind_is_written_and_replayed_as_the_table_says(tmp_path, kind):
    live, records = _journalled(tmp_path / "state", CALLS[kind])
    written = [record for record in records if record.kind == kind]
    assert len(written) == 1
    assert set(written[0].payload) == set(JOURNAL_RECORDS[kind].fields)
    assert_identical(replay_reference(records), live)


#: sha256 of ``journal.wal`` after ``_journalled`` runs every call of
#: :data:`CALLS` in order on one system (``fsync="none"``).  Produced by
#: running that same sequence on the build before the journal table
#: existed, whose stores built each payload dict by hand, and hashing the
#: file with ``sha256sum``.  If it moves, the bytes on disk moved.
PINNED_WAL_SHA256 = (
    "88f77210a5100fa7d86b0627cc62a91bfc1fb012cdfab5267d347d3b6896420e")


def test_wal_bytes_are_pinned(tmp_path):
    _, records = _journalled(tmp_path / "state", *CALLS.values())
    assert {record.kind for record in records} == set(JOURNAL_RECORDS)
    digest = hashlib.sha256(
        (tmp_path / "state" / "journal.wal").read_bytes()).hexdigest()
    assert digest == PINNED_WAL_SHA256


def test_credit_accepts_an_action_or_its_value():
    by_member = MultiDimensionalReputationSystem()
    by_member.credits.record("alice", IncentiveAction.VOTE, 2.0)
    by_value = MultiDimensionalReputationSystem()
    by_value.credits.record("alice", "vote", 2.0)
    assert system_to_dict(by_value) == system_to_dict(by_member)
    with pytest.raises(ValueError):
        by_value.credits.record("alice", "bribe")


def test_detaching_restores_the_checking_sink(tmp_path):
    system = MultiDimensionalReputationSystem()
    with DurabilityManager(system, tmp_path / "state"):
        pass
    for store in {spec.store for spec in JOURNAL_RECORDS.values()}:
        assert getattr(system, store).journal is check_record


class TestSameRefusalsWithOrWithoutWal:
    @pytest.mark.parametrize("journalled", [False, True],
                             ids=["bare", "journalled"])
    @pytest.mark.parametrize("mutate", [
        lambda s: s.record_vote("alice", "f2", True),
        lambda s: s.record_vote("alice", "f2", 0.5, timestamp=math.nan),
        lambda s: s.record_vote("alice", "f2", 0.5, timestamp=math.inf),
        lambda s: s.record_download("bob", "alice", "f1", math.inf),
        lambda s: s.record_download("bob", "alice", "f1", math.nan),
        lambda s: s.record_download("bob", "alice", "f1", 1.0,
                                    timestamp=math.nan),
        lambda s: s.record_rank("bob", "alice", True),
        lambda s: s.record_rank("bob", "alice", math.nan),
        lambda s: s.record_rank("bob", "alice", math.inf),
    ], ids=["vote-bool", "vote-timestamp-nan", "vote-timestamp-inf",
            "size-inf", "size-nan", "download-timestamp-nan",
            "rating-bool", "rating-nan", "rating-inf"])
    def test_refused_before_it_lands(self, tmp_path, mutate, journalled):
        system = MultiDimensionalReputationSystem()
        reference = MultiDimensionalReputationSystem()
        for target in (system, reference):
            target.record_vote("alice", "f1", 0.5, timestamp=100.0)
        if journalled:
            with DurabilityManager(system, tmp_path / "state") as manager:
                with pytest.raises(ValueError):
                    mutate(system)
            assert manager.last_seq == 0
        else:
            with pytest.raises(ValueError):
                mutate(system)
        assert_identical(system, reference)

    def test_refused_timestamps_cannot_escape_pruning(self):
        system = MultiDimensionalReputationSystem()
        system.record_vote("alice", "f1", 0.5, timestamp=10.0)
        with pytest.raises(ValueError):
            system.record_vote("alice", "f2", 0.5, timestamp=math.nan)
        system.record_vote("alice", "f2", 0.5, timestamp=20.0)
        assert system.prune_before(1e9) == 2
        assert len(system.evaluations) == 0


class TestFakeDeletionIsAtomic:
    def test_refused_evaluation_leaves_no_credit(self, tmp_path):
        system = MultiDimensionalReputationSystem()
        with DurabilityManager(system, tmp_path / "state") as manager:
            system.record_vote("alice", "f1", 0.5, timestamp=100.0)
            before = manager.last_seq
            with pytest.raises(ValueError):
                system.record_fake_deletion("u9", "f9", timestamp=math.inf)
            assert manager.last_seq == before
        assert system.credits.credit("u9") == 0
        assert len(read_wal(tmp_path / "state" / "journal.wal").records) \
            == before

    def test_records_keep_their_order(self, tmp_path):
        _, records = _journalled(tmp_path / "state", CALLS["eval.implicit"])
        assert [record.kind for record in records] \
            == ["credit.record", "eval.implicit"]



@pytest.mark.parametrize("kind", list(JOURNAL_RECORDS))
def test_each_kind_keeps_an_auto_refresh_facade_fresh(kind):
    """A default façade's next query sees every record kind's write.

    The façade is refreshed just before the kind's own record lands (from
    the journal sink, which runs before the mutation), so any setup the
    call does first is already consumed.  Whether the call goes through a
    façade wrapper or straight to a store, the store's dirt is what makes
    the next query refresh; a credit write marks no store dirty, so it
    publishes nothing.
    """
    system = MultiDimensionalReputationSystem()
    versions = []

    def refresh_before_own_record(record_kind, *values):
        check_record(record_kind, *values)
        if record_kind == kind:
            system.one_step_matrix()
            versions.append(system.pipeline.version)

    for store in {spec.store for spec in JOURNAL_RECORDS.values()}:
        getattr(system, store).journal = refresh_before_own_record
    CALLS[kind](system)
    assert len(versions) == 1
    assert system.one_step_matrix() == build_one_step_matrix(
        system.evaluations, system.ledger, system.user_trust, system.config)
    if kind == "credit.record":
        assert system.pipeline.version == versions[0]
