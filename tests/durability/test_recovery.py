"""End-to-end recovery tests: snapshot + WAL replay = exact state.

The assertions here are exact-equality on their own; running the suite
with ``REPRO_CHECK_INVARIANTS=1`` (the ``crash-recovery`` CI job does)
additionally self-checks every replayed refresh against a full rebuild.
"""

import shutil
from pathlib import Path

import pytest

from repro.core import MultiDimensionalReputationSystem
from repro.core.durability import (DurabilityManager, flip_byte, read_wal,
                                   recover, truncate_file)
from repro.obs.recorder import NULL_RECORDER, Recorder

from tests.durability.helpers import (assert_identical, drive, json_frame,
                                     replay_reference)


def journalled_run(tmp_path, steps, snapshot_every=0, subdir="state"):
    system = MultiDimensionalReputationSystem()
    manager = DurabilityManager(system, tmp_path / subdir,
                                snapshot_every=snapshot_every)
    manager.attach()
    drive(system, steps)
    manager.maybe_snapshot()
    manager.close()
    return system, tmp_path / subdir


def live_reference(steps):
    """An unjournalled system fed the same event prefix."""
    system = MultiDimensionalReputationSystem()
    drive(system, steps)
    return system


class TestCleanRecovery:
    def test_recovery_is_bit_identical(self, tmp_path):
        live, directory = journalled_run(tmp_path, steps=30)
        result = recover(directory)
        assert result.replayed_records > 0
        assert result.truncated_tail_bytes == 0
        assert not result.quarantined
        assert_identical(result.system, live)

    def test_mid_run_snapshots_shorten_replay(self, tmp_path):
        live, directory = journalled_run(tmp_path, steps=30,
                                         snapshot_every=10)
        full_scan = read_wal(directory / "journal.wal")
        result = recover(directory)
        assert result.snapshot_seq > 0
        assert result.replayed_records < len(full_scan.records)
        assert result.last_seq == full_scan.last_seq
        assert_identical(result.system, live)

    def test_replay_reuses_ingest_path_checksums(self, tmp_path):
        """Replay must go through the same mutators, so the recovered
        document checksum equals an unjournalled run of the same events."""
        _, directory = journalled_run(tmp_path, steps=24)
        result = recover(directory)
        assert_identical(result.system, live_reference(24))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothing to recover"):
            recover(tmp_path / "void")


#: A durability directory written with ``shards=4`` by the last build
#: that had the in-process sharded pipeline: snapshots at seq 0 and 14 (v3,
#: with a ``sharding`` section) and 28 WAL records, every one stamped with
#: an owner ``shard``; plus the checksums that build's live system had.
V3_SHARDED_WAL = Path(__file__).parent / "fixtures" / "v3_sharded_wal"
V3_SHARDED_WAL_CHECKSUMS = {
    "trust": "5c487f3ace49170dd5c438999b9589a76f330bbffbb01ffbb6acc8d45c5bbce8",
    "reputation":
        "5c487f3ace49170dd5c438999b9589a76f330bbffbb01ffbb6acc8d45c5bbce8",
}


class TestV3ShardedJournal:
    def _recover(self, tmp_path):
        directory = tmp_path / "state"
        shutil.copytree(V3_SHARDED_WAL, directory)
        result = recover(directory)
        result.system.refresh_view()
        return result, read_wal(directory / "journal.wal").records

    def test_annotated_wal_replays_to_live_checksums(self, tmp_path):
        result, records = self._recover(tmp_path)
        assert len(records) == 28
        assert all("shard" in record.payload for record in records)
        assert result.snapshot_seq == 14
        assert result.replayed_records == 14
        assert result.system.pipeline.checksums() == V3_SHARDED_WAL_CHECKSUMS

    def test_matches_unannotated_replay(self, tmp_path):
        result, records = self._recover(tmp_path)
        for record in records:
            del record.payload["shard"]
        reference = replay_reference(records)
        reference.refresh_view()
        assert result.system.pipeline.checksums() \
            == reference.pipeline.checksums()


class TestCorruptRecovery:
    def test_torn_tail_recovers_prefix(self, tmp_path):
        _, directory = journalled_run(tmp_path, steps=30)
        wal = directory / "journal.wal"
        scan = read_wal(wal)
        # Tear mid-way through the final record.
        truncate_file(wal, scan.records[-1].offset + 7)
        result = recover(directory)
        assert result.truncated_tail_bytes == 7
        assert result.truncation_reason is not None
        assert result.last_seq == scan.last_seq - 1
        assert not result.repaired

    def test_repair_truncates_the_tail(self, tmp_path):
        _, directory = journalled_run(tmp_path, steps=30)
        wal = directory / "journal.wal"
        scan = read_wal(wal)
        truncate_file(wal, scan.records[-1].offset + 7)
        result = recover(directory, repair=True)
        assert result.repaired
        healed = read_wal(wal)
        assert not healed.truncated
        assert healed.last_seq == result.last_seq

    def test_bit_flip_recovers_records_before_it(self, tmp_path):
        _, directory = journalled_run(tmp_path, steps=30)
        wal = directory / "journal.wal"
        scan = read_wal(wal)
        victim = scan.records[20]
        flip_byte(wal, victim.offset + victim.frame_bytes // 2)
        result = recover(directory)
        assert result.last_seq == scan.records[19].seq
        # Snapshot + tail replay must equal a pure from-scratch replay of
        # the surviving record prefix (no snapshot involved).
        assert_identical(result.system, replay_reference(scan.records[:20]))

    def test_corrupt_snapshot_falls_back_and_replays_further(self, tmp_path):
        live, directory = journalled_run(tmp_path, steps=30,
                                         snapshot_every=10)
        generations = sorted(directory.glob("snapshot-*.json"))
        flip_byte(generations[-1], 300)
        result = recover(directory)
        assert len(result.quarantined) == 1
        assert result.snapshot_seq < read_wal(directory / "journal.wal").last_seq
        assert_identical(result.system, live)

    def test_wal_missing_recovers_snapshot_only(self, tmp_path):
        live, directory = journalled_run(tmp_path, steps=12)
        # Force a final generation so the snapshot alone holds everything.
        system = MultiDimensionalReputationSystem()
        manager = DurabilityManager(system, tmp_path / "snaponly")
        manager.attach()
        drive(system, 12)
        manager.close(final_snapshot=True)
        (tmp_path / "snaponly" / "journal.wal").unlink()
        result = recover(tmp_path / "snaponly")
        assert result.wal_scan is None
        assert result.replayed_records == 0
        assert_identical(result.system, live)


VOTE = {"user": "alice", "file": "f1", "vote": 0.5, "timestamp": 100.0}


class TestUnreplayableRecord:
    """A CRC-valid record the stores cannot apply ends the log there."""

    @pytest.mark.parametrize("kind, payload", [
        ("eval.vote", {"user": "alice", "vote": 0.5, "timestamp": 100.0}),
        ("ledger.download", {}),
        ("user.rate", {"rater": "alice", "rating": 0.5}),
        ("eval.upvote", VOTE),
        ("eval.vote", {**VOTE, "vote": 7.0}),
        ("eval.vote", {**VOTE, "vote": "x"}),
        ("eval.vote", {**VOTE, "vote": None}),
        ("eval.vote", {**VOTE, "user": 3}),
        ("eval.vote", {**VOTE, "timestamp": "t"}),
    ], ids=["missing-file", "empty-download", "missing-ratee",
            "unknown-kind", "vote-out-of-range", "vote-string",
            "vote-null", "user-int", "timestamp-string"])
    def test_replay_stops_before_it(self, tmp_path, kind, payload):
        system = MultiDimensionalReputationSystem()
        with DurabilityManager(system, tmp_path / "state") as manager:
            system.record_vote("alice", "f1", 0.5, timestamp=100.0)
            assert manager.last_seq == 2  # the vote and its credit
        wal = tmp_path / "state" / "journal.wal"
        good = read_wal(wal)
        with open(wal, "ab") as handle:
            handle.write(json_frame(3, kind, payload))

        result = recover(tmp_path / "state")
        assert result.replayed_records == 2
        assert result.last_seq == 2
        assert result.truncation_reason.startswith(
            "unreplayable record at seq 3: ")
        assert result.truncated_tail_bytes == wal.stat().st_size \
            - good.valid_bytes
        assert_identical(result.system, replay_reference(good.records))

        repaired = recover(tmp_path / "state", repair=True)
        assert repaired.repaired
        assert wal.stat().st_size == good.valid_bytes
        assert_identical(repaired.system, result.system)

    @pytest.mark.parametrize("mutate", [
        lambda s: s.record_retention("alice", "f2", float("inf")),
        lambda s: s.record_download("bob", "alice", "f1", float("inf")),
        lambda s: s.record_vote("alice", "f2", 0.5, timestamp=float("nan")),
        lambda s: s.record_vote("alice", "f2", True),
        lambda s: s.add_friend("alice", 3),
    ], ids=["retention-inf", "size-inf", "timestamp-nan", "vote-bool",
            "friend-int"])
    def test_live_write_refuses_it_before_the_wal(self, tmp_path, mutate):
        system = MultiDimensionalReputationSystem()
        with DurabilityManager(system, tmp_path / "state") as manager:
            system.record_vote("alice", "f1", 0.5, timestamp=100.0)
            with pytest.raises(ValueError):
                mutate(system)
            assert manager.last_seq == 2
        records = read_wal(tmp_path / "state" / "journal.wal").records
        assert len(records) == 2
        result = recover(tmp_path / "state")
        assert result.truncation_reason is None
        assert_identical(result.system, system)


class TestObservability:
    def test_recovery_metrics_and_events(self, tmp_path):
        _, directory = journalled_run(tmp_path, steps=18)
        wal = directory / "journal.wal"
        scan = read_wal(wal)
        truncate_file(wal, scan.valid_bytes - 3)
        events = []
        recorder = Recorder(trace_sink=events)
        result = recover(directory, recorder=recorder)
        replayed = recorder.registry.counter("recovery.replayed_records")
        truncated = recorder.registry.counter("recovery.truncated_tail")
        assert replayed.value == result.replayed_records > 0
        assert truncated.value == result.truncated_tail_bytes > 0
        complete = [e for e in events if e["event"] == "recovery.complete"]
        assert len(complete) == 1
        assert complete[0]["last_seq"] == result.last_seq

    def test_live_run_counts_appends_and_snapshots(self, tmp_path):
        events = []
        recorder = Recorder(trace_sink=events)
        system = MultiDimensionalReputationSystem()
        manager = DurabilityManager(system, tmp_path / "obs",
                                    snapshot_every=5, recorder=recorder)
        manager.attach()
        drive(system, 12)
        manager.maybe_snapshot()
        manager.close()
        appended = recorder.registry.counter("wal.appended")
        assert appended.value == manager.last_seq > 0
        snapshots = recorder.registry.counter("wal.snapshots")
        assert snapshots.value >= 2  # baseline + at least one periodic
        assert any(e["event"] == "wal.snapshot" for e in events)

    def test_quarantine_event_emitted(self, tmp_path):
        _, directory = journalled_run(tmp_path, steps=20, snapshot_every=8)
        generations = sorted(directory.glob("snapshot-*.json"))
        flip_byte(generations[-1], 300)
        records = []
        recover(directory, recorder=Recorder(trace_sink=records))
        events = [e for e in records if e["event"] == "recovery.quarantined"]
        assert len(events) == 1
        assert events[0]["file"] == generations[-1].name


def _checksums(system):
    """TM/RM checksums after consuming every pending mutation."""
    system.refresh_view()
    return system.pipeline.checksums()


class TestDurabilitySpans:
    """WAL sync, snapshot writes and replay time through spans, and
    observing them changes no byte of the journal or float of the state."""

    @staticmethod
    def _journalled_simulate(directory, recorder):
        from repro.baselines import MultiDimensionalMechanism
        from repro.simulator import (FileSharingSimulation, ScenarioSpec,
                                     SimulationConfig)
        config = SimulationConfig(
            scenario=ScenarioSpec(honest=8, free_riders=2, polluters=2),
            duration_seconds=0.5 * 24 * 3600.0, num_files=30,
            request_rate=0.02, seed=5)
        mechanism = MultiDimensionalMechanism()
        manager = DurabilityManager(mechanism.system, directory,
                                    snapshot_every=200, recorder=recorder)
        FileSharingSimulation(config, mechanism, recorder=recorder,
                              durability=manager).run()
        manager.close(final_snapshot=True)
        return _checksums(mechanism.system)

    def test_observed_run_profiles_durability_phases(self, tmp_path):
        bare = self._journalled_simulate(tmp_path / "bare", NULL_RECORDER)
        recorder = Recorder()
        observed = self._journalled_simulate(tmp_path / "observed", recorder)
        phases = recorder.profiler.snapshot()
        assert phases["wal.sync"]["calls"] > 0
        assert phases["snapshot.write"]["calls"] > 0
        assert observed == bare
        assert ((tmp_path / "observed" / "journal.wal").read_bytes()
                == (tmp_path / "bare" / "journal.wal").read_bytes())

    def test_replay_span_counts_records_by_kind(self, tmp_path):
        directory = tmp_path / "state"
        live = self._journalled_simulate(directory, NULL_RECORDER)
        # Keep only the oldest generation, so replay has work.
        generations = sorted(directory.glob("snapshot-*.json"))
        for generation in generations[1:]:
            generation.unlink()
        bare = recover(directory)
        recorder = Recorder()
        observed = recover(directory, recorder=recorder)
        assert observed.replayed_records == bare.replayed_records > 0
        assert (_checksums(observed.system) == _checksums(bare.system)
                == live)
        replay = recorder.profiler.snapshot()["recovery.replay"]
        assert replay["calls"] == 1
        assert sum(replay["counters"].values()) == observed.replayed_records
