"""``best_reputation`` equals the generic scan over ``reputation`` bit for bit.

Service differentiation asks each uploader for the best reputation it
assigns anyone, on every request.  The multidimensional mechanisms read RM,
the credit maximum and the observer's reference once per call; these tests
hold that shortcut to the per-target definition, including after signals
that move credit balances without a refresh in between.
"""

import random

import pytest

from repro.baselines import MultiDimensionalMechanism, ReputationMechanism
from repro.dht.deployment import DHTBackedMechanism
from repro.simulator import TraceRecorder

USERS = [f"user-{index:02d}" for index in range(14)]
FILES = [f"file-{index:02d}" for index in range(10)]


def _generic(mechanism, observer, targets):
    return max((mechanism.reputation(observer, target) for target in targets
                if target != observer), default=0.0)


def _populate(mechanism, seed=8):
    rng = random.Random(seed)
    for step in range(120):
        downloader, uploader = rng.sample(USERS, 2)
        file_id = rng.choice(FILES)
        mechanism.record_download(downloader, uploader, file_id,
                                  rng.uniform(1e5, 5e6), float(step))
        if rng.random() < 0.5:
            mechanism.record_vote(downloader, file_id, rng.random(),
                                  float(step))
        if rng.random() < 0.2:
            mechanism.record_rank(downloader, uploader, rng.random())
        if rng.random() < 0.2:
            mechanism.record_upload_outcome(uploader, True, float(step))
    mechanism.refresh()


def _best_values(mechanism):
    return [mechanism.best_reputation(observer, USERS) for observer in USERS]


def _assert_matches_generic(mechanism):
    for observer in USERS:
        assert (mechanism.best_reputation(observer, USERS)
                == _generic(mechanism, observer, USERS))


@pytest.fixture(params=[MultiDimensionalMechanism, DHTBackedMechanism],
                ids=["multidimensional", "dht"])
def mechanism(request):
    mechanism = request.param()
    _populate(mechanism)
    assert mechanism.system.credits.max_credit() > 0.0
    return mechanism


class TestBestReputation:
    def test_matches_generic_scan_with_credits(self, mechanism):
        _assert_matches_generic(mechanism)
        assert any(value > 0.0 for value in _best_values(mechanism))

    def test_vote_without_refresh(self, mechanism):
        """A vote moves a credit balance; nothing may answer from before."""
        before = _best_values(mechanism)
        for _ in range(40):
            mechanism.record_vote("user-03", "file-02", 1.0, 500.0)
        assert _best_values(mechanism) != before
        _assert_matches_generic(mechanism)

    def test_upload_credit_without_refresh(self, mechanism):
        """An upload credit does not even invalidate the trust view."""
        version = mechanism.system.pipeline.version
        before = _best_values(mechanism)
        for _ in range(40):
            mechanism.record_upload_outcome("user-05", True, 500.0)
        assert mechanism.system.pipeline.version == version
        assert _best_values(mechanism) != before
        _assert_matches_generic(mechanism)

    def test_observer_and_empty_targets(self, mechanism):
        assert mechanism.best_reputation("user-00", []) == 0.0
        assert mechanism.best_reputation("user-00", ["user-00"]) == 0.0
        assert mechanism.best_reputation("stranger", USERS) == _generic(
            mechanism, "stranger", USERS)

    def test_trace_recorder_forwards(self, mechanism):
        recorder = TraceRecorder(mechanism)
        for observer in USERS:
            assert (recorder.best_reputation(observer, USERS)
                    == mechanism.best_reputation(observer, USERS))


def test_trace_recorder_reaches_the_inner_override():
    calls = []

    class Spy(ReputationMechanism):
        def reputation(self, observer, target):
            raise AssertionError("the generic scan must not run")

        def best_reputation(self, observer, targets):
            calls.append((observer, tuple(targets)))
            return 0.5

    assert TraceRecorder(Spy()).best_reputation("a", ["a", "b"]) == 0.5
    assert calls == [("a", ("a", "b"))]


def test_default_is_the_generic_scan():
    class Table(ReputationMechanism):
        def reputation(self, observer, target):
            return {"b": 0.25, "c": 0.75, "a": 9.0}[target]

    mechanism = Table()
    assert mechanism.best_reputation("a", ["a", "b", "c"]) == 0.75
    assert mechanism.best_reputation("a", ["a"]) == 0.0
