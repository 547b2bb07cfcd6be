"""Stateful property test: EvaluationStore vs. a naive model.

Hypothesis drives random sequences of record/remove/prune operations and
per-file reads against both the real store and a dictionary-based model;
every invariant the trust dimensions rely on is checked after each step.
The reads check the store's kept Eq. 1 maps: each equals a fresh
recomputation, and none handed out ever changes or accepts a write.  An
evaluation read with ``get`` is a copy: a write to one of its fields
reaches neither the store, nor its dirty set, nor the file's kept map.
"""

from dataclasses import astuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule)

from repro.core import EvaluationStore

USERS = ["u0", "u1", "u2", "u3"]
FILES = ["f0", "f1", "f2", "f3", "f4"]


class EvaluationStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = EvaluationStore()
        # model: (user, file) -> timestamp
        self.model = {}
        # (map handed out by file_evaluations, a copy of its items then)
        self.handed_out = []

    @rule(user=st.sampled_from(USERS), file=st.sampled_from(FILES),
          vote=st.floats(min_value=0, max_value=1),
          timestamp=st.floats(min_value=0, max_value=1000))
    def record_vote(self, user, file, vote, timestamp):
        self.store.record_vote(user, file, vote, timestamp)
        previous = self.model.get((user, file), -1.0)
        self.model[(user, file)] = max(previous, timestamp)

    @rule(user=st.sampled_from(USERS), file=st.sampled_from(FILES),
          retention=st.floats(min_value=0, max_value=1e7),
          timestamp=st.floats(min_value=0, max_value=1000))
    def record_retention(self, user, file, retention, timestamp):
        self.store.record_retention(user, file, retention, timestamp)
        previous = self.model.get((user, file), -1.0)
        self.model[(user, file)] = max(previous, timestamp)

    @rule(user=st.sampled_from(USERS), file=st.sampled_from(FILES),
          implicit=st.floats(min_value=0, max_value=1),
          timestamp=st.floats(min_value=0, max_value=1000))
    def record_implicit(self, user, file, implicit, timestamp):
        self.store.record_implicit(user, file, implicit, timestamp)
        previous = self.model.get((user, file), -1.0)
        self.model[(user, file)] = max(previous, timestamp)

    @rule(user=st.sampled_from(USERS), file=st.sampled_from(FILES),
          play=st.floats(min_value=0, max_value=1),
          timestamp=st.floats(min_value=0, max_value=1000))
    def record_play(self, user, file, play, timestamp):
        self.store.record_play(user, file, play, timestamp)
        previous = self.model.get((user, file), -1.0)
        self.model[(user, file)] = max(previous, timestamp)

    @rule(user=st.sampled_from(USERS), file=st.sampled_from(FILES))
    def remove(self, user, file):
        self.store.remove(user, file)
        self.model.pop((user, file), None)

    @rule(cutoff=st.floats(min_value=0, max_value=1000))
    def prune(self, cutoff):
        removed = self.store.prune_older_than(cutoff)
        stale = [key for key, timestamp in self.model.items()
                 if timestamp < cutoff]
        assert removed == len(stale)
        for key in stale:
            del self.model[key]

    @rule()
    def clear_dirty(self):
        self.store.clear_dirty()
        assert self.store.dirty_pairs() == set()

    @rule(user=st.sampled_from(USERS), file=st.sampled_from(FILES),
          field=st.sampled_from(("implicit", "explicit", "play_fraction",
                                 "timestamp")),
          value=st.floats(min_value=0, max_value=1))
    def write_a_copy(self, user, file, field, value):
        copy = self.store.get(user, file)
        if copy is None:
            return
        dirty = self.store.dirty_pairs()
        values = self.store.file_evaluations(file)
        items = list(values.items())
        stored = astuple(self.store.get(user, file))
        # Off the model's timestamps, so a write that reached the store
        # would also move what prune removes.
        setattr(copy, field, 2000.0 if field == "timestamp" else value)
        assert astuple(self.store.get(user, file)) == stored
        assert self.store.dirty_pairs() == dirty
        assert self.store.file_evaluations(file) is values
        assert list(values.items()) == items

    @rule(file=st.sampled_from(FILES + ["never-evaluated"]))
    def read(self, file):
        values = self.store.file_evaluations(file)
        config = self.store.config
        fresh = {user: self.store.get(user, file).value(config)
                 for (user, evaluated) in self.model if evaluated == file}
        # Same values and the same evaluator order (Eq. 9 sums in it).
        assert list(values.items()) == list(fresh.items())
        assert self.store.file_evaluations(file) is values
        with pytest.raises(TypeError):
            values["u0"] = 0.5
        self.handed_out.append((values, list(values.items())))

    @invariant()
    def handed_out_maps_never_change(self):
        for values, items in self.handed_out:
            assert list(values.items()) == items

    @invariant()
    def same_population(self):
        assert len(self.store) == len(self.model)
        for (user, file) in self.model:
            assert self.store.get(user, file) is not None

    @invariant()
    def indexes_agree(self):
        for (user, file) in self.model:
            assert file in self.store.files_evaluated_by(user)
            assert user in self.store.users_evaluating(file)

    @invariant()
    def values_in_unit_interval(self):
        for evaluation in self.store:
            assert 0.0 <= evaluation.value() <= 1.0

    @invariant()
    def shared_files_symmetric(self):
        for a in USERS[:2]:
            for b in USERS[2:]:
                assert (self.store.shared_files(a, b)
                        == self.store.shared_files(b, a))


TestEvaluationStoreStateful = EvaluationStoreMachine.TestCase
TestEvaluationStoreStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
