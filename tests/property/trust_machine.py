"""Stateful property: incremental == full rebuild == observed == recovered.

One :class:`~hypothesis.stateful.RuleBasedStateMachine` carries the three
equalities the trust pipeline promises.  ``configure`` draws a
configuration; every event from the shared grammar then goes to three
identical systems: one journalled to a WAL under ``NULL_RECORDER``, one on
``Recorder()`` and one on ``Recorder(span_sample=1)``.  After every
refresh:

* every stage (FM, DM, UM, TM, RM and a ``reputation_at`` override) of the
  journalled system equals the independent full builders exactly — under
  every drawn backend, so the backend choice never changes TM;
* the three systems publish identical ``pipeline.checksums()``, so
  observing a run never changes one float;
* the read mix over every user and file of the population —
  ``judge_file`` (Eq. 9), ``service_level`` and ``effective_reputation`` —
  is exactly equal across the three systems, and equal to the same reads
  on a dict-form copy of the published RM, which is itself ``==`` RM both
  ways with an equal checksum;
* RM from the csr and dense backends agrees to 1e-12.

The 4-user population takes bursts of grammar events over eight rule
steps.  The 16-user population takes one opening run of 40 to 120 votes,
downloads and ranks, refreshed halfway and at the end, dense enough for
iterated products and repeated squaring to round differently.
``crash_and_recover`` refreshes, recovers the journal directory, checks
the recovered system equals the live one exactly, and carries on
journalling from the recovered system.  Teardown refreshes and checks
again if events arrived since the last check, so every example ends on a
check.  With ``REPRO_CHECK_INVARIANTS=1`` every incremental refresh also
cross-checks itself against a full rebuild.

:func:`run_pinned` runs the machine with some ``configure`` draws
narrowed; ``test_incremental_pipeline.py`` and
``test_observed_equals_unobserved.py`` each pin one corner of the
configuration space, and together they reach all of it.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, rule,
                                 run_state_machine_as_test)

from repro.core import (MultiDimensionalReputationSystem, ReputationConfig,
                        TrustMatrix, build_file_trust_matrix,
                        build_one_step_matrix, build_user_trust_matrix,
                        build_volume_trust_matrix, compute_reputation_matrix,
                        resolve_backend)
from repro.core.durability import DurabilityManager, recover
from repro.obs.recorder import NULL_RECORDER, Recorder

from tests.durability.helpers import assert_identical
from tests.property.grammar import (LARGE, REFRESH, SMALL, apply, events,
                                    matrix_events)

#: The 4-user population takes up to FREE_EVENTS grammar events, in bursts
#: of at most BURST, over the eight rule steps.  The 16-user population takes
#: one opening run of TM events instead, refreshed halfway and at the end.
FREE_EVENTS, BURST = 40, 5
BURSTS = st.lists(events(*SMALL), min_size=1, max_size=BURST)
OPENING = st.lists(matrix_events(*LARGE), min_size=40, max_size=120)
POPULATIONS = ("small", "large")
WEIGHTS = [None, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
BACKENDS = ("csr", "dense")
#: What ``configure`` draws; :func:`run_pinned` narrows some of it.
CONFIGURATION = dict(
    steps=st.integers(min_value=1, max_value=6),
    backend=st.sampled_from(BACKENDS + ("auto",)),
    weights=st.sampled_from(WEIGHTS),
    metric=st.sampled_from(["l1", "euclidean", "kl"]),
    min_overlap=st.integers(min_value=1, max_value=2),
    override=st.integers(min_value=1, max_value=6),
    population=st.sampled_from(POPULATIONS))


def _reputation(trust, steps, config, spec):
    return compute_reputation_matrix(trust, steps, config,
                                     backend=resolve_backend(spec, trust))


def _reads(system, users, files):
    """Every judgement, service level and effective reputation of a
    population, through the façade."""
    return ([system.judge_file(observer, file)
             for observer in users for file in files],
            [system.service_level(observer, requester)
             for observer in users for requester in users],
            [system.effective_reputation(observer, target)
             for observer in users for target in users])


def _reads_on(system, reputation, users, files):
    """:func:`_reads` with ``reputation`` standing in for the published RM."""
    system.reputation_matrix = lambda steps=None: reputation
    try:
        return _reads(system, users, files)
    finally:
        del system.reputation_matrix


class TrustStateMachine(RuleBasedStateMachine):
    @initialize(**CONFIGURATION, data=st.data())
    def configure(self, steps, backend, weights, metric, min_overlap,
                  override, population, data):
        alpha, beta, gamma = weights or (0.5, 0.3, 0.2)
        self.config = ReputationConfig(
            multitrust_steps=steps, matmul_backend=backend, alpha=alpha,
            beta=beta, gamma=gamma, distance_metric=metric,
            min_overlap=min_overlap)
        self.override = override
        self.users, self.files = SMALL if population == "small" else LARGE
        self.clock = self.recovered_at = self.length = 0
        self.unchecked = False
        self.workdir = Path(tempfile.mkdtemp())
        self.systems = [
            MultiDimensionalReputationSystem(self.config, auto_refresh=False,
                                             recorder=recorder)
            for recorder in (NULL_RECORDER, Recorder(),
                             Recorder(span_sample=1))]
        self._journal(start_seq=0)
        if population == "small":
            self.length = FREE_EVENTS
        else:
            run = data.draw(OPENING, label="opening")
            half = len(run) // 2
            self._feed(run[:half])
            self._refresh()
            self._feed(run[half:])
            self._refresh()

    def _journal(self, start_seq):
        self.durability = DurabilityManager(self.systems[0], self.workdir,
                                            fsync="none",
                                            start_seq=start_seq)
        self.durability.attach()

    def teardown(self):
        if not hasattr(self, "workdir"):
            return
        try:
            if self.unchecked:
                self._refresh()
        finally:
            self.durability.close()
            shutil.rmtree(self.workdir)

    def _feed(self, events):
        for event in events:
            for system in self.systems:
                apply(system, event, float(self.clock))
            self.clock += 1
            self.unchecked = True
            if event == REFRESH:
                self._check_refresh()

    def _refresh(self):
        for system in self.systems:
            apply(system, REFRESH, float(self.clock))
        self._check_refresh()

    @rule(data=st.data())
    def step(self, data):
        if self.clock < self.length:
            burst = data.draw(BURSTS, label="events")
            self._feed(burst[:self.length - self.clock])

    @rule()
    def crash_and_recover(self):
        if self.clock == self.recovered_at:
            return
        self.recovered_at = self.clock
        self._refresh()
        self.durability.close()
        result = recover(self.workdir)
        assert_identical(result.system, self.systems[0])
        self.systems[0] = result.system
        self._journal(start_seq=result.last_seq)

    def _check_refresh(self):
        # Cleared first, so teardown never repeats a check that failed.
        self.unchecked = False
        system, config = self.systems[0], self.config
        pipeline = system.pipeline
        dimensions = pipeline.dimension_matrices()
        if config.alpha:
            assert dimensions["file"] == build_file_trust_matrix(
                system.evaluations, config)
        if config.beta:
            assert dimensions["volume"] == build_volume_trust_matrix(
                system.ledger, system.evaluations, config)
        if config.gamma:
            assert dimensions["user"] == build_user_trust_matrix(
                system.user_trust)
        trust = build_one_step_matrix(system.evaluations, system.ledger,
                                      system.user_trust, config)
        assert pipeline.trust == trust
        assert pipeline.reputation == _reputation(
            trust, None, config, config.matmul_backend)
        assert pipeline.reputation_at(self.override) == _reputation(
            trust, self.override, config, config.matmul_backend)

        checksums = pipeline.checksums()
        for observed in self.systems[1:]:
            assert observed.pipeline.checksums() == checksums

        reads = _reads(system, self.users, self.files)
        for observed in self.systems[1:]:
            assert _reads(observed, self.users, self.files) == reads
        published = pipeline.reputation
        copy = TrustMatrix(dict(published.rows()))
        assert copy == published and published == copy
        assert copy.checksum() == published.checksum()
        assert _reads_on(system, copy, self.users, self.files) == reads

        csr, dense = [_reputation(trust, None, config, spec)
                      for spec in BACKENDS]
        ids = sorted(set(csr.node_ids()) | set(dense.node_ids()))
        assert all(abs(dense.get(i, j) - csr.get(i, j)) <= 1e-12
                   for i in ids for j in ids)


#: One configure plus eight rule steps per example.
SETTINGS = settings(deadline=None, stateful_step_count=9,
                    suppress_health_check=[HealthCheck.too_slow])


def run_pinned(max_examples, **pins):
    """Run ``max_examples`` of the machine with some draws narrowed.

    ``pins`` maps ``configure`` arguments to strategies or fixed values.
    """
    draws = {name: pin if isinstance(pin, st.SearchStrategy) else st.just(pin)
             for name, pin in pins.items()}

    class Pinned(TrustStateMachine):
        @initialize(**{**CONFIGURATION, **draws}, data=st.data())
        def configure(self, **configuration):
            TrustStateMachine.configure(self, **configuration)

    run_state_machine_as_test(
        Pinned, settings=settings(SETTINGS, max_examples=max_examples))
