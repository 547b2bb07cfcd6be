"""Property tests: incremental pipeline == full rebuild, exactly.

The pipeline's hard bar is that consuming deltas incrementally produces
matrices **bit-identical** (``TrustMatrix.__eq__``, no tolerance) to
rebuilding from the stores from scratch.  Hypothesis drives random
interleavings of every mutating event the façade accepts — votes,
retentions, plays, fake deletions, re-records of an unchanged value,
downloads, ranks, friendships, blacklistings, prunes — with refreshes
scattered between them, then compares every stage (FM, DM, UM, TM, RM)
against the independent full builders.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (MultiDimensionalReputationSystem, ReputationConfig,
                        TrustMatrix, build_file_trust_matrix,
                        build_one_step_matrix, build_user_trust_matrix,
                        build_volume_trust_matrix, compute_reputation_matrix,
                        resolve_backend)

USERS = ["u0", "u1", "u2", "u3"]
FILES = ["f0", "f1", "f2", "f3", "f4", "f5"]

user_ids = st.sampled_from(USERS)
file_ids = st.sampled_from(FILES)
values = st.floats(min_value=0.0, max_value=1.0)

events = st.one_of(
    st.tuples(st.just("vote"), user_ids, file_ids, values),
    st.tuples(st.just("retention"), user_ids, file_ids,
              st.floats(min_value=0.0, max_value=1e5)),
    st.tuples(st.just("play"), user_ids, file_ids, values),
    st.tuples(st.just("fake_deletion"), user_ids, file_ids),
    st.tuples(st.just("rerecord"), user_ids, file_ids),
    st.tuples(st.just("download"), user_ids, user_ids, file_ids,
              st.floats(min_value=1.0, max_value=1e7)),
    st.tuples(st.just("rank"), user_ids, user_ids, values),
    st.tuples(st.just("friend"), user_ids, user_ids),
    st.tuples(st.just("blacklist"), user_ids, user_ids),
    st.tuples(st.just("prune"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("refresh")),
)


def _apply(system: MultiDimensionalReputationSystem, event, clock: float
           ) -> None:
    kind = event[0]
    if kind == "vote":
        system.record_vote(event[1], event[2], event[3], timestamp=clock)
    elif kind == "retention":
        system.record_retention(event[1], event[2], event[3],
                                timestamp=clock)
    elif kind == "play":
        system.record_play(event[1], event[2], event[3], timestamp=clock)
    elif kind == "fake_deletion":
        system.record_fake_deletion(event[1], event[2], timestamp=clock)
    elif kind == "rerecord":
        # Dirties the file without moving its Eq. 1 value: a repeated vote
        # keeps the vote, and a play no higher than the stored fraction
        # (or 0.0 <= implicit) leaves the implicit channel as it was.
        evaluation = system.evaluations.get(event[1], event[2])
        if evaluation is None:
            return
        if evaluation.explicit is not None:
            system.record_vote(event[1], event[2], evaluation.explicit,
                               timestamp=clock)
        else:
            system.record_play(event[1], event[2],
                               evaluation.play_fraction or 0.0,
                               timestamp=clock)
    elif kind == "download":
        if event[1] != event[2]:
            system.record_download(event[1], event[2], event[3], event[4],
                                   timestamp=clock)
    elif kind == "rank":
        if event[1] != event[2]:
            system.record_rank(event[1], event[2], event[3])
    elif kind == "friend":
        if event[1] != event[2]:
            system.add_friend(event[1], event[2])
    elif kind == "blacklist":
        if event[1] != event[2]:
            system.add_to_blacklist(event[1], event[2])
    elif kind == "prune":
        system.prune_before(clock - float(event[1]))
    elif kind == "refresh":
        system.recompute()
        system.refresh_view()


def _assert_all_stages_match(system: MultiDimensionalReputationSystem
                             ) -> None:
    """Exact equality of every pipeline stage against the full builders."""
    config = system.config
    pipeline = system.pipeline
    dimensions = pipeline.dimension_matrices()
    assert dimensions["file"] == build_file_trust_matrix(
        system.evaluations, config)
    assert dimensions["volume"] == build_volume_trust_matrix(
        system.ledger, system.evaluations, config)
    assert dimensions["user"] == build_user_trust_matrix(
        system.user_trust)
    full_trust = build_one_step_matrix(
        system.evaluations, system.ledger, system.user_trust, config)
    assert pipeline.trust == full_trust
    assert pipeline.reputation == compute_reputation_matrix(
        full_trust, None, config,
        backend=resolve_backend(config.matmul_backend, full_trust))


class TestIncrementalEqualsFull:
    @settings(max_examples=60, deadline=None)
    @given(interleaving=st.lists(events, min_size=1, max_size=40))
    def test_random_interleavings(self, interleaving):
        system = MultiDimensionalReputationSystem(auto_refresh=False)
        for index, event in enumerate(interleaving):
            _apply(system, event, clock=float(index))
        system.recompute()
        system.refresh_view()
        _assert_all_stages_match(system)

    @settings(max_examples=25, deadline=None)
    @given(interleaving=st.lists(events, min_size=2, max_size=30),
           steps=st.integers(min_value=1, max_value=3),
           override=st.integers(min_value=1, max_value=4))
    def test_interleavings_with_multitrust_steps(self, interleaving, steps,
                                                 override):
        config = ReputationConfig(multitrust_steps=steps)
        system = MultiDimensionalReputationSystem(config,
                                                  auto_refresh=False)
        for index, event in enumerate(interleaving):
            _apply(system, event, clock=float(index))
            if index % 7 == 3:
                system.recompute()
                system.refresh_view()
        system.recompute()
        system.refresh_view()
        _assert_all_stages_match(system)
        # Step overrides resolve their backend exactly like the full path.
        full_trust = build_one_step_matrix(
            system.evaluations, system.ledger, system.user_trust, config)
        assert system.pipeline.reputation_at(override) \
            == compute_reputation_matrix(
                full_trust, override, config,
                backend=resolve_backend(config.matmul_backend, full_trust))

    @settings(max_examples=25, deadline=None)
    @given(interleaving=st.lists(events, min_size=1, max_size=25))
    def test_single_dimension_configs(self, interleaving):
        for weights in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
            alpha, beta, gamma = weights
            config = ReputationConfig(alpha=alpha, beta=beta, gamma=gamma)
            system = MultiDimensionalReputationSystem(config,
                                                      auto_refresh=False)
            for index, event in enumerate(interleaving):
                _apply(system, event, clock=float(index))
                if index % 7 == 3:
                    system.recompute()
                    system.refresh_view()
            system.recompute()
            system.refresh_view()
            assert system.pipeline.trust == build_one_step_matrix(
                system.evaluations, system.ledger, system.user_trust,
                config)


    @pytest.mark.parametrize("min_overlap", [1, 2])
    @pytest.mark.parametrize("metric", ["l1", "euclidean", "kl"])
    @settings(max_examples=20, deadline=None)
    @given(interleaving=st.lists(events, min_size=1, max_size=40))
    def test_file_trust_only_under_every_metric(self, metric, min_overlap,
                                                interleaving):
        config = ReputationConfig(alpha=1.0, beta=0.0, gamma=0.0,
                                  distance_metric=metric,
                                  min_overlap=min_overlap)
        system = MultiDimensionalReputationSystem(config, auto_refresh=False)
        for index, event in enumerate(interleaving):
            _apply(system, event, clock=float(index))
            if index % 3 == 2 or index == len(interleaving) - 1:
                system.recompute()
                system.refresh_view()
                assert system.pipeline.dimension_matrices()["file"] \
                    == build_file_trust_matrix(system.evaluations, config)
        assert system.pipeline.trust == build_one_step_matrix(
            system.evaluations, system.ledger, system.user_trust, config)


class TestBackendEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(interleaving=st.lists(events, min_size=3, max_size=30),
           steps=st.integers(min_value=2, max_value=4))
    def test_sparse_and_dense_reputations_agree(self, interleaving, steps):
        systems = {}
        for spec in ("sparse", "dense"):
            config = ReputationConfig(multitrust_steps=steps,
                                      matmul_backend=spec)
            system = MultiDimensionalReputationSystem(config,
                                                      auto_refresh=False)
            for index, event in enumerate(interleaving):
                _apply(system, event, clock=float(index))
            system.recompute()
            system.refresh_view()
            systems[spec] = system
        sparse = systems["sparse"].pipeline.reputation
        dense = systems["dense"].pipeline.reputation
        ids = sorted(set(sparse.node_ids()) | set(dense.node_ids()))
        for i in ids:
            for j in ids:
                assert dense.get(i, j) == pytest.approx(
                    sparse.get(i, j), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(interleaving=st.lists(events, min_size=3, max_size=30))
    def test_backend_choice_never_changes_tm(self, interleaving):
        matrices = []
        for spec in ("sparse", "dense", "auto"):
            config = ReputationConfig(matmul_backend=spec)
            system = MultiDimensionalReputationSystem(config,
                                                      auto_refresh=False)
            for index, event in enumerate(interleaving):
                _apply(system, event, clock=float(index))
            system.recompute()
            system.refresh_view()
            matrices.append(system.pipeline.trust)
        assert matrices[0] == matrices[1] == matrices[2]
        assert isinstance(matrices[0], TrustMatrix)
