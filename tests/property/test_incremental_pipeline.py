"""Property tests: incremental pipeline == full rebuild, exactly.

Each test runs the trust state machine (``trust_machine.py``) with one
corner of its configuration pinned, over the 4-user population unless it
draws the population too.  After every refresh the machine compares every
stage (FM, DM, UM, TM and RM) against the independent full builders with
no tolerance, and RM from the csr and dense backends to 1e-12.
"""

import pytest
from hypothesis import strategies as st

from tests.property.trust_machine import POPULATIONS, run_pinned

SINGLE_DIMENSIONS = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                     (0.0, 0.0, 1.0)])


#: Drawn by the tests that also reach the 16-user population: between
#: them they cover the configurations no other pin reaches.
ANY_POPULATION = st.sampled_from(POPULATIONS)


def _run(max_examples, **pins):
    run_pinned(max_examples, **{"population": "small", **pins})


class TestIncrementalEqualsFull:
    def test_random_interleavings(self):
        _run(60, steps=1, backend="auto", weights=None, metric="l1",
             min_overlap=1)

    def test_interleavings_with_multitrust_steps(self):
        _run(25, steps=st.integers(min_value=1, max_value=3))

    def test_single_dimension_configs(self):
        _run(25, weights=SINGLE_DIMENSIONS, population=ANY_POPULATION)

    @pytest.mark.parametrize("min_overlap", [1, 2])
    @pytest.mark.parametrize("metric", ["l1", "euclidean", "kl"])
    def test_file_trust_only_under_every_metric(self, metric, min_overlap):
        _run(20, weights=(1.0, 0.0, 0.0), metric=metric,
             min_overlap=min_overlap)


class TestBackendEquivalence:
    def test_sparse_and_dense_reputations_agree(self):
        _run(30, steps=st.integers(min_value=2, max_value=4))

    def test_backend_choice_never_changes_tm(self):
        # TM is checked against the backend-free full builder under each
        # drawn backend.
        _run(20, backend=st.sampled_from(["csr", "dense", "auto"]),
             population=ANY_POPULATION)
