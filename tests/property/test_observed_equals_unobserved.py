"""Property test: observing a run never changes one float of its matrices.

A live :class:`~repro.obs.recorder.Recorder` — with or without span
records — must publish exactly the ``TM``/``RM`` pair a run under
:data:`~repro.obs.recorder.NULL_RECORDER` publishes, for every
``RM = TM^n`` step count and every matmul backend.  The populations here
are large enough for iterated products and repeated squaring to round
differently, so a recorder that swapped the power for its own iterated
product would show up as a checksum mismatch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiDimensionalReputationSystem, ReputationConfig
from repro.obs.recorder import NULL_RECORDER, Recorder

USERS = [f"u{index:02d}" for index in range(16)]
FILES = [f"f{index:02d}" for index in range(10)]

user_ids = st.sampled_from(USERS)
file_ids = st.sampled_from(FILES)
values = st.floats(min_value=0.0, max_value=1.0)

events = st.one_of(
    st.tuples(st.just("vote"), user_ids, file_ids, values),
    st.tuples(st.just("download"), user_ids, user_ids, file_ids,
              st.floats(min_value=1.0, max_value=1e7)),
    st.tuples(st.just("rank"), user_ids, user_ids, values),
)


def _checksums(recorder, interleaving, steps, backend):
    config = ReputationConfig(multitrust_steps=steps, matmul_backend=backend)
    system = MultiDimensionalReputationSystem(config, auto_refresh=False,
                                              recorder=recorder)
    for index, event in enumerate(interleaving):
        kind = event[0]
        if kind == "vote":
            system.record_vote(event[1], event[2], event[3],
                               timestamp=float(index))
        elif event[1] == event[2]:
            continue
        elif kind == "download":
            system.record_download(event[1], event[2], event[3], event[4],
                                   timestamp=float(index))
        else:
            system.record_rank(event[1], event[2], event[3])
        if index == len(interleaving) // 2:
            # One incremental refresh on the way, not just the first build.
            system.recompute()
            system.refresh_view()
    system.recompute()
    system.refresh_view()
    return system.pipeline.checksums()


@pytest.mark.parametrize("backend", ["sparse", "dense", "csr"])
@pytest.mark.parametrize("steps", range(1, 7))
@settings(max_examples=6, deadline=None)
@given(interleaving=st.lists(events, min_size=40, max_size=120))
def test_recorder_never_changes_published_matrices(backend, steps,
                                                   interleaving):
    unobserved = _checksums(NULL_RECORDER, interleaving, steps, backend)
    assert _checksums(Recorder(), interleaving, steps, backend) == unobserved
    assert _checksums(Recorder(span_sample=1), interleaving, steps,
                      backend) == unobserved
