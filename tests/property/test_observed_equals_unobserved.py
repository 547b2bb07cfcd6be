"""Property test: observing a run never changes one float of its matrices.

Runs the trust state machine (``trust_machine.py``) with each ``RM = TM^n``
step count and matmul backend pinned, over the 16-user population.  Its
opening run of 40 to 120 votes, downloads and ranks makes the matrices
dense enough for iterated products and repeated squaring to round
differently.  After every refresh the systems on ``Recorder()`` and
``Recorder(span_sample=1)`` must publish exactly the ``pipeline.checksums()``
of the one on ``NULL_RECORDER``, so a recorder that swapped the power for
its own iterated product would show up as a mismatch.
"""

import pytest

from tests.property.trust_machine import run_pinned


@pytest.mark.parametrize("backend", ["sparse", "dense", "csr"])
@pytest.mark.parametrize("steps", range(1, 7))
def test_recorder_never_changes_published_matrices(backend, steps):
    run_pinned(6, steps=steps, backend=backend, weights=None,
               population="large")
