"""Shared fixtures."""

import pytest


@pytest.fixture(scope="module")
def miniature_bench():
    """Shrink every ``repro bench`` section's workload to a few seconds.

    The shapes stay in each section's regime (the csr bench keeps >= 256
    nodes at 5% density, the dense bench >= 32 nodes above 30%), so the
    backend choices and identity checks still mean what they do at full
    size; only the timings stop being worth reading.
    """
    from repro.obs import bench

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "OBS_SIM", dict(bench.OBS_SIM, days=0.1))
        patch.setattr(bench, "OBS_CHAOS", dict(bench.OBS_CHAOS, rounds=4))
        patch.setattr(bench, "WAL_SIM", dict(bench.WAL_SIM, days=0.1))
        patch.setattr(bench, "TRACE_EVENTS", 4000)
        patch.setattr(bench, "TRACE_CHUNK_EVENTS", 512)
        patch.setattr(bench, "ROUNDTRIP_SAMPLE", 2000)
        patch.setattr(bench, "POWER_BENCHES", (
            ("dense_vs_sparse", 40, 0.5, "sparse", "dense"),
            ("csr_vs_dense", 300, 0.05, "dense", "csr")))
        yield bench
