"""Shared fixtures."""

import pytest


@pytest.fixture(scope="module")
def miniature_bench():
    """Shrink every ``repro bench`` section's workload to a few seconds.

    The shapes stay in each section's regime (the dense bench >= 32 nodes
    above 30% density, the csr benches under it, with more TM^2 terms than
    cells for csr_vs_dense and far fewer for csr_sparse_vs_dense), so the
    backend and kernel choices and identity checks still mean what they do
    at full size; only the timings stop being worth reading.
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
            ("dense_vs_csr", 40, 0.5, "csr", "dense"),
            ("csr_vs_dense", 300, 0.05, "dense", "csr"),
            ("csr_sparse_vs_dense", 400, 0.005, "dense", "csr")))
        yield bench


@pytest.fixture
def csr_kernels_taken(monkeypatch):
    """The names of the csr backend's kernels, one per product, in order:
    ``matmul`` and every product of ``power``'s squaring ladder, whose
    intermediate powers never become a ``CsrTrustMatrix``."""
    import repro.core.matrix_backend as mb

    taken = []
    for name in ("_csr_csr_kernel", "_csr_dense_kernel"):
        kernel = getattr(mb, name)
        monkeypatch.setattr(
            mb, name,
            lambda left, right, kernel=kernel, name=name: (
                taken.append(name) or kernel(left, right)))
    return taken
