"""Performance microbenchmarks for the core primitives.

Unlike the experiment benches (one pedantic round), these use
pytest-benchmark's normal timing loop so regressions in the hot paths show
up as timing changes:

* building FM from an evaluation store (the dominant cost of a refresh);
* the sparse (csr) matrix power (Eq. 8);
* EigenTrust's power iteration;
* DHT lookup routing.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import EigenTrustMechanism
from repro.core import (CSR_BACKEND, EvaluationStore, ReputationConfig,
                        TrustMatrix, build_file_trust_matrix)
from repro.dht import DHTNetwork, hash_key, lookup


@pytest.fixture(scope="module")
def evaluation_store():
    """300 users x 40 evaluations over a 500-file catalog."""
    config = ReputationConfig()
    rng = random.Random(1)
    store = EvaluationStore(config=config)
    files = [f"f{index:04d}" for index in range(500)]
    for user_index in range(300):
        user_id = f"u{user_index:04d}"
        for file_id in rng.sample(files, 40):
            store.record_implicit(user_id, file_id, rng.random())
    return config, store


@pytest.mark.benchmark(group="perf")
def test_perf_build_file_trust_matrix(benchmark, evaluation_store):
    config, store = evaluation_store
    matrix = benchmark(build_file_trust_matrix, store, config)
    assert matrix.entry_count() > 1000


@pytest.fixture(scope="module")
def dense_one_step():
    rng = random.Random(2)
    rows = {}
    users = [f"u{index:03d}" for index in range(200)]
    for user in users:
        for target in rng.sample(users, 20):
            if target != user:
                rows.setdefault(user, {})[target] = rng.random()
    return TrustMatrix(rows).row_normalized()


@pytest.mark.benchmark(group="perf")
def test_perf_matrix_power(benchmark, dense_one_step):
    result = benchmark(CSR_BACKEND.power, dense_one_step, 2)
    assert result.entry_count() > 0


@pytest.fixture(scope="module")
def loaded_eigentrust():
    mechanism = EigenTrustMechanism(auto_refresh=False)
    rng = random.Random(3)
    users = [f"u{index:03d}" for index in range(200)]
    for transaction in range(3000):
        downloader, uploader = rng.sample(users, 2)
        file_id = f"f{transaction}"
        mechanism.record_download(downloader, uploader, file_id, 100.0)
        mechanism.record_vote(downloader, file_id,
                              1.0 if rng.random() < 0.8 else 0.0)
    return mechanism


@pytest.mark.benchmark(group="perf")
def test_perf_eigentrust_refresh(benchmark, loaded_eigentrust):
    benchmark(loaded_eigentrust.refresh)
    assert len(loaded_eigentrust.global_scores()) == 200


@pytest.fixture(scope="module")
def dht_ring():
    network = DHTNetwork()
    for index in range(256):
        network.join(f"node-{index:04d}")
    return network


@pytest.mark.benchmark(group="perf")
def test_perf_dht_lookup(benchmark, dht_ring):
    keys = [hash_key(f"key-{index}") for index in range(64)]

    def run_lookups():
        total_hops = 0
        for key in keys:
            total_hops += lookup(dht_ring, key).hops
        return total_hops

    total = benchmark(run_lookups)
    assert total / len(keys) < 16  # O(log 256) = 8, generous bound
