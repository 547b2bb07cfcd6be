"""C5 — Section 3.1 claim: multi-dimensional trust densifies the matrix.

The paper's core argument against single-dimension predecessors (Lian's
download-volume multi-trust, Credence's votes): "use files' vote and
retention time, download volume and users' rank to construct a **denser**
one-step trust matrix".

Experiment: replay the shared Maze-like trace into the full system (votes
at 5% — realistically sparse, echoing KaZaA's "<1% of popular files are
voted on" — retention implicit at 100%, download ledger, occasional ranks),
build FM with and without implicit evaluations plus DM and UM separately
and integrated (Eq. 7), and compare edge densities and the request coverage
each matrix achieves on the same trace.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import (dimension_densities, matrix_edge_coverage,
                            render_table)
from repro.core import (DownloadLedger, EvaluationStore, ReputationConfig,
                        TrustMatrix, UserTrustStore, build_file_trust_matrix,
                        build_user_trust_matrix, build_volume_trust_matrix)

from .conftest import DAY, publish_result, run_once

VOTE_PROBABILITY = 0.05
RANK_PROBABILITY = 0.05


def _ingest(maze_trace):
    config = ReputationConfig(
        retention_saturation_seconds=10 * DAY)
    rng = random.Random(77)
    evaluations = EvaluationStore(config=config)
    votes_only = EvaluationStore(config=config)
    ledger = DownloadLedger()
    user_trust = UserTrustStore()
    horizon = maze_trace.parameters.trace_days * DAY

    def maybe_vote(user_id, file_id, timestamp):
        if rng.random() < VOTE_PROBABILITY:
            quality = maze_trace.catalog.get(file_id).quality
            evaluations.record_vote(user_id, file_id, quality, timestamp)
            votes_only.record_vote(user_id, file_id, quality, timestamp)

    # Pre-existing library holdings: implicit evaluations from retention.
    for file_id, holder_ids in maze_trace.initial_holdings.items():
        for user_id in holder_ids:
            evaluations.record_retention(user_id, file_id, horizon, 0.0)
            maybe_vote(user_id, file_id, 0.0)

    for record in maze_trace.trace:
        ledger.record_download(record.downloader_id, record.uploader_id,
                               record.content_hash, record.size_bytes,
                               record.timestamp)
        retention = horizon - record.timestamp
        evaluations.record_retention(record.downloader_id,
                                     record.content_hash, retention,
                                     record.timestamp)
        maybe_vote(record.downloader_id, record.content_hash,
                   record.timestamp)
        if rng.random() < RANK_PROBABILITY:
            user_trust.rate(record.downloader_id, record.uploader_id, 0.9)

    return config, evaluations, votes_only, ledger, user_trust


def _run(maze_trace):
    (config, evaluations, votes_only, ledger,
     user_trust) = _ingest(maze_trace)
    fm_votes = build_file_trust_matrix(votes_only, config)
    fm = build_file_trust_matrix(evaluations, config)
    dm = build_volume_trust_matrix(ledger, evaluations, config)
    um = build_user_trust_matrix(user_trust)
    # Eq. 7 over the dimensions just built: the same call
    # build_one_step_matrix ends with, without building FM/DM/UM again.
    tm = TrustMatrix.weighted_sum(
        [(config.alpha, fm), (config.beta, dm), (config.gamma, um)])
    densities = dimension_densities(fm, dm, um, tm,
                                    population=maze_trace.parameters.num_users)
    matrices = {
        "FM votes-only (5%)": fm_votes,
        "FM votes+retention": fm,
        "DM (volume)": dm,
        "UM (user)": um,
        "TM (integrated)": tm,
    }
    universe = maze_trace.trace.users()
    coverages = {name: matrix_edge_coverage(maze_trace.trace, matrix)
                 for name, matrix in matrices.items()}
    entries = {name: matrix.entry_count()
               for name, matrix in matrices.items()}
    per_density = {name: matrix.density(universe)
                   for name, matrix in matrices.items()}
    return densities, coverages, entries, per_density


@pytest.mark.benchmark(group="claims")
def test_claim_matrix_density(benchmark, maze_trace):
    densities, coverages, entries, per_density = run_once(
        benchmark, _run, maze_trace)

    names = ["FM votes-only (5%)", "FM votes+retention", "DM (volume)",
             "UM (user)", "TM (integrated)"]
    rows = [[name, entries[name], per_density[name], coverages[name]]
            for name in names]
    publish_result("claim_c5_matrix_density", render_table(
        ["matrix", "edges", "density", "request coverage"], rows,
        title="C5: one-step matrix density, per dimension vs integrated",
        precision=4))

    # Implicit (retention) evaluation massively densifies file trust over
    # explicit votes alone — the KaZaA "<1% vote" problem solved.
    assert (per_density["FM votes+retention"]
            > 3 * per_density["FM votes-only (5%)"])
    # Integration densifies over every single dimension.
    assert densities.integrated_density >= densities.file_density
    assert densities.integrated_density > densities.volume_density
    assert densities.integrated_density > densities.user_density
    assert densities.integration_gain() >= 1.0
    # And covers at least as many requests as any single dimension.
    best_single = max(coverages["FM votes+retention"],
                      coverages["DM (volume)"], coverages["UM (user)"])
    assert coverages["TM (integrated)"] >= best_single
    # The integrated matrix subsumes all per-dimension edges.
    assert entries["TM (integrated)"] >= max(
        entries["FM votes+retention"], entries["DM (volume)"],
        entries["UM (user)"])
