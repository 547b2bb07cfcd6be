"""Figure 1 replay: request coverage under partial evaluation coverage.

The paper's experiment: "We first set the evaluation coverage to be k%,
meaning each user will evaluate k percent of his files randomly, then replay
the downloading actions to see how many download requests will be covered.
A download request is covered means a file based direct trust relationship
can be constructed from the uploader to the downloader with the files they
have evaluated."

This module replays a trace chronologically, maintaining each user's set of
evaluated files (every acquisition is evaluated with probability k), and
reports per-day coverage.  Optional flags additionally count edges from the
download-volume and user-trust dimensions, quantifying the paper's remark
that those dimensions "can also increase request coverage".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .generator import GeneratedTrace
from .records import DownloadRecord

__all__ = ["CoveragePoint", "CoverageSeries", "CoverageReplayer"]

_DAY_SECONDS = 24 * 3600.0


@dataclass(frozen=True)
class CoveragePoint:
    """Coverage for one day of the replay."""

    day: int
    covered: int
    total: int

    @property
    def fraction(self) -> float:
        return self.covered / self.total if self.total else 0.0


@dataclass
class CoverageSeries:
    """Per-day coverage points plus whole-trace aggregates."""

    evaluation_coverage: float
    points: List[CoveragePoint] = field(default_factory=list)

    @property
    def overall(self) -> float:
        # The per-day counts are ints: builtin sum() is exact on them.
        total = sum(point.total for point in self.points)  # repro: allow[NUM003]
        covered = sum(point.covered for point in self.points)  # repro: allow[NUM003]
        return covered / total if total else 0.0

    def fractions(self) -> List[float]:
        return [point.fraction for point in self.points]

    def steady_state(self, skip_days: int = 5) -> float:
        """Coverage averaged after a warm-up period (evaluations accumulate)."""
        tail = self.points[skip_days:] or self.points
        total = sum(point.total for point in tail)  # repro: allow[NUM003]
        covered = sum(point.covered for point in tail)  # repro: allow[NUM003]
        return covered / total if total else 0.0


class CoverageReplayer:
    """Replays a generated trace and measures request coverage.

    ``evaluation_coverage`` is the paper's k (fraction, not percent).  With
    ``include_volume`` a request also counts as covered when the uploader
    previously downloaded well-evaluated content from the downloader
    (a DM edge uploader->downloader); with ``include_user`` each completed
    download leads the downloader to rank the uploader with probability
    ``rank_probability``, and a prior rank in either direction covers later
    requests between the pair (a UM edge).
    """

    def __init__(self, generated: GeneratedTrace,
                 evaluation_coverage: float,
                 include_volume: bool = False,
                 include_user: bool = False,
                 rank_probability: float = 0.05,
                 seed: int = 99):
        if not 0.0 <= evaluation_coverage <= 1.0:
            raise ValueError(
                f"evaluation_coverage must be in [0,1], got {evaluation_coverage}")
        if not 0.0 <= rank_probability <= 1.0:
            raise ValueError(
                f"rank_probability must be in [0,1], got {rank_probability}")
        self.generated = generated
        self.evaluation_coverage = evaluation_coverage
        self.include_volume = include_volume
        self.include_user = include_user
        self.rank_probability = rank_probability
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Replay                                                             #
    # ------------------------------------------------------------------ #

    def run(self) -> CoverageSeries:
        rng = random.Random(self.seed)
        evaluated: Dict[str, Set[str]] = {}
        downloaded_from: Dict[str, Set[str]] = {}
        ranked: Set[Tuple[str, str]] = set()

        self._seed_initial_evaluations(evaluated, rng)

        per_day: Dict[int, List[int]] = {}
        for record in self.generated.trace:
            day = int(record.timestamp // _DAY_SECONDS)
            counters = per_day.setdefault(day, [0, 0])
            counters[1] += 1
            if self._is_covered(record, evaluated, downloaded_from, ranked):
                counters[0] += 1
            self._apply_record(record, evaluated, downloaded_from, ranked, rng)

        points = [CoveragePoint(day=day, covered=covered, total=total)
                  for day, (covered, total) in sorted(per_day.items())]
        return CoverageSeries(evaluation_coverage=self.evaluation_coverage,
                              points=points)

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _seed_initial_evaluations(self, evaluated: Dict[str, Set[str]],
                                  rng: random.Random) -> None:
        """Initial holders evaluate their seeded files with probability k."""
        for file_id, holder_ids in self.generated.initial_holdings.items():
            for user_id in holder_ids:
                if rng.random() < self.evaluation_coverage:
                    evaluated.setdefault(user_id, set()).add(file_id)

    def _is_covered(self, record: DownloadRecord,
                    evaluated: Dict[str, Set[str]],
                    downloaded_from: Dict[str, Set[str]],
                    ranked: Set[Tuple[str, str]]) -> bool:
        uploader_files = evaluated.get(record.uploader_id)
        downloader_files = evaluated.get(record.downloader_id)
        if uploader_files and downloader_files:
            small, large = ((uploader_files, downloader_files)
                            if len(uploader_files) <= len(downloader_files)
                            else (downloader_files, uploader_files))
            if any(file_id in large for file_id in small):
                return True
        # A DM edge uploader -> downloader: the uploader downloaded (and
        # evaluated) something from this downloader earlier.
        if (self.include_volume and record.downloader_id
                in downloaded_from.get(record.uploader_id, ())):
            return True
        if (self.include_user
                and ((record.uploader_id, record.downloader_id) in ranked
                     or (record.downloader_id, record.uploader_id) in ranked)):
            return True
        return False

    def _apply_record(self, record: DownloadRecord,
                      evaluated: Dict[str, Set[str]],
                      downloaded_from: Dict[str, Set[str]],
                      ranked: Set[Tuple[str, str]],
                      rng: random.Random) -> None:
        if rng.random() < self.evaluation_coverage:
            evaluated.setdefault(record.downloader_id, set()).add(
                record.content_hash)
        if self.include_volume:
            downloaded_from.setdefault(record.downloader_id, set()).add(
                record.uploader_id)
        if self.include_user and rng.random() < self.rank_probability:
            ranked.add((record.downloader_id, record.uploader_id))


def run_coverage_sweep(generated: GeneratedTrace,
                       coverages: Sequence[float],
                       include_volume: bool = False,
                       include_user: bool = False,
                       seed: int = 99) -> List[CoverageSeries]:
    """Run the Figure 1 sweep over several evaluation-coverage levels."""
    return [
        CoverageReplayer(generated, coverage, include_volume=include_volume,
                         include_user=include_user, seed=seed).run()
        for coverage in coverages
    ]
