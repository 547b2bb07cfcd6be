"""Synthetic Maze-like download trace generator.

Section 3.2 of the paper replays a 30-day Maze log (1.66M users, 24.6M
downloading actions, 1.17M distinct files).  That log is proprietary, so we
generate a synthetic trace reproducing the structural properties Figure 1
actually depends on:

* Zipf file popularity with short file life cycles (churn of files);
* heavy-tailed per-user activity (a few heavy downloaders, a long tail);
* user churn — users join throughout the window and some leave;
* uploaders drawn from the current *holders* of a file, so holdings (and
  hence evaluation overlap) co-evolve with the trace, exactly the coupling
  the coverage replay measures.

Everything is driven by a seeded ``random.Random`` for reproducibility, and
scales down to laptop size (defaults: 2 000 users, 150 000 actions).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .catalog import CatalogFile, FileCatalog
from .records import DownloadRecord, DownloadTrace

__all__ = ["TraceParameters", "MazeTraceGenerator", "GeneratedTrace"]

_DAY_SECONDS = 24 * 3600.0

#: Standard deviation of the log-normal user-activity distribution;
#: larger means heavier heavy-hitters.
ACTIVITY_SIGMA = 1.2
#: Number of users seeded as initial holders of each file at its birth.
INITIAL_HOLDERS = 3
#: Fraction of users that leave before the end of the window.
DEPARTURE_FRACTION = 0.2


@dataclass(frozen=True)
class TraceParameters:
    """Knobs of the synthetic trace (defaults sized for a laptop)."""

    num_users: int = 2000
    num_files: int = 3000
    num_actions: int = 150_000
    trace_days: float = 30.0
    seed: int = 7
    fake_ratio: float = 0.2
    #: Files each user already shares when the window opens (their library
    #: predates the log, exactly as for real Maze users).  Sampled by
    #: popularity.
    library_size: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ValueError("num_users must be >= 2")
        if self.num_files < 1:
            raise ValueError("num_files must be >= 1")
        if self.num_actions < 0:
            raise ValueError("num_actions must be >= 0")
        if self.trace_days <= 0:
            raise ValueError("trace_days must be positive")
        if self.library_size < 0:
            raise ValueError("library_size must be >= 0")


@dataclass
class GeneratedTrace:
    """A trace plus the ground-truth context it was generated from."""

    trace: DownloadTrace
    catalog: FileCatalog
    parameters: TraceParameters
    #: user id -> (join_time, leave_time); leave_time is the horizon for
    #: users who never leave.
    lifetimes: Dict[str, tuple] = field(default_factory=dict)
    #: file id -> user ids seeded as holders at the file's birth.
    initial_holdings: Dict[str, List[str]] = field(default_factory=dict)


class _AliveFileSampler:
    """Popularity-weighted sampling over the files alive at a moving time.

    The generator visits timestamps in ascending order, so the alive set
    changes only at file birth/death events; cumulative weights are rebuilt
    only then, making each sample O(log n) instead of O(n).
    """

    def __init__(self, catalog: FileCatalog):
        self._births = sorted(catalog.files, key=lambda f: f.birth_time)
        self._deaths = sorted(catalog.files, key=lambda f: f.death_time)
        self._birth_index = 0
        self._death_index = 0
        self._alive: Dict[str, CatalogFile] = {}
        self._pool: List[CatalogFile] = []
        self._cumulative: List[float] = []
        self._dirty = True
        self._fallback = list(catalog.files)

    def advance_to(self, timestamp: float) -> None:
        while (self._birth_index < len(self._births)
               and self._births[self._birth_index].birth_time <= timestamp):
            catalog_file = self._births[self._birth_index]
            self._alive[catalog_file.file_id] = catalog_file
            self._birth_index += 1
            self._dirty = True
        while (self._death_index < len(self._deaths)
               and self._deaths[self._death_index].death_time <= timestamp):
            catalog_file = self._deaths[self._death_index]
            self._alive.pop(catalog_file.file_id, None)
            self._death_index += 1
            self._dirty = True

    def sample(self, rng: random.Random) -> CatalogFile:
        if self._dirty:
            self._pool = sorted(self._alive.values(),
                                key=lambda f: f.file_id)
            self._cumulative = list(itertools.accumulate(
                f.popularity for f in self._pool))
            self._dirty = False
        if not self._pool:
            return rng.choice(self._fallback)
        total = self._cumulative[-1]
        position = bisect.bisect_left(self._cumulative,
                                      rng.random() * total)
        return self._pool[min(position, len(self._pool) - 1)]


class _AliveUserSampler:
    """Activity-weighted sampling over users present at a moving time.

    Same incremental trick as :class:`_AliveFileSampler`, over the users'
    (join, leave) intervals.
    """

    def __init__(self, lifetimes: Dict[str, tuple],
                 activity: Dict[str, float]):
        self._joins = sorted(lifetimes.items(), key=lambda kv: kv[1][0])
        self._leaves = sorted(lifetimes.items(), key=lambda kv: kv[1][1])
        self._activity = activity
        self._join_index = 0
        self._leave_index = 0
        self._alive: Set[str] = set()
        self._pool: List[str] = []
        self._cumulative: List[float] = []
        self._dirty = True

    def advance_to(self, timestamp: float) -> None:
        while (self._join_index < len(self._joins)
               and self._joins[self._join_index][1][0] <= timestamp):
            self._alive.add(self._joins[self._join_index][0])
            self._join_index += 1
            self._dirty = True
        while (self._leave_index < len(self._leaves)
               and self._leaves[self._leave_index][1][1] <= timestamp):
            self._alive.discard(self._leaves[self._leave_index][0])
            self._leave_index += 1
            self._dirty = True

    def alive_count(self) -> int:
        return len(self._alive)

    def sample(self, rng: random.Random) -> str:
        if self._dirty:
            self._pool = sorted(self._alive)
            self._cumulative = list(itertools.accumulate(
                self._activity[uid] for uid in self._pool))
            self._dirty = False
        total = self._cumulative[-1]
        position = bisect.bisect_left(self._cumulative,
                                      rng.random() * total)
        return self._pool[min(position, len(self._pool) - 1)]


class MazeTraceGenerator:
    """Generates :class:`GeneratedTrace` objects from :class:`TraceParameters`."""

    def __init__(self, parameters: Optional[TraceParameters] = None):
        self.parameters = parameters or TraceParameters()

    # ------------------------------------------------------------------ #
    # Generation                                                         #
    # ------------------------------------------------------------------ #

    def generate(self) -> GeneratedTrace:
        p = self.parameters
        rng = random.Random(p.seed)
        horizon = p.trace_days * _DAY_SECONDS

        catalog = FileCatalog.generate(
            p.num_files, rng, fake_ratio=p.fake_ratio,
            trace_days=p.trace_days)

        user_ids = [f"user-{i:06d}" for i in range(p.num_users)]
        lifetimes = self._draw_lifetimes(user_ids, horizon, rng)
        activity = {uid: rng.lognormvariate(0.0, ACTIVITY_SIGMA)
                    for uid in user_ids}

        holders: Dict[str, Set[str]] = {}
        initial_holdings: Dict[str, List[str]] = {}
        for catalog_file in catalog:
            seeded = self._seed_holders(catalog_file, user_ids, lifetimes, rng)
            holders[catalog_file.file_id] = set(seeded)
            initial_holdings[catalog_file.file_id] = seeded
        if p.library_size > 0:
            self._seed_libraries(catalog, user_ids, holders,
                                 initial_holdings, rng)

        timestamps = sorted(self._draw_timestamp(horizon, rng)
                            for _ in range(p.num_actions))
        file_sampler = _AliveFileSampler(catalog)
        user_sampler = _AliveUserSampler(lifetimes, activity)
        trace = DownloadTrace()
        for timestamp in timestamps:
            file_sampler.advance_to(timestamp)
            user_sampler.advance_to(timestamp)
            record = self._generate_action(
                timestamp, file_sampler, user_sampler, holders, lifetimes, rng)
            if record is not None:
                trace.append(record)
                holders[record.content_hash].add(record.downloader_id)
        return GeneratedTrace(trace=trace, catalog=catalog, parameters=p,
                              lifetimes=lifetimes,
                              initial_holdings=initial_holdings)

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _draw_lifetimes(self, user_ids: Sequence[str], horizon: float,
                        rng: random.Random) -> Dict[str, tuple]:
        """Join times spread over the first 40% of the window; some leave."""
        lifetimes: Dict[str, tuple] = {}
        for uid in user_ids:
            join = rng.uniform(0.0, horizon * 0.4)
            leave = (rng.uniform(join + horizon * 0.1, horizon)
                     if rng.random() < DEPARTURE_FRACTION
                     else horizon)
            lifetimes[uid] = (join, leave)
        return lifetimes

    def _seed_holders(self, catalog_file: CatalogFile,
                      user_ids: Sequence[str], lifetimes: Dict[str, tuple],
                      rng: random.Random) -> List[str]:
        """Pick initial holders present when the file is born."""
        eligible = [uid for uid in user_ids
                    if lifetimes[uid][0] <= catalog_file.birth_time < lifetimes[uid][1]]
        if not eligible:
            eligible = list(user_ids)
        k = min(INITIAL_HOLDERS, len(eligible))
        return rng.sample(eligible, k)

    def _seed_libraries(self, catalog: FileCatalog,
                        user_ids: Sequence[str],
                        holders: Dict[str, Set[str]],
                        initial_holdings: Dict[str, List[str]],
                        rng: random.Random) -> None:
        """Give each user a popularity-sampled pre-existing library."""
        pool = sorted(catalog.files, key=lambda f: f.file_id)
        weights = [f.popularity for f in pool]
        cumulative = list(itertools.accumulate(weights))
        total = cumulative[-1]
        for uid in user_ids:
            picked: Set[str] = set()
            attempts = 0
            while (len(picked) < self.parameters.library_size
                   and attempts < self.parameters.library_size * 8):
                attempts += 1
                position = bisect.bisect_left(cumulative,
                                              rng.random() * total)
                catalog_file = pool[min(position, len(pool) - 1)]
                if catalog_file.file_id in picked:
                    continue
                picked.add(catalog_file.file_id)
                if uid not in holders[catalog_file.file_id]:
                    holders[catalog_file.file_id].add(uid)
                    initial_holdings[catalog_file.file_id].append(uid)

    @staticmethod
    def _draw_timestamp(horizon: float, rng: random.Random) -> float:
        """Uniform day, diurnal hour profile (evening-heavy, as in Maze)."""
        day = rng.uniform(0.0, horizon / _DAY_SECONDS)
        day_floor = int(day)
        # Two-component mixture: 70% of actions in the 12h evening block.
        hour = (rng.uniform(12.0, 24.0) if rng.random() < 0.7
                else rng.uniform(0.0, 12.0))
        timestamp = day_floor * _DAY_SECONDS + hour * 3600.0
        return min(timestamp, horizon - 1.0)

    def _generate_action(self, timestamp: float,
                         file_sampler: "_AliveFileSampler",
                         user_sampler: "_AliveUserSampler",
                         holders: Dict[str, Set[str]],
                         lifetimes: Dict[str, tuple],
                         rng: random.Random) -> Optional[DownloadRecord]:
        """One download action, or None when no feasible pairing exists."""
        if user_sampler.alive_count() < 2:
            return None

        for _ in range(8):  # retry a few times on infeasible picks
            catalog_file = file_sampler.sample(rng)
            candidates = [uid for uid in holders[catalog_file.file_id]
                          if lifetimes[uid][0] <= timestamp < lifetimes[uid][1]]
            if not candidates:
                continue
            uploader = rng.choice(sorted(candidates))
            downloader = user_sampler.sample(rng)
            if downloader == uploader:
                continue
            if downloader in holders[catalog_file.file_id]:
                continue
            return DownloadRecord(
                uploader_id=uploader,
                downloader_id=downloader,
                timestamp=timestamp,
                content_hash=catalog_file.file_id,
                filename=catalog_file.filename,
                size_bytes=catalog_file.size_bytes,
                is_fake=catalog_file.is_fake,
            )
        return None
