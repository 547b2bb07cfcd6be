"""Synthetic file catalog: popularity, sizes, lifetimes and fake flags.

The paper's Maze measurements (and the P2P measurement literature it cites)
pin down the shape of a real catalog:

* file *popularity* is Zipf-like — a few titles dominate downloads;
* file *sizes* are heavy-tailed (we use a log-normal, capped);
* most files have a *short life cycle* ("most files have a small life cycle
  which is also shown in [Figure] 1") — new titles appear, old ones fade;
* near popular titles, a substantial share of copies are *fake* ("nearly
  half of the files of some popular titles are fake").

The catalog assigns each file a quality in [0, 1]; fakes have low quality,
real files high.  Honest users' evaluations are noisy observations of this
quality.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from ..obs.stats import ordered_sum

__all__ = ["CatalogFile", "FileCatalog", "zipf_weights"]

_DAY_SECONDS = 24 * 3600.0

#: Zipf exponent of title popularity.
ZIPF_EXPONENT = 0.8
#: Median file size in MiB (log-normal with sigma 1, capped at 200 MiB).
MEDIAN_SIZE_MB = 8.0
#: Mean of the exponential file life cycle.
MEAN_LIFETIME_DAYS = 10.0


def zipf_weights(n: int, exponent: float = ZIPF_EXPONENT) -> List[float]:
    """Normalised Zipf weights ``w_r ~ 1 / r^exponent`` for ranks 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    raw = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
    total = ordered_sum(raw)
    return [w / total for w in raw]


@dataclass(frozen=True)
class CatalogFile:
    """One file in the shared catalog."""

    file_id: str
    filename: str
    size_bytes: float
    #: Ground-truth quality in [0, 1]; fakes sit near 0, real files near 1.
    quality: float
    is_fake: bool
    #: Popularity weight (normalised over the catalog at birth time).
    popularity: float
    #: When the file first becomes available.
    birth_time: float
    #: When requests for the file cease (its "life cycle").
    death_time: float

    def alive_at(self, timestamp: float) -> bool:
        return self.birth_time <= timestamp < self.death_time


@dataclass
class FileCatalog:
    """A collection of catalog files supporting popularity-weighted sampling.

    ``files`` is frozen into a tuple at construction, and the indexes that
    ``get`` and ``sample`` read are built then too, so they cannot go stale.
    The alive set changes only at a file's ``birth_time`` or
    ``death_time``: between two consecutive such instants it is constant,
    so the pool of the last slot asked for is kept with its cumulative
    weights.
    """

    files: Sequence[CatalogFile] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.files = tuple(self.files)
        # Reversed, so a duplicated id maps to its first file, as a scan
        # from the front would find.
        self._by_id: Dict[str, CatalogFile] = {
            f.file_id: f for f in reversed(self.files)}
        self._instants: List[float] = sorted(
            {t for f in self.files for t in (f.birth_time, f.death_time)})
        self._slot = -1
        self._pool: List[CatalogFile] = []
        self._cum_weights: List[float] = []
        self._all_cum_weights = list(
            accumulate(f.popularity for f in self.files))

    @classmethod
    def generate(cls, num_files: int, rng: random.Random,
                 fake_ratio: float = 0.25,
                 trace_days: float = 30.0) -> "FileCatalog":
        """Generate a synthetic catalog.

        ``fake_ratio`` is the fraction of *titles* that are fake; because
        fakes are planted preferentially near popular titles (pollution
        targets what people search for), the fraction of fake *downloads*
        comes out similar, echoing the "nearly half of popular titles" claim
        when the ratio is pushed toward 0.5.
        """
        if num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {num_files}")
        if not 0.0 <= fake_ratio <= 1.0:
            raise ValueError(f"fake_ratio must be in [0,1], got {fake_ratio}")
        weights = zipf_weights(num_files)
        horizon = trace_days * _DAY_SECONDS

        # Plant fakes alternately among popular ranks: rank order is a proxy
        # for search visibility, and polluters shadow popular titles.
        num_fakes = round(num_files * fake_ratio)
        fake_ranks = set()
        if num_fakes:
            stride = max(num_files // max(num_fakes, 1), 1)
            rank = 1  # rank 0 (the most popular title) stays real
            while len(fake_ranks) < num_fakes and rank < num_files:
                fake_ranks.add(rank)
                rank += stride
            rank = 0
            while len(fake_ranks) < num_fakes:
                if rank not in fake_ranks:
                    fake_ranks.add(rank)
                rank += 1

        files: List[CatalogFile] = []
        for rank in range(num_files):
            is_fake = rank in fake_ranks
            quality = (rng.uniform(0.0, 0.2) if is_fake
                       else rng.uniform(0.75, 1.0))
            size = min(rng.lognormvariate(0.0, 1.0) * MEDIAN_SIZE_MB, 200.0)
            birth = rng.uniform(0.0, horizon * 0.6)
            lifetime = rng.expovariate(1.0 / (MEAN_LIFETIME_DAYS * _DAY_SECONDS))
            files.append(CatalogFile(
                file_id=f"file-{rank:06d}",
                filename=f"title_{rank:06d}.dat",
                size_bytes=size * 1024 * 1024,
                quality=quality,
                is_fake=is_fake,
                popularity=weights[rank],
                birth_time=birth,
                death_time=min(birth + lifetime, horizon) if lifetime > 0 else birth,
            ))
        return cls(files=files)

    # ------------------------------------------------------------------ #
    # Sampling and lookup                                                #
    # ------------------------------------------------------------------ #

    def _alive_pool(self, timestamp: float) -> List[CatalogFile]:
        """The files alive at ``timestamp``, in catalog order (shared)."""
        slot = bisect_right(self._instants, timestamp)
        if slot != self._slot:
            pool = [f for f in self.files if f.alive_at(timestamp)]
            self._slot = slot
            self._pool = pool
            self._cum_weights = list(accumulate(f.popularity for f in pool))
        return self._pool

    def alive_at(self, timestamp: float) -> List[CatalogFile]:
        return list(self._alive_pool(timestamp))

    def sample(self, rng: random.Random, timestamp: Optional[float] = None,
               k: int = 1) -> List[CatalogFile]:
        """Popularity-weighted sample (with replacement) of k files.

        When ``timestamp`` is given only files alive at that instant are
        eligible; the whole catalog is the fallback if none are.  The
        cumulative weights are those ``rng.choices`` would accumulate from
        the popularities itself, so the draws are the same.
        """
        if timestamp is not None and self._alive_pool(timestamp):
            return rng.choices(self._pool, cum_weights=self._cum_weights,
                               k=k)
        return rng.choices(self.files, cum_weights=self._all_cum_weights,
                           k=k)

    def get(self, file_id: str) -> CatalogFile:
        return self._by_id[file_id]

    def fake_ids(self) -> List[str]:
        return [f.file_id for f in self.files if f.is_fake]

    def real_ids(self) -> List[str]:
        return [f.file_id for f in self.files if not f.is_fake]

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self):
        return iter(self.files)
