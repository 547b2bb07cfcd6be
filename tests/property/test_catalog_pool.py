"""Property test: the catalog's kept alive pool equals a scan of its files.

``FileCatalog`` keeps the pool of files alive in the last slot between two
consecutive birth/death instants.  For timestamps in any order, including
the exact instants and files with zero lifetime, ``alive_at`` must list
what a scan lists, in catalog order, and ``sample`` must draw the files the
scan form draws from an equal seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.catalog import CatalogFile, FileCatalog

_INSTANTS = [0.0, 1.0, 2.5, 7.0, 100.0]
_TIMES = st.one_of(st.sampled_from(_INSTANTS),
                   st.floats(-10.0, 120.0, allow_nan=False))


@st.composite
def _catalogs(draw):
    count = draw(st.integers(1, 12))
    files = []
    for index in range(count):
        birth = draw(_TIMES)
        lifetime = draw(st.one_of(st.just(0.0), st.sampled_from(_INSTANTS),
                                  st.floats(0.0, 50.0, allow_nan=False)))
        files.append(CatalogFile(
            file_id=f"file-{index:03d}", filename=f"title_{index:03d}.dat",
            size_bytes=1.0, quality=0.5, is_fake=False,
            popularity=draw(st.floats(0.01, 1.0)),
            birth_time=birth, death_time=birth + lifetime))
    return FileCatalog(files=files)


def _scan_sample(files, rng, timestamp, k):
    """``sample`` as a scan over every file with per-call weights."""
    pool = ([f for f in files if f.alive_at(timestamp)]
            if timestamp is not None else list(files))
    if not pool:
        pool = list(files)
    return rng.choices(pool, weights=[f.popularity for f in pool], k=k)


@settings(max_examples=200, deadline=None)
@given(catalog=_catalogs(),
       timestamps=st.lists(st.one_of(_TIMES, st.none()), min_size=1,
                           max_size=20),
       seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4))
def test_pool_matches_a_scan(catalog, timestamps, seed, k):
    # Every birth and death instant, visited too.
    instants = [t for f in catalog.files for t in (f.birth_time, f.death_time)]
    kept, scanned = random.Random(seed), random.Random(seed)
    for timestamp in timestamps + instants + instants[::-1]:
        if timestamp is not None:
            assert catalog.alive_at(timestamp) == [
                f for f in catalog.files if f.alive_at(timestamp)]
        assert catalog.sample(kept, timestamp, k) == _scan_sample(
            catalog.files, scanned, timestamp, k)
    assert kept.random() == scanned.random()


@settings(max_examples=50, deadline=None)
@given(catalog=_catalogs())
def test_get_is_an_index_of_the_files(catalog):
    for catalog_file in catalog.files:
        assert catalog.get(catalog_file.file_id) is catalog_file
    with pytest.raises(KeyError):
        catalog.get("file-unknown")
