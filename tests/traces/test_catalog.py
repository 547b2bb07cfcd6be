"""Tests for repro.traces.catalog."""

import hashlib
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces import FileCatalog, zipf_weights

DAY = 24 * 3600.0


class TestZipfWeights:
    def test_normalized(self):
        assert sum(zipf_weights(100, 0.8)) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, 1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_exponent_zero_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)

    @pytest.mark.parametrize("n, digest", [
        (80,
         "dba1a56d309ea0ba8c6d38c708d779528deefc2681912e87d557436bb036e9c5"),
        (300,
         "3bd56f48e5aa99354a19b1578adfed3522bb9238ed32587fe8d7e0381e71df9a"),
        (2000,
         "b290965b11443f05bd7523bccae44ac26b847b0763617d28a96a7905d4618b17"),
        (3000,
         "734e4834e853d17b83f4bb00d8d16c53f3c78c98f0095391131fab4d427a156f"),
    ])
    def test_weights_pinned(self, n, digest):
        # sha256 of the little-endian doubles, computed on CPython 3.11,
        # whose builtin sum() adds left to right.  The same bits on every
        # interpreter: 3.12's compensated sum() would move the last bits.
        weights = zipf_weights(n)
        packed = struct.pack(f"<{n}d", *weights)
        assert hashlib.sha256(packed).hexdigest() == digest

    @given(n=st.integers(min_value=1, max_value=200),
           exponent=st.floats(min_value=0.0, max_value=2.0))
    def test_always_a_distribution(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert len(weights) == n
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)


class TestCatalogGeneration:
    @pytest.fixture
    def catalog(self):
        return FileCatalog.generate(200, random.Random(1), fake_ratio=0.3,
                                    trace_days=30.0)

    def test_size(self, catalog):
        assert len(catalog) == 200

    def test_fake_ratio_respected(self, catalog):
        assert len(catalog.fake_ids()) == 60
        assert len(catalog.real_ids()) == 140

    def test_fakes_have_low_quality_reals_high(self, catalog):
        for catalog_file in catalog:
            if catalog_file.is_fake:
                assert catalog_file.quality <= 0.2
            else:
                assert catalog_file.quality >= 0.75

    def test_most_popular_title_is_real(self, catalog):
        top = max(catalog, key=lambda f: f.popularity)
        assert not top.is_fake

    def test_fakes_shadow_popular_titles(self, catalog):
        """Pollution targets popular titles: the top half of the catalog by
        popularity must contain a large share of the fakes."""
        ranked = sorted(catalog, key=lambda f: -f.popularity)
        top_half = ranked[:len(ranked) // 2]
        fakes_in_top = sum(1 for f in top_half if f.is_fake)
        assert fakes_in_top >= len(catalog.fake_ids()) * 0.4

    def test_lifetimes_within_horizon(self, catalog):
        horizon = 30.0 * DAY
        for catalog_file in catalog:
            assert 0.0 <= catalog_file.birth_time <= horizon
            assert catalog_file.birth_time <= catalog_file.death_time <= horizon

    def test_deterministic_for_seed(self):
        a = FileCatalog.generate(50, random.Random(7))
        b = FileCatalog.generate(50, random.Random(7))
        assert [f.file_id for f in a] == [f.file_id for f in b]
        assert [f.size_bytes for f in a] == [f.size_bytes for f in b]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FileCatalog.generate(0, random.Random(1))
        with pytest.raises(ValueError):
            FileCatalog.generate(10, random.Random(1), fake_ratio=1.5)

    def test_extreme_fake_ratios(self):
        all_fake = FileCatalog.generate(20, random.Random(1), fake_ratio=1.0)
        assert len(all_fake.fake_ids()) == 20
        no_fake = FileCatalog.generate(20, random.Random(1), fake_ratio=0.0)
        assert len(no_fake.fake_ids()) == 0


class TestCatalogQueries:
    @pytest.fixture
    def catalog(self):
        return FileCatalog.generate(100, random.Random(2), trace_days=30.0)

    def test_get_by_id(self, catalog):
        assert catalog.get("file-000000").file_id == "file-000000"

    def test_get_missing_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nope")

    def test_alive_at_respects_lifetimes(self, catalog):
        timestamp = 15.0 * DAY
        for catalog_file in catalog.alive_at(timestamp):
            assert catalog_file.alive_at(timestamp)

    def test_sample_prefers_popular(self, catalog):
        rng = random.Random(3)
        counts = {}
        for catalog_file in catalog.sample(rng, k=3000):
            counts[catalog_file.file_id] = counts.get(catalog_file.file_id, 0) + 1
        # The most popular file must be sampled far more often than the
        # median file.
        top = max(catalog, key=lambda f: f.popularity)
        median_count = sorted(counts.values())[len(counts) // 2]
        assert counts.get(top.file_id, 0) > 3 * median_count

    def test_sample_restricted_to_alive(self, catalog):
        rng = random.Random(4)
        timestamp = 10.0 * DAY
        alive_ids = {f.file_id for f in catalog.alive_at(timestamp)}
        if alive_ids:
            sampled = catalog.sample(rng, timestamp=timestamp, k=50)
            assert all(f.file_id in alive_ids for f in sampled)
