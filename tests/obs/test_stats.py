"""Tests for the shared mean/percentile helpers."""

import pytest

from repro.obs.stats import (DEFAULT_QUANTILES, QuantileSketch, mean,
                             ordered_sum, percentile, percentiles, summarize)


class TestOrderedSum:
    def test_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum gives 1.0.
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_is_zero(self):
        assert ordered_sum([]) == 0.0
        assert isinstance(ordered_sum(iter(())), float)


class TestMean:
    def test_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_simple_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_accepts_generator(self):
        assert mean(float(x) for x in range(5)) == pytest.approx(2.0)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_does_not_mutate_input(self):
        values = [3.0, 1.0, 2.0]
        percentile(values, 50.0)
        assert values == [3.0, 1.0, 2.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestPercentiles:
    def test_default_quantiles(self):
        result = percentiles([float(x) for x in range(1, 101)])
        assert set(result) == {"p50", "p95", "p99"}
        assert result["p50"] == pytest.approx(50.5)
        assert DEFAULT_QUANTILES == (50.0, 95.0, 99.0)

    def test_empty_gives_zeros(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestSummarize:
    def test_fields(self):
        summary = summarize([2.0, 4.0, 6.0])
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["min"] == 2.0
        assert summary["max"] == 6.0
        assert summary["p50"] == pytest.approx(4.0)

    def test_empty(self):
        summary = summarize([])
        assert summary["count"] == 0
        assert summary["mean"] == 0.0


class TestQuantileSketchExactMode:
    def test_summary_identical_to_summarize_below_limit(self):
        values = [float((13 * i) % 101) for i in range(500)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        assert sketch.is_exact
        assert sketch.summary() == summarize(values)

    def test_empty_summary_matches_summarize(self):
        assert QuantileSketch().summary() == summarize(())

    def test_percentile_matches_batch_helper(self):
        values = [1.0, 2.0, 3.0, 4.0]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        assert sketch.percentile(50.0) == percentile(values, 50.0)

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            QuantileSketch().percentile(101.0)


class TestQuantileSketchCompressed:
    def _stream(self, n, seed=3):
        # A deterministic pseudo-random-ish stream with no RNG import.
        return [float((seed + 37 * i) % 9973) for i in range(n)]

    def _filled(self, n):
        # Past QuantileSketch.EXACT_LIMIT (4096): compressed at least once.
        sketch = QuantileSketch()
        for value in self._stream(n):
            sketch.observe(value)
        return sketch

    def test_compression_keeps_exact_count_mean_min_max(self):
        values = self._stream(5000)
        sketch = self._filled(5000)
        assert not sketch.is_exact
        assert sketch.count == 5000
        assert sketch.mean == pytest.approx(sum(values) / 5000)
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    def test_percentiles_close_to_exact(self):
        values = self._stream(5000)
        sketch = self._filled(5000)
        span = max(values) - min(values)
        for q in (50.0, 95.0, 99.0):
            error = abs(sketch.percentile(q) - percentile(values, q))
            assert error <= 0.05 * span

    def test_deterministic_for_identical_streams(self):
        a, b = self._filled(5000), self._filled(5000)
        assert a.summary() == b.summary()

    def test_percentile_monotone_in_q(self):
        sketch = self._filled(5000)
        marks = [sketch.percentile(q) for q in
                 (0.0, 10.0, 50.0, 90.0, 99.0, 100.0)]
        assert marks == sorted(marks)
        assert marks[0] == sketch.min
        assert marks[-1] == sketch.max

    def test_memory_stays_bounded(self):
        sketch = self._filled(50000)
        assert len(sketch._centroids) <= QuantileSketch.COMPRESSED_SIZE + 1
        assert len(sketch._buffer) < QuantileSketch.EXACT_LIMIT


class TestQuantileSketchBoundary:
    """Behaviour at exactly the exact/compressed transition (4096)."""

    def _filled(self, n):
        sketch = QuantileSketch()  # EXACT_LIMIT = 4096
        for i in range(n):
            sketch.observe(float((37 * i) % 8009))
        return sketch

    def test_one_below_limit_stays_exact(self):
        sketch = self._filled(4095)
        assert sketch.is_exact
        assert sketch.count == 4095

    def test_at_limit(self):
        values = [float((37 * i) % 8009) for i in range(4096)]
        sketch = self._filled(4096)
        assert sketch.count == 4096
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        span = max(values) - min(values)
        for q in (50.0, 95.0, 99.0):
            assert abs(sketch.percentile(q)
                       - percentile(values, q)) <= 0.05 * span

    def test_one_past_limit_compresses_without_losing_aggregates(self):
        values = [float((37 * i) % 8009) for i in range(4097)]
        sketch = self._filled(4097)
        assert not sketch.is_exact
        assert sketch.count == 4097
        assert sketch.mean == pytest.approx(sum(values) / 4097)
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    def test_crossing_the_limit_keeps_percentiles_continuous(self):
        values = [float((37 * i) % 8009) for i in range(4097)]
        before = self._filled(4095)
        after = self._filled(4097)
        span = max(values) - min(values)
        for q in (50.0, 95.0, 99.0):
            assert abs(after.percentile(q)
                       - before.percentile(q)) <= 0.05 * span
