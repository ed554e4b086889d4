"""Unit tests for repro.core.streaming (OnlineEncoder, RunningStatistics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OnlineEncoder, RunningStatistics, SymbolicEncoder, TimeSeries
from repro.core.streaming import _hash_doubles
from repro.core.vertical import AGGREGATORS, aggregate_windows
from repro.errors import SegmentationError


def _spread(window: np.ndarray) -> float:
    """A user-supplied aggregator (no row-wise twin)."""
    return float(window.max() - window.min())


AGGREGATOR_CASES = sorted(AGGREGATORS) + [_spread]


class TestRunningStatistics:
    def test_mean_median_distinct_median(self):
        stats = RunningStatistics()
        stats.update_many([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.median == pytest.approx(3.0)
        assert stats.distinct_median == pytest.approx(3.0)

    def test_distinct_median_ignores_repeats(self):
        stats = RunningStatistics()
        stats.update_many([60.0] * 100 + [100.0, 200.0, 300.0])
        # Plain median is dominated by the repeated 60s.
        assert stats.median == pytest.approx(60.0)
        # Distinct median sees {60, 100, 200, 300}.
        assert stats.distinct_median > 60.0

    def test_nan_values_ignored(self):
        stats = RunningStatistics()
        stats.update(float("nan"))
        stats.update(5.0)
        assert stats.count == 1

    def test_empty_statistics_are_zero(self):
        stats = RunningStatistics()
        assert stats.mean == 0.0
        assert stats.median == 0.0
        assert stats.distinct_median == 0.0
        assert stats.maximum == 0.0

    def test_reservoir_bounded_memory(self):
        stats = RunningStatistics(max_samples=100, seed=3)
        stats.update_many(np.arange(10_000, dtype=float))
        assert len(stats.values()) == 100
        assert stats.count == 10_000
        # The reservoir median should approximate the true median (~5000).
        assert abs(stats.median - 5000.0) < 1500.0

    def test_invalid_max_samples(self):
        with pytest.raises(SegmentationError):
            RunningStatistics(max_samples=0)
        with pytest.raises(SegmentationError):
            RunningStatistics(max_distinct=0)

    def test_maximum_survives_reservoir_eviction(self):
        # The peak arrives first; by the time 10k more values have streamed
        # through a 50-slot reservoir it has almost surely been evicted.
        stats = RunningStatistics(max_samples=50, seed=5)
        stats.update(9999.0)
        stats.update_many(np.linspace(0.0, 100.0, 10_000))
        assert 9999.0 not in stats.values()  # the reservoir lost the peak
        assert stats.maximum == 9999.0       # the running maximum did not

    def test_learning_values_contains_true_maximum(self):
        stats = RunningStatistics(max_samples=50, seed=5)
        stats.update(9999.0)
        stats.update_many(np.linspace(0.0, 100.0, 10_000))
        learning = stats.learning_values()
        assert learning.max() == 9999.0
        # Under capacity nothing is appended: learning == raw snapshot.
        small = RunningStatistics(max_samples=100)
        small.update_many([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(small.learning_values(), small.values())

    def test_distinct_values_bounded_memory(self):
        stats = RunningStatistics(max_distinct=64)
        stats.update_many(np.arange(50_000, dtype=float))
        assert stats.distinct_count == 64
        # The bottom-k hash sketch is a uniform sample of the distinct
        # values, so its median approximates the true distinct median.
        assert abs(stats.distinct_median - 25_000.0) < 10_000.0

    def test_distinct_sketch_exact_under_cap(self):
        stats = RunningStatistics(max_distinct=64)
        stats.update_many([60.0] * 100 + [100.0, 200.0, 300.0])
        assert stats.distinct_count == 4
        assert stats.distinct_median == pytest.approx(np.median([60, 100, 200, 300]))

    def test_update_vs_update_many_parity_past_caps(self):
        values = np.concatenate([
            np.arange(3000, dtype=float),          # all distinct
            np.arange(500, dtype=float),           # repeats
            np.linspace(-50.0, 4000.0, 1500),
        ])
        one = RunningStatistics(max_samples=256, seed=9, max_distinct=128)
        many = RunningStatistics(max_samples=256, seed=9, max_distinct=128)
        for v in values:
            one.update(float(v))
        for chunk in np.array_split(values, 7):
            many.update_many(chunk)
        assert one.count == many.count
        assert one.mean == many.mean
        assert one.maximum == many.maximum
        np.testing.assert_array_equal(one.distinct_values(), many.distinct_values())
        np.testing.assert_array_equal(one.values(), many.values())

    def test_snapshot_keys(self):
        stats = RunningStatistics()
        stats.update(1.0)
        snapshot = stats.snapshot()
        assert set(snapshot) == {"count", "mean", "median", "distinctmedian"}


class TestOnlineEncoder:
    def _hourly_sine(self, hours: int, interval: float = 60.0) -> TimeSeries:
        n = int(hours * 3600 / interval)
        t = np.arange(n) * interval
        values = 300.0 + 200.0 * np.sin(2 * np.pi * t / 86400.0) + 50.0
        return TimeSeries(t, np.clip(values, 1.0, None))

    def test_bootstrap_then_emission(self):
        series = self._hourly_sine(hours=30)
        encoder = OnlineEncoder(
            alphabet_size=4,
            window_seconds=3600.0,
            bootstrap_seconds=6 * 3600.0,
        )
        emitted = encoder.push_series(series)
        emitted += encoder.flush()
        assert encoder.is_bootstrapped
        assert encoder.table is not None
        # Roughly one symbol per hour of data.
        assert 26 <= len(emitted) <= 30
        assert encoder.table_updates[0].reason == "bootstrap"

    def test_no_emission_during_bootstrap(self):
        series = self._hourly_sine(hours=2)
        encoder = OnlineEncoder(window_seconds=900.0, bootstrap_seconds=4 * 3600.0)
        emitted = encoder.push_series(series)
        assert emitted == []
        assert not encoder.is_bootstrapped
        with pytest.raises(SegmentationError):
            encoder.to_symbolic_series()

    def test_matches_batch_encoder_on_stable_data(self):
        series = self._hourly_sine(hours=48)
        window = 3600.0
        bootstrap = 24 * 3600.0
        online = OnlineEncoder(
            alphabet_size=8, method="median", window_seconds=window,
            bootstrap_seconds=bootstrap,
        )
        online.push_series(series)
        online.flush()
        symbolic = online.to_symbolic_series()
        assert len(symbolic) >= 46
        # The online separators come from the bootstrap prefix only; a batch
        # encoder fitted on that same prefix and applied to the whole stream
        # must produce identical symbols for the covered windows.
        start = float(series.timestamps[0])
        prefix = series.between(start, start + bootstrap)
        batch = SymbolicEncoder(
            alphabet_size=8, method="median", aggregation_seconds=window
        )
        batch.fit(prefix)
        batch_symbols = batch.encode(series)
        online_by_time = dict(zip(symbolic.timestamps, symbolic.words))
        matches = [
            online_by_time[t] == w
            for t, w in zip(batch_symbols.timestamps, batch_symbols.words)
            if t in online_by_time
        ]
        assert matches and sum(matches) / len(matches) > 0.9

    def test_gap_skips_windows_without_emitting(self):
        # One hour of data, a 3-hour gap, then another hour.
        part1 = TimeSeries.regular(np.full(60, 100.0), start=0.0, interval=60.0)
        part2 = TimeSeries.regular(np.full(60, 500.0), start=4 * 3600.0, interval=60.0)
        series = part1.concat(part2)
        encoder = OnlineEncoder(
            alphabet_size=4, window_seconds=1800.0, bootstrap_seconds=1800.0
        )
        encoder.push_series(series)
        encoder.flush()
        timestamps = [w.timestamp for w in encoder.emitted]
        # No windows should be emitted for the empty [3600, 14400) stretch.
        assert all(t < 3600.0 or t >= 4 * 3600.0 for t in timestamps)

    def test_drift_triggers_table_rebuild(self):
        low = TimeSeries.regular(np.full(240, 100.0), interval=60.0)
        high = TimeSeries.regular(
            np.full(2000, 1000.0), start=240 * 60.0, interval=60.0
        )
        series = low.concat(high)
        encoder = OnlineEncoder(
            alphabet_size=4,
            window_seconds=900.0,
            bootstrap_seconds=3600.0,
            drift_threshold=0.5,
        )
        encoder.push_series(series)
        reasons = [update.reason for update in encoder.table_updates]
        assert reasons[0] == "bootstrap"
        assert any(reason.startswith("drift") for reason in reasons[1:])

    def test_invalid_parameters(self):
        with pytest.raises(SegmentationError):
            OnlineEncoder(window_seconds=0.0)
        with pytest.raises(SegmentationError):
            OnlineEncoder(bootstrap_seconds=0.0)

    def _drift_series(self) -> TimeSeries:
        # A low bootstrap regime followed by a sharp level shift, with some
        # in-regime variation so quantiles are non-degenerate.
        low = TimeSeries.regular(
            np.full(240, 100.0) + np.arange(240) % 7, interval=60.0
        )
        high = TimeSeries.regular(
            np.full(2000, 1000.0) + np.arange(2000) % 13,
            start=240 * 60.0, interval=60.0,
        )
        return low.concat(high)

    @pytest.mark.parametrize("method", ["median", "distinctmedian", "uniform"])
    def test_drift_rebuild_matches_fresh_fit(self, method):
        # Regression: the rebuilt table must equal what a fresh fit on the
        # same aggregated history produces.  Before the fix the rebuild
        # learned from the *raw* reservoir while the bootstrap fit learned
        # from *window-aggregated* values, so the two disagreed.
        from repro.core.separators import get_method
        from repro.core.vertical import segment_by_duration

        window = 900.0
        series = self._drift_series()
        encoder = OnlineEncoder(
            alphabet_size=4, method=method, window_seconds=window,
            bootstrap_seconds=3600.0, drift_threshold=0.5,
        )
        origin = float(series.timestamps[0])
        for t, v in zip(series.timestamps, series.values):
            encoder.push(float(t), float(v))
            drift_updates = [
                u for u in encoder.table_updates if u.reason.startswith("drift")
            ]
            if drift_updates:
                break
        assert drift_updates, "the level shift must trigger a rebuild"
        update = drift_updates[0]
        # Windows closed by the rebuild instant: everything strictly before
        # the window containing the triggering sample.
        closed_end = origin + np.floor((update.timestamp - origin) / window) * window
        aggregated = segment_by_duration(
            series.between(origin, float(closed_end)), window, "average"
        )
        expected = get_method(method).separators(aggregated.values, 4)
        assert update.table.separators == expected

    def test_push_chunk_parity_with_drift_monitoring(self):
        series = self._drift_series()
        kwargs = dict(
            alphabet_size=4, method="median", window_seconds=900.0,
            bootstrap_seconds=3600.0, drift_threshold=0.5,
        )
        per_sample = OnlineEncoder(**kwargs)
        for t, v in zip(series.timestamps, series.values):
            per_sample.push(float(t), float(v))
        chunked = OnlineEncoder(**kwargs)
        for lo in range(0, len(series), 311):
            chunked.push_chunk(
                series.timestamps[lo:lo + 311], series.values[lo:lo + 311]
            )
        assert [(w.timestamp, w.symbol.word, w.aggregated_value)
                for w in per_sample.emitted] == \
               [(w.timestamp, w.symbol.word, w.aggregated_value)
                for w in chunked.emitted]
        assert [(u.timestamp, u.reason, u.table.separators)
                for u in per_sample.table_updates] == \
               [(u.timestamp, u.reason, u.table.separators)
                for u in chunked.table_updates]


# Chunked vs per-sample parity (property-based) ----------------------------------

#: Steps between readings: mostly regular, with gaps that skip whole windows
#: and repeated timestamps, so windows come out with unequal lengths.
_steps = st.sampled_from([0.0, 60.0, 60.0, 60.0, 60.0, 60.0, 120.0, 1000.0, 3700.0])
#: Readings: a small pool (repeats, signed zeros, NaN) plus arbitrary floats.
_readings = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 2.5, 100.0, float("nan")]),
    st.floats(min_value=-50.0, max_value=1e4, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _streams(draw):
    n = draw(st.integers(1, 400))  # drawn first, so long streams are common
    steps = draw(st.lists(_steps, min_size=n, max_size=n))
    values = draw(st.lists(_readings, min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return np.cumsum(steps), np.asarray(values, dtype=np.float64), cuts


def _windows(encoder):
    return [(w.timestamp, w.symbol.word, w.aggregated_value) for w in encoder.emitted]


def _updates(encoder):
    return [(u.timestamp, u.reason, u.table.separators) for u in encoder.table_updates]


class TestChunkParityProperties:
    @given(
        stream=_streams(),
        aggregator=st.sampled_from(AGGREGATOR_CASES),
        window=st.sampled_from([300.0, 900.0]),
        bootstrap=st.sampled_from([600.0, 3600.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_push_chunk_equals_per_sample_push(
        self, stream, aggregator, window, bootstrap
    ):
        ts, values, cuts = stream
        kwargs = dict(alphabet_size=4, method="median", window_seconds=window,
                      bootstrap_seconds=bootstrap, aggregator=aggregator)
        per_sample = OnlineEncoder(**kwargs)
        for t, v in zip(ts, values):
            per_sample.push(float(t), float(v))
        per_sample.flush()
        chunked = OnlineEncoder(**kwargs)
        for lo, hi in zip([0] + cuts, cuts + [ts.size]):
            chunked.push_chunk(ts[lo:hi], values[lo:hi])
        chunked.flush()

        assert _windows(chunked) == _windows(per_sample)
        assert _updates(chunked) == _updates(per_sample)
        np.testing.assert_array_equal(
            chunked.statistics.distinct_values(),
            per_sample.statistics.distinct_values(),
        )
        np.testing.assert_array_equal(
            chunked.statistics.values(), per_sample.statistics.values()
        )

        # A small distinct cap forces sketch evictions on the same cases.
        one = RunningStatistics(max_distinct=16)
        many = RunningStatistics(max_distinct=16)
        for v in values:
            one.update(float(v))
        for lo, hi in zip([0] + cuts, cuts + [ts.size]):
            many.update_many(values[lo:hi])
        assert one.count == many.count
        assert one.maximum == many.maximum
        assert one.distinct_median == many.distinct_median
        np.testing.assert_array_equal(one.distinct_values(), many.distinct_values())
        # Bottom-k: exactly the 16 distinct values with the smallest hashes.
        distinct = np.unique(values[~np.isnan(values)] + 0.0)
        bottom = distinct[np.argsort(_hash_doubles(distinct))[:16]]
        np.testing.assert_array_equal(one.distinct_values(), np.sort(bottom))

    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e-3, 1e6]))
    @settings(max_examples=10, deadline=None)
    def test_grouped_reduction_equals_per_slice(self, seed, scale):
        rng = np.random.default_rng(seed)
        lengths = rng.permutation(np.arange(1, 301))  # every length 1..300
        ends = np.cumsum(lengths)
        starts = ends - lengths
        values = rng.lognormal(3.0, 2.0, size=int(ends[-1])) * scale
        values[rng.random(values.size) < 0.3] = 2.5  # repeats
        values[rng.random(values.size) < 0.05] = -0.0
        values[rng.random(values.size) < 0.002] = np.nan
        for aggregator in AGGREGATOR_CASES:
            scalar = AGGREGATORS.get(aggregator, aggregator)
            got = aggregate_windows(values, starts, ends, aggregator)
            want = np.array(
                [scalar(values[lo:hi]) for lo, hi in zip(starts, ends)]
            )
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
