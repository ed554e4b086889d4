"""Online conversion of measurements into symbols (paper Section 2).

The paper stresses that symbolisation must work *online*: the sensor sees one
measurement at a time, cannot look at future data, and must ship a stable
lookup table to the aggregation server before it starts emitting symbols.
This module provides the sensor-side state machines:

* :class:`RunningStatistics` — O(1)-memory accumulators for the mean and
  bounded-memory quantile estimates used to learn separators incrementally
  (this is what Figure 4 plots as the data accumulates).
* :class:`OnlineEncoder` — the full sensor pipeline: a bootstrap phase that
  buffers raw values until enough history is available, then a streaming
  phase that aggregates each vertical window and emits one symbol per window.
  Optionally monitors distribution drift and rebuilds the lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import SegmentationError
from .alphabet import BinaryAlphabet, Symbol
from .horizontal import SymbolicSeries
from .lookup import LookupTable
from .separators import SeparatorMethod, get_method
from .timeseries import TimeSeries
from .vertical import (Aggregator, aggregate_windows, get_aggregator,
                       segment_by_duration)

__all__ = ["RunningStatistics", "OnlineEncoder", "EncodedWindow", "TableUpdate"]


def _hash_doubles(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of float64 bit patterns (splitmix64 finaliser).

    Used by the bounded distinct-value sketch: keeping the ``k`` values with
    the *smallest* hashes is a uniform random sample of the distinct values
    seen so far.  The mix is a bijection on 64-bit patterns, so distinct
    values never tie and the sample is independent of arrival order and of
    how the stream was chunked.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    with np.errstate(over="ignore"):
        z = bits + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class RunningStatistics:
    """Incremental mean / median / distinct-median / maximum estimates.

    Memory is O(``max_samples`` + ``max_distinct``) however long the stream:

    * a bounded reservoir of raw values keeps quantile statistics exact up to
      ``max_samples`` values and reservoir-sampled beyond (the REDD bootstrap
      window — two days at 1 Hz, 172 800 samples — fits comfortably);
    * distinct values are tracked with a bottom-k hash sketch (the
      ``max_distinct`` values with the smallest hashes) kept as a sorted
      array.  New values collect in a pending buffer that is folded into the
      sketch in bulk once it holds ``max_distinct`` values or when a distinct
      statistic is read, so at most ``2 * max_distinct`` values are held.
      The sketch is exact while the stream has at most ``max_distinct``
      distinct values and an unbiased uniform sample of them beyond that,
      and it does not depend on arrival order or chunking (``0.0`` and
      ``-0.0`` count as one value);
    * the maximum is a dedicated running scalar, never subject to reservoir
      eviction, so ``uniform``-method separator rebuilds always see the true
      ``[0, max]`` range.
    """

    def __init__(
        self,
        max_samples: int = 500_000,
        seed: int = 7,
        max_distinct: int = 100_000,
    ) -> None:
        if max_samples < 1:
            raise SegmentationError("max_samples must be >= 1")
        if max_distinct < 1:
            raise SegmentationError("max_distinct must be >= 1")
        self._max_samples = max_samples
        self._max_distinct = max_distinct
        self._rng = np.random.default_rng(seed)
        self._count = 0
        self._sum = 0.0
        self._maximum = float("-inf")
        self._reservoir: List[float] = []
        # Bottom-k distinct sketch (sorted) and the values not yet folded in.
        self._distinct = np.empty(0, dtype=np.float64)
        self._pending: list = []
        self._pending_count = 0

    # -- distinct sketch ---------------------------------------------------------

    def _add_distinct(self, values: Union[float, np.ndarray]) -> None:
        """Queue a value or an array for the sketch; fold once enough wait."""
        self._pending.append(values)
        self._pending_count += np.size(values)
        if self._pending_count >= self._max_distinct:
            self._fold()

    def _fold(self) -> None:
        """Merge the pending values into the bottom-k sketch."""
        if not self._pending:
            return
        # + 0.0 maps -0.0 to 0.0 (np.unique already treats them as equal).
        merged = np.unique(np.hstack([self._distinct, *self._pending]) + 0.0)
        if merged.size > self._max_distinct:
            keep = np.argpartition(_hash_doubles(merged), self._max_distinct - 1)
            merged = np.sort(merged[keep[:self._max_distinct]])
        self._distinct = merged
        self._pending, self._pending_count = [], 0

    def update(self, value: float) -> None:
        """Feed one measurement."""
        if np.isnan(value):
            return
        value = float(value)
        self._add_distinct(value)
        self._update_scalar_only(value)

    def update_many(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Feed a batch of measurements (vectorized while under capacity).

        While the reservoir is below ``max_samples`` this is a bulk extend —
        identical contents and order to feeding values one by one.  Once the
        reservoir is full it falls back to the per-value reservoir sampling
        so the random replacement sequence stays exactly reproducible.  The
        distinct sketch and the running maximum are order-independent, so
        they are always updated in bulk.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        arr = arr[~np.isnan(arr)]
        if arr.size == 0:
            return
        self._add_distinct(arr)
        room = self._max_samples - len(self._reservoir)
        if arr.size <= room:
            self._count += arr.size
            self._sum += float(arr.sum())
            self._maximum = max(self._maximum, float(arr.max()))
            self._reservoir.extend(arr.tolist())
            return
        # Full reservoir: the value reservoir replays per-value to keep the
        # random replacement sequence identical to repeated update() calls.
        for value in arr:
            self._update_scalar_only(float(value))

    def _update_scalar_only(self, value: float) -> None:
        """Count/sum/maximum/reservoir update for one value (no distinct)."""
        self._count += 1
        self._sum += value
        if value > self._maximum:
            self._maximum = value
        if len(self._reservoir) < self._max_samples:
            self._reservoir.append(value)
        else:
            # Standard reservoir sampling keeps a uniform sample of the stream.
            j = int(self._rng.integers(0, self._count))
            if j < self._max_samples:
                self._reservoir[j] = value

    @property
    def count(self) -> int:
        """Number of measurements seen so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Accumulative mean (0.0 before any data)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def median(self) -> float:
        """Accumulative median estimate."""
        if not self._reservoir:
            return 0.0
        return float(np.median(self._reservoir))

    @property
    def distinct_median(self) -> float:
        """Accumulative median of distinct values (sketch-sampled past the cap)."""
        self._fold()
        return float(np.median(self._distinct)) if self._distinct.size else 0.0

    @property
    def distinct_count(self) -> int:
        """Number of distinct values currently retained (capped at ``max_distinct``)."""
        self._fold()
        return self._distinct.size

    def distinct_values(self) -> np.ndarray:
        """Sorted snapshot of the distinct values the sketch retains."""
        self._fold()
        return self._distinct.copy()

    @property
    def maximum(self) -> float:
        """Largest value seen over the whole stream (0.0 before any data).

        A dedicated running scalar — *not* the reservoir maximum, which can
        lose the true peak to sampling eviction once the stream exceeds
        ``max_samples`` values.
        """
        return self._maximum if self._count else 0.0

    def values(self) -> np.ndarray:
        """Snapshot of the retained sample (for separator learning)."""
        return np.asarray(self._reservoir, dtype=np.float64)

    def learning_values(self) -> np.ndarray:
        """Reservoir snapshot guaranteed to contain the true stream maximum.

        Separator learning is quantile- or range-based; appending the running
        maximum when reservoir sampling has evicted it keeps the
        ``uniform`` method's ``[0, max]`` range exact while perturbing the
        quantile methods by at most one sample out of ``max_samples``.
        While the reservoir is below capacity this is exactly
        :meth:`values` — bit-identical learning, nothing appended.
        """
        arr = self.values()
        if arr.size and self._maximum > float(arr.max()):
            arr = np.append(arr, self._maximum)
        return arr

    def snapshot(self) -> dict:
        """All three accumulative statistics at once (Figure 4 series)."""
        return {
            "count": self._count,
            "mean": self.mean,
            "median": self.median,
            "distinctmedian": self.distinct_median,
        }


@dataclass(frozen=True)
class EncodedWindow:
    """One symbol emitted by the online encoder for a closed vertical window."""

    timestamp: float
    symbol: Symbol
    aggregated_value: float


@dataclass(frozen=True)
class TableUpdate:
    """Emitted when the online encoder (re)builds its lookup table."""

    timestamp: float
    table: LookupTable
    reason: str


class OnlineEncoder:
    """Sensor-side streaming pipeline: bootstrap, then symbol-per-window.

    Parameters
    ----------
    alphabet_size, method, aggregator:
        Same meaning as in :class:`repro.core.encoder.SymbolicEncoder`.
    window_seconds:
        Vertical-segmentation window (e.g. 900 or 3600 seconds).
    bootstrap_seconds:
        How much history to accumulate before building the first lookup table
        (two days in the paper).
    drift_threshold:
        If greater than zero, the encoder keeps updating its running
        statistics after bootstrap and rebuilds the lookup table when the
        relative change of the running median versus the table-building
        median exceeds this fraction (paper: "rebuilding and resending the
        lookup table ... if the distribution of the data changes too much").
    """

    def __init__(
        self,
        alphabet_size: int = 8,
        method: Union[str, SeparatorMethod] = "median",
        window_seconds: float = 900.0,
        bootstrap_seconds: float = 2 * 86400.0,
        aggregator: Union[str, Aggregator] = "average",
        drift_threshold: float = 0.0,
    ) -> None:
        if window_seconds <= 0:
            raise SegmentationError("window_seconds must be positive")
        if bootstrap_seconds <= 0:
            raise SegmentationError("bootstrap_seconds must be positive")
        self.alphabet_size = int(alphabet_size)
        self._method = method if isinstance(method, SeparatorMethod) else get_method(method)
        self._window_seconds = float(window_seconds)
        self._bootstrap_seconds = float(bootstrap_seconds)
        self._aggregator = get_aggregator(aggregator)
        self._drift_threshold = float(drift_threshold)

        self._stats = RunningStatistics()
        # Aggregated (per-window) values, the distribution the lookup table
        # actually quantises: drift rebuilds learn from this accumulator so
        # they stay consistent with the bootstrap fit (see _maybe_rebuild).
        self._window_stats = RunningStatistics()
        self._bootstrap_values: List[float] = []
        self._bootstrap_aggregates: List[float] = []
        self._bootstrap_start: Optional[float] = None
        self._table: Optional[LookupTable] = None
        self._table_median: float = 0.0

        self._window_start: Optional[float] = None
        self._window_values: List[float] = []

        self._emitted: List[EncodedWindow] = []
        self._updates: List[TableUpdate] = []

    # -- public state -------------------------------------------------------------

    @property
    def is_bootstrapped(self) -> bool:
        """Whether the first lookup table has been built."""
        return self._table is not None

    @property
    def table(self) -> Optional[LookupTable]:
        """Current lookup table (``None`` during bootstrap)."""
        return self._table

    @property
    def table_updates(self) -> List[TableUpdate]:
        """All (re)builds of the lookup table, in order."""
        return list(self._updates)

    @property
    def statistics(self) -> RunningStatistics:
        """The running statistics accumulator (Figure 4 data source)."""
        return self._stats

    @property
    def emitted(self) -> List[EncodedWindow]:
        """Every symbol emitted so far."""
        return list(self._emitted)

    # -- feeding data -----------------------------------------------------------------

    def push(self, timestamp: float, value: float) -> List[EncodedWindow]:
        """Feed one raw measurement; return any symbols emitted by this push.

        During bootstrap nothing is emitted.  Once the bootstrap window has
        elapsed, the buffered history is (a) used to build the lookup table
        and (b) replayed through the window aggregator so no data is lost.
        """
        if np.isnan(value):
            return []
        self._stats.update(value)

        if self._table is None:
            if self._bootstrap_start is None:
                self._bootstrap_start = timestamp
            if timestamp - self._bootstrap_start < self._bootstrap_seconds:
                # Still inside the half-open bootstrap window [start, start + T).
                self._bootstrap_values.append(value)
                self._bootstrap_aggregates.append(timestamp)
                return []
            emitted = self._finish_bootstrap(timestamp)
            emitted.extend(self._feed_window(timestamp, value))
            return emitted

        emitted = self._feed_window(timestamp, value)
        if self._drift_threshold > 0:
            self._maybe_rebuild(timestamp)
        return emitted

    def push_series(self, series: TimeSeries) -> List[EncodedWindow]:
        """Feed a whole series, returning every symbol emitted.

        Without drift monitoring this takes the vectorized chunk path
        (:meth:`push_chunk`); with ``drift_threshold > 0`` the chunk path
        itself falls back to per-sample pushes because the drift check runs
        after every value.
        """
        return self.push_chunk(series.timestamps, series.values)

    def push_chunk(
        self,
        timestamps: Union[Sequence[float], np.ndarray],
        values: Union[Sequence[float], np.ndarray],
    ) -> List[EncodedWindow]:
        """Feed a chunk of measurements at once (vectorized fast path).

        Produces exactly the windows, symbols and table that the equivalent
        sequence of :meth:`push` calls would — the streaming parity tests
        assert this — with array operations per chunk rather than Python
        work per sample: the running statistics take the chunk in bulk, and
        the closed windows are aggregated (one row-wise reduction per
        distinct window length), recorded and encoded in one pass each.
        The only per-window Python work left is building the returned
        :class:`EncodedWindow` objects.  Chunks with out-of-order timestamps,
        or any chunk while drift monitoring is enabled, fall back to the
        equivalent per-sample pushes to keep straggler handling and rebuild
        timing identical.

        Exactness caveat: window boundaries here are computed on the grid
        ``origin + k * window_seconds`` (one multiplication), while the
        per-sample loop accumulates ``window_start += window_seconds``.  The
        two agree bit-for-bit whenever ``window_seconds`` is exactly
        representable in binary floating point (any integral number of
        seconds — the paper's 900 s / 3600 s — or binary fraction); for
        widths like 0.1 s the accumulated per-sample grid drifts by ULPs
        and boundary samples may land in adjacent windows.
        """
        ts = np.asarray(timestamps, dtype=np.float64).ravel()
        vals = np.asarray(values, dtype=np.float64).ravel()
        if ts.shape != vals.shape:
            raise SegmentationError(
                f"length mismatch: {ts.shape[0]} timestamps vs {vals.shape[0]} values"
            )
        if self._drift_threshold > 0 or (
            ts.size > 1 and np.any(np.diff(ts) < 0)
        ):
            # Drift monitoring checks after every value; out-of-order
            # timestamps need the per-sample loop's straggler handling
            # (late samples join the currently open window).
            out: List[EncodedWindow] = []
            for t, v in zip(ts, vals):
                out.extend(self.push(float(t), float(v)))
            return out
        keep = ~np.isnan(vals)
        ts, vals = ts[keep], vals[keep]
        if ts.size == 0:
            return []
        self._stats.update_many(vals)

        emitted: List[EncodedWindow] = []
        start = 0
        if self._table is None:
            if self._bootstrap_start is None:
                self._bootstrap_start = float(ts[0])
            # First index past the half-open bootstrap window [start, start+T).
            cut = int(
                np.searchsorted(
                    ts, self._bootstrap_start + self._bootstrap_seconds, side="left"
                )
            )
            self._bootstrap_values.extend(vals[:cut].tolist())
            self._bootstrap_aggregates.extend(ts[:cut].tolist())
            if cut == ts.size:
                return []
            emitted.extend(self._finish_bootstrap(float(ts[cut])))
            start = cut
        emitted.extend(self._feed_window_chunk(ts[start:], vals[start:]))
        return emitted

    def flush(self) -> List[EncodedWindow]:
        """Close the currently open window (end-of-stream)."""
        if self._table is None or not self._window_values:
            return []
        emitted = [self._close_window()]
        return emitted

    def to_symbolic_series(self, name: str = "") -> SymbolicSeries:
        """All emitted symbols as a :class:`SymbolicSeries`."""
        if self._table is None:
            raise SegmentationError("encoder is still bootstrapping; no symbols yet")
        return SymbolicSeries(
            [w.timestamp for w in self._emitted],
            [w.symbol for w in self._emitted],
            self._table,
            name=name,
        )

    # -- internals ------------------------------------------------------------------------

    def _finish_bootstrap(self, timestamp: float) -> List[EncodedWindow]:
        values = np.asarray(self._bootstrap_values, dtype=np.float64)
        timestamps = np.asarray(self._bootstrap_aggregates, dtype=np.float64)
        # Learn separators on the *aggregated* bootstrap data, consistent with
        # SymbolicEncoder.fit().
        bootstrap_series = TimeSeries(timestamps, values)
        aggregated = segment_by_duration(
            bootstrap_series, self._window_seconds, self._aggregator
        )
        source = aggregated if len(aggregated) >= self.alphabet_size else bootstrap_series
        separators = self._method.separators(source, self.alphabet_size)
        self._table = LookupTable(
            alphabet=BinaryAlphabet(self.alphabet_size),
            separators=separators,
        )
        self._table_median = self._stats.median
        self._updates.append(TableUpdate(timestamp, self._table, reason="bootstrap"))

        # Replay the bootstrap data through the windowing logic so the
        # symbols for the bootstrap period are also emitted.
        emitted = self._feed_window_chunk(timestamps, values)
        self._bootstrap_values = []
        self._bootstrap_aggregates = []
        return emitted

    def _feed_window_chunk(
        self, timestamps: np.ndarray, values: np.ndarray
    ) -> List[EncodedWindow]:
        """Vectorized equivalent of per-sample :meth:`_feed_window` calls.

        Samples are grouped by their window slot relative to the current
        ``_window_start``; every group but the last closes a window (empty
        slots are skipped, exactly like the per-sample loop), and the last
        group replaces the open window buffer.  A first group that continues
        the open window is closed on its own; the other closed windows are
        aggregated, recorded and encoded in one array pass.
        """
        emitted: List[EncodedWindow] = []
        if timestamps.size == 0:
            return emitted
        if self._window_start is None:
            self._window_start = float(timestamps[0])
        origin = self._window_start
        width = self._window_seconds
        buckets = np.floor((timestamps - origin) / width).astype(np.int64)
        # Out-of-order stragglers before the open window join it, as in the
        # per-sample loop (whose close condition never looks backwards).
        np.maximum(buckets, 0, out=buckets)
        starts = np.flatnonzero(np.diff(buckets, prepend=-1))
        ends = np.append(starts[1:], timestamps.size)

        if self._window_values:
            if buckets[0] > 0:
                # The chunk starts past the open window: close it first.
                emitted.append(self._close_window())
            else:
                # The first group continues the open window.
                self._window_values.extend(values[:ends[0]].tolist())
                if starts.size == 1:
                    return emitted
                emitted.append(self._close_window())
                starts, ends = starts[1:], ends[1:]
            self._window_start = origin  # _close_window advanced by one slot
        if starts.size > 1:
            assert self._table is not None
            aggregated = aggregate_windows(
                values, starts[:-1], ends[:-1], self._aggregator
            )
            self._window_stats.update_many(aggregated)
            symbols = self._table.symbols_for_indices(
                self._table.indices_for_values(aggregated)
            )
            windows = list(map(
                EncodedWindow,
                (origin + buckets[starts[:-1]] * width).tolist(),
                symbols,
                aggregated.tolist(),
            ))
            self._emitted.extend(windows)
            emitted.extend(windows)
        # Last group stays open until a later sample closes it.
        self._window_start = origin + int(buckets[starts[-1]]) * width
        self._window_values = values[starts[-1]:].tolist()
        return emitted

    def _feed_window(self, timestamp: float, value: float) -> List[EncodedWindow]:
        emitted: List[EncodedWindow] = []
        if self._window_start is None:
            self._window_start = timestamp
        while timestamp - self._window_start >= self._window_seconds:
            if self._window_values:
                emitted.append(self._close_window())
            else:
                # Empty window (gap): just advance to the next slot.
                self._window_start += self._window_seconds
        self._window_values.append(value)
        return emitted

    def _close_window(self) -> EncodedWindow:
        assert self._table is not None and self._window_start is not None
        aggregated = self._aggregator(np.asarray(self._window_values, dtype=np.float64))
        self._window_stats.update(aggregated)
        symbol = self._table.symbol_for_value(aggregated)
        window = EncodedWindow(
            timestamp=self._window_start,
            symbol=symbol,
            aggregated_value=aggregated,
        )
        self._emitted.append(window)
        self._window_start += self._window_seconds
        self._window_values = []
        return window

    def _maybe_rebuild(self, timestamp: float) -> None:
        """Rebuild the lookup table when the raw-value median drifts too far.

        Drift is *detected* on the raw running median (the paper's Figure 4
        monitor), but the replacement separators are *learned* from the
        accumulated window-aggregated values — the same distribution
        :meth:`_finish_bootstrap` (and a fresh ``SymbolicEncoder.fit()`` on
        the same history) learns from, since aggregated values are what the
        table quantises.  Learning from the raw reservoir instead would
        systematically disagree with every batch fit (raw readings repeat at
        standby levels; hourly averages almost never do).  When fewer than
        ``alphabet_size`` windows have closed, the raw sample is used as a
        fallback, mirroring the bootstrap fit.  Both samples come through
        :meth:`RunningStatistics.learning_values`, so ``uniform`` rebuilds
        keep the exact stream maximum even after reservoir eviction.
        """
        if self._table is None or self._table_median == 0:
            return
        current = self._stats.median
        drift = abs(current - self._table_median) / abs(self._table_median)
        if drift > self._drift_threshold:
            source = self._window_stats.learning_values()
            if source.size < self.alphabet_size:
                source = self._stats.learning_values()
            separators = self._method.separators(source, self.alphabet_size)
            self._table = LookupTable(self._table.alphabet, separators)
            self._table_median = current
            self._updates.append(
                TableUpdate(timestamp, self._table, reason=f"drift={drift:.3f}")
            )
