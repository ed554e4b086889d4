"""Vertical segmentation: temporal aggregation (paper Definition 2).

Vertical segmentation reduces *numerosity*: ``n`` consecutive raw samples are
collapsed into one, using an aggregation function.  The paper uses the
average (Definition 2) and mentions sum, maximum and minimum as alternatives;
all of them are provided here, plus median, because they share the same
segmentation machinery.

Two entry points are provided:

* :func:`segment_by_count` — aggregate every ``n`` samples (the paper's
  ``VA(S, n)``), which assumes a regularly-sampled series.
* :func:`segment_by_duration` — aggregate every ``seconds`` of wall-clock
  time (e.g. 15 minutes / 1 hour), robust to gaps and irregular sampling.

Both, and the streaming encoder, reduce their windows through
:func:`aggregate_windows`: one row-wise NumPy call per distinct window
length, bit-identical to applying the aggregator to each window's slice.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from ..errors import SegmentationError
from .timeseries import TimeSeries

__all__ = [
    "Aggregator",
    "AGGREGATORS",
    "get_aggregator",
    "aggregate_windows",
    "row_reducer",
    "segment_by_count",
    "segment_by_duration",
    "VerticalSegmenter",
]

#: An aggregation function mapping a non-empty 1-D array to a scalar.
Aggregator = Callable[[np.ndarray], float]

AGGREGATORS: Dict[str, Aggregator] = {
    "average": lambda a: float(a.mean()),
    "sum": lambda a: float(a.sum()),
    "max": lambda a: float(a.max()),
    "min": lambda a: float(a.min()),
    "median": lambda a: float(np.median(a)),
}

#: Aliases accepted by :func:`get_aggregator`.
_ALIASES = {"mean": "average", "avg": "average", "maximum": "max", "minimum": "min"}

#: Row-wise twins of the built-in aggregators, keyed by the scalar function:
#: reducing a ``(windows, L)`` block along its last axis gives, bit for bit,
#: what the scalar aggregator gives on each window's slice (NumPy runs the
#: same pairwise summation and partition over each contiguous row).
_ROW_REDUCERS: Dict[Aggregator, Callable[[np.ndarray], np.ndarray]] = {
    AGGREGATORS["average"]: lambda block: block.mean(axis=-1),
    AGGREGATORS["sum"]: lambda block: block.sum(axis=-1),
    AGGREGATORS["max"]: lambda block: block.max(axis=-1),
    AGGREGATORS["min"]: lambda block: block.min(axis=-1),
    AGGREGATORS["median"]: lambda block: np.median(block, axis=-1),
}


def get_aggregator(name: Union[str, Aggregator]) -> Aggregator:
    """Resolve an aggregator by name, or pass a callable through unchanged."""
    if callable(name):
        return name
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return AGGREGATORS[key]
    except KeyError:
        raise SegmentationError(
            f"unknown aggregator {name!r}; available: {sorted(AGGREGATORS)}"
        ) from None


def row_reducer(
    name: Union[str, Aggregator],
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Last-axis reducer of a built-in aggregator (``None`` for a custom one)."""
    return _ROW_REDUCERS.get(get_aggregator(name))


def aggregate_windows(
    values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    aggregator: Union[str, Aggregator] = "average",
) -> np.ndarray:
    """Aggregate the windows ``values[starts[i]:ends[i]]`` (all non-empty).

    Built-in aggregators reduce every window of one length in a single
    row-wise call, so the cost is one NumPy reduction per distinct window
    length rather than one Python call per window; the result equals the
    per-slice aggregator bit for bit.  A user-supplied callable is applied
    per window.
    """
    agg = get_aggregator(aggregator)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts
    reducer = _ROW_REDUCERS.get(agg)
    if reducer is None:
        return np.array(
            [agg(values[lo:lo + n]) for lo, n in zip(starts.tolist(), lengths.tolist())],
            dtype=np.float64,
        )
    out = np.empty(starts.size, dtype=np.float64)
    for n in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == n)
        out[rows] = reducer(values[starts[rows, None] + np.arange(n)])
    return out


def segment_by_count(
    series: TimeSeries,
    n: int,
    aggregator: Union[str, Aggregator] = "average",
    keep_partial: bool = False,
) -> TimeSeries:
    """Aggregate every ``n`` consecutive samples into one (``VA(S, n)``).

    The timestamp of each aggregated sample is the timestamp of the *last*
    raw sample in its window (``t_{i*n}`` in Definition 2).  A trailing
    window with fewer than ``n`` samples is dropped unless ``keep_partial``.
    """
    if n < 1:
        raise SegmentationError(f"window size must be >= 1, got {n}")
    agg = get_aggregator(aggregator)
    if len(series) == 0:
        return TimeSeries.empty(series.name)
    if n == 1:
        return series

    starts = np.arange(0, len(series), n)
    ends = np.minimum(starts + n, len(series))
    if not keep_partial and ends[-1] - starts[-1] < n:
        starts, ends = starts[:-1], ends[:-1]
    return TimeSeries(
        series.timestamps[ends - 1],
        aggregate_windows(series.values, starts, ends, agg),
        name=series.name,
    )


def segment_by_duration(
    series: TimeSeries,
    seconds: float,
    aggregator: Union[str, Aggregator] = "average",
    min_samples: int = 1,
    align_to_origin: bool = True,
) -> TimeSeries:
    """Aggregate every ``seconds`` of wall-clock time into one sample.

    Windows are aligned to multiples of ``seconds`` from the first timestamp
    (``align_to_origin=True``) or from absolute time zero.  Windows with
    fewer than ``min_samples`` raw samples are skipped, which is how gaps in
    the REDD-like data propagate to missing aggregated slots.  The timestamp
    of an aggregated sample is the *start* of its window, which keeps slots
    comparable across days when building day vectors.
    """
    if seconds <= 0:
        raise SegmentationError(f"window duration must be positive, got {seconds}")
    if min_samples < 1:
        raise SegmentationError("min_samples must be >= 1")
    agg = get_aggregator(aggregator)
    if len(series) == 0:
        return TimeSeries.empty(series.name)

    timestamps = series.timestamps
    values = series.values
    origin = float(timestamps[0]) if align_to_origin else 0.0
    window_index = np.floor((timestamps - origin) / seconds).astype(np.int64)

    # Timestamps are sorted, so the samples of one window are contiguous.
    starts = np.flatnonzero(np.diff(window_index, prepend=window_index[0] - 1))
    ends = np.append(starts[1:], len(series))
    keep = ends - starts >= min_samples
    starts, ends = starts[keep], ends[keep]
    return TimeSeries(
        origin + window_index[starts].astype(np.float64) * seconds,
        aggregate_windows(values, starts, ends, agg),
        name=series.name,
    )


class VerticalSegmenter:
    """Configured vertical segmentation, reusable across series.

    Exactly one of ``count`` and ``seconds`` must be provided.  This object
    form is what :class:`repro.core.encoder.SymbolicEncoder` composes with a
    lookup table.
    """

    def __init__(
        self,
        count: int = 0,
        seconds: float = 0.0,
        aggregator: Union[str, Aggregator] = "average",
        min_samples: int = 1,
    ) -> None:
        if bool(count) == bool(seconds):
            raise SegmentationError(
                "provide exactly one of count (samples) or seconds (duration)"
            )
        self._count = int(count)
        self._seconds = float(seconds)
        self._aggregator = get_aggregator(aggregator)
        self._min_samples = min_samples

    @property
    def window_seconds(self) -> float:
        """Window length in seconds (0.0 when configured by sample count)."""
        return self._seconds

    @property
    def window_count(self) -> int:
        """Window length in samples (0 when configured by duration)."""
        return self._count

    @property
    def aggregator(self) -> Aggregator:
        """The resolved aggregation callable."""
        return self._aggregator

    def segment(self, series: TimeSeries) -> TimeSeries:
        """Apply the configured vertical segmentation to ``series``."""
        if self._count:
            return segment_by_count(series, self._count, self._aggregator)
        return segment_by_duration(
            series, self._seconds, self._aggregator, min_samples=self._min_samples
        )

    def __call__(self, series: TimeSeries) -> TimeSeries:
        return self.segment(series)

    def __repr__(self) -> str:
        if self._count:
            return f"VerticalSegmenter(count={self._count})"
        return f"VerticalSegmenter(seconds={self._seconds})"
