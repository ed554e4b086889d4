"""Micro-benchmarks of the encoder itself (not tied to a paper figure).

These use pytest-benchmark's statistical timing (multiple rounds) because the
operations are fast: they establish that symbolisation is cheap enough to run
at the sensor (the premise of the whole paper).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SAXEncoder
from repro.core import LookupTable, OnlineEncoder, SymbolicEncoder, TimeSeries
from repro.pipeline import FleetEncoder, LookupStage, Pipeline, RLEStage, VerticalStage
from repro.store import FleetIngestor


@pytest.fixture(scope="module")
def one_day_series():
    """One day of 1 Hz readings (86 400 samples), log-normal-ish."""
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=np.log(250.0), sigma=0.8, size=86_400)
    return TimeSeries.regular(values, interval=1.0)


def test_fit_median_table_on_two_days(benchmark, one_day_series):
    values = np.concatenate([one_day_series.values, one_day_series.values])
    result = benchmark(lambda: LookupTable.fit(values, 16, method="median"))
    assert result.size == 16


def test_encode_one_day_at_15min(benchmark, one_day_series):
    encoder = SymbolicEncoder(alphabet_size=16, method="median",
                              aggregation_seconds=900.0)
    encoder.fit(one_day_series)
    encoded = benchmark(lambda: encoder.encode(one_day_series))
    assert len(encoded) == 96


def test_encode_one_day_raw_rate(benchmark, one_day_series):
    encoder = SymbolicEncoder(alphabet_size=16, method="median")
    encoder.fit(one_day_series)
    encoded = benchmark(lambda: encoder.encode(one_day_series))
    assert len(encoded) == len(one_day_series)


def test_decode_one_day(benchmark, one_day_series):
    encoder = SymbolicEncoder(alphabet_size=16, method="median")
    encoded = encoder.fit_encode(one_day_series)
    decoded = benchmark(lambda: encoded.decode())
    assert len(decoded) == len(one_day_series)


def test_online_encoder_push_throughput(benchmark, one_day_series):
    def run():
        encoder = OnlineEncoder(alphabet_size=16, window_seconds=900.0,
                                bootstrap_seconds=3600.0)
        # Push a quarter of a day sample by sample (the sensor-side hot loop).
        for timestamp, value in zip(one_day_series.timestamps[:21_600],
                                    one_day_series.values[:21_600]):
            encoder.push(float(timestamp), float(value))
        return encoder

    encoder = benchmark.pedantic(run, rounds=3, iterations=1)
    assert encoder.is_bootstrapped


def test_sax_encode_one_day(benchmark, one_day_series):
    encoder = SAXEncoder(alphabet_size=16, segments=96)
    word = benchmark(lambda: encoder.transform(one_day_series))
    assert len(word) == 96


def test_pipeline_batch_one_day(benchmark, one_day_series):
    """The unified engine: vertical + lookup + RLE in one vectorized pass."""
    table = LookupTable.fit(one_day_series.values, 16, method="median")
    pipe = Pipeline([VerticalStage(900), LookupStage(table), RLEStage()])
    runs = benchmark(lambda: pipe.run_batch(one_day_series.values))
    assert runs[:, 1].sum() == 96


def test_fleet_encode_1000_meters_shared_table(benchmark):
    """1000 meters x 1 day at minutely sampling, one global table."""
    rng = np.random.default_rng(1)
    values = rng.lognormal(mean=np.log(250.0), sigma=0.8, size=(1000, 1440))
    fleet = FleetEncoder(alphabet_size=16, method="median",
                         window=15, shared_table=True)
    fleet.fit(values)
    indices = benchmark(lambda: fleet.encode(values))
    assert indices.shape == (1000, 96)


def test_fleet_encode_1000_meters_per_meter_tables(benchmark):
    """Same fleet with one local table per meter (Fig. 7 comparison)."""
    rng = np.random.default_rng(1)
    values = rng.lognormal(mean=np.log(250.0), sigma=0.8, size=(1000, 1440))
    fleet = FleetEncoder(alphabet_size=16, method="median",
                         window=15, shared_table=False)
    fleet.fit(values)
    indices = benchmark(lambda: fleet.encode(values))
    assert indices.shape == (1000, 96)


def test_online_chunked_push_one_day(benchmark, one_day_series):
    """The vectorized streaming path: one day pushed in 15-minute chunks."""
    chunk = 900

    def run():
        encoder = OnlineEncoder(alphabet_size=16, window_seconds=900.0,
                                bootstrap_seconds=3600.0)
        for lo in range(0, len(one_day_series), chunk):
            encoder.push_chunk(one_day_series.timestamps[lo:lo + chunk],
                               one_day_series.values[lo:lo + chunk])
        encoder.flush()
        return encoder

    encoder = benchmark.pedantic(run, rounds=3, iterations=1)
    assert encoder.is_bootstrapped


def test_fleet_ingest_push_chunk_throughput(benchmark, tmp_path):
    """Streaming fleet ingest: 64 meters x 3 days at 60 s into a store.

    One ``push_chunk`` + ``commit`` per day (the first two days bootstrap
    each meter's table), then ``finalize``; every round ingests into a
    fresh store directory.
    """
    n_meters, days, per_day = 64, 3, 1440
    rng = np.random.default_rng(5)
    values = rng.lognormal(mean=np.log(250.0), sigma=0.8, size=(n_meters, days * per_day))
    times = np.arange(days * per_day) * 60.0

    def fresh_store():
        return (Path(tempfile.mkdtemp(dir=tmp_path)) / "fleet.rsyms",), {}

    def run(directory):
        ingestor = FleetIngestor(
            directory, list(range(n_meters)), alphabet_size=8,
            window_seconds=900.0,
        )
        for day in range(days):
            span = slice(day * per_day, (day + 1) * per_day)
            ingestor.push_chunk(times[span], values[:, span])
            ingestor.commit()
        with ingestor.finalize() as store:
            return store.n_symbols

    n_symbols = benchmark.pedantic(run, setup=fresh_store, rounds=3)
    assert n_symbols == n_meters * days * 96
    benchmark.extra_info["meter_days_per_s"] = (
        n_meters * days / benchmark.stats.stats.mean
    )
