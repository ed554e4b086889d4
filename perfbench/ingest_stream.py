"""``ingest_stream``: the write path, raw readings to durable segments.

128 meters x 8 days of 60 s readings go through ``FleetIngestor`` one day
per ``push_chunk``, with auto-commit and drift off and an explicit
``commit`` after every day, then ``finalize``.  Each iteration ingests
into a fresh store directory; one untimed ingest of a 16-meter slice runs
first, so lazy imports and first-call costs stay out of the samples.

128 rather than 256 meters: an iteration then takes ~4 s instead of ~8,
so a 30 s run holds ~7 ``finalize`` and ~40 commit samples rather than
3-4 and ~20.  With 256 meters the medians of so few samples moved from
seed to seed by more than the bound.  The pipeline encode layer
(``core.streaming``) and the store commit (pack, CRC, fsync, manifest) do
nearly all the work; the query and serve layers do none.

End-to-end slots (``BENCHMARK.json`` names -> this workload's meaning):

* ``latency_ms_p50`` / ``latency_ms_tail``: one day made durable — its
  ``push_chunk`` plus the ``commit`` after it, for the days whose commit
  wrote a segment (during the two bootstrap days a commit finds nothing
  committable).  The commit alone is reported as ``commit_ms_p50`` /
  ``commit_ms_tail`` in the report lines and as ``store.commit_share`` in
  a traced run, not in these slots: single commits (~40 ms of small NumPy
  steps) fall into a ~30 ms and a ~48 ms mode, and the share in each mode
  changes from run to run, so over 10 seeds their median moved by a
  quarter while their tail moved by a tenth;
* ``throughput_per_s``: raw meter-days encoded and durably committed per
  second of ingest wall time;
* ``cold_ms``: ``finalize`` — flush the open windows, commit them and open
  the store: the time from end of stream to a readable store;
* ``bits_per_symbol``: final store bytes (segments and every manifest
  generation) x 8 / committed symbols.
"""

from __future__ import annotations

import shutil
import time
from statistics import median

import numpy as np

from repro.core.streaming import OnlineEncoder
from repro.obs import registry
from repro.store import FleetIngestor, SegmentedStore

from . import fleet
from .measure import (CheckFailed, Phase, another_iteration, counter_deltas,
                      dir_bytes, failed, tail)

N_METERS = 128
DAYS = 8
SAMPLES_PER_DAY = 1440          # 60 s sampling
WINDOW_SECONDS = 900.0          # 96 windows per day
ALPHABET = 8
#: Meters whose stored symbols are re-derived by an independent encoder.
CHECKED_METERS = 32
#: Meters of the untimed warm-up ingest.
WARM_UP_METERS = 16

SIZES = (f"{N_METERS} meters x {DAYS} days at 60 s, one push_chunk + "
         f"commit per day, window {WINDOW_SECONDS:g} s, alphabet {ALPHABET}")


def _encoder_args() -> dict:
    return dict(alphabet_size=ALPHABET, method="median",
                window_seconds=WINDOW_SECONDS, drift_threshold=0.0)


def setup(ctx) -> dict:
    return {
        "values": fleet.readings(ctx.seed, N_METERS, DAYS, SAMPLES_PER_DAY),
        "times": fleet.timestamps(DAYS, SAMPLES_PER_DAY),
        "seed": ctx.seed,
        "dirs": [],
    }


def teardown(state) -> None:
    for path in state["dirs"]:
        shutil.rmtree(path, ignore_errors=True)


def _warm_up(state, ctx) -> None:
    """Ingest a slice of the fleet once, untimed, into a scratch store."""
    directory = ctx.fresh_dir("warm-up") / "fleet.rsyms"
    directory.parent.mkdir(parents=True)
    state["dirs"].append(directory.parent)
    ingestor = FleetIngestor(directory, list(range(WARM_UP_METERS)),
                             segment_windows=0, workers=1, **_encoder_args())
    for day in range(DAYS):
        span = slice(day * SAMPLES_PER_DAY, (day + 1) * SAMPLES_PER_DAY)
        ingestor.push_chunk(state["times"][span],
                            state["values"][:WARM_UP_METERS, span])
        ingestor.commit()
    ingestor.finalize().close()


def _ingest_once(state, ctx, tracer, trace_id, phase, out) -> bool:
    """Ingest the fleet into a fresh store; False when an operation failed."""
    directory = ctx.fresh_dir("ingest") / "fleet.rsyms"
    directory.parent.mkdir(parents=True)
    state["dirs"].append(directory.parent)
    values, times = state["values"], state["times"]
    ingestor = FleetIngestor(directory, list(range(N_METERS)),
                             segment_windows=0, workers=1, **_encoder_args())
    busy = 0.0
    commits = 0
    for day in range(DAYS):
        span = slice(day * SAMPLES_PER_DAY, (day + 1) * SAMPLES_PER_DAY)
        phase.attempted += 2
        try:
            t0 = time.perf_counter()
            with tracer.span("pipeline.push_chunk", trace_id):
                ingestor.push_chunk(times[span], values[:, span])
            t1 = time.perf_counter()
            size_before = dir_bytes(directory)
            t2 = time.perf_counter()
            with tracer.span("store.commit", trace_id):
                windows = ingestor.commit()
            t3 = time.perf_counter()
        except Exception as exc:
            failed(phase, f"day {day}", exc)
            return False
        phase.op_seconds += [t1 - t0, t3 - t2]
        busy += (t1 - t0) + (t3 - t2)
        out["encode_s"] += t1 - t0
        if windows is not None:
            commits += 1
            out["commit_s"].append(t3 - t2)
            out["day_s"].append((t1 - t0) + (t3 - t2))
            out["commit_bytes"].append(dir_bytes(directory) - size_before)
    phase.attempted += 1
    before = registry().snapshot()
    try:
        t0 = time.perf_counter()
        with tracer.span("store.finalize", trace_id):
            store = ingestor.finalize()
        t1 = time.perf_counter()
    except Exception as exc:
        failed(phase, "finalize", exc)
        return False
    commits += counter_deltas(registry().snapshot(), before).get(
        "ingest.commits_total", 0)
    phase.op_seconds.append(t1 - t0)
    out["busy_s"] += busy + (t1 - t0)
    out["finalize_s"].append(t1 - t0)
    out["meter_days"] += N_METERS * DAYS
    with store:
        total = dir_bytes(directory)
        out["bits"] = total * 8.0 / store.n_symbols
        out["write_amp"] = total / store.payload_nbytes
        out["segments"] = store.n_segments
        out["last"] = (directory, commits)
    return True


def run(state, ctx, tracer) -> Phase:
    phase = Phase()
    out = {"encode_s": 0.0, "busy_s": 0.0, "meter_days": 0, "commit_s": [],
           "day_s": [], "commit_bytes": [], "finalize_s": []}
    _warm_up(state, ctx)
    started = time.perf_counter()
    iteration = 0
    while another_iteration(started, ctx.seconds, iteration):
        iteration += 1
        if not _ingest_once(state, ctx, tracer, iteration, phase, out):
            break
    phase.wall = time.perf_counter() - started
    state["result"] = out
    if not out["commit_s"] or not out["finalize_s"]:
        return phase

    m = phase.metrics
    day_tail, label = tail(out["day_s"])
    m["latency_ms_p50"] = phase.record(
        "day_durable_ms_p50", 1e3 * median(out["day_s"]), "ms",
        f"{len(out['day_s'])} days, push_chunk + commit")
    m["latency_ms_tail"] = phase.record(
        "day_durable_ms_tail", 1e3 * day_tail, "ms", label)
    commit_tail, label = tail(out["commit_s"])
    phase.record("commit_ms_p50", 1e3 * median(out["commit_s"]), "ms",
                 f"{len(out['commit_s'])} commits")
    phase.record("commit_ms_tail", 1e3 * commit_tail, "ms", label)
    m["throughput_per_s"] = phase.record(
        "ingest_meter_days_per_s", out["meter_days"] / out["busy_s"],
        "meter-days/s", f"{out['meter_days']} meter-days")
    m["cold_ms"] = phase.record(
        "finalize_ms_p50", 1e3 * median(out["finalize_s"]), "ms",
        f"{len(out['finalize_s'])} finalizes")
    m["bits_per_symbol"] = phase.record(
        "store_bits_per_symbol", out["bits"], "bits", "deterministic")

    layer = phase.layer
    layer["pipeline.encode_meter_days_per_s"] = (
        out["meter_days"] / out["encode_s"])
    layer["store.commit_bytes"] = float(np.mean(out["commit_bytes"]))
    layer["store.write_amplification"] = out["write_amp"]
    layer["store.segments"] = out["segments"]
    return phase


def check(state, phase) -> None:
    """The last ingested store holds exactly what independent encoders emit.

    A sample of meters is re-encoded by fresh ``OnlineEncoder`` instances
    fed all eight days in one chunk (the ingest fed one day per chunk;
    chunking must not change a symbol).  The manifest generation and the
    segment count must equal the number of commits acknowledged.
    """
    out = state.get("result") or {}
    if "last" not in out:
        raise CheckFailed("no ingest iteration completed")
    directory, commits = out["last"]
    rng = np.random.default_rng([state["seed"], 7])
    meters = sorted(rng.choice(N_METERS, size=CHECKED_METERS, replace=False))
    with SegmentedStore.open(directory) as store:
        if store.n_segments != commits:
            raise CheckFailed(
                f"{store.n_segments} segments for {commits} acknowledged commits")
        # create_segmented_store commits generation 1; each commit adds one.
        if store.generation != 1 + commits:
            raise CheckFailed(
                f"manifest generation {store.generation} after {commits} commits")
        for meter in meters:
            encoder = OnlineEncoder(**_encoder_args())
            emitted = encoder.push_chunk(state["times"], state["values"][meter])
            emitted += encoder.flush()
            expected = np.array([w.symbol.index for w in emitted], dtype=np.int64)
            stored = np.asarray(store.indices(int(meter)), dtype=np.int64)
            if not np.array_equal(stored, expected):
                raise CheckFailed(f"meter {meter}: stored symbols differ from "
                                  f"an independent OnlineEncoder run")
