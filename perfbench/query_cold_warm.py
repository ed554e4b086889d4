"""``query_cold_warm``: in-process reads on the large fleet.

4096 meters x 8 daily segments of 96 windows are written once in set-up.
Each iteration opens the store cold (``QueryEngine.open``, then ``index``
— no sidecar is written, so this builds the pruning index in memory) and
answers one 4-query kNN; it then runs a seeded closed-loop mix from a
single caller: 4-query kNN (k=5), ``aggregate``, ``match`` and ``anomaly``
over 256-meter subsets, and fleet ``drift``.  The store and query layers
do the work (open/read, index/plan/distance, segment fan-out); the serve
layer does none.  One untimed cold open, kNN and pass through the mix run
first, so lazy imports and first-call costs stay out of the samples.

End-to-end slots (``BENCHMARK.json`` names -> this workload's meaning):

* ``latency_ms_p50`` / ``latency_ms_tail``: one warm 4-query kNN;
* ``throughput_per_s``: warm mix operations per second;
* ``cold_ms``: open + index + the first kNN on a freshly opened store;
* ``bits_per_symbol``: store bytes x 8 / stored symbols.
"""

from __future__ import annotations

import shutil
import time
from statistics import median

import numpy as np

from repro.obs import registry
from repro.query import QueryConfig, QueryEngine
from repro.store import write_segmented_fleet

from . import fleet
from .measure import (CheckFailed, Phase, another_iteration, counter_deltas,
                      dir_bytes, failed, tail)

N_METERS = 4096
DAYS = 8
WINDOWS_PER_DAY = 96
ALPHABET = 8
K = 5
N_QUERIES = 4
SUBSET = 256
#: The warm mix run after each cold open: operation -> count.  Every
#: iteration runs exactly this mix in a seeded order, so a run's cost does
#: not depend on how the seed happened to weight the operations.
MIX = (("knn", 4), ("agg", 2), ("match", 2), ("anomaly", 1), ("drift", 1))
MIX_PER_ITERATION = sum(count for _, count in MIX)
#: Run-level patterns over the 8-letter alphabet: standby stretches, a
#: standby-to-peak climb, a short plateau.
PATTERNS = ("a{8,}", "a{4,} * h", "b{2,6} c", "g{2,}", "a b c d")
#: kNN calls whose results are re-derived by brute force after the run.
CHECKED_KNN = 3

SIZES = (f"{N_METERS} meters x {DAYS} segments x {WINDOWS_PER_DAY} windows, "
         f"alphabet {ALPHABET}; {N_QUERIES}-query kNN k={K}; "
         f"{SUBSET}-meter subsets; {MIX_PER_ITERATION} mix ops per cold open")


def setup(ctx) -> dict:
    values = fleet.readings(ctx.seed, N_METERS, DAYS, WINDOWS_PER_DAY,
                            stream=1)
    directory = ctx.fresh_dir("query") / "fleet.rsyms"
    directory.parent.mkdir(parents=True)
    write_segmented_fleet(
        directory, values, alphabet_size=ALPHABET,
        segment_windows=WINDOWS_PER_DAY, sampling_interval=900.0,
    ).close()
    return {"values": values, "path": directory}


def teardown(state) -> None:
    shutil.rmtree(state["path"].parent, ignore_errors=True)


def _queries(rng, values) -> np.ndarray:
    """Query vectors near real meters: a meter's day-pattern, rescaled."""
    rows = rng.choice(values.shape[0], size=N_QUERIES, replace=False)
    return values[rows] * rng.lognormal(0.0, 0.2, size=(N_QUERIES, 1))


def _mix(rng) -> list:
    ops = [name for name, count in MIX for _ in range(count)]
    return [ops[i] for i in rng.permutation(len(ops))]


def _draw(rng, op, values):
    if op == "knn":
        return _queries(rng, values)
    if op == "drift":
        return None
    meters = sorted(int(m) for m in rng.choice(N_METERS, SUBSET, replace=False))
    if op == "match":
        return PATTERNS[rng.integers(len(PATTERNS))], meters
    return meters


def _call(engine, op, arg):
    if op == "knn":
        return engine.knn(arg, QueryConfig(k=K))
    if op == "agg":
        return engine.aggregate(meters=arg)
    if op == "match":
        return engine.match(arg[0], meters=arg[1])
    if op == "anomaly":
        return engine.anomaly(meters=arg)
    return engine.drift()


def _warm_up(state, ctx) -> None:
    """One untimed cold open, kNN and mix, on draws of their own."""
    rng = np.random.default_rng([ctx.seed, 4])
    with QueryEngine.open(state["path"]) as engine:
        engine.index()
        engine.knn(_queries(rng, state["values"]), QueryConfig(k=K))
        for op in _mix(rng):
            _call(engine, op, _draw(rng, op, state["values"]))


def run(state, ctx, tracer) -> Phase:
    phase = Phase()
    rng = np.random.default_rng([ctx.seed, 1])
    values = state["values"]
    cold, knn, mix_ops, mix_s = [], [], 0, 0.0
    refined = candidates = knn_queries = 0
    sampled = []
    query_ops = 0
    _warm_up(state, ctx)
    before = registry().snapshot()
    started = time.perf_counter()
    iteration = 0
    while another_iteration(started, ctx.seconds, iteration):
        iteration += 1
        queries = _queries(rng, values)
        phase.attempted += 3
        engine = None
        try:
            t0 = time.perf_counter()
            with tracer.span("store.open", iteration):
                engine = QueryEngine.open(state["path"])
            with tracer.span("query.index", iteration):
                engine.index()
            with tracer.span("query.knn", iteration):
                result = engine.knn(queries, QueryConfig(k=K))
            t1 = time.perf_counter()
        except Exception as exc:
            failed(phase, "cold open", exc)
            if engine is not None:
                engine.close()
            break
        cold.append(t1 - t0)
        phase.op_seconds.append(t1 - t0)
        query_ops += 2
        refined += result.stats.refined
        candidates += result.stats.n_candidates * result.stats.n_queries
        knn_queries += result.stats.n_queries
        if not sampled:
            sampled.append((queries, result))
        with engine:
            for op in _mix(rng):
                arg = _draw(rng, op, values)
                phase.attempted += 1
                try:
                    t0 = time.perf_counter()
                    with tracer.span(f"query.{op}", iteration):
                        result = _call(engine, op, arg)
                    t1 = time.perf_counter()
                except Exception as exc:
                    failed(phase, op, exc)
                    continue
                phase.op_seconds.append(t1 - t0)
                mix_ops += 1
                query_ops += 1
                mix_s += t1 - t0
                if op == "knn":
                    knn.append(t1 - t0)
                    refined += result.stats.refined
                    candidates += (result.stats.n_candidates
                                   * result.stats.n_queries)
                    knn_queries += result.stats.n_queries
                    if len(sampled) < CHECKED_KNN:
                        sampled.append((arg, result))
    phase.wall = time.perf_counter() - started
    work = counter_deltas(registry().snapshot(), before)
    state["sampled"] = sampled
    if not cold or len(knn) < 2:
        return phase

    knn_tail, label = tail(knn)
    m = phase.metrics
    m["cold_ms"] = phase.record(
        "cold_query_ms", 1e3 * median(cold), "ms", f"median of {len(cold)}")
    m["latency_ms_p50"] = phase.record(
        "knn_ms_p50", 1e3 * median(knn), "ms", f"{len(knn)} warm kNN")
    m["latency_ms_tail"] = phase.record(
        "knn_ms_tail", 1e3 * knn_tail, "ms", label)
    m["throughput_per_s"] = phase.record(
        "query_mix_ops_per_s", mix_ops / mix_s, "ops/s", f"{mix_ops} ops")
    total = dir_bytes(state["path"])
    engine = QueryEngine.open(state["path"])
    with engine:
        m["bits_per_symbol"] = phase.record(
            "store_bits_per_symbol", total * 8.0 / engine.store.n_symbols,
            "bits", "deterministic")
        layer = phase.layer
        layer["store.write_amplification"] = total / engine.store.payload_nbytes
        layer["store.commit_bytes"] = total / engine.store.n_segments
        layer["store.segments"] = engine.store.n_segments
    layer["query.knn_refined_per_query"] = refined / knn_queries
    layer["query.knn_pruned_fraction"] = 1.0 - refined / candidates
    layer["query.columns_decoded_per_op"] = (
        work.get("store.columns_decoded_total", 0) / query_ops)
    layer["query.bytes_read_per_op"] = (
        work.get("store.bytes_decoded_total", 0) / query_ops)
    layer["query.blocks_read_per_op"] = (
        work.get("store.blocks_read_total", 0) / query_ops)
    return phase


def check(state, phase) -> None:
    """Sampled kNN answers equal ``brute_force_knn`` exactly."""
    sampled = state.get("sampled") or []
    if not sampled:
        raise CheckFailed("no kNN answer was sampled")
    with QueryEngine.open(state["path"]) as engine:
        for queries, result in sampled:
            truth = engine.brute_force_knn(queries, k=K)
            if not (np.array_equal(truth.positions, result.positions)
                    and np.array_equal(truth.distances, result.distances)):
                raise CheckFailed("kNN answer differs from brute force")
