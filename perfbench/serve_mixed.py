"""``serve_mixed``: HTTP reads interleaved with appends, over a server process.

A ``python -m repro serve`` subprocess exports five byte-identical copies
of a 2048-meter x 4-segment store.  ``static`` serves the read mix;
``live0`` .. ``live3`` take the appends, in turn.  The server runs in its
own process so that client-side JSON decoding does not share its
interpreter lock.

Load is an open loop from one sender: request ``i`` is due at
``i / RATE`` seconds, so a slow answer delays the requests behind it and
their latency, timed from when they were due, shows it (see ``_Loop``).
The read mix is small reads (aggregate over 16 meters, 1-query kNN) and
large reads (full-fleet aggregate, ~140 KB of JSON).  Every
``APPEND_EVERY``-th request appends one day to the next live store and
reads it back at once.  Nothing else reads the live stores, so that
read-back is the read that pays the server's hot reload.

An append and its reload cost grow with the segments a store holds (on a
2 vCPU host ~0.5 s at 5 segments, ~1.6 s at 23).  Spreading the appends
over four stores keeps each under ten segments, so a run holds 16 writes
of similar cost instead of a few of steeply rising cost; with six writes
a run, the median write moved from seed to seed by more than the bound.

``RATE`` was chosen from a probe on a 2 vCPU host: the read mix costs
~27 ms per request end to end (server and client) and a kNN read up to
~100 ms.  At 8 requests/s (125 ms apart) the sender is about a fifth
busy and even a slow kNN answer rarely makes the next read late, so the
median read measures the full-fleet aggregate itself rather than
queueing.  At 12 requests/s a slow host period pushed kNN answers past
the 83 ms interval, and the median read moved by 0.29 (IQR / median
over 10 seeds).  A write pauses the schedule, so the run is sized from
``WRITE_ESTIMATE_S``: ``--seconds`` of reads at ``RATE`` and writes.

End-to-end slots (``BENCHMARK.json`` names -> this workload's meaning):

* ``latency_ms_p50`` / ``latency_ms_tail``: one HTTP read, from due time;
* ``throughput_per_s``: requests completed per second;
* ``cold_ms``: append + read-back, the time from sending a day to reading
  it back (the append's commit and the hot reload), median;
* ``bits_per_symbol``: live store bytes x 8 / symbols, after appends.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.query import QueryConfig, QueryEngine
from repro.serve import ServeClient
from repro.store import SegmentedStore, write_segmented_fleet

from . import fleet
from .measure import CheckFailed, Phase, dir_bytes, failed, tail

N_METERS = 2048
SEGMENTS = 4
WINDOWS_PER_DAY = 96
ALPHABET = 8
RATE = 8.0
APPEND_EVERY = 10
#: Stores the appends go to in turn (see the module docstring).
LIVE_STORES = 4
LIVE = tuple(f"live{j}" for j in range(LIVE_STORES))
#: An append plus its read-back on a store of at most ten segments, on a
#: 2 vCPU host; sizes the schedule so a run lasts about ``--seconds``.
WRITE_ESTIMATE_S = 0.6
#: Read mix: kind -> reads per block of 20.  Sorted by cost the kinds are
#: agg16 (~3 ms), aggfull (~15 ms), knn1 (~60 ms), so the median read lies
#: well inside the full-fleet aggregates, not on a boundary between kinds,
#: and the tail lies well inside the kNN reads.  Every block holds exactly
#: these counts in a seeded order: with kinds drawn independently, the
#: share of cheap reads varied from seed to seed, and the median read
#: moved with it along the spread-out aggfull latencies.
READS = (("agg16", 7), ("aggfull", 7), ("knn1", 6))
READ_KINDS = tuple(kind for kind, _ in READS)
SMALL = ("agg16", "knn1")
#: Distinct 16-meter subsets and kNN query vectors the reads draw from.
#: kNN cost varies by query, so a larger query pool steadies the tail.
SUBSETS = 16
QUERIES = 64
K = 5

SIZES = (f"{N_METERS} meters x {SEGMENTS} segments x {WINDOWS_PER_DAY} "
         f"windows; open loop {RATE:g} req/s; one-day append every "
         f"{APPEND_EVERY}th request, to {LIVE_STORES} stores in turn")


def _requests(seconds: float) -> int:
    """Requests in a run of about ``seconds``: reads at ``RATE`` plus the
    writes, which pause the schedule."""
    return int(seconds / (1.0 / RATE + WRITE_ESTIMATE_S / APPEND_EVERY))


def _live(day: int) -> str:
    """The live store the append of ``day`` goes to."""
    return LIVE[day % LIVE_STORES]


def _start_server(ctx, directory: Path) -> tuple:
    log = directory / "server.log"
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    with log.open("w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             *(f"{name}={directory / name}.rsyms"
               for name in LIVE + ("static",)),
             "--port", "0", "--no-tracing", "--workers", "1"],
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=str(directory),
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        text = log.read_text()
        if " on http://" in text:
            url = text.split(" on ", 1)[1].split()[0]
            return proc, url
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    _stop(proc)
    raise RuntimeError(f"server did not start: {log.read_text()[-2000:]}")


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def setup(ctx) -> dict:
    appends = _requests(ctx.seconds) // APPEND_EVERY + 1
    values = fleet.readings(ctx.seed, N_METERS, SEGMENTS + appends,
                            WINDOWS_PER_DAY, stream=2)
    width = SEGMENTS * WINDOWS_PER_DAY
    directory = ctx.fresh_dir("serve")
    directory.mkdir(parents=True)
    static = directory / "static.rsyms"
    write_segmented_fleet(
        static, values[:, :width], alphabet_size=ALPHABET,
        segment_windows=WINDOWS_PER_DAY, sampling_interval=900.0,
    ).close()
    for name in LIVE:
        shutil.copytree(static, directory / f"{name}.rsyms")
    with SegmentedStore.open(static) as store:
        table = store.shared_table
        generation = store.generation
    days = [
        table.indices_for_values(
            values[:, width + j * WINDOWS_PER_DAY: width + (j + 1) * WINDOWS_PER_DAY]
        ).astype(np.int64)
        for j in range(appends)
    ]
    rng = np.random.default_rng([ctx.seed, 2])
    subsets = [sorted(int(m) for m in rng.choice(N_METERS, 16, replace=False))
               for _ in range(SUBSETS)]
    rows = rng.choice(N_METERS, size=QUERIES, replace=False)
    queries = values[rows, :width] * rng.lognormal(0.0, 0.05, size=(QUERIES, 1))
    proc, url = _start_server(ctx, directory)
    state = {"dir": directory, "proc": proc, "url": url, "days": days,
             "subsets": subsets, "queries": queries, "generation": generation,
             "bytes0": dir_bytes(static)}
    try:
        # The server opens each store on its first request: pay that here.
        client = ServeClient(url, timeout=60.0)
        for name in LIVE + ("static",):
            client.agg(name, meters=subsets[0])
        client.knn("static", queries[:1], k=K)
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state) -> None:
    _stop(state["proc"])
    shutil.rmtree(state["dir"], ignore_errors=True)


def _schedule(seed: int, n: int) -> list:
    rng = np.random.default_rng([seed, 3])
    block = [kind for kind, count in READS for _ in range(count)]
    kinds = []
    while len(kinds) < n:
        kinds += [block[j] for j in rng.permutation(len(block))]
    kinds.reverse()
    ops, day = [], 0
    for i in range(n):
        if (i + 1) % APPEND_EVERY == 0:
            ops.append(("append", day))
            day += 1
        else:
            kind = kinds.pop()
            pool = QUERIES if kind == "knn1" else SUBSETS
            ops.append((kind, int(rng.integers(pool))))
    return ops


class _Loop:
    """The load generator: one sender working through the schedule.

    Request ``i`` is due at ``i / RATE`` seconds; it is sent when due, or
    as soon as the previous answer is in if that came later, and its
    latency runs from when it was due.  A write — an append and the
    read-back of it — pauses the schedule: every later due time moves back
    by the write's length, so no read counts as late because of it.

    One sender keeps requests from overlapping on the server.  With two
    senders, reads overlapped each other and the appends; a read that met
    another kNN, or an append's JSON parse, stalled behind it, and on
    unchanged code the read tail moved by a quarter to a third from run to
    run (IQR / median over 5-10 seeds).
    """

    def __init__(self, state, ops, tracer) -> None:
        self.state = state
        self.ops = ops
        self.tracer = tracer
        self.client = ServeClient(state["url"], timeout=60.0)
        self.records = []
        self.answers = {}

    def run(self) -> float:
        """Send every request; returns the time the schedule started."""
        start = time.perf_counter()
        shift = 0.0
        for i, (kind, arg) in enumerate(self.ops):
            due = start + i / RATE + shift
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if kind != "append":
                self._request(i, kind, arg, due)
                continue
            began = time.perf_counter()
            record = self._request(i, "append", arg, began)
            if record["ok"]:
                # Nothing else reads the live store, so the read-back pays
                # the server's hot reload.
                self._request(i, "readback", arg, time.perf_counter())
            shift += time.perf_counter() - began
        return start

    def _send(self, kind: str, arg):
        state, client = self.state, self.client
        if kind == "append":
            return client.append(_live(arg), state["days"][arg])
        if kind == "readback":
            return client.agg(_live(arg),
                              meters=state["subsets"][arg % SUBSETS])
        if kind == "agg16":
            return client.agg("static", meters=state["subsets"][arg])
        if kind == "aggfull":
            return client.agg("static")
        return client.knn("static", state["queries"][arg:arg + 1], k=K)

    def _request(self, i: int, kind: str, arg, due: float) -> dict:
        record = {"i": i, "kind": kind, "arg": arg, "due": due,
                  "sent": time.perf_counter(), "ok": False}
        try:
            with self.tracer.span(f"serve.{kind}", i):
                body = self._send(kind, arg)
            record["ok"] = True
        except Exception as exc:  # counted as failed, never a sample
            record["error"] = exc
        record["end"] = time.perf_counter()
        if record["ok"] and kind != "append":
            # Every answer to one request must be identical: keep the first
            # (checked against the in-process result after the run) and
            # compare the rest to it.
            record["appends_seen"] = _appends_seen(body)
            record["degraded"] = body.degraded
            if self.tracer.enabled:
                record["bytes"] = len(json.dumps(body, separators=(",", ":")))
            answer = {key: value for key, value in body.items()
                      if key != "degraded"}
            first = self.answers.setdefault((kind, arg), answer)
            record["same"] = first is answer or first == answer
        self.records.append(record)
        return record


def _appends_seen(body) -> int:
    """Appends the answer's store had taken, read off the windows an
    aggregate counted (kNN reads go to ``static``, which never takes one)."""
    if "symbol_counts" not in body:
        return 0
    windows = int(sum(body["symbol_counts"][0]))
    return windows // WINDOWS_PER_DAY - SEGMENTS


def _server_counters(url: str) -> dict:
    return dict(ServeClient(url, timeout=60.0).metrics()["metrics"])


def run(state, ctx, tracer) -> Phase:
    phase = Phase()
    loop = _Loop(state, _schedule(ctx.seed, _requests(ctx.seconds)), tracer)
    counters0 = _server_counters(state["url"])
    start = loop.run()
    records = loop.records
    state["answers"] = loop.answers
    state["records"] = records
    phase.wall = records[-1]["end"] - start
    counters1 = _server_counters(state["url"])

    phase.attempted = len(records)
    for r in records:
        if not r["ok"]:
            failed(phase, f"request {r['i']} ({r['kind']})", r["error"])
    done = [r for r in records if r["ok"]]
    reads = [r["end"] - r["due"] for r in done if r["kind"] in READ_KINDS]
    appends = {r["i"]: r["end"] - r["sent"] for r in done
               if r["kind"] == "append"}
    after = {r["i"]: r["end"] - r["sent"] for r in done
             if r["kind"] == "readback"}
    writes = [appends[i] + after[i] for i in after]
    phase.op_seconds = [r["end"] - r["sent"] for r in done
                        if r["kind"] in READ_KINDS]
    if not reads or not appends or not after:
        return phase

    read_tail, label = tail(reads)
    m = phase.metrics
    m["latency_ms_p50"] = phase.record(
        "http_read_ms_p50", 1e3 * median(reads), "ms", f"{len(reads)} reads")
    m["latency_ms_tail"] = phase.record(
        "http_read_ms_tail", 1e3 * read_tail, "ms", label)
    phase.record("http_append_ms_p50", 1e3 * median(appends.values()), "ms",
                 f"{len(appends)} appends")
    phase.record("read_after_append_ms_p50", 1e3 * median(after.values()),
                 "ms", f"{len(after)} read-backs")
    m["cold_ms"] = phase.record(
        "append_to_read_ms_p50", 1e3 * median(writes), "ms",
        "append + read-back")
    m["throughput_per_s"] = phase.record(
        "http_completed_per_s", len(done) / phase.wall, "req/s",
        f"offered {RATE:g} req/s")
    total = symbols = payload = segments = 0
    for name in LIVE:
        live = state["dir"] / f"{name}.rsyms"
        total += dir_bytes(live)
        with SegmentedStore.open(live) as store:
            symbols += store.n_symbols
            payload += store.payload_nbytes
            segments = max(segments, store.n_segments)
    m["bits_per_symbol"] = phase.record(
        "store_bits_per_symbol", total * 8.0 / symbols, "bits",
        "live stores after appends")
    layer = phase.layer
    layer["store.write_amplification"] = total / payload
    layer["store.segments"] = segments
    layer["store.commit_bytes"] = (
        (total - LIVE_STORES * state["bytes0"]) / len(appends))
    layer["serve.retries"] = loop.client.retries_total
    layer["serve.shed"] = sum(
        counters1.get(key, 0) - counters0.get(key, 0)
        for key in ("shed_total", "rate_limited_total"))
    layer["loadgen.late_intervals_max"] = max(
        r["sent"] - r["due"] for r in records) * RATE
    if tracer.enabled:
        sized = [r for r in done if "bytes" in r]
        for size, kinds in (("small", SMALL), ("large", ("aggfull",))):
            sizes = [r["bytes"] for r in sized if r["kind"] in kinds]
            layer[f"serve.response_bytes_{size}"] = (
                float(np.mean(sizes)) if sizes else 0.0)
        layer["serve.overhead_share"] = _overhead_share(state, done)
    return phase


def _in_process(engine, state, kind, arg):
    """The library result a read asks for, computed in this process."""
    if kind in ("agg16", "readback"):
        return engine.aggregate(meters=state["subsets"][arg % SUBSETS])
    if kind == "aggfull":
        return engine.aggregate()
    return engine.knn(state["queries"][arg:arg + 1], QueryConfig(k=K))


#: Answer fields that carry arrays, per result type; the rest compare as
#: plain JSON values.
_ARRAYS = {
    "knn": ("positions", "distances"),
    "agg": ("symbol_counts", "peak_level", "duty_cycle", "run_count",
            "mean_run_length"),
}


def _same(answer: dict, result) -> bool:
    """Whether a decoded HTTP answer is bit-identical to a library result.

    Arrays are compared as bytes at the library's dtype and shape, so a
    float that differs in its last bit (or in the sign of a zero) fails.
    """
    if hasattr(result, "distances"):
        fields = _ARRAYS["knn"]
        plain = {"ids": result.ids, "stats": {
            "n_queries": result.stats.n_queries,
            "n_candidates": result.stats.n_candidates,
            "refined": result.stats.refined,
            "index_used": result.stats.index_used,
        }}
    else:
        fields = _ARRAYS["agg"]
        plain = {"ids": list(result.ids), "level": result.level}
    if set(answer) != set(fields) | set(plain):
        return False
    for name in fields:
        want = np.asarray(getattr(result, name))
        got = np.asarray(answer[name], dtype=want.dtype)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return False
    return all(answer[name] == value for name, value in plain.items())


def _overhead_share(state, done) -> float:
    """Share of HTTP read time not spent computing the answer.

    Each read kind is timed in process on ``static`` (warm, median of five
    after one warm-up); the HTTP side is the send-to-answer time of every
    scheduled read.
    """
    reads = [r for r in done if r["kind"] in READ_KINDS]
    cost = {}
    with QueryEngine.open(state["dir"] / "static.rsyms") as engine:
        for kind in READ_KINDS:
            times = []
            for rep in range(6):
                t0 = time.perf_counter()
                _in_process(engine, state, kind, rep)
                times.append(time.perf_counter() - t0)
            cost[kind] = median(times[1:])
    http = sum(r["end"] - r["sent"] for r in reads)
    return 1.0 - sum(cost[r["kind"]] for r in reads) / http


def _snapshot(state, store: str, appends: int, work: Path) -> Path:
    """A copy of live store ``store`` as it stood after ``appends`` appends.

    Segments are immutable and manifests are kept per generation, so the
    copy holds the first segments and that generation's manifest.
    """
    live = state["dir"] / f"{store}.rsyms"
    target = work / f"{store}-{appends}.rsyms"
    target.mkdir(parents=True)
    for seq in range(SEGMENTS + appends):
        name = f"seg-{seq:06d}.rsym"
        shutil.copy2(live / name, target / name)
    name = f"manifest-{state['generation'] + appends:010d}.json"
    shutil.copy2(live / name, target / name)
    return target


def check(state, phase) -> None:
    """Every HTTP read equals the in-process answer on the store state it
    saw, and no answer came from a degraded snapshot.  Each live store's
    segment count and manifest generation match the appends acknowledged
    to it, and each read-back saw exactly the appends acknowledged to its
    store before it."""
    records = state.get("records") or []
    for name in LIVE:
        acked = sum(1 for r in records if r["ok"] and r["kind"] == "append"
                    and _live(r["arg"]) == name)
        with SegmentedStore.open(state["dir"] / f"{name}.rsyms") as store:
            if store.n_segments != SEGMENTS + acked:
                raise CheckFailed(f"{name}: {store.n_segments} segments after "
                                  f"{acked} acknowledged appends")
            if store.generation != state["generation"] + acked:
                raise CheckFailed(f"{name}: generation {store.generation} "
                                  f"after {acked} appends")
    answers = [r for r in records if r["ok"] and r["kind"] != "append"]
    if any(r["degraded"] for r in answers):
        raise CheckFailed("a read was served from a degraded snapshot")
    appended = dict.fromkeys(LIVE, 0)
    for r in sorted(records, key=lambda r: r["sent"]):
        if r["ok"] and r["kind"] == "append":
            appended[_live(r["arg"])] += 1
        elif (r["ok"] and r["kind"] == "readback"
              and r["appends_seen"] != appended[_live(r["arg"])]):
            raise CheckFailed(
                f"read-back {r['i']} saw {r['appends_seen']} of "
                f"{appended[_live(r['arg'])]} appends acknowledged to "
                f"{_live(r['arg'])}")
        elif r["ok"] and r["kind"] in READ_KINDS and r["appends_seen"] != 0:
            raise CheckFailed(f"read {r['i']} of the static store saw appends")

    if not all(r["same"] for r in answers):
        raise CheckFailed("two answers to the same read differ")
    with QueryEngine.open(state["dir"] / "static.rsyms") as static:
        for (kind, arg), answer in state["answers"].items():
            if kind == "readback":
                snapshot = _snapshot(state, _live(arg), _appends_seen(answer),
                                     state["dir"] / "check")
                with QueryEngine.open(snapshot) as engine:
                    want = _in_process(engine, state, kind, arg)
            else:
                want = _in_process(static, state, kind, arg)
            if not _same(answer, want):
                raise CheckFailed(
                    f"{kind} answer differs from the in-process result")
