"""End-to-end benchmark of ingest -> store -> query -> HTTP on one seeded fleet.

Run from the root of a checkout::

    python3 perfbench/run.py --workload query_cold_warm --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``ingest_stream``, ``query_cold_warm``, ``serve_mixed`` (one
module each in this directory; their docstrings say what each exercises
and what every reported number means for it).  Set-up — generate the
fleet, write the initial store, start the server — runs three times and
``setup_s`` is the median; the last set-up is measured for ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures twice
from fresh set-ups, untraced then traced, half of ``--seconds`` each, and
prints the per-layer metrics: each layer's share of the traced wall time
from benchmark-side spans around every public call, counts from
``repro.obs`` registry deltas, and the tracing overhead (the traced
phase's median operation latency over the untraced one's, minus one).
Spans are written to ``.perfbench/traces/`` when the run ends.

NumPy's BLAS runs single-threaded (``OPENBLAS_NUM_THREADS=1``, inherited
by the server process): on a 2 vCPU host a second BLAS thread spins on the
core the server, the sender or a neighbouring tenant needs, so a kNN's
time measured the scheduler more than the query.  Every workload already
runs the program with ``workers=1``.

Correctness checks run after each measured phase, outside the timed
region; a failed check prints ``"correct": false`` and exits 1.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Before anything imports NumPy: its BLAS reads these once, at load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest_stream", "query_cold_warm", "serve_mixed")
SETUP_REPEATS = 3

#: Per-layer span shares: metric -> the span name or layer it sums.  Each
#: is self time over the traced phase's wall time; an idle layer reads 0.
SPAN_SHARES = {
    "pipeline.self_share": "pipeline",
    "pipeline.encode_share": "pipeline.push_chunk",
    "store.self_share": "store",
    "store.commit_share": "store.commit",
    "store.finalize_share": "store.finalize",
    "store.open_share": "store.open",
    "query.self_share": "query",
    "query.index_share": "query.index",
    "query.knn_share": "query.knn",
    "query.agg_share": "query.agg",
    "query.match_share": "query.match",
    "query.anomaly_share": "query.anomaly",
    "query.drift_share": "query.drift",
    "serve.self_share": "serve",
    "bench.uncovered_share": "uncovered",
}


def _declared(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src``; fail loudly if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {src}/repro is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro  # noqa: F401  (the import is the check)


def _measure(module, ctx, tracer, repeats):
    """Set up ``repeats`` times, measure one phase on the last set-up and
    check it; returns ``(phase, setup_times)``."""
    from perfbench.measure import CheckFailed

    setup_times = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                module.teardown(state)
                state = None
            started = time.perf_counter()
            state = module.setup(ctx)
            setup_times.append(time.perf_counter() - started)
        gc.collect()
        phase = module.run(state, ctx, tracer)
        missing = [m for m in _declared("end_to_end")
                   if m not in ("setup_s", "ok_fraction")
                   and m not in phase.metrics]
        try:
            if missing:
                raise CheckFailed(
                    f"no samples for {', '.join(missing)} "
                    f"({phase.failed} of {phase.attempted} operations failed)")
            module.check(state, phase)
        except CheckFailed as exc:
            exc.phase = phase
            raise
    finally:
        if state is not None:
            module.teardown(state)
    return phase, setup_times


def _report(args, module, phase, setup_times) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  sizes: {module.SIZES}")
    print(f"  setup_s {statistics.median(setup_times):.4f} s "
          f"(median of {len(setup_times)} set-ups)")
    error = phase.failed / max(1, phase.attempted)
    print(f"  error_fraction {error:.6f} ratio "
          f"({phase.failed} of {phase.attempted} operations)")
    for name, value, unit, note in phase.named:
        print(f"  {name} {value:.4f} {unit}" + (f" ({note})" if note else ""))


def _layer_metrics(phase, tracer, untraced) -> dict:
    from perfbench.measure import LAYERS, self_times

    spent = self_times(tracer.spans, phase.wall)
    out = {name: spent.get(key, 0.0) / phase.wall
           for name, key in SPAN_SHARES.items()}
    out["bench.traced_wall_s"] = phase.wall
    out["bench.trace_overhead_fraction"] = (
        statistics.median(phase.op_seconds)
        / statistics.median(untraced.op_seconds) - 1.0)
    for name in _declared("per_layer"):
        out.setdefault(name, float(phase.layer.get(name, 0.0)))
    print("  per-layer self time (traced phase, "
          f"{phase.wall:.3f} s wall):")
    for layer in LAYERS + ("uncovered",):
        print(f"    {layer:<10} {spent.get(layer, 0.0):9.4f} s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.measure import CheckFailed, Context, Tracer

    module = importlib.import_module(f"perfbench.{args.workload}")
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    # A traced run measures two phases; each gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    ctx = Context(seed=args.seed, seconds=seconds, work=work, root=ROOT)
    try:
        phase, setup_times = _measure(module, ctx, Tracer(False), SETUP_REPEATS)
        if args.trace:
            untraced = phase
            tracer = Tracer(True)
            phase, _ = _measure(module, ctx, tracer, 1)
            tracer.write(ROOT / ".perfbench" / "traces"
                         / f"{args.workload}-seed{args.seed}.jsonl")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.phase.attempted,
                          "failed": exc.phase.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _report(args, module, phase, setup_times)
    if args.trace:
        values = _layer_metrics(phase, tracer, untraced)
        units = _declared("per_layer")
    else:
        values = dict(phase.metrics)
        values["setup_s"] = statistics.median(setup_times)
        values["ok_fraction"] = 1.0 - phase.failed / max(1, phase.attempted)
        units = _declared("end_to_end")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
