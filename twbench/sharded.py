"""The ``sharded-2w`` workload: ``ShardedMonitor(shards=2)``.

8 random-walk streams x 256 random-walk queries at eps 0.25 (a
rare-match regime: queries never arm, so nothing parks and the kernel
does the work), plus one sentinel spike query matching a motif embedded
every 64 ticks, so that events flow.  Each round builds a supervisor
with a checkpoint directory, starts its two workers (timed as set-up),
pushes the fixed input in 64-tick batches closed loop, and calls
``finish()``; throughput runs from the first push until ``finish()`` has
drained every worker.  The rings hold 1024 values per stream, so the
supervisor meets ring backpressure and a batch's latency reflects the
workers' pace.

Correctness: the round's events of a seeded sample of the queries
(always including the sentinel) must equal, as a multiset, those of an
unpruned numpy ``StreamMonitor`` over that sample fed the same batches;
the events delivered to the subscriber must equal the merged report, and
every round must reproduce the first round's events.  Each round also
checks for leaked worker processes, ``/dev/shm`` segments and
checkpoint temp files.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from typing import Dict, List, Tuple

import numpy as np

from common import (
    WORK,
    Hygiene,
    Rounds,
    children,
    end_to_end,
    event_key,
    median,
    multiset_failures,
    peak_rss_mib,
    proc_cpu_seconds,
)
import ckpt_probe
from layers import LayerTrace, histogram_mean, prune_totals
from speed import SpeedScale

BATCH = 64
STREAMS = 8
QUERIES = 256
TICKS = 2048
RING = 1024
SENTINEL = ("sentinel", np.array([0.0, 5.0, 0.0]), 1.0)
MOTIF = np.array([0.1, 5.0, 0.1])


SAMPLE = 24


def make_inputs(seed: int):
    """(queries, streams, sampled query names)."""
    rng = np.random.default_rng([seed, 21])
    queries = [
        (f"q{i:03d}", np.cumsum(rng.normal(size=int(rng.integers(8, 21)))), 0.25)
        for i in range(QUERIES)
    ]
    queries.append(SENTINEL)
    streams = {}
    for s in range(STREAMS):
        values = np.cumsum(rng.normal(size=TICKS))
        for start in range(BATCH // 2, TICKS - 8, BATCH):
            values[start : start + len(MOTIF)] = MOTIF
        streams[f"s{s}"] = values
    picked = rng.choice(QUERIES, size=SAMPLE, replace=False)
    sample = sorted({queries[i][0] for i in picked} | {SENTINEL[0]})
    return queries, streams, sample


def _batches(streams: Dict[str, np.ndarray]):
    for index, lo in enumerate(range(0, TICKS, BATCH)):
        for stream, values in streams.items():
            yield stream, index, values[lo : lo + BATCH]


def reference_events(queries, streams, sample) -> List[tuple]:
    from repro import StreamMonitor

    monitor = StreamMonitor(keep_history=False, prune=False, backend="numpy")
    for stream in streams:
        monitor.add_stream(stream)
    for name, query, epsilon in queries:
        if name in sample:
            monitor.add_query(name, query, epsilon=epsilon)
    events = []
    for stream, _, chunk in _batches(streams):
        events.extend(monitor.push_many(stream, chunk))
    return [event_key(e) for e in events]


def _traced_inprocess(layers: LayerTrace, queries, streams) -> None:
    """Core-layer self times of the same input, in process at defaults
    (the workers' spans are not reachable from outside)."""
    from repro import StreamMonitor
    from repro.obs import tracing

    monitor = StreamMonitor(keep_history=False)
    for stream in streams:
        monitor.add_stream(stream)
    for name, query, epsilon in queries:
        monitor.add_query(name, query, epsilon=epsilon)
    tracer = tracing.enable_tracing(limit=2_000_000)
    try:
        for stream, _, chunk in _batches(streams):
            monitor.push_many(stream, chunk)
    finally:
        tracing.disable_tracing()
    layers.add_spans(tracer.totals())
    layers.add_prune(prune_totals(monitor, streams), len(queries) * STREAMS * TICKS)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.runtime import ShardedMonitor

    queries, streams, sample = make_inputs(seed)
    expected = reference_events(queries, streams, sample)
    if not expected:
        raise RuntimeError("reference produced no events; the check is void")
    ticks = STREAMS * TICKS
    hygiene = Hygiene()
    layers = LayerTrace() if trace else None
    base = WORK / f"sharded-{os.getpid()}"

    scale = SpeedScale()
    measured, traced_rounds = Rounds(), Rounds()
    rss: List[float] = []
    shard_sums = {"publish": [], "drain": [], "push_ms": [], "restarts": [],
                  "ckpt_count": [], "ckpt_p50": [], "ckpt_bytes": []}
    attempted = 0
    mismatches = {"reference": 0, "delivered": 0, "first_round": 0}
    first_events = None
    restarts = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < 3 or time.perf_counter() < deadline:
        rounds += 1
        traced = trace and rounds % 2 == 0
        ckpt = base / f"round-{rounds}"
        scale.start()
        started = time.perf_counter()
        monitor = ShardedMonitor(
            shards=2, checkpoint_dir=ckpt, ring_capacity=RING
        )
        # Leaving the block aborts the workers if anything raised.
        with monitor:
            for stream in streams:
                monitor.add_stream(stream)
            for name, query, epsilon in queries:
                monitor.add_query(name, query, epsilon=epsilon)
            ckpt_log = base / f"ckpt-{rounds}.log"
            if traced:
                monitor.enable_metrics()
                os.environ[ckpt_probe.ENV] = str(ckpt_log)
            arrivals: List[Tuple[float, object]] = []
            monitor.subscribe(lambda event: arrivals.append((time.perf_counter(), event)))
            monitor.start()
            setup = time.perf_counter() - started
            os.environ.pop(ckpt_probe.ENV, None)

            workers = children()
            worker_cpu0 = sum(proc_cpu_seconds(pid) for pid in workers)
            children_cpu0 = _children_cpu()
            cpu0 = time.process_time()
            sent_at: Dict[Tuple[str, int], float] = {}
            batch_lat: Dict[int, float] = {}
            first = time.perf_counter()
            for position, (stream, index, chunk) in enumerate(_batches(streams)):
                t0 = time.perf_counter()
                sent_at[stream, index] = t0
                monitor.push_many(stream, chunk)
                batch_lat[position] = time.perf_counter() - t0
                attempted += 1
            pushed = time.perf_counter()
            rss.append(peak_rss_mib(os.getpid())
                       + sum(peak_rss_mib(pid) for pid in workers))
            report = monitor.finish(flush=False)
            done = time.perf_counter()
        cpu = (time.process_time() - cpu0) + (_children_cpu() - children_cpu0) - worker_cpu0
        event_lat = {
            event_key(event):
                when - sent_at[event.stream, (int(event.match.output_time) - 1) // BATCH]
            for when, event in arrivals
        }
        (traced_rounds if traced else measured).add(
            scale.stop(), setup, done - first, cpu, ticks,
            batch_lat, event_lat,
        )

        restarts += report.restarts
        got = [event_key(e) for e in report.events]
        attempted += len(expected) + len(got)
        mismatches["reference"] += multiset_failures(
            expected, [k for k in got if k[1] in sample])
        mismatches["delivered"] += multiset_failures(
            got, [event_key(e) for _, e in arrivals])
        if first_events is None:
            first_events = got
        else:
            attempted += len(first_events)
            mismatches["first_round"] += multiset_failures(first_events, got)
        if traced:
            snap = monitor.metrics()
            shard_sums["publish"].append(pushed - first)
            shard_sums["drain"].append(done - pushed)
            shard_sums["push_ms"].append(
                1e3 * histogram_mean(snap, "spring_push_latency_seconds"))
            shard_sums["restarts"].append(sum(
                s["value"] for s in snap["shard_restarts_total"]["series"]))
            writes = ckpt_probe.read(ckpt_log)
            shard_sums["ckpt_count"].append(len(writes))
            shard_sums["ckpt_p50"].append(1e3 * median([w[0] for w in writes]))
            shard_sums["ckpt_bytes"].append(sum(w[1] for w in writes) / len(writes))
        events = report.events
        # Shared-memory and semaphore handles are released when the
        # finished supervisor is collected; check after that.
        del monitor, report
        gc.collect()
        hygiene.check([ckpt])
        shutil.rmtree(ckpt, ignore_errors=True)
    shutil.rmtree(base, ignore_errors=True)

    if layers is not None:
        _traced_inprocess(layers, queries, streams)
        layers.codec_from_run(streams, events)
        layers.overhead(measured.figures()["throughput_ticks_per_s"],
                        traced_rounds.figures()["throughput_ticks_per_s"])
        layers.set("shard.publish_s", median(shard_sums["publish"]))
        layers.set("shard.drain_s", median(shard_sums["drain"]))
        layers.set("shard.worker_push_ms_mean", median(shard_sums["push_ms"]))
        layers.set("shard.restarts", sum(shard_sums["restarts"]))
        layers.set("checkpoint.count", median(shard_sums["ckpt_count"]))
        layers.set("checkpoint.write_ms_p50", median(shard_sums["ckpt_p50"]))
        layers.set("checkpoint.bytes_mean", median(shard_sums["ckpt_bytes"]))
    attempted += hygiene.checks
    failed = sum(mismatches.values()) + len(hygiene.leaks)
    metrics, detail = end_to_end(measured, median(rss))
    detail.update({
        "rounds": rounds,
        "ticks_per_round": ticks,
        "reference_events": len(expected),
        "mismatched_events": mismatches,
        "worker_restarts": restarts,
        "leaks": hygiene.leaks,
    })
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failed": failed, "detail": detail}
