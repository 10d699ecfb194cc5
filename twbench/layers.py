"""Per-layer metrics of a traced run.

Every traced run prints every metric below.  Sources, all outside the
program's code: the ``repro.obs.tracing`` spans (enabled by the
benchmark), ``prune_stats``, timed calls into public entry points, and
``/metrics`` scrapes.  A layer the workload does not run (the service
layers in-process, the shard layer outside ``sharded-2w``, checkpoints
where nothing checkpoints) reports 0.  So does a layer the program puts
no span around on the path a workload takes: batched pushes run the
report policy inside the kernel span (``policy.self_s`` is 0 on every
workload), and a single unbanked matcher's ``push_many`` has no inner
spans (kernel self time is 0 on service-open; its ``monitor.self_s``
holds that work).  Self times, call and step counts are per round of the
workload's fixed input; on sharded-2w the core layers are traced on the
same input in process, since the workers' spans are out of reach.

Which end-to-end figure each layer should move, and where:

* monitor / bank self time -- throughput on monitor-lowsel;
* admission -- throughput and batch p99 on monitor-midsel, pruned
  fraction on monitor-lowsel, nothing on service-open (bypassed);
* kernel -- throughput on sharded-2w, little on monitor-lowsel;
* policy -- batch p99 on monitor-midsel;
* checkpoint -- event p99 on service-open, throughput on sharded-2w;
* codec -- server CPU and event p50 on service-open;
* svc_engine / server / gen -- event p50 and p99 on service-open;
* shard -- throughput on sharded-2w;
* trace.overhead_frac -- none; it sizes the probe.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Sequence

import numpy as np

from common import metric

#: Per-layer metric name -> unit, in print order (BENCHMARK.json agrees).
PER_LAYER = {
    "monitor.self_s": "s",
    "bank.self_s": "s",
    "admission.self_s": "s",
    "admission.share": "ratio",
    "admission.pruned_frac": "ratio",
    "admission.replay_waste": "ratio",
    "admission.replays": "count",
    "admission.group_cert_frac": "ratio",
    "kernel.self_s": "s",
    "kernel.calls": "count",
    "kernel.query_steps": "count",
    "policy.self_s": "s",
    "checkpoint.count": "count",
    "checkpoint.write_ms_p50": "ms",
    "checkpoint.bytes_mean": "bytes",
    "codec.decode_us_per_frame": "us",
    "codec.encode_us_per_event": "us",
    "svc_engine.apply_ms_mean": "ms",
    "svc_engine.queue_depth_max": "count",
    "server.ack_ms_mean": "ms",
    "server.handoff_ms_mean": "ms",
    "server.evictions": "count",
    "gen.late_ms_p99": "ms",
    "shard.publish_s": "s",
    "shard.drain_s": "s",
    "shard.worker_push_ms_mean": "ms",
    "shard.restarts": "count",
    "trace.overhead_frac": "ratio",
}

#: Layer -> the program's span names whose self time it owns.
SPANS = {
    "monitor": ("monitor.push", "monitor.push_many"),
    "bank": ("engine.bank_step", "engine.bank_extend"),
    "admission": ("admission.admit",),
    "kernel": (
        "kernel.update_column",
        "kernel.update_columns",
        "kernel.step_bank",
        "kernel.extend_bank",
    ),
    "policy": ("policy.report",),
}


class LayerTrace:
    """Accumulates one traced run's layer figures."""

    def __init__(self) -> None:
        self.rounds = 0
        self.spans: Dict[str, Dict[str, float]] = {}
        # pruned_ticks, replays, replayed_ticks, groups_certified,
        # group_descents, plus the query-ticks they are counted against.
        self.prune = np.zeros(5, dtype=np.int64)
        self.query_ticks = 0
        self.values = {name: 0.0 for name in PER_LAYER}

    def add_spans(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Fold one traced round's ``Tracer.totals()``."""
        self.rounds += 1
        for name, entry in totals.items():
            slot = self.spans.setdefault(name, {"count": 0, "self": 0.0})
            slot["count"] += entry["count"]
            slot["self"] += entry["self"]

    def add_prune(self, delta: Sequence[int], query_ticks: int) -> None:
        """Fold one round's ``prune_stats`` delta over ``query_ticks``."""
        self.prune += np.asarray(delta, dtype=np.int64)
        self.query_ticks += int(query_ticks)

    def set(self, name: str, value: float) -> None:
        if name not in self.values:
            raise KeyError(name)
        self.values[name] = float(value)

    def codec_from_run(self, series: Dict[str, np.ndarray], events: List,
                       batch: int = 64) -> None:
        """Time the wire codec on this run's own batches and events."""
        from repro.service import protocol

        frames = [
            protocol.encode_frame(
                {"type": "push", "seq": i + 1,
                 "values": [float(v) for v in chunk]}
            )
            for i, chunk in enumerate(
                values[lo : lo + batch]
                for values in series.values()
                for lo in range(0, len(values), batch)
            )
        ]
        self.set("codec.decode_us_per_frame", _per_item_us(
            frames,
            lambda line: protocol.decode_values(
                protocol.decode_frame(line)["values"], protocol.DEFAULT_MAX_BATCH
            ),
        ))
        self.set("codec.encode_us_per_event", _per_item_us(
            events, lambda event: protocol.encode_event(event.stream, 1, event)
        ))

    def overhead(self, untraced_rate: float, traced_rate: float) -> None:
        self.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate)

    def metrics(self) -> Dict[str, dict]:
        rounds = max(self.rounds, 1)
        selfs = {
            layer: sum(self.spans.get(n, {}).get("self", 0.0) for n in names)
            for layer, names in SPANS.items()
        }
        traced_total = sum(s["self"] for s in self.spans.values())
        for layer in ("monitor", "bank", "admission", "kernel", "policy"):
            self.set(f"{layer}.self_s", selfs[layer] / rounds)
        self.set("kernel.calls", sum(
            self.spans.get(n, {}).get("count", 0) for n in SPANS["kernel"]
        ) / rounds)
        self.set("admission.share",
                 selfs["admission"] / traced_total if traced_total else 0.0)
        pruned, replays, replayed, certified, descents = (
            int(v) for v in self.prune
        )
        if self.query_ticks:
            self.set("admission.pruned_frac", pruned / self.query_ticks)
            self.set("kernel.query_steps",
                     (self.query_ticks - pruned + replayed) / rounds)
        self.set("admission.replay_waste", replayed / pruned if pruned else 0.0)
        self.set("admission.replays", replays / rounds)
        groups = certified + descents
        self.set("admission.group_cert_frac", certified / groups if groups else 0.0)
        return {name: metric(self.values[name], unit)
                for name, unit in PER_LAYER.items()}


def prune_totals(monitor, streams) -> np.ndarray:
    """``prune_stats`` summed over ``streams``, in ``LayerTrace.prune``
    order."""
    keys = ("pruned_ticks", "replays", "replayed_ticks",
            "groups_certified", "group_descents")
    total = np.zeros(len(keys), dtype=np.int64)
    for stream in streams:
        stats = monitor.prune_stats(stream)
        total += [stats[k] for k in keys]
    return total


def histogram_mean(snapshot: dict, family: str) -> float:
    """Mean observation of a registry-snapshot histogram family, over
    all its series (0 when it has none)."""
    series = snapshot.get(family, {}).get("series", [])
    count = sum(sum(s["bucket_counts"]) for s in series)
    return sum(s["sum"] for s in series) / count if count else 0.0


def _per_item_us(items: Iterable, fn, min_seconds: float = 0.2) -> float:
    """Mean microseconds of ``fn`` per item, repeating passes over
    ``items`` until at least ``min_seconds`` have been timed."""
    items = list(items)
    if not items:
        raise ValueError("nothing to time")
    count, spent = 0, 0.0
    while spent < min_seconds:
        started = time.perf_counter()
        for item in items:
            fn(item)
        spent += time.perf_counter() - started
        count += len(items)
    return 1e6 * spent / count
