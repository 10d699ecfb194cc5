"""The ``service-open`` workload: a ``repro serve`` subprocess under an
open-loop load.

Each round starts the server (in-process engine, ``--checkpoint-dir`` at
the default cadence) and registers one spike query; a single query is
never banked, so admission is bypassed and the codec, engine queue, ack,
fan-out and checkpoint do almost all the work.  Set-up runs from spawning
the server until the query is registered.  One producer then sends
20-tick frames on a fixed schedule at ``RATE`` ticks/s -- about a third of
the capacity measured on a 2-CPU host when the benchmark was defined, so
even the host's slow CPU-speed mode stays far from saturation -- while
one subscriber receives the events.  The producer honours the credit
window: a frame held back for credit is sent late, never over the window.

Latencies are timed from each frame's *due* time: an event from the due
time of the frame holding its ``output_time`` to its arrival at the
subscriber, a batch from its due time to its ack.  An event later than
``LATENCY_LIMIT`` counts as failed.  The spike motif recurs every
``PERIOD`` ticks, so a round has about 1000 events and ten of them lie
beyond the event p99.  Figures are not scaled to host speed (see
``speed.py``).

Correctness: the subscriber's event lines must equal, byte for byte and
in order, ``protocol.encode_event`` of a direct unpruned numpy
``StreamMonitor.push_many`` of the same frames.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    WORK,
    Hygiene,
    Rounds,
    end_to_end,
    median,
    ordered_failures,
    peak_rss_mib,
    proc_cpu_seconds,
    quantile,
)
import ckpt_probe
from layers import LayerTrace

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
STREAM = "s0"
FRAME = 20
RATE = 6000.0
TICKS = 12_000
PERIOD = 12
SPIKE = [0.0, 5.0, 0.0]
EPSILON = 2.0
MOTIF = [0.1, 5.0, 0.1]
LATENCY_LIMIT = 1.0


def make_values(seed: int) -> np.ndarray:
    """Noise around 1.0 with the spike motif every ``PERIOD`` ticks."""
    rng = np.random.default_rng([seed, 31])
    values = rng.normal(1.0, 0.05, size=TICKS)
    for start in range(PERIOD // 2, TICKS - 8, PERIOD):
        values[start : start + len(MOTIF)] = MOTIF
    return values


def frames_of(values: np.ndarray) -> List[np.ndarray]:
    return [values[lo : lo + FRAME] for lo in range(0, len(values), FRAME)]


def expected_lines(values: np.ndarray):
    """(event lines, MatchEvents) of a direct push of the same frames."""
    from repro import StreamMonitor
    from repro.service import protocol

    monitor = StreamMonitor(keep_history=False, prune=False, backend="numpy")
    monitor.add_stream(STREAM)
    monitor.add_query("spike", SPIKE, epsilon=EPSILON)
    events = []
    for chunk in frames_of(values):
        events.extend(monitor.push_many(STREAM, chunk))
    lines = [protocol.encode_event(STREAM, seq, event)
             for seq, event in enumerate(events, start=1)]
    return lines, events


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------

def start_server(ckpt: Path, log: Path, traced: tuple = None):
    """Spawn the server; returns (process, port).  ``traced`` is the
    (spans file, checkpoint log) pair of a traced server, or None."""
    args = ["serve", "--host", HOST, "--port", "0", "--checkpoint-dir", str(ckpt)]
    if traced is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_serve.py"),
               *(str(p) for p in traced), *args]
    with open(log, "w") as handle:
        proc = subprocess.Popen(cmd, stdout=handle, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        for line in log.read_text().splitlines():
            if line.startswith("listening on "):
                return proc, int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    stop_server(proc)
    raise RuntimeError(f"server did not start:\n{log.read_text()[-2000:]}")


def stop_server(proc: subprocess.Popen) -> bool:
    """SIGTERM and wait; True when the server stopped on its own."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
        return proc.returncode == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
        return False


def register_query(port: int) -> None:
    from repro.service import protocol

    with socket.create_connection((HOST, port), timeout=30) as sock:
        reader = sock.makefile("rb")
        for frame, reply in (
            ({"type": "hello", "role": "control"}, "hello_ack"),
            ({"type": "register_query", "name": "spike", "query": SPIKE,
              "epsilon": EPSILON}, "ok"),
        ):
            sock.sendall(protocol.encode_frame(frame))
            got = protocol.decode_frame(reader.readline())
            if got.get("type") != reply:
                raise RuntimeError(f"expected {reply}, got {got!r}")


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` as metric name -> value summed over label sets."""
    with urllib.request.urlopen(f"http://{HOST}:{port}/metrics", timeout=10) as resp:
        text = resp.read().decode()
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            values[name] = values.get(name, 0.0) + float(value)
    return values


# ----------------------------------------------------------------------
# Open-loop leg
# ----------------------------------------------------------------------

async def _open(port: int, hello: dict):
    from repro.service import protocol

    reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 20)
    writer.write(protocol.encode_frame(hello))
    await writer.drain()
    ack = protocol.decode_frame(await reader.readline())
    if ack.get("type") != "hello_ack":
        raise RuntimeError(f"expected hello_ack, got {ack!r}")
    return reader, writer, ack


async def open_loop(port: int, pid: int, frames: List[bytes], expected: int) -> dict:
    """Send ``frames`` on schedule; collect acks and event lines."""
    from repro.service import protocol

    sub_r, sub_w, _ = await _open(port, {"type": "hello", "role": "subscriber"})
    prod_r, prod_w, hello = await _open(
        port, {"type": "hello", "role": "producer", "stream": STREAM})
    credit = int(hello["credit"])
    state = {"inflight": 0, "acked": 0, "errors": 0, "last_ack": 0.0}
    credit_free = asyncio.Event()
    late: List[float] = []
    ack_lat: Dict[int, float] = {}
    lines: List[tuple] = []

    cpu0 = proc_cpu_seconds(pid)
    t0 = time.perf_counter() + 0.01
    due = [t0 + k * FRAME / RATE for k in range(len(frames))]

    async def produce() -> None:
        for k, frame in enumerate(frames):
            # The event loop's timers wake up to a millisecond late; that
            # lateness is part of each latency and reported.  Spinning to
            # the due time instead took a CPU from the server: over five
            # interleaved seeded runs it raised batch p99 from 3.6 to
            # 4.4 ms and its spread from 0.105 to 0.203 of the median.
            delay = due[k] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            while state["inflight"] + FRAME > credit:
                credit_free.clear()
                await credit_free.wait()
            prod_w.write(frame)
            late.append(time.perf_counter() - due[k])
            state["inflight"] += FRAME
            await prod_w.drain()

    async def read_acks() -> None:
        while state["acked"] < FRAME * len(frames):
            line = await prod_r.readline()
            if not line:
                raise RuntimeError("server closed the producer connection")
            now = time.perf_counter()
            frame = protocol.decode_frame(line)
            if frame.get("type") != "ack" or "error" in frame:
                state["errors"] += 1
                if frame.get("type") != "ack":
                    continue
            ack_lat[int(frame["seq"])] = now - due[int(frame["seq"]) - 1]
            state["inflight"] -= FRAME
            state["acked"] += int(frame["applied"])
            state["last_ack"] = now
            credit_free.set()

    async def subscribe() -> None:
        while len(lines) < expected:
            line = await sub_r.readline()
            if not line:
                return
            if b'"type":"event"' in line:
                lines.append((time.perf_counter(), line))

    sub_task = asyncio.create_task(subscribe())
    await asyncio.wait_for(asyncio.gather(produce(), read_acks()), timeout=120)
    try:
        await asyncio.wait_for(sub_task, timeout=10)
    except asyncio.TimeoutError:
        pass  # missing events are counted by the comparison
    cpu = proc_cpu_seconds(pid) - cpu0
    for writer in (prod_w, sub_w):
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return {"due": due, "late": late, "ack_lat": ack_lat, "lines": lines,
            "cpu": cpu, "acked": state["acked"], "errors": state["errors"],
            "elapsed": state["last_ack"] - t0}


class _DepthSampler(threading.Thread):
    """Samples the engine's ingest queue depth from ``/metrics``."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.peak = 0.0
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(0.1):
            depth = scrape(self.port).get("service_ingest_queue_depth", 0.0)
            self.peak = max(self.peak, depth)


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.service import protocol

    values = make_values(seed)
    expected, ref_events = expected_lines(values)
    if not expected:
        raise RuntimeError("reference produced no events; the check is void")
    frames = [
        protocol.encode_frame({"type": "push", "seq": k + 1,
                               "values": [float(v) for v in chunk]})
        for k, chunk in enumerate(frames_of(values))
    ]
    hygiene = Hygiene()
    layers = LayerTrace() if trace else None
    base = WORK / f"service-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)

    measured, traced_rounds = Rounds(), Rounds()
    rss: List[float] = []
    late_all: List[float] = []
    svc = {"apply": [], "ack": [], "depth": [], "evictions": 0.0,
           "ckpt_ms": [], "ckpt_bytes": [], "ckpt_count": []}
    attempted = 0
    failures = {"mismatched_events": 0, "late_events": 0, "refused_frames": 0,
                "unclean_stop": 0}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < 3 or time.perf_counter() < deadline:
        rounds += 1
        traced = trace and rounds % 2 == 0
        ckpt = base / f"round-{rounds}"
        probes = (base / f"spans-{rounds}.json", base / f"ckpt-{rounds}.log")
        started = time.perf_counter()
        proc, port = start_server(ckpt, base / f"server-{rounds}.log",
                                  probes if traced else None)
        try:
            register_query(port)
            setup = time.perf_counter() - started
            sampler = _DepthSampler(port) if traced else None
            if sampler is not None:
                sampler.start()
            leg = asyncio.run(open_loop(port, proc.pid, frames, len(expected)))
            if sampler is not None:
                sampler.stop.set()
                sampler.join(timeout=10)
                scraped = scrape(port)
            rss.append(peak_rss_mib(proc.pid))
        finally:
            stopped = stop_server(proc)
        attempted += 1
        failures["unclean_stop"] += 0 if stopped else 1

        ticks = leg["acked"]
        attempted += len(frames)
        failures["refused_frames"] += leg["errors"] + (len(frames) * FRAME - ticks) // FRAME
        late_all.extend(leg["late"])
        got = [line for _, line in leg["lines"]]
        attempted += len(expected)
        failures["mismatched_events"] += ordered_failures(expected, got)
        event_lat = {}
        for arrived, line in leg["lines"]:
            event = json.loads(line)
            latency = arrived - leg["due"][(int(event["match"]["output_time"]) - 1) // FRAME]
            event_lat[event["seq"]] = latency
            failures["late_events"] += latency > LATENCY_LIMIT
        (traced_rounds if traced else measured).add(
            1.0, setup, leg["elapsed"], leg["cpu"], ticks,
            leg["ack_lat"], event_lat,
        )

        if traced:
            svc["apply"].append(scraped["service_apply_latency_seconds_sum"]
                                / scraped["service_apply_latency_seconds_count"])
            svc["ack"].append(scraped["service_ack_latency_seconds_sum"]
                              / scraped["service_ack_latency_seconds_count"])
            svc["evictions"] += scraped.get("service_subscriber_evictions_total", 0.0)
            svc["depth"].append(sampler.peak)
            layers.add_spans(json.loads(probes[0].read_text())["spans"])
            layers.add_prune([0] * 5, ticks)
            writes = ckpt_probe.read(probes[1])
            svc["ckpt_count"].append(len(writes))
            if writes:
                svc["ckpt_ms"].append(1e3 * median([w[0] for w in writes]))
                svc["ckpt_bytes"].append(sum(w[1] for w in writes) / len(writes))
        hygiene.check([ckpt])
        shutil.rmtree(ckpt, ignore_errors=True)
    shutil.rmtree(base, ignore_errors=True)

    if layers is not None:
        layers.codec_from_run({STREAM: values}, ref_events, batch=FRAME)
        # Open loop: the offered rate is fixed, so the probe's cost shows
        # as server CPU per tick, not as throughput.
        layers.overhead(1.0 / measured.figures()["server_cpu_ms_per_ktick"],
                        1.0 / traced_rounds.figures()["server_cpu_ms_per_ktick"])
        layers.set("svc_engine.apply_ms_mean", 1e3 * median(svc["apply"]))
        layers.set("svc_engine.queue_depth_max", max(svc["depth"]))
        layers.set("server.ack_ms_mean", 1e3 * median(svc["ack"]))
        layers.set("server.handoff_ms_mean",
                   1e3 * (median(svc["ack"]) - median(svc["apply"])))
        layers.set("server.evictions", svc["evictions"])
        layers.set("gen.late_ms_p99", 1e3 * quantile(late_all, 0.99))
        layers.set("checkpoint.count", median(svc["ckpt_count"]))
        if svc["ckpt_ms"]:
            layers.set("checkpoint.write_ms_p50", median(svc["ckpt_ms"]))
            layers.set("checkpoint.bytes_mean", median(svc["ckpt_bytes"]))
    attempted += hygiene.checks
    failed = sum(failures.values()) + len(hygiene.leaks)
    metrics, detail = end_to_end(measured, median(rss))
    detail.update({
        "rounds": rounds,
        "offered_ticks_per_s": RATE,
        "ticks_per_round": TICKS,
        "reference_events_per_round": len(expected),
        "failures": failures,
        "generator_late_ms_p50_p99": [1e3 * quantile(late_all, 0.5),
                                      1e3 * quantile(late_all, 0.99)],
        "leaks": hygiene.leaks,
    })
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failed": failed, "detail": detail}
