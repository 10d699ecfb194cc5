"""Shared helpers: statistics, process accounting, hygiene, comparison.

Everything here observes the program from outside: ``/proc`` for CPU
time, peak memory and child processes, ``/dev/shm`` for shared-memory
segments and semaphores, and plain tuple comparison for events.
"""

from __future__ import annotations

import difflib
import gc
import math
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (cext disk cache, temp files,
#: checkpoint directories); ignored by git.
WORK = ROOT / ".bench_build" / "twbench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: End-to-end metric name -> unit, in print order (BENCHMARK.json agrees).
END_TO_END = {
    "throughput_ticks_per_s": "1/s",
    "batch_p99_ms": "ms",
    "event_p50_ms": "ms",
    "event_p99_ms": "ms",
    "server_cpu_ms_per_ktick": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``0 <= q <= 1``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of an empty sample")
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def item_medians(rounds: Sequence[Dict[object, float]]) -> List[float]:
    """Each item's median latency over the rounds it appears in.

    Every round replays one fixed input, so an item (a batch, an event)
    is the same work in every round; its median drops a stall that hit
    one round, and percentiles over the items then describe the input's
    own slow items, not the host's hiccups.
    """
    merged: Dict[object, List[float]] = {}
    for latencies in rounds:
        for key, value in latencies.items():
            merged.setdefault(key, []).append(value)
    return [median(values) for values in merged.values()]


class Rounds:
    """One run's per-round samples, and the end-to-end figures they give.

    ``factor`` is the round's host-speed factor (``speed.SpeedScale``, or
    1.0 for a workload that is not scaled): ``figures(scaled=True)``
    multiplies each duration by it and divides the rate by it;
    ``scaled=False`` gives the raw figures.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []

    def __len__(self) -> int:
        return len(self.records)

    def add(self, factor: float, setup_s: float, seconds: float, cpu_s: float,
            ticks: int, batches: Dict[object, float],
            events: Dict[object, float], variant: int = 0) -> None:
        """One round that processed input ``variant`` (``ticks`` ticks in
        ``seconds`` timed seconds); batch and event keys must be unique
        across variants."""
        self.records.append({"factor": factor, "setup": setup_s,
                             "seconds": seconds, "cpu": cpu_s, "ticks": ticks,
                             "batches": batches, "events": events,
                             "variant": variant})

    def figures(self, scaled: bool = True) -> Dict[str, float]:
        """Throughput (every input variant once, each at its median time),
        batch p99 and event p50/p99 (over items' medians across rounds),
        CPU per 1000 ticks (pooled: ``/proc`` counts CPU in 10 ms clock
        ticks) and set-up (median)."""
        def f(record):
            return record["factor"] if scaled else 1.0

        recs = self.records
        variants: Dict[int, List[dict]] = {}
        for x in recs:
            variants.setdefault(x["variant"], []).append(x)
        ticks = sum(group[0]["ticks"] for group in variants.values())
        seconds = sum(
            median([x["seconds"] * f(x) for x in group])
            for group in variants.values())
        batches = item_medians(
            [{k: v * f(x) for k, v in x["batches"].items()} for x in recs])
        events = item_medians(
            [{k: v * f(x) for k, v in x["events"].items()} for x in recs])
        return {
            "throughput_ticks_per_s": ticks / seconds,
            "batch_p99_ms": 1e3 * quantile(batches, 0.99),
            "event_p50_ms": 1e3 * quantile(events, 0.5),
            "event_p99_ms": 1e3 * quantile(events, 0.99),
            "server_cpu_ms_per_ktick": 1e6 * sum(x["cpu"] * f(x) for x in recs)
            / sum(x["ticks"] for x in recs),
            "setup_s": median([x["setup"] * f(x) for x in recs]),
            "batches_measured": len(batches),
            "events_measured": len(events),
        }


def end_to_end(rounds: Rounds, rss_mib: float):
    """(metrics, detail): every end-to-end metric scaled to the reference
    host speed, and the raw figures with the sample counts."""
    scaled = rounds.figures(True)
    raw = rounds.figures(False)
    metrics = {name: metric(scaled[name], unit) for name, unit in END_TO_END.items()
               if name in scaled}
    metrics["peak_rss_mb"] = metric(rss_mib, "MiB")
    factors = [x["factor"] for x in rounds.records]
    detail = {
        "raw": {name: raw[name] for name in END_TO_END if name in raw},
        "rounds_measured": len(rounds),
        "speed_factor_min_max": [min(factors), max(factors)],
        "batches_measured": scaled["batches_measured"],
        "events_measured": scaled["events_measured"],
    }
    return metrics, detail


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _processes() -> Dict[int, tuple]:
    """Every live process: pid -> (parent pid, state letter)."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                rest = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        found[int(entry)] = (int(rest[1]), rest[0])
    return found


def children() -> List[int]:
    """Live direct children of this process, except multiprocessing's
    resource tracker, which lives until interpreter exit by design."""
    pid = os.getpid()
    return [child for child, (parent, state) in _processes().items()
            if parent == pid and state != "Z"
            and "resource_tracker" not in cmdline(child)]


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def mapped_elsewhere(names: Iterable[str]) -> set:
    """The ``/dev/shm`` names that a live process outside this process's
    tree has mapped: another program's, not this run's.  Matched by inode,
    since glibc maps a semaphore under a temporary name it then renames."""
    inodes = {}
    for name in names:
        try:
            inodes[str(os.stat(f"/dev/shm/{name}").st_ino)] = name
        except OSError:
            pass
    if not inodes:
        return set()
    processes = _processes()
    tree = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, (parent, _) in processes.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    found = set()
    for pid in processes:
        if pid in tree:
            continue
        try:
            with open(f"/proc/{pid}/maps") as handle:
                for line in handle:
                    fields = line.split(None, 5)
                    if (len(fields) == 6 and fields[5].startswith("/dev/shm/")
                            and fields[4] in inodes):
                        found.add(inodes[fields[4]])
        except OSError:
            continue
    return found


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------

def shm_entries() -> set:
    """Names in ``/dev/shm``: POSIX shared memory and ``sem.*`` semaphores."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Hygiene:
    """Leak check between a baseline and the end of a round.

    Counts, as failed checks: child processes still alive, ``/dev/shm``
    entries that appeared, and checkpoint temp files (``*.tmp``) left
    under the watched directories.  Processes and ``/dev/shm`` entries
    get ``GRACE_S`` to go: multiprocessing unlinks a semaphore only when
    the last reference to it is collected, which can trail the round.
    An entry that a process outside this run's process tree has mapped
    belongs to another program on the host and is not counted.
    """

    GRACE_S = 2.0

    def __init__(self) -> None:
        self.shm = shm_entries()
        self.checks = 0
        self.leaks: List[str] = []

    def check(self, dirs: Iterable[Path] = ()) -> None:
        deadline = time.monotonic() + self.GRACE_S
        while True:
            procs, shm = children(), shm_entries() - self.shm
            shm -= mapped_elsewhere(shm)
            if not (procs or shm) or time.monotonic() > deadline:
                break
            gc.collect()
            time.sleep(0.05)
        for pid in procs:
            self.leaks.append(f"child process {pid}: {cmdline(pid)}")
        for name in sorted(shm):
            self.leaks.append(f"/dev/shm/{name}")
        for directory in dirs:
            if directory.is_dir():
                for tmp in directory.rglob("*.tmp"):
                    self.leaks.append(f"checkpoint temp file {tmp}")
        self.checks += 3


# ----------------------------------------------------------------------
# Event comparison
# ----------------------------------------------------------------------

def event_key(event) -> tuple:
    """Everything a MatchEvent reports, floats by exact bit pattern."""
    match = event.match
    return (
        event.stream,
        event.query,
        int(match.start),
        int(match.end),
        float(match.distance).hex(),
        None if match.output_time is None else int(match.output_time),
    )


def ordered_failures(expected: Sequence, got: Sequence) -> int:
    """Missing, extra, altered or misordered items between two logs.

    An altered item counts once; a moved item counts as one missing plus
    one extra.  Zero exactly when the logs are equal.
    """
    matcher = difflib.SequenceMatcher(None, expected, got, autojunk=False)
    failures = 0
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            failures += max(i2 - i1, j2 - j1)
    return failures


def multiset_failures(expected: Iterable, got: Iterable) -> int:
    """Missing plus extra items between two event multisets."""
    want, have = Counter(expected), Counter(got)
    return sum(((want - have) + (have - want)).values())


# ----------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------

def environment(extra: Dict[str, object]) -> Dict[str, object]:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    env.update(extra)
    return env


def metric(value: float, unit: str) -> Dict[str, object]:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": float(value), "unit": unit}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
