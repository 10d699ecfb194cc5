"""Times the public ``CheckpointManager.save`` from outside the program.

:func:`install` wraps the method in the calling process; every write
then appends ``"<seconds> <bytes>"`` to a log file, so processes the
benchmark does not control directly (the server, shard workers) can
report their checkpoint writes.  Small appends are atomic, so several
processes may share one log.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

#: Set in a process's environment to install the probe at start-up.
ENV = "TWBENCH_CHECKPOINT_LOG"


def install(log: str) -> None:
    from repro.runtime.checkpointer import CheckpointManager

    save = CheckpointManager.save

    def timed_save(self, *args, **kwargs):
        started = time.perf_counter()
        path = save(self, *args, **kwargs)
        elapsed = time.perf_counter() - started
        with open(log, "a") as handle:
            handle.write(f"{elapsed!r} {path.stat().st_size}\n")
        return path

    CheckpointManager.save = timed_save


def read(log: Path) -> List[Tuple[float, int]]:
    """Recorded ``(seconds, bytes)`` writes; empty when none happened."""
    if not log.is_file():
        return []
    return [(float(s), int(b)) for s, b in
            (line.split() for line in log.read_text().splitlines())]
