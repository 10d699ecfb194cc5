"""Crash-consistent snapshot management for supervised monitors.

:class:`CheckpointManager` turns :func:`repro.core.checkpoint.save_monitor`
into something a process can die on top of:

* **Atomic, durable snapshots.**  Each snapshot is serialised to a temp
  file in the same directory, fsynced, ``os.replace``-d into place, and
  the directory entry is fsynced too — a reader (including a restarted
  run) never observes a half-written file, and a power cut right after
  the rename cannot roll the newest snapshot back out of the listing.
* **Monotonic watermarks.**  A snapshot is named by the total tick count
  it covers (``checkpoint-000000000042.json``); the directory listing
  *is* the recovery log, newest first.
* **Tolerant recovery.**  :meth:`latest` walks snapshots newest-first
  and skips anything unreadable (a crash mid-``os.replace`` on exotic
  filesystems, manual truncation, cosmic rays), falling back to the
  previous good one — so recovery succeeds whenever at least one intact
  snapshot exists.

The snapshot payload carries, besides the serialised monitor, the exact
replay cursor (per-stream tick counts) and the number of events emitted
up to the watermark — everything :class:`~repro.runtime.SupervisedRunner`
needs to resume and re-emit a byte-identical event suffix.

Cold-parked pruning state (the admission cascade's replay buffers and
parked offsets, see :mod:`repro.core.fused`) rides inside the monitor
payload itself: a snapshot taken mid-park resumes mid-park, and the
replayed event suffix is byte-identical whether the restored process
runs with pruning enabled or disabled.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.core.checkpoint import load_monitor, save_monitor
from repro.exceptions import CheckpointError, ValidationError
from repro.obs.recorder import NULL_RECORDER

__all__ = ["CheckpointManager"]

_SNAPSHOT_VERSION = 1
_PREFIX = "checkpoint-"
_SUFFIX = ".json"


class CheckpointManager:
    """Write, rotate, and recover atomic monitor snapshots.

    Parameters
    ----------
    directory:
        Snapshot directory; created on first save.
    keep:
        How many most-recent snapshots to retain (older ones are pruned
        after each successful save).  At least 2 is recommended so a
        corrupt newest file still leaves a recovery point.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        keep: int = 3,
        *,
        os_module=os,
    ) -> None:
        self.directory = Path(directory)
        keep = int(keep)
        if keep < 1:
            raise ValidationError(f"keep must be >= 1, got {keep}")
        self.keep = keep
        # Observability gate: when a recorder is attached (the
        # supervised runner shares its monitor's), save/resume publish
        # write/restore timings and serialized byte counts.
        self.recorder = NULL_RECORDER
        # Injectable os facade so durability-ordering tests can observe
        # (or fail) the fsync/replace sequence without monkeypatching
        # the real module globally.
        self._os = os_module

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def save(
        self,
        monitor,
        watermark: int,
        stream_ticks: Optional[Dict[str, int]] = None,
        events_emitted: int = 0,
        extra: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Atomically persist a snapshot at ``watermark`` total ticks.

        ``extra`` is an optional JSON-safe dict stored verbatim in the
        payload and handed back via :meth:`resume` — the sharded runtime
        uses it to record which live-lifecycle commands a worker had
        already applied at the watermark.
        """
        watermark = int(watermark)
        if watermark < 0:
            raise ValidationError(f"watermark must be >= 0, got {watermark}")
        started = perf_counter() if self.recorder.enabled else 0.0
        payload = {
            "snapshot_version": _SNAPSHOT_VERSION,
            "watermark": watermark,
            "stream_ticks": {
                str(k): int(v) for k, v in (stream_ticks or {}).items()
            },
            "events_emitted": int(events_emitted),
            "monitor": save_monitor(monitor),
        }
        if extra is not None:
            payload["extra"] = dict(extra)
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.directory / f"{_PREFIX}{watermark:012d}{_SUFFIX}"
        tmp = final.with_suffix(final.suffix + ".tmp")
        data = json.dumps(payload, allow_nan=False)
        with open(tmp, "w") as handle:
            handle.write(data)
            handle.flush()
            self._os.fsync(handle.fileno())
        self._os.replace(tmp, final)
        self._fsync_directory()
        self._prune()
        if self.recorder.enabled:
            self.recorder.record_checkpoint_write(
                perf_counter() - started, len(data)
            )
        return final

    def _fsync_directory(self) -> None:
        """Make the renamed snapshot's directory entry durable.

        ``os.replace`` guarantees atomicity but not durability: on a
        crash right after the rename, the *file* data is safe (it was
        fsynced) yet the directory entry can still be lost, silently
        rolling recovery back to the previous snapshot.  Fsyncing the
        directory fd closes that window on POSIX filesystems.
        """
        flags = getattr(self._os, "O_DIRECTORY", None)
        if flags is None:  # pragma: no cover - non-POSIX platforms
            return
        fd = self._os.open(str(self.directory), flags | self._os.O_RDONLY)
        try:
            self._os.fsync(fd)
        finally:
            self._os.close(fd)

    def _prune(self) -> None:
        snapshots = self.snapshots()
        for stale in snapshots[: -self.keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - already gone / locked
                pass

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshots(self) -> List[Path]:
        """Snapshot files, oldest first (watermark order)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.name.startswith(_PREFIX) and p.name.endswith(_SUFFIX)
        )

    def latest(self) -> Optional[Dict[str, object]]:
        """Newest *readable* snapshot payload, or None when none exist.

        Unreadable or structurally invalid files are skipped — the point
        of crash consistency is that a bad newest file falls back to the
        previous good one rather than wedging recovery.
        """
        for path in reversed(self.snapshots()):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if (
                isinstance(payload, dict)
                and payload.get("snapshot_version") == _SNAPSHOT_VERSION
                and "monitor" in payload
                and "watermark" in payload
            ):
                return payload
        return None

    def resume(
        self,
        prune: bool = True,
        prune_buffer: int = 1024,
        backend=None,
    ) -> Tuple[object, Dict[str, object]]:
        """Restore ``(monitor, snapshot_meta)`` from the newest snapshot.

        ``snapshot_meta`` is the payload minus the monitor state:
        ``watermark``, ``stream_ticks`` and ``events_emitted``.  Raises
        :class:`~repro.exceptions.CheckpointError` when no readable
        snapshot exists.  ``prune`` / ``prune_buffer`` configure the
        restored monitor's admission cascade; snapshots taken mid-park
        carry their cold-parked pruning state inside the monitor payload
        and resume to byte-identical events with either setting.
        ``backend`` selects the restored monitor's kernel backend — a
        runtime property that snapshots never record, like each bank's
        admission strategy; restoring under a different backend than
        the writer's yields byte-identical future events.
        """
        started = perf_counter() if self.recorder.enabled else 0.0
        payload = self.latest()
        if payload is None:
            raise CheckpointError(
                f"no readable checkpoint under {self.directory}"
            )
        monitor = load_monitor(
            payload["monitor"],
            prune=prune,
            prune_buffer=prune_buffer,
            backend=backend,
        )
        if self.recorder.enabled:
            self.recorder.record_checkpoint_restore(perf_counter() - started)
        meta = {
            "watermark": int(payload["watermark"]),  # type: ignore[arg-type]
            "stream_ticks": {
                str(k): int(v)
                for k, v in payload.get("stream_ticks", {}).items()  # type: ignore[union-attr]
            },
            "events_emitted": int(payload.get("events_emitted", 0)),  # type: ignore[arg-type]
            "extra": dict(payload.get("extra", {})),  # type: ignore[arg-type]
        }
        return monitor, meta
