"""Run ``repro serve`` with tracing on and checkpoint writes timed.

Usage::

    python3 twbench/traced_serve.py SPANS.json CHECKPOINTS.log serve [options...]

Installs a process-wide tracer and the checkpoint-write probe
(``ckpt_probe.py``), then runs the program's own CLI entry point.  When
the server stops (SIGTERM), the span totals are written to
``SPANS.json``; checkpoint writes are appended to ``CHECKPOINTS.log``
as they happen.
"""

from __future__ import annotations

import json
import sys

import ckpt_probe


def main() -> int:
    spans_out, checkpoint_log, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from repro import cli
    from repro.obs import tracing

    ckpt_probe.install(checkpoint_log)
    tracer = tracing.enable_tracing(limit=2_000_000)
    try:
        return cli.main(argv)
    finally:
        tracing.disable_tracing()
        with open(spans_out, "w") as handle:
            json.dump({"spans": tracer.totals(), "dropped": tracer.dropped},
                      handle)


if __name__ == "__main__":
    sys.exit(main())
