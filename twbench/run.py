"""Repository benchmark: one checked workload per invocation.

Usage (from the root of a checkout)::

    python3 twbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``monitor-midsel``, ``monitor-lowsel``, ``service-open`` and
``sharded-2w`` (see the module of each: ``inproc.py``, ``service.py``,
``sharded.py``).  Inputs are generated from ``--seed``; each run repeats
rounds of a fixed seeded input for about ``--seconds`` seconds and
checks every round's output against an independent reference.

With ``--trace 0`` the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric instead (see
``layers.py``).  The line before it records the environment and the
run's sample counts.  Progress goes to standard error.

Everything the benchmark writes stays under ``.bench_build/twbench`` in
the checkout: the compiled-kernel disk cache, temp files and checkpoint
directories.  Without ``src/repro`` next to this directory the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import ckpt_probe

WORKLOADS = ("monitor-midsel", "monitor-lowsel", "service-open", "sharded-2w")


def _prepare() -> None:
    """Point the program's imports, kernel cache and temp files into the
    checkout, and compile (or load) the kernel before anything is timed."""
    from common import SRC, WORK

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"twbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CEXT_CACHE"] = str(WORK / "cext")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))

    from repro.core.backends import resolve_backend

    resolve_backend("auto")  # warms the cext disk cache


def _resolved() -> dict:
    from repro.core.admission import AUTO_GROUP_MIN_QUERIES
    from repro.core.backends import resolve_backend

    return {
        "backend": resolve_backend("auto").name,
        "admission": f"auto (grouped from {AUTO_GROUP_MIN_QUERIES} queries)",
    }


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, which the shard
    workers' shared memory starts and which would otherwise outlive this
    process briefly."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _prepare()
    from common import END_TO_END, environment, log

    if args.workload in ("monitor-midsel", "monitor-lowsel"):
        import inproc as module
    elif args.workload == "service-open":
        import service as module
    else:
        import sharded as module

    started = time.perf_counter()
    report = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    log(f"twbench: {args.workload} seed {args.seed} finished in "
        f"{time.perf_counter() - started:.1f} s")

    env = environment(_resolved())
    if args.workload == "sharded-2w" and (os.cpu_count() or 1) < 2:
        env["not_measured"] = "sharded-2w figures: nproc < 2 workers"
    metrics = report["layers"].metrics() if args.trace else report["metrics"]
    if not args.trace and set(metrics) != set(END_TO_END):
        raise RuntimeError(f"metric set mismatch: {sorted(metrics)}")
    _stop_resource_tracker()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": env, "detail": report["detail"]}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__mp_main__" and os.environ.get(ckpt_probe.ENV):
    # A shard worker spawned during a traced round: time its checkpoints.
    ckpt_probe.install(os.environ[ckpt_probe.ENV])

if __name__ == "__main__":
    sys.exit(main())
